"""Requester / Worker client behaviours not covered by the e2e flows."""

from __future__ import annotations

import pytest

from repro.errors import ProtocolError
from repro.core import MajorityVotePolicy, Requester, Worker

POLICY = MajorityVotePolicy(num_choices=4)


def test_clients_register_on_construction(zebra_system) -> None:
    before = zebra_system.authority.registered_count
    Requester(zebra_system, "reg-r")
    Worker(zebra_system, "reg-w")
    assert zebra_system.authority.registered_count == before + 2


def test_duplicate_identity_rejected(zebra_system) -> None:
    from repro.errors import RegistrationError

    Requester(zebra_system, "dup-identity")
    with pytest.raises(RegistrationError):
        Worker(zebra_system, "dup-identity")


def test_task_handle_views(zebra_system) -> None:
    requester = Requester(zebra_system, "views-r")
    task = requester.publish_task(POLICY, "views", num_answers=2, budget=200)
    assert task.phase() == "collecting"
    assert task.answer_count() == 0
    assert task.rewards() == []
    assert task.submitters() == []
    assert task.balance() == 200
    assert not task.is_collection_closed()


def test_worker_validates_budget_actually_deposited(zebra_system) -> None:
    requester = Requester(zebra_system, "honest-looking")
    task = requester.publish_task(POLICY, "t", num_answers=1, budget=100)
    worker = Worker(zebra_system, "careful")
    params = worker.validate_task(task.address)
    assert params.budget == 100


def test_worker_epk_fingerprint_check(zebra_system) -> None:
    requester = Requester(zebra_system, "fp-r")
    task = requester.publish_task(POLICY, "t", num_answers=1, budget=100)
    worker = Worker(zebra_system, "fp-w")
    epk = worker.read_task_epk(task.address)
    assert epk.fingerprint() == task.params.encryption_key_fingerprint


def test_decrypt_answers_before_any_submission(zebra_system) -> None:
    requester = Requester(zebra_system, "empty-r")
    task = requester.publish_task(POLICY, "t", num_answers=1, budget=100)
    answers, keys, flags = requester.decrypt_answers(task)
    assert answers == [] and keys == [] and flags == []
    with pytest.raises(ProtocolError):
        requester.evaluate_and_reward(task)


def test_worker_keeps_submission_records(zebra_system) -> None:
    requester = Requester(zebra_system, "rec-r")
    worker = Worker(zebra_system, "rec-w")
    task_a = requester.publish_task(POLICY, "a", num_answers=1, budget=100)
    task_b = requester.publish_task(POLICY, "b", num_answers=1, budget=100)
    worker.submit_answer(task_a, [1])
    worker.submit_answer(task_b, [2])
    assert len(worker.submissions) == 2
    assert worker.submissions[0].task_address == task_a.address
    assert worker.submissions[1].task_address == task_b.address
    assert (
        worker.submissions[0].account_address
        != worker.submissions[1].account_address
    )


def test_requester_task_counter_gives_distinct_accounts(zebra_system) -> None:
    requester = Requester(zebra_system, "ctr-r")
    task_a = requester.publish_task(POLICY, "a", num_answers=1, budget=100)
    task_b = requester.publish_task(POLICY, "b", num_answers=1, budget=100)
    node = zebra_system.node
    assert node.call(task_a.address, "get_requester") != node.call(
        task_b.address, "get_requester"
    )


def test_reward_material_cached(zebra_system) -> None:
    circuit_a, keys_a = zebra_system.reward_material(POLICY, 3)
    circuit_b, keys_b = zebra_system.reward_material(POLICY, 3)
    assert circuit_a is circuit_b and keys_a is keys_b
    circuit_c, _ = zebra_system.reward_material(POLICY, 4)
    assert circuit_c is not circuit_a
    other_policy = MajorityVotePolicy(num_choices=3)
    circuit_d, _ = zebra_system.reward_material(other_policy, 3)
    assert circuit_d is not circuit_a


def test_submit_answer_accepts_raw_address(zebra_system) -> None:
    requester = Requester(zebra_system, "addr-r")
    worker = Worker(zebra_system, "addr-w")
    task = requester.publish_task(POLICY, "t", num_answers=1, budget=100)
    record = worker.submit_answer(task.address, [0])  # bytes, not handle
    assert record.receipt.success


def test_transact_funds_then_calls_on_the_target_shard() -> None:
    """On a 2-shard chain the caller lands on the contract's shard, and
    the gas transfer, then the value transfer, precede each call, which
    goes out at the account's chain nonce."""
    from repro.chain.transaction import encode_call
    from repro.core.anonymity import derive_one_task_account
    from repro.core.engine import engine_system
    from repro.core.market import Arbiter, board_config, deploy_marketplace
    from repro.core.protocol import DEFAULT_GAS_ALLOWANCE

    system = engine_system(1, 1, shards=2, seed=b"transact-on-shards")
    chain = system.testnet
    board = deploy_marketplace(system, Arbiter(system).address, board_config())
    home = chain.shard_of(board)
    # A caller whose own home shard is the other one.
    account = next(
        a
        for a in (derive_one_task_account(b"caller", f"c{i}") for i in range(64))
        if chain.shard_of(a.address) != home
    )
    escrow = 30 + 5
    for listing in range(2):
        receipt = system.transact(
            account,
            board,
            encode_call("post_task", [f"listing {listing}", 2, 600, 30, 5]),
            escrow,
        )
        assert receipt.success, receipt.error
    assert chain.shard_of(account.address) == home

    def touching(shard: int):
        node = chain.shard(shard).any_node
        return [
            stx
            for block in node.canonical_blocks(1, node.height)
            for stx in block.transactions
            if account.address in (stx.sender, stx.transaction.to)
        ]

    assert touching(1 - home) == []
    steps = [
        ("fund", stx.transaction.value)
        if stx.transaction.to == account.address
        else ("call", stx.transaction.nonce, stx.transaction.value)
        for stx in touching(home)
    ]
    assert steps == [
        ("fund", DEFAULT_GAS_ALLOWANCE), ("fund", escrow), ("call", 0, escrow),
        ("fund", DEFAULT_GAS_ALLOWANCE), ("fund", escrow), ("call", 1, escrow),
    ]
