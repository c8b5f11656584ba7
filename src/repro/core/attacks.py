"""Adversarial actors.

Each class drives a concrete attack from the paper's threat analysis
(Section V-C) against a live system, so tests and examples can show the
attack *executing* and the defence *holding*:

- :class:`FreeRiderWorker` — watches the public mempool, copies a
  victim's broadcast ciphertext and resubmits it as his own;
- :class:`MultiSubmissionWorker` — one identity, many one-task
  addresses, multiple answers to one task;
- :class:`FalseReportingRequester` — tries to underpay via a cheating
  instruction, a forged proof, or by stonewalling;
- :class:`SelfColludingRequester` — submits an answer to her own task
  to downgrade the workers' majority.
"""

from __future__ import annotations

import random
from dataclasses import replace
from typing import List, Optional, Sequence

from repro.crypto.hashing import sha256
from repro.errors import ProofError, UnsatisfiedConstraintError
from repro.chain.receipts import Receipt
from repro.chain.transaction import encode_call
from repro.serialization import decode
from repro.core.anonymity import derive_one_task_account
from repro.core.encryption import AnswerCiphertext
from repro.core.protocol import DEFAULT_GAS_PRICE, TaskHandle, client_transaction
from repro.core.requester import Requester
from repro.core.reward_circuit import CiphertextEntry, build_reward_instance
from repro.core.worker import Worker


class FreeRiderWorker(Worker):
    """A registered but lazy worker who plagiarizes from the mempool.

    The blockchain broadcasts submissions before they are mined, so the
    free-rider can read a victim's ciphertext in flight.  Because
    answers are encrypted he cannot learn or re-randomize the content —
    his only move is a verbatim copy, which he *can* authenticate (he
    holds a valid certificate).  The task contract's duplicate check
    (the "independence" requirement) rejects it.
    """

    def steal_pending_ciphertext(self, task_address: bytes) -> Optional[bytes]:
        """Grab a pending submit_answer ciphertext for the task, if any."""
        for stx in self.system.testnet.network.pending_transactions():
            if stx.transaction.to != task_address or not stx.transaction.data:
                continue
            try:
                kind, method, args = decode(stx.transaction.data)
            except ValueError:
                continue
            if kind == "call" and method == "submit_answer":
                return args[0]
        return None

    def submit_copied_ciphertext(
        self, task_address: bytes, ciphertext_wire: bytes
    ) -> Receipt:
        """Resubmit someone else's ciphertext under a fresh valid attestation."""
        system = self.system
        account = derive_one_task_account(self._seed, f"task:{task_address.hex()}")
        system.fund_anonymous(account.address, near=task_address)
        data = system.answer_calldata(
            self.keys, task_address, account.address, ciphertext_wire
        )
        tx = replace(
            client_transaction(
                system.node.nonce_of(account.address), task_address, data
            ),
            gas_price=DEFAULT_GAS_PRICE + 1,  # try to front-run the victim
        )
        return system.send_and_confirm(tx.sign(account.keypair))

    def replay_raw_transaction(self, victim_tx) -> bool:
        """Re-broadcast the victim's exact signed transaction.

        Returns True if the network accepted it as *new* traffic —
        which it never does: the replay is byte-identical (same hash,
        same nonce), so it cannot create a second submission.
        """
        node = self.system.node
        before = node.mempool.contains(victim_tx.tx_hash)
        self.system.testnet.send_transaction(victim_tx)
        return not before and node.mempool.contains(victim_tx.tx_hash)


class MultiSubmissionWorker(Worker):
    """Submits k > 1 answers to one task from unlinkable fresh addresses."""

    def submit_many(
        self, handle: TaskHandle, answers: Sequence[Sequence[int]]
    ) -> List[Receipt]:
        """Attempt every submission; returns all receipts (reverts included)."""
        receipts = []
        system = self.system
        task_address = handle.address
        for attempt, answer_fields in enumerate(answers):
            account = derive_one_task_account(
                self._seed, f"task:{task_address.hex()}:sybil-{attempt}"
            )
            system.fund_anonymous(account.address, near=task_address)
            epk = self.read_task_epk(task_address)
            rng = random.Random(attempt + 7)
            from repro.core.encryption import encrypt_answer

            ciphertext = encrypt_answer(epk, list(answer_fields), system.mimc, rng)
            data = system.answer_calldata(
                self.keys, task_address, account.address, ciphertext.to_wire()
            )
            tx = client_transaction(
                system.node.nonce_of(account.address), task_address, data
            )
            receipts.append(system.send_and_confirm(tx.sign(account.keypair)))
        return receipts


def prepare_equivocation(
    worker: Worker,
    handle: TaskHandle,
    answer_fields: Sequence[int],
    attempt: int = 1,
):
    """Build (but do not send) an equivocating second submission.

    The engine-scale variant of :class:`MultiSubmissionWorker`: a
    worker who already submitted honestly signs a *conflicting* answer
    from a fresh sybil one-task address.  Returns ``(account, tx)`` so
    a scheduler can fund the sybil address in its normal worker wave
    and broadcast the transaction asynchronously — the contract's Link
    check must revert it while the honest sibling submission lands.
    """
    system = worker.system
    task_address = handle.address
    account = derive_one_task_account(
        worker._seed, f"task:{task_address.hex()}:equivocate-{attempt}"
    )
    epk = worker.read_task_epk(task_address)
    rng = random.Random(
        int.from_bytes(
            sha256(b"equivocate", task_address, attempt.to_bytes(4, "big")), "big"
        )
    )
    from repro.core.encryption import encrypt_answer

    ciphertext = encrypt_answer(epk, list(answer_fields), system.mimc, rng)
    data = system.answer_calldata(
        worker.keys, task_address, account.address, ciphertext.to_wire()
    )
    # Fresh one-task account: first and only transaction.
    return account, client_transaction(0, task_address, data)


class FalseReportingRequester(Requester):
    """A requester who tries every way to not pay what the policy owes."""

    def attempt_cheating_instruction(
        self, handle: TaskHandle, rewards: Sequence[int]
    ) -> str:
        """Try to push an arbitrary reward vector.

        Returns a short outcome string: the SNARK prover refuses to
        certify a false instruction, and a proof borrowed from another
        statement is rejected on-chain.
        """
        system = self.system
        answers, keys, flags = self.decrypt_answers(handle)
        count = len(answers)
        wires = system.node.call(handle.address, "get_ciphertexts")
        entries = [
            CiphertextEntry.from_ciphertext(
                AnswerCiphertext.from_wire(wire), ok=bool(flag)
            )
            for wire, flag in zip(wires, flags)
        ]
        try:
            instance = build_reward_instance(
                policy=handle.policy,
                budget=handle.params.budget,
                keys=keys,
                answers=answers,
                mimc=system.mimc,
                entries=entries,
                rewards=list(rewards),
            )
            circuit, reward_keys = system.reward_material(handle.policy, count)
            system.backend.prove(reward_keys.proving_key, circuit, instance)
        except (ProofError, UnsatisfiedConstraintError):
            return "prover-refused"
        return "proof-produced"  # would indicate a soundness break

    def attempt_forged_proof(
        self, handle: TaskHandle, rewards: Sequence[int]
    ) -> Receipt:
        """Send a garbage proof with a cheating reward vector on-chain."""
        system = self.system
        count = len(system.node.call(handle.address, "get_ciphertexts"))
        fake_payload = sha256(b"forged", bytes(8)) * 8
        tx = self._task_transaction(
            handle,
            "submit_reward_instruction",
            [list(rewards), [1] * count, system.backend_name, fake_payload[:256]],
        )
        return system.send_and_confirm(tx.sign(self.task_account(handle).keypair))

    def stonewall(self, handle: TaskHandle) -> None:
        """Simply never send an instruction (the contract's timeout bites)."""


class SelfColludingRequester(Requester):
    """Tries to downgrade workers by answering her own task.

    She holds exactly one certified identity; her requester attestation
    π_R already sits in the task's Link pool with the same prefix α_C,
    so any answer she authenticates herself links to π_R and is dropped
    (Algorithm 1 line 8, ``Link(π_i, π_R)``).
    """

    def attempt_colluding_answer(
        self, handle: TaskHandle, answer_fields: Sequence[int]
    ) -> Receipt:
        system = self.system
        task_address = handle.address
        account = derive_one_task_account(self._seed, f"collude:{task_address.hex()}")
        system.fund_anonymous(account.address, near=task_address)
        epk_wire = system.node.call(task_address, "get_epk")
        from repro.crypto.rsa import RSAPublicKey
        from repro.core.encryption import encrypt_answer

        n, e = decode(epk_wire)
        epk = RSAPublicKey(n=n, e=e)
        ciphertext = encrypt_answer(
            epk, list(answer_fields), system.mimc, random.Random(99)
        )
        data = system.answer_calldata(
            self.keys, task_address, account.address, ciphertext.to_wire()
        )
        tx = client_transaction(
            system.node.nonce_of(account.address), task_address, data
        )
        return system.send_and_confirm(tx.sign(account.keypair))


class BidSniper(Worker):
    """Watches a listing's open bid pool, then underbids after the close.

    Bids are public the moment they land, so a sniper CAN observe every
    (tag, stake) pair and compute exactly what it would take to win —
    but the board checks ``block_number <= bid_deadline`` before
    anything else, so knowledge arriving after the deadline is
    worthless: the snipe reverts with "bidding closed" and the observed
    pool settles untouched.
    """

    def observe_pool(self, board_address: bytes, listing_id: int):
        """Everything the chain reveals about the standing bids."""
        listing = self.system.node.call(board_address, "get_listing", [listing_id])
        return [(bid["tag"], bid["stake"]) for bid in listing["bids"]]

    def attempt_snipe(
        self, board_address: bytes, listing_id: int, stake: int
    ) -> Receipt:
        """Fire a perfectly-formed late bid (only its timing is wrong)."""
        from repro.contracts.marketplace import bid_message

        system = self.system
        account = self.board_account(board_address)
        attestation = system.attest(
            self.keys, bid_message(board_address, account.address, listing_id, stake)
        )
        system.fund_anonymous(account.address, near=board_address)
        system.fund_anonymous(account.address, stake, near=board_address)
        tx = client_transaction(
            system.node.nonce_of(account.address),
            board_address,
            encode_call("place_bid", [listing_id, stake, attestation.to_wire()]),
            stake,
        )
        return system.send_and_confirm(tx.sign(account.keypair))


class ReputationFarmer:
    """Splits one stake over k freshly certified sybil credentials.

    Re-registering IS possible (the RA certifies any new key), but a
    fresh credential's board tag is fresh too — the common-prefix PRF
    makes reputation non-transferable — so every sybil starts at score
    zero and multiplier 1.0.  k bids of stake S/k therefore each score
    strictly below the single bid of stake S they were split from:
    farming buys nothing, and an established handle beats the whole
    swarm at equal total stake.
    """

    def __init__(self, system, identity: str = "farmer", count: int = 3) -> None:
        self.system = system
        self.sybils = [
            Worker(system, f"{identity}-sybil-{i}") for i in range(count)
        ]

    def handle_tags(self, board_address: bytes) -> List[int]:
        return [sybil.handle_tag(board_address) for sybil in self.sybils]

    def flood_bids(
        self, board_address: bytes, listing_id: int, total_stake: int
    ) -> List[Receipt]:
        """Bid the split stake from every sybil (all perfectly valid)."""
        share = total_stake // len(self.sybils)
        return [
            sybil.place_bid(board_address, listing_id, share)
            for sybil in self.sybils
        ]


class DisputeGriefer(Requester):
    """Disputes flawless delivered work, hoping to claw back the bonus.

    The dispute itself is admissible (the board cannot pre-judge
    quality), but the verdict is a pure function of the SNARK-committed
    reward vector: with every claimed slot rewarded the dispute is
    ruled frivolous, the workers keep the full bonus, AND they split
    the griefer's bond — so griefing has strictly negative expected
    value.
    """

    def grief(self, board_address: bytes, listing_id: int) -> Receipt:
        """Open the frivolous dispute (bond posted like any disputer)."""
        return self.open_dispute(board_address, listing_id)
