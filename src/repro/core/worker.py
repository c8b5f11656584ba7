"""The worker client (the off-chain half of Fig. 3, worker side).

Drives AnswerCollection: validates the task contract, encrypts the
answer under the task's epk, anonymously authenticates
α_C ‖ α_i ‖ C_i, and submits from a fresh one-task address.
"""

from __future__ import annotations

import random
from dataclasses import dataclass
from typing import List, Optional, Sequence

from repro import observability as obs
from repro.crypto.hashing import sha256
from repro.crypto.rsa import RSAPublicKey
from repro.errors import ProtocolError
from repro.anonauth.keys import UserKeyPair
from repro.chain.receipts import Receipt
from repro.chain.transaction import Transaction, encode_call
from repro.core.anonymity import OneTaskAccount, derive_one_task_account
from repro.core.encryption import encrypt_answer
from repro.core.params import TaskParameters
from repro.core.protocol import TaskHandle, ZebraLancerSystem, client_transaction
from repro.serialization import decode
from repro.anonauth.scheme import task_prefix


@dataclass
class SubmissionRecord:
    """What a worker remembers about one submission (to claim rewards)."""

    task_address: bytes
    account_address: bytes
    receipt: Receipt


@dataclass
class PreparedSubmission:
    """A built (but unsent) answer submission.

    Produced by :meth:`Worker.prepare_submission`; the scheduler funds
    ``account.address`` with gas, broadcasts ``transaction`` alongside
    other tasks' traffic, and hands the receipt back to
    :meth:`Worker.complete_submission`.
    """

    task_address: bytes
    account: "OneTaskAccount"
    transaction: Transaction


class Worker:
    """A registered worker."""

    def __init__(
        self,
        system: ZebraLancerSystem,
        identity: str,
        seed: Optional[bytes] = None,
        register: bool = True,
    ) -> None:
        self.system = system
        self.identity = identity
        self._seed = seed if seed is not None else sha256(b"worker", identity.encode())
        self.keys = UserKeyPair.generate(system.mimc, seed=self._seed + b"|id")
        #: ``register=False`` defers RA onboarding to a batch
        #: (``system.register_participants``).
        self.certificate = (
            system.register_participant(identity, self.keys.public_key)
            if register
            else None
        )
        self.submissions: List[SubmissionRecord] = []

    # ----- task inspection ------------------------------------------------------------

    def read_task(self, task_address: bytes) -> TaskParameters:
        raw = self.system.node.call(task_address, "get_params")
        return TaskParameters.from_storage(raw)

    def read_task_epk(self, task_address: bytes) -> RSAPublicKey:
        wire = self.system.node.call(task_address, "get_epk")
        n, e = decode(wire)
        return RSAPublicKey(n=n, e=e)

    def validate_task(self, task_address: bytes) -> TaskParameters:
        """A worker's due diligence before contributing.

        Checks the parameters parse, the budget is actually held by the
        contract, the announced epk matches its fingerprint, and the
        task is still collecting.
        """
        params = self.read_task(task_address)
        node = self.system.node
        if node.balance_of(task_address) < params.budget:
            raise ProtocolError("contract does not hold the announced budget")
        epk = self.read_task_epk(task_address)
        if epk.fingerprint() != params.encryption_key_fingerprint:
            raise ProtocolError("epk does not match the announced fingerprint")
        if node.call(task_address, "get_phase") != "collecting":
            raise ProtocolError("task is not accepting answers")
        if node.call(task_address, "is_collection_closed"):
            raise ProtocolError("task already collected its answers")
        return params

    # ----- AnswerCollection --------------------------------------------------------------

    def submit_answer(
        self,
        handle_or_address,
        answer_fields: Sequence[int],
        validate: bool = True,
    ) -> SubmissionRecord:
        """Encrypt, authenticate and submit one answer."""
        task_address = (
            handle_or_address.address
            if isinstance(handle_or_address, TaskHandle)
            else handle_or_address
        )
        with obs.span(
            "protocol.submit", worker=self.identity, task=task_address.hex()
        ):
            record = self._submit_answer(task_address, answer_fields, validate)
        if obs.TRACER.enabled:
            obs.count("protocol.submissions")
        return record

    def _submit_answer(
        self,
        task_address: bytes,
        answer_fields: Sequence[int],
        validate: bool,
    ) -> SubmissionRecord:
        system = self.system
        prepared = self.prepare_submission(task_address, answer_fields, validate)
        system.fund_anonymous(prepared.account.address, near=task_address)
        receipt = system.send_reliable(
            prepared.transaction, prepared.account.keypair
        )
        return self.complete_submission(prepared, receipt)

    def prepare_submission(
        self,
        handle_or_address,
        answer_fields: Sequence[int],
        validate: bool = True,
    ) -> PreparedSubmission:
        """Encrypt and authenticate an answer without funding/sending.

        The caller must fund ``prepared.account.address`` for gas
        before broadcasting ``prepared.transaction``.
        """
        task_address = (
            handle_or_address.address
            if isinstance(handle_or_address, TaskHandle)
            else handle_or_address
        )
        system = self.system
        params = (
            self.validate_task(task_address)
            if validate
            else self.read_task(task_address)
        )
        if len(answer_fields) != params.answer_arity:
            raise ProtocolError(
                f"task expects {params.answer_arity} answer fields, "
                f"got {len(answer_fields)}"
            )
        account = derive_one_task_account(self._seed, f"task:{task_address.hex()}")

        epk = self.read_task_epk(task_address)
        rng = random.Random(
            int.from_bytes(
                sha256(self._seed, task_address, b"answer-encryption"), "big"
            )
        )
        ciphertext = encrypt_answer(epk, list(answer_fields), system.mimc, rng)
        data = system.answer_calldata(
            self.keys, task_address, account.address, ciphertext.to_wire()
        )
        tx = client_transaction(
            system.node.nonce_of(account.address), task_address, data
        )
        return PreparedSubmission(
            task_address=task_address, account=account, transaction=tx
        )

    def complete_submission(
        self, prepared: PreparedSubmission, receipt: Receipt
    ) -> SubmissionRecord:
        """Adopt a confirmed submission receipt into this worker."""
        record = SubmissionRecord(
            task_address=prepared.task_address,
            account_address=prepared.account.address,
            receipt=receipt,
        )
        self.submissions.append(record)
        return record

    def reward_received(self, task_address: bytes) -> int:
        """The balance sitting on this worker's one-task address."""
        account = derive_one_task_account(self._seed, f"task:{task_address.hex()}")
        return self.system.node.balance_of(account.address)

    # ----- open marketplace -----------------------------------------------------------

    def board_account(self, board_address: bytes) -> OneTaskAccount:
        """This worker's one-board account (bids and claims originate here).

        One fresh address per board, exactly like the one-task accounts:
        the board learns a stable *tag* (the reputation handle) but
        never a stable address shared with any task.
        """
        return derive_one_task_account(self._seed, f"board:{board_address.hex()}")

    def handle_tag(self, board_address: bytes) -> int:
        """The pseudonymous reputation handle this worker owns on a board.

        t1 = PRF_sk(board prefix) — deterministic per (key, board), so
        the worker can predict its own handle (e.g. to find its bid in
        the pool) without any on-chain interaction.
        """
        return self.system.scheme.prefix_tag(task_prefix(board_address), self.keys)

    def task_tag(self, task_address: bytes) -> int:
        """This worker's per-task linkability tag (to locate its answer)."""
        return self.system.scheme.prefix_tag(task_prefix(task_address), self.keys)

    def discover_listings(self, board_address: bytes) -> List[dict]:
        """Browse the board: every listing still accepting bids."""
        return self.system.node.call(board_address, "get_open_listings")

    def place_bid(
        self, board_address: bytes, listing_id: int, stake: int
    ) -> Receipt:
        """Stake on a listing under this worker's anonymous handle."""
        from repro.contracts.marketplace import bid_message

        system = self.system
        account = self.board_account(board_address)
        attestation = system.attest(
            self.keys, bid_message(board_address, account.address, listing_id, stake)
        )
        receipt = system.transact(
            account,
            board_address,
            encode_call("place_bid", [listing_id, stake, attestation.to_wire()]),
            stake,
        )
        obs.count("market.client.bids")
        return receipt

    def find_submission_index(self, task_address: bytes) -> int:
        """Locate this worker's answer slot by its per-task tag."""
        tags = self.system.node.call(task_address, "get_tags")
        tag = self.task_tag(task_address)
        for index, seen in enumerate(tags[1:]):  # tags[0] is the requester's
            if seen == tag:
                return index
        raise ProtocolError("this worker has no submission on that task")

    def report_work(
        self,
        board_address: bytes,
        listing_id: int,
        task_address: bytes,
        answer_index: Optional[int] = None,
    ) -> Receipt:
        """Claim this worker's task submission for its matched bid.

        Proves (in zero knowledge, via a tag-link attestation) that the
        key behind the bid's board tag also owns the submission's task
        tag — the two addresses involved stay unlinkable to everyone
        else.
        """
        system = self.system
        if answer_index is None:
            answer_index = self.find_submission_index(task_address)
        attestation = system.scheme.auth_tag_link(
            task_prefix(board_address),
            task_prefix(task_address),
            self.keys,
            *system.credentials(self.keys),
        )
        receipt = system.transact(
            self.board_account(board_address),
            board_address,
            encode_call(
                "report_work", [listing_id, answer_index, attestation.to_wire()]
            ),
        )
        obs.count("market.client.claims")
        return receipt

    def board_balance(self, board_address: bytes) -> int:
        """The balance sitting on this worker's one-board address."""
        return self.system.node.balance_of(self.board_account(board_address).address)
