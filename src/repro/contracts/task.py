"""The crowdsourcing task contract — Algorithm 1, line for line.

Lifecycle::

    deploy (budget deposited, requester anonymously authenticated)
      └─ COLLECTING  — workers submit (Verify + Link gate each answer)
          ├─ n answers or T_A blocks → AWARDING
          │    ├─ valid reward instruction within T_I → COMPLETED
          │    └─ T_I expires → DEFAULTED (τ/‖W‖ to every worker)
          └─ zero answers by T_A → ABORTED (full refund)

Differences from the paper's pseudo-code are purely mechanical:
invalid submissions are rejected (transaction reverts) rather than
silently skipped, and flagged-malformed slots *burn* their share (see
``core/reward_circuit.py`` for why that removes the false-flag
incentive).
"""

from __future__ import annotations

from typing import Any, List

from repro import observability as obs
from repro.chain.address import ZERO_ADDRESS
from repro.chain.contract import Contract, ContractRegistry, external, view
from repro.anonauth.scheme import Attestation, attestation_statement, task_prefix
from repro.core.encryption import AnswerCiphertext
from repro.core.reward_circuit import (
    CiphertextEntry,
    padding_entry,
    reward_statement,
)

PHASE_COLLECTING = "collecting"
PHASE_COMPLETED = "completed"
PHASE_DEFAULTED = "defaulted"
PHASE_ABORTED = "aborted"


def answer_message(
    task_address: bytes, submitter: bytes, ciphertext_wire: bytes
) -> bytes:
    """The exact bytes a worker's answer attestation authenticates:
    α_C ‖ α_i ‖ C_i (Algorithm 1, AnswerCollection)."""
    return task_prefix(task_address) + submitter + ciphertext_wire


@ContractRegistry.register
class TaskContract(Contract):
    """One crowdsourcing task (Algorithm 1)."""

    contract_name = "ZebraLancerTask"

    def init(
        self,
        registry_address: bytes,
        requester_address: bytes,
        requester_attestation_wire: bytes,
        params_storage: dict,
        epk_wire: bytes,
        reward_vk: Any,
    ) -> None:
        budget = params_storage["budget"]
        # Line 3: budget deposited and requester identified, or bail out.
        self.require(self.msg_value >= budget, "budget not deposited")
        self.require(
            self.msg_sender == requester_address,
            "task must be deployed from the authenticated one-task address",
        )
        attestation = Attestation.from_wire(requester_attestation_wire)
        self._require_valid_attestation(
            registry_address,
            message=task_prefix(self.address) + requester_address,
            attestation=attestation,
            context="requester not identified",
        )

        self.storage["registry"] = registry_address
        self.storage["requester"] = requester_address
        self.storage["params"] = dict(params_storage)
        self.storage["epk"] = epk_wire
        self.storage["reward_vk"] = reward_vk
        self.storage["deploy_block"] = self.block_number
        self.storage["phase"] = PHASE_COLLECTING
        # Link() pool: the requester's tag participates (Algorithm 1 line 8),
        # which is what blocks the self-colluding downgrade attack.
        self.storage["tags"] = [attestation.t1]
        self.storage["ciphertexts"] = []
        self.storage["submitters"] = []
        # Wire-encoded attestations of accepted submissions, kept so the
        # whole collection phase can be re-audited in one batched
        # verification (see ``audit_submissions``).
        self.storage["attestations"] = []
        self.storage["collection_end_block"] = None
        self.storage["burned"] = 0
        self.emit(
            "TaskPublished",
            requester=requester_address,
            budget=budget,
            num_answers=params_storage["num_answers"],
            description=params_storage["description"],
        )
        obs.count("task.published")

    # ----- helpers -------------------------------------------------------------

    def _require_valid_attestation(
        self,
        registry_address: bytes,
        message: bytes,
        attestation: Attestation,
        context: str,
    ) -> None:
        known = self.static_read(
            registry_address,
            "is_known_commitment",
            [attestation.registry_commitment],
        )
        self.require(known, f"{context}: unknown registry commitment")
        auth_vk = self.static_read(registry_address, "get_auth_vk", [])
        statement = attestation_statement(message, attestation)
        self.require(
            self.snark_verify(auth_vk, statement, attestation.proof),
            context,
        )

    def _answer_deadline(self) -> int:
        return self.storage["deploy_block"] + self.storage["params"]["answer_window"]

    def _collection_end(self):
        """The block collection ended at, or None while still open."""
        end = self.storage["collection_end_block"]
        if end is not None:
            return end
        if self.block_number > self._answer_deadline():
            return self._answer_deadline()
        return None

    def _instruction_deadline(self) -> int:
        end = self._collection_end()
        self.require(end is not None, "collection still in progress")
        return end + self.storage["params"]["instruction_window"]

    # ----- AnswerCollection -------------------------------------------------------

    @external
    def submit_answer(self, ciphertext_wire: bytes, attestation_wire: bytes) -> int:
        """Submit an encrypted, anonymously authenticated answer.

        The authenticated message is α_C ‖ α_i ‖ C_i (footnote 9): the
        attestation binds the ciphertext to the submitting one-task
        address, so a free-rider cannot re-send a broadcast answer from
        his own address.
        """
        with obs.span("contract.submit_answer", task=self.address.hex()):
            index = self._submit_answer(ciphertext_wire, attestation_wire)
        obs.count("task.submissions")
        return index

    def _submit_answer(self, ciphertext_wire: bytes, attestation_wire: bytes) -> int:
        self.require(
            self.storage["phase"] == PHASE_COLLECTING, "task is not collecting"
        )
        self.require(
            self.block_number <= self._answer_deadline(), "answering deadline passed"
        )
        params = self.storage["params"]
        ciphertexts = self.storage["ciphertexts"]
        self.require(len(ciphertexts) < params["num_answers"], "task already full")

        # Independence of submissions: an exact ciphertext copy (the only
        # thing a free-rider can produce without breaking the encryption)
        # is rejected outright.
        self.require(
            ciphertext_wire not in ciphertexts, "duplicate ciphertext rejected"
        )
        ciphertext = AnswerCiphertext.from_wire(ciphertext_wire)
        self.require(
            len(ciphertext.body) == params["answer_arity"],
            "answer arity does not match the policy",
        )

        attestation = Attestation.from_wire(attestation_wire)
        # Link() against every prior valid attestation (O(n^2) equality
        # checks in total — "nearly nothing in practice").  The
        # requester's tag blocks outright (self-collusion defence); other
        # tags count toward the per-identity allowance k (footnote 11).
        tags = self.storage["tags"]
        self.require(
            attestation.t1 != tags[0], "double submission dropped"
        )
        linked = sum(1 for tag in tags[1:] if tag == attestation.t1)
        self.require(
            linked < params.get("submissions_per_worker", 1),
            "double submission dropped",
        )
        self._require_valid_attestation(
            self.storage["registry"],
            message=answer_message(self.address, self.msg_sender, ciphertext_wire),
            attestation=attestation,
            context="submission not authenticated",
        )

        tags = self.storage["tags"]
        tags.append(attestation.t1)
        self.storage["tags"] = tags
        ciphertexts.append(ciphertext_wire)
        self.storage["ciphertexts"] = ciphertexts
        submitters = self.storage["submitters"]
        submitters.append(self.msg_sender)
        self.storage["submitters"] = submitters
        attestations = self.storage["attestations"]
        attestations.append(attestation_wire)
        self.storage["attestations"] = attestations
        index = len(ciphertexts) - 1
        if len(ciphertexts) == params["num_answers"]:
            self.storage["collection_end_block"] = self.block_number
        self.emit("AnswerCollected", index=index, submitter=self.msg_sender)
        return index

    # ----- Reward ---------------------------------------------------------------------

    @external
    def submit_reward_instruction(
        self, rewards: List[int], ok_flags: List[int], proof_backend: str,
        proof_payload: bytes,
    ) -> None:
        """The requester's proved instruction R = (R_1..R_n)."""
        with obs.span(
            "contract.submit_reward_instruction", task=self.address.hex()
        ):
            self._submit_reward_instruction(
                rewards, ok_flags, proof_backend, proof_payload
            )
        obs.count("task.reward_instructions")

    def _submit_reward_instruction(
        self, rewards: List[int], ok_flags: List[int], proof_backend: str,
        proof_payload: bytes,
    ) -> None:
        from repro.zksnark.backend import Proof

        self.require(
            self.msg_sender == self.storage["requester"],
            "only the requester instructs rewards",
        )
        self.require(
            self.storage["phase"] == PHASE_COLLECTING, "task is not awaiting rewards"
        )
        end = self._collection_end()
        self.require(end is not None, "collection still in progress")
        self.require(
            self.block_number <= self._instruction_deadline(),
            "instruction deadline passed",
        )
        ciphertext_wires = self.storage["ciphertexts"]
        count = len(ciphertext_wires)
        self.require(count > 0, "nothing to reward")
        params = self.storage["params"]
        n = params["num_answers"]
        # The statement is always n slots wide (the circuit the stored vk
        # belongs to): missing submissions are the paper's ⊥, encoded as
        # canonical flagged padding slots.
        self.require(
            len(rewards) == n and len(ok_flags) == n,
            "instruction length mismatch",
        )
        self.require(all(flag in (0, 1) for flag in ok_flags), "flags must be bits")
        self.require(
            all(flag == 0 for flag in ok_flags[count:]),
            "padding slots must be flagged",
        )
        budget = params["budget"]
        self.require(sum(rewards) <= budget, "instruction exceeds the budget")

        arity = params["answer_arity"]
        entries = []
        for wire, flag in zip(ciphertext_wires, ok_flags[:count]):
            ciphertext = AnswerCiphertext.from_wire(wire)
            entries.append(CiphertextEntry.from_ciphertext(ciphertext, ok=bool(flag)))
        for _ in range(n - count):
            entries.append(padding_entry(arity))
        unit = budget // n
        statement = reward_statement(budget, unit, entries, rewards)
        proof = Proof(backend=proof_backend, payload=proof_payload)
        self.require(
            self.snark_verify(self.storage["reward_vk"], statement, proof),
            "invalid reward proof",
        )

        # Payout per the instruction; flagged *real* submissions burn their
        # share so false-flagging costs the requester exactly a correct
        # answer's pay (padding slots are nobody's cheating — no burn).
        submitters = self.storage["submitters"]
        for submitter, reward in zip(submitters, rewards[:count]):
            if reward > 0:
                self.require(self.transfer(submitter, reward), "payout failed")
        burned = 0
        for flag in ok_flags[:count]:
            if flag == 0:
                self.transfer(ZERO_ADDRESS, unit)
                burned += unit
        self.storage["burned"] = burned
        self.storage["rewards"] = list(rewards[:count])
        self.storage["phase"] = PHASE_COMPLETED
        remaining = self.balance
        if remaining > 0:
            self.transfer(self.storage["requester"], remaining)
        self.emit("TaskCompleted", rewards=list(rewards), burned=burned)

    # ----- timeout handling (Algorithm 1 lines 18-21) -----------------------------------

    @external
    def finalize_timeout(self) -> None:
        """Anyone may settle a task whose requester failed to instruct.

        No answers → full refund; otherwise each worker receives
        τ/‖W‖ as the punitive even split.
        """
        self.require(
            self.storage["phase"] == PHASE_COLLECTING, "task already settled"
        )
        end = self._collection_end()
        self.require(end is not None, "collection still in progress")
        submitters = self.storage["submitters"]
        if not submitters:
            self.storage["phase"] = PHASE_ABORTED
            remaining = self.balance
            if remaining > 0:
                self.transfer(self.storage["requester"], remaining)
            self.emit("TaskAborted")
            return
        self.require(
            self.block_number > self._instruction_deadline(),
            "instruction window still open",
        )
        share = self.storage["params"]["budget"] // len(submitters)
        for submitter in submitters:
            self.require(self.transfer(submitter, share), "even split failed")
        self.storage["rewards"] = [share] * len(submitters)
        self.storage["phase"] = PHASE_DEFAULTED
        remaining = self.balance
        if remaining > 0:
            self.transfer(self.storage["requester"], remaining)
        self.emit("TaskDefaulted", share=share)

    # ----- views -----------------------------------------------------------------------

    @view
    def get_phase(self) -> str:
        return self.storage["phase"]

    @view
    def get_params(self) -> dict:
        return dict(self.storage["params"])

    @view
    def get_epk(self) -> bytes:
        return self.storage["epk"]

    @view
    def get_requester(self) -> bytes:
        return self.storage["requester"]

    @view
    def answer_count(self) -> int:
        return len(self.storage["ciphertexts"])

    @view
    def get_ciphertexts(self) -> List[bytes]:
        return list(self.storage["ciphertexts"])

    @view
    def get_submitters(self) -> List[bytes]:
        return list(self.storage["submitters"])

    @view
    def get_rewards(self) -> List[int]:
        return list(self.storage.get("rewards", []))

    @view
    def get_tags(self) -> List[int]:
        """All linkability tags seen so far (requester's first)."""
        return list(self.storage["tags"])

    @view
    def audit_submissions(self) -> bool:
        """Re-verify every accepted submission in ONE batched check.

        Replays each stored attestation against the message it
        originally authenticated (α_C ‖ α_i ‖ C_i) and hands all n
        statement/proof pairs to the ``snark_batch_verify`` precompile —
        a single random-linear-combination multi-pairing instead of n
        independent verifications.  True whenever the collection phase
        only ever admitted properly authenticated answers (always, for
        an honest chain); auditors and light clients get an O(1)-pairing
        spot check of the whole task.
        """
        with obs.span(
            "contract.audit_submissions",
            task=self.address.hex(),
            answers=len(self.storage["ciphertexts"]),
        ):
            result = self._audit_submissions()
        obs.count("task.audits")
        return result

    def _audit_submissions(self) -> bool:
        registry_address = self.storage["registry"]
        attestation_wires = self.storage["attestations"]
        ciphertext_wires = self.storage["ciphertexts"]
        submitters = self.storage["submitters"]
        statements: List[List[int]] = []
        proofs: List[Any] = []
        for wire, ciphertext_wire, submitter in zip(
            attestation_wires, ciphertext_wires, submitters
        ):
            attestation = Attestation.from_wire(wire)
            known = self.static_read(
                registry_address,
                "is_known_commitment",
                [attestation.registry_commitment],
            )
            self.require(known, "audit: unknown registry commitment")
            message = answer_message(self.address, submitter, ciphertext_wire)
            statements.append(attestation_statement(message, attestation))
            proofs.append(attestation.proof)
        if not proofs:
            return True
        auth_vk = self.static_read(registry_address, "get_auth_vk", [])
        return self.snark_batch_verify(auth_vk, statements, proofs)

    @view
    def answer_deadline(self) -> int:
        return self._answer_deadline()

    @view
    def is_collection_closed(self) -> bool:
        return self._collection_end() is not None

    @view
    def get_status(self) -> dict:
        """One-call poll for schedulers: phase, progress, and deadline.

        The concurrent engine polls every task every round; folding the
        four reads it needs into one view keeps the polling cost flat
        in the number of in-flight tasks.
        """
        end = self._collection_end()
        return {
            "phase": self.storage["phase"],
            "answers": len(self.storage["ciphertexts"]),
            "deadline": self._answer_deadline(),
            "closed": end is not None,
            # When a quarantined task can invoke finalize_timeout's
            # even-split branch (None while collection is still open).
            "instruction_deadline": (
                end + self.storage["params"]["instruction_window"]
                if end is not None
                else None
            ),
        }
