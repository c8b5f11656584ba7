"""System orchestration: bootstrap and shared services.

:class:`ZebraLancerSystem` wires together every substrate exactly as
Fig. 3 draws it: the blockchain test net, the registration authority,
the SNARK establishments (done once, off-line, per circuit — Section
VI's "Establishments of zk-SNARKs"), and the on-chain registry
contract.  Requester/worker clients hang off this object.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Dict, List, Optional, Tuple

from repro import observability as obs
from repro.crypto import ecdsa
from repro.crypto.hashing import sha256
from repro.errors import ProtocolError
from repro.profiles import SecurityProfile, get_profile
from repro.anonauth import AnonymousAuthScheme, setup as auth_setup
from repro.anonauth.authority import Certificate
from repro.anonauth.keys import UserKeyPair
from repro.anonauth.scheme import Attestation
from repro.chain.network import Testnet
from repro.chain.node import Node
from repro.chain.receipts import Receipt
from repro.chain.transaction import Transaction, encode_call, encode_create
from repro.contracts.task import answer_message
from repro.core.anonymity import OneTaskAccount
from repro.core.params import TaskParameters
from repro.core.policy import RewardPolicy
from repro.core.reward_circuit import make_reward_circuit
from repro.zksnark.backend import CircuitDefinition, KeyPair, get_backend
from repro.zksnark.gadgets.mimc import MiMCParameters

DEFAULT_GAS_PRICE = 1
DEFAULT_GAS_LIMIT = 20_000_000
#: Gas allowance funded to each one-task account.
DEFAULT_GAS_ALLOWANCE = 50_000_000


def client_transaction(
    nonce: int, to: Optional[bytes], data: bytes, value: int = 0
) -> Transaction:
    """A client transaction under the default gas policy."""
    return Transaction(
        nonce=nonce,
        gas_price=DEFAULT_GAS_PRICE,
        gas_limit=DEFAULT_GAS_LIMIT,
        to=to,
        value=value,
        data=data,
    )


@dataclass
class TaskHandle:
    """A client-side reference to a deployed task contract."""

    address: bytes
    params: TaskParameters
    policy: RewardPolicy
    system: "ZebraLancerSystem"

    def phase(self) -> str:
        return self.system.node.call(self.address, "get_phase")

    def answer_count(self) -> int:
        return self.system.node.call(self.address, "answer_count")

    def rewards(self) -> List[int]:
        return self.system.node.call(self.address, "get_rewards")

    def submitters(self) -> List[bytes]:
        return self.system.node.call(self.address, "get_submitters")

    def balance(self) -> int:
        return self.system.node.balance_of(self.address)

    def is_collection_closed(self) -> bool:
        return self.system.node.call(self.address, "is_collection_closed")

    def audit_submissions(self) -> bool:
        """Batch-re-verify every accepted submission's attestation."""
        with obs.span(
            "protocol.audit", task=self.address.hex(), answers=self.answer_count()
        ) as audit_span:
            result = self.system.node.call(self.address, "audit_submissions")
            audit_span.set_attrs(passed=bool(result))
        if obs.TRACER.enabled:
            obs.count("protocol.audits")
        return result


class ZebraLancerSystem:
    """One fully bootstrapped ZebraLancer deployment."""

    def __init__(
        self,
        profile: SecurityProfile | str = "test",
        cert_mode: str = "merkle",
        backend_name: str = "mock",
        miners: int = 2,
        full_nodes: int = 2,
        seed: bytes = b"zebralancer-system",
        testnet: Optional[Testnet] = None,
        fault_plan=None,
    ) -> None:
        self.profile = get_profile(profile) if isinstance(profile, str) else profile
        self.cert_mode = cert_mode
        self.backend_name = backend_name
        self.seed = seed
        self.backend = get_backend(backend_name)
        self.testnet = testnet or Testnet(
            miners=miners, full_nodes=full_nodes, fault_plan=fault_plan
        )

        # Off-line establishment of the Auth SNARK + RA keys.
        self.auth_params, self.authority = auth_setup(
            profile=self.profile,
            cert_mode=cert_mode,
            backend_name=backend_name,
            seed=sha256(seed, b"auth-setup"),
        )
        self.scheme = AnonymousAuthScheme(self.auth_params)

        # RA's chain identity and the on-chain registry contract.
        self._ra_key = ecdsa.ECDSAKeyPair.from_seed(sha256(seed, b"ra-chain-key"))
        # On a sharded chain the RA is a *replicated* sender: its
        # registry (and every registry update) must exist on all shards
        # because task and board contracts static-read it locally.
        fund_system = getattr(self.testnet, "fund_system", self.testnet.fund)
        fund_system(self._ra_key.address(), 10**24)
        self.registry_address = self._deploy_registry()

        # Reward-circuit establishments, cached per (policy, n).
        self._reward_material: Dict[Tuple[bytes, int], Tuple[CircuitDefinition, KeyPair]] = {}

    # ----- chain access ------------------------------------------------------------

    @property
    def node(self) -> Node:
        return self.testnet.any_node

    @property
    def mimc(self) -> MiMCParameters:
        return self.auth_params.mimc

    def mine(self, blocks: int = 1) -> None:
        self.testnet.mine_blocks(blocks)

    def fund_anonymous(
        self,
        address: bytes,
        amount: int = DEFAULT_GAS_ALLOWANCE,
        near: Optional[bytes] = None,
    ) -> None:
        """Fund a one-task account (stand-in for anonymous payments).

        ``near`` co-locates the account with the contract it will
        transact against on a sharded chain (one-task accounts live on
        their task's shard); ignored on a single chain.
        """
        self.testnet.fund(address, amount, near=near)

    def transact(
        self,
        account: OneTaskAccount,
        to: Optional[bytes],
        data: bytes,
        value: int = 0,
    ) -> Receipt:
        """Fund ``account`` next to ``to`` and send it one call there.

        The gas allowance, then ``value`` when non-zero, arrive as two
        faucet transfers before the call; the call goes out at the
        account's chain nonce under :meth:`send_reliable`.  ``to=None``
        deploys a contract.
        """
        self.fund_anonymous(account.address, near=to)
        if value:
            self.fund_anonymous(account.address, value, near=to)
        tx = client_transaction(self.node.nonce_of(account.address), to, data, value)
        return self.send_reliable(tx, account.keypair)

    def send_and_confirm(self, signed_tx) -> Receipt:
        """Confirm a pre-signed transaction (rebroadcast-only retries)."""
        return self.testnet.tx_sender.send_signed(signed_tx)

    def send_reliable(self, tx: Transaction, keypair) -> Receipt:
        """Confirm ``tx`` with the full retry discipline (gas bump +
        nonce re-check) — what every client should use on a lossy net."""
        return self.testnet.tx_sender.send(tx, keypair)

    # ----- registry ------------------------------------------------------------------

    def _ra_transaction(self, to: Optional[bytes], data: bytes) -> Transaction:
        return client_transaction(
            self.testnet.tx_sender.nonces.reserve(self._ra_key.address()), to, data
        )

    def _deploy_registry(self) -> bytes:
        data = encode_create(
            "ZebraLancerRegistry",
            [
                self.cert_mode,
                self.authority.registry_commitment(),
                self.auth_params.keys.verifying_key,
            ],
        )
        receipt = self.send_reliable(self._ra_transaction(None, data), self._ra_key)
        if not receipt.success or receipt.contract_address is None:
            raise ProtocolError(f"registry deployment failed: {receipt.error}")
        return receipt.contract_address

    def _publish_commitment(self) -> None:
        """Push the RA's current registry commitment on-chain."""
        data = encode_call(
            "update_commitment", [self.authority.registry_commitment()]
        )
        tx = self._ra_transaction(self.registry_address, data)
        receipt = self.send_reliable(tx, self._ra_key)
        if not receipt.success:
            raise ProtocolError(f"commitment update failed: {receipt.error}")

    def register_participant(self, identity: str, public_key: int) -> Certificate:
        """Register at the RA and publish the new commitment on-chain."""
        with obs.span("protocol.register", identity=identity):
            certificate = self.authority.register(identity, public_key)
            self._publish_commitment()
        if obs.TRACER.enabled:
            obs.count("protocol.registrations")
        return certificate

    def register_participants(
        self, entries: List[Tuple[str, int]]
    ) -> List[Certificate]:
        """Register many identities under ONE commitment update.

        The registry keeps its commitment history, so a single on-chain
        update covering the whole cohort is as good as one per
        registration — this is what lets the engine onboard N·(M+1)
        participants in one block instead of one block each.
        """
        with obs.span("protocol.register_batch", identities=len(entries)):
            certificates = [
                self.authority.register(identity, public_key)
                for identity, public_key in entries
            ]
            if entries:
                self._publish_commitment()
        if obs.TRACER.enabled:
            obs.count("protocol.registrations", len(entries))
        return certificates

    def current_certificate(self, public_key: int) -> Certificate:
        return self.authority.refresh_certificate(public_key)

    def registry_commitment(self) -> int:
        return self.node.call(self.registry_address, "get_commitment")

    # ----- attestations --------------------------------------------------------------

    def credentials(self, keys: UserKeyPair) -> Tuple[Certificate, int]:
        """What an attestation by ``keys`` proves against: the RA's
        current certificate and the on-chain registry commitment."""
        return self.current_certificate(keys.public_key), self.registry_commitment()

    def attest(self, keys: UserKeyPair, message: bytes) -> Attestation:
        """Anonymously authenticate ``message`` under ``keys``."""
        return self.scheme.auth(message, keys, *self.credentials(keys))

    def answer_calldata(
        self,
        keys: UserKeyPair,
        task_address: bytes,
        account_address: bytes,
        ciphertext_wire: bytes,
    ) -> bytes:
        """``submit_answer`` calldata: the ciphertext C_i plus an
        attestation of :func:`~repro.contracts.task.answer_message`."""
        attestation = self.attest(
            keys, answer_message(task_address, account_address, ciphertext_wire)
        )
        return encode_call("submit_answer", [ciphertext_wire, attestation.to_wire()])

    # ----- reward SNARK establishments ---------------------------------------------------

    def reward_material(
        self, policy: RewardPolicy, n: int
    ) -> Tuple[CircuitDefinition, KeyPair]:
        """The (circuit, keys) for ``policy`` at ``n`` slots, set up once."""
        described = sorted(policy.describe().items())
        cache_key = (sha256(repr(described).encode()), n)
        material = self._reward_material.get(cache_key)
        if material is None:
            circuit = make_reward_circuit(policy, n, self.mimc)
            keys = self.backend.setup(
                circuit, seed=sha256(self.seed, b"reward", repr(described).encode(),
                                     n.to_bytes(4, "big"))
            )
            material = (circuit, keys)
            self._reward_material[cache_key] = material
        return material
