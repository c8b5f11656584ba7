"""The four workloads, each driven only through the library's public API.

Every workload is one process and a closed loop: a cohort of tasks is
built from the seed, run to completion (each task's next step waits for
its previous transaction to confirm), then checked.  A run repeats
cohorts, each from its own derived seed, for the requested number of
seconds.  Network delay is simulated time, so wall time is processor
work only; the only other processes are the engine's own fork pools,
sized by ``os.cpu_count()``.

Each workload splits into three calls the runner times separately:

- ``setup(seed)``: system construction plus cohort registration
  (``setup_s``; for ``engine-groth16`` this includes the CRS setup);
- ``run(state)``: the timed work (``tasks_per_s``, ``cpu_s_per_task``);
- ``gate(state, result)``: the correctness gate, outside the timed
  region.  It raises :class:`GateError` on any violation.
"""

from __future__ import annotations

import hashlib
import random
from dataclasses import dataclass
from typing import Any, Dict, List

import repro.contracts  # noqa: F401  (registers the contract classes)
from repro.chain.sharding import ShardedChain
from repro.core import accounting
from repro.core.anonymity import derive_one_task_account
from repro.core.engine import (
    ProtocolEngine,
    engine_system,
    make_market_specs,
    make_uniform_specs,
    run_open_market,
)

WORKERS_PER_TASK = 3


class GateError(Exception):
    """A run's outputs broke a correctness invariant."""


def check(condition: bool, message: str) -> None:
    if not condition:
        raise GateError(message)


@dataclass
class Outcome:
    """What one cohort's timed run produced, for the gate and metrics."""

    attempted: int
    completed: int
    #: Blocks from each task's first phase to its last.
    latency_blocks: List[int]
    #: Deterministic counts (same seed, same values).
    counts: Dict[str, int]
    payload: Any


def _latencies(outcomes) -> List[int]:
    return [
        max(o.phase_blocks.values()) - min(o.phase_blocks.values())
        for o in outcomes
        if o.phase_blocks
    ]


def _testnets(chain) -> List[Any]:
    return list(getattr(chain, "shard_testnets", [chain]))


def chain_counts(chain) -> Dict[str, int]:
    """Canonical blocks, transactions and gas over every (shard) chain."""
    blocks = txs = gas = 0
    for net in _testnets(chain):
        node = net.any_node
        for block in node.canonical_blocks(1, node.height):
            blocks += 1
            txs += len(block.transactions)
            gas += sum(r.gas_used for r in node.receipts_for_block(block.block_hash))
    return {"blocks": blocks, "txs": txs, "gas": gas}


def _check_rewards(specs, outcomes) -> None:
    """Every task completed with exactly the rewards its policy gives."""
    for spec, outcome in zip(specs, outcomes):
        check(
            outcome.status == "completed",
            f"task {outcome.index} ended {outcome.status!r}, not completed",
        )
        answers = [answer for answer in spec.answers if answer is not None]
        expected = spec.policy.compute_rewards(answers, spec.budget)
        check(
            list(outcome.rewards) == list(expected),
            f"task {outcome.index} paid {outcome.rewards}, policy says {expected}",
        )


class EngineWorkload:
    """N majority-vote tasks x 3 workers through ``ProtocolEngine.run``."""

    def __init__(self, name: str, why: str, tasks: int, backend: str) -> None:
        self.name = name
        self.why = why
        self.tasks = tasks
        self.size = tasks
        self.backend = backend

    def system(self, seed: bytes, **kwargs: Any):
        return engine_system(
            self.tasks, WORKERS_PER_TASK, backend_name=self.backend, seed=seed, **kwargs
        )

    def setup(self, seed: bytes):
        system = self.system(seed)
        specs = make_uniform_specs(
            system, self.tasks, WORKERS_PER_TASK, seed=_int_seed(seed)
        )
        return system, specs

    def run(self, state) -> Outcome:
        system, specs = state
        report = ProtocolEngine(system, specs).run()
        done = sum(1 for o in report.outcomes if o.status == "completed")
        return Outcome(
            attempted=len(specs),
            completed=done,
            latency_blocks=_latencies(report.outcomes),
            counts={"rounds": report.rounds},
            payload=report,
        )

    def gate(self, state, outcome: Outcome) -> None:
        system, specs = state
        report = outcome.payload
        _check_rewards(specs, report.outcomes)
        system.testnet.assert_consensus()
        accounting.assert_exactly_once_payouts(system, specs, report.outcomes)


def _payouts(spec, task):
    """(worker, reward) for every worker that submitted to ``task``."""
    submitters = [w for w, a in zip(spec.workers, spec.answers) if a is not None]
    return zip(submitters, task.rewards)


def wallet_address(identity: str) -> bytes:
    """A worker's long-term wallet, derived from its identity."""
    return hashlib.sha256(b"zlbench-wallet|" + identity.encode()).digest()[-20:]


class ShardSettleWorkload(EngineWorkload):
    """The engine cohort on 4 shards, then every paid worker sweeps its
    reward to its wallet; the run ends when nothing is in flight."""

    shards = 4

    def system(self, seed: bytes, **kwargs: Any):
        return super().system(seed, shards=self.shards, **kwargs)

    def run(self, state) -> Outcome:
        system, specs = state
        outcome = super().run(state)
        chain: ShardedChain = system.testnet
        pendings = []
        for spec, task in zip(specs, outcome.payload.outcomes):
            for worker, reward in _payouts(spec, task):
                if reward == 0:
                    continue
                # Worker has no accessor for its one-task key; derive it the
                # way accounting.worker_task_address derives the address.
                account = derive_one_task_account(
                    worker._seed, f"task:{task.address.hex()}"
                )
                sender = account.address
                tx = chain.transfer_transaction(
                    sender,
                    chain.any_node.nonce_of(sender),
                    wallet_address(worker.identity),
                    reward,
                )
                pendings.append(chain.tx_sender.broadcast(tx, account.keypair))
        chain.tx_sender.confirm_all(pendings)
        before = chain.height
        chain.drain_cross_shard()
        outcome.counts["drain_blocks"] = chain.height - before
        return outcome

    def gate(self, state, outcome: Outcome) -> None:
        super().gate(state, outcome)
        system, specs = state
        chain: ShardedChain = system.testnet
        check(chain.in_flight_value() == 0, "value still in flight after the drain")
        accounting.assert_shard_conservation(chain)
        for spec, task in zip(specs, outcome.payload.outcomes):
            for worker, reward in _payouts(spec, task):
                got = chain.any_node.balance_of(wallet_address(worker.identity))
                check(got == reward, f"wallet of {worker.identity}: {got} != {reward}")


class MarketWorkload:
    """Open-market listings over one shared worker pool, one disputed."""

    def __init__(self, name: str, why: str, listings: int, pool: int) -> None:
        self.name = name
        self.why = why
        self.listings = listings
        self.size = listings
        self.pool = pool

    def setup(self, seed: bytes):
        system = engine_system(self.listings, WORKERS_PER_TASK, seed=seed)
        rng = random.Random(_int_seed(seed))
        specs = make_market_specs(
            system,
            self.listings,
            self.pool,
            seed=rng.randrange(1 << 30),
            dispute_listings=(rng.randrange(self.listings),),
        )
        return system, specs

    def run(self, state) -> Outcome:
        system, specs = state
        report = run_open_market(system, specs)
        done = sum(1 for listing in report.listings if listing.state == "settled")
        return Outcome(
            attempted=len(specs),
            completed=done,
            latency_blocks=_latencies(report.outcomes),
            counts={"rounds": report.engine.rounds},
            payload=report,
        )

    def gate(self, state, outcome: Outcome) -> None:
        system, specs = state
        report = outcome.payload
        for listing in report.listings:
            check(
                listing.state == "settled",
                f"listing {listing.listing_id} ended {listing.state!r}",
            )
        disputed = sum(1 for listing in report.listings if listing.disputed)
        check(disputed == 1, f"{disputed} disputed listings, expected 1")
        system.testnet.assert_consensus()
        accounting.assert_market_conservation(system, report)
        accounting.assert_exactly_once_payouts(
            system, report.task_specs, report.outcomes
        )


def _int_seed(seed: bytes) -> int:
    return int.from_bytes(hashlib.sha256(seed).digest()[:8], "big")


WORKLOADS: Dict[str, Any] = {
    w.name: w
    for w in (
        EngineWorkload(
            "engine-mock",
            "chain + classical crypto (keccak, ECDSA, RSA/OAEP, serialization, "
            "mock synthesis) dominate; no Groth16, so it bypasses SNARK changes",
            tasks=16,
            backend="mock",
        ),
        EngineWorkload(
            "engine-groth16",
            "attestation proving, Groth16 prove/verify and bn128 dominate; little "
            "chain work, so it bypasses chain and hash changes",
            tasks=1,
            backend="groth16",
        ),
        MarketWorkload(
            "market-board",
            "serial board phases mine ~1 block per tx that all 4 nodes import: "
            "ECDSA recovery, state clone/root and the marketplace contract",
            listings=4,
            pool=4,
        ),
        ShardSettleWorkload(
            "shard-settle",
            "engine cohort on 4 shards plus reward sweeps to wallets: the only "
            "workload where the outbox, beacon, inbox and relayer do work",
            tasks=8,
            backend="mock",
        ),
    )
}


def cohort_seed(workload: str, seed: int, index: int) -> bytes:
    """The inputs of cohort ``index`` in a run with ``seed``."""
    return f"zlbench/{workload}/{seed}/{index}".encode()
