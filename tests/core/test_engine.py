"""The concurrent engine: determinism, batching, and serial parity.

The scheduler's contract is bit-determinism: two runs from the same
seeds must produce identical block/receipt/reward transcripts, because
everything that orders work — runner stepping, mempool arrival, nonce
reservation, the proving queue — iterates in insertion order and no
wall clock ever reaches consensus data (block timestamps come from the
SimClock).
"""

from __future__ import annotations

import pytest

from repro.core.engine import (
    EngineReport,
    ProtocolEngine,
    engine_system,
    make_uniform_specs,
    run_serial,
)

N_TASKS = 8
WORKERS = 3


def _engine_run(system_seed: bytes, spec_seed: int) -> EngineReport:
    system = engine_system(N_TASKS, WORKERS, backend_name="mock", seed=system_seed)
    specs = make_uniform_specs(system, N_TASKS, WORKERS, seed=spec_seed)
    return ProtocolEngine(system, specs).run()


def test_same_seed_runs_are_bit_identical() -> None:
    """Two fresh N=8 runs from identical seeds: one transcript."""
    first = _engine_run(b"determinism", 11)
    second = _engine_run(b"determinism", 11)
    assert first.transcript() == second.transcript()
    assert first.transcript_digest() == second.transcript_digest()
    # The transcript covers blocks, txs, rewards and phase heights; spot
    # check the pieces anyway so a transcript() regression can't hide one.
    assert first.blocks == second.blocks
    assert [o.rewards for o in first.outcomes] == [o.rewards for o in second.outcomes]
    assert [o.phase_blocks for o in first.outcomes] == [
        o.phase_blocks for o in second.outcomes
    ]
    assert first.transactions == second.transactions


def test_different_seeds_change_the_transcript() -> None:
    """Different system seed (keys, registry) → different transcript,
    and different spec seed (answers) → different transcript."""
    base = _engine_run(b"determinism", 11)
    other_system = _engine_run(b"determinism-2", 11)
    other_specs = _engine_run(b"determinism", 12)
    assert base.transcript_digest() != other_system.transcript_digest()
    assert base.transcript_digest() != other_specs.transcript_digest()


def test_engine_matches_serial_rewards_and_batches_blocks() -> None:
    """Same specs through both drivers: identical reward vectors, and
    the engine amortizes far fewer blocks than the serial baseline."""
    system = engine_system(4, WORKERS, backend_name="mock", seed=b"parity")
    specs = make_uniform_specs(system, 4, WORKERS, seed=3)
    serial = run_serial(system, specs)

    system = engine_system(4, WORKERS, backend_name="mock", seed=b"parity")
    specs = make_uniform_specs(system, 4, WORKERS, seed=3)
    engine = ProtocolEngine(system, specs).run()

    assert [o.rewards for o in engine.outcomes] == [
        o.rewards for o in serial.outcomes
    ]
    assert engine.blocks_mined * 4 <= serial.blocks_mined
    # Every task funded, published, collected, proved and rewarded.
    for outcome in engine.outcomes:
        assert set(outcome.phase_blocks) == {
            "funding", "publishing", "funding-workers", "submitting",
            "collecting", "proving", "rewarding",
        }


def test_absent_workers_close_at_deadline() -> None:
    """⊥ answers: the task closes on the answer window, not on n."""
    system = engine_system(2, 3, backend_name="mock", seed=b"absent")
    specs = make_uniform_specs(
        system, 2, 3, seed=5, absent_probability=0.5
    )
    report = ProtocolEngine(system, specs).run()
    assert all(o.rewards for o in report.outcomes)
    absent = sum(
        1 for spec in specs for answer in spec.answers if answer is None
    )
    present = sum(
        1 for spec in specs for answer in spec.answers if answer is not None
    )
    assert absent >= 1, "seed must produce at least one absent worker"
    assert sum(len(o.rewards) for o in report.outcomes) == present
