"""End-to-end trace of one protocol round: one span per Algorithm-1
phase, in protocol order, under the deterministic simulation clock."""

from __future__ import annotations

import io

import pytest

from repro import observability as obs
from repro.analysis.trace_report import (
    ALGORITHM1_PHASES,
    phase_rows,
    render_timeline,
)
from repro.core import MajorityVotePolicy, Requester, Worker, ZebraLancerSystem


@pytest.fixture()
def traced_round():
    """One full protocol round with tracing on the simulated clock.

    Yields the finished spans (as dicts) of: register (1 requester +
    2 workers) → publish → authenticate/submit ×2 → audit → reward.
    """
    from repro.chain.network import Testnet

    obs.reset()
    obs.enable()
    testnet = Testnet(miners=2, full_nodes=2)
    obs.TRACER.set_clock(testnet.clock)
    system = ZebraLancerSystem(profile="test", backend_name="mock", testnet=testnet)
    try:
        requester = Requester(system, "req")
        workers = [Worker(system, f"w{i}") for i in range(2)]
        task = requester.publish_task(
            MajorityVotePolicy(3), "traced", num_answers=2, budget=600
        )
        for worker in workers:
            assert worker.submit_answer(task, [1]).receipt.success
        assert task.audit_submissions()
        assert requester.evaluate_and_reward(task).success
        yield [span.to_dict() for span in obs.TRACER.finished_spans()]
    finally:
        obs.TRACER.set_clock(None)
        obs.reset()
        obs.disable()


def _first_start(spans, name):
    return min(s["start"] for s in spans if s["name"] == name)


def test_every_algorithm1_phase_has_a_span(traced_round) -> None:
    names = {span["name"] for span in traced_round}
    for phase in ALGORITHM1_PHASES:
        assert f"protocol.{phase}" in names, f"phase {phase} left no span"


def test_phases_appear_in_algorithm1_order(traced_round) -> None:
    starts = [
        _first_start(traced_round, f"protocol.{phase}")
        for phase in ALGORITHM1_PHASES
    ]
    assert starts == sorted(starts), (
        f"phase first-starts out of order: {dict(zip(ALGORITHM1_PHASES, starts))}"
    )
    # Ids increase in creation order, so the first span of each phase
    # must also be created in protocol order.
    first_ids = [
        min(s["span_id"] for s in traced_round if s["name"] == f"protocol.{phase}")
        for phase in ALGORITHM1_PHASES
    ]
    assert first_ids == sorted(first_ids)


def test_expected_phase_span_counts(traced_round) -> None:
    def count(name):
        return sum(1 for s in traced_round if s["name"] == name)

    assert count("protocol.register") == 3      # requester + 2 workers
    # publish + 2 submissions each carry one attestation
    assert count("protocol.authenticate") == 3
    assert count("protocol.submit") == 2
    assert count("protocol.audit") == 1
    assert count("protocol.reward") == 1
    assert count("requester.publish_task") == 1


def test_authenticate_nests_under_submit(traced_round) -> None:
    submits = {s["span_id"]: s for s in traced_round if s["name"] == "protocol.submit"}
    auths = [s for s in traced_round if s["name"] == "protocol.authenticate"]
    nested = [a for a in auths if a["parent_id"] in submits]
    assert len(nested) == 2  # one per worker submission
    for auth in nested:
        parent = submits[auth["parent_id"]]
        assert parent["start"] <= auth["start"]
        assert auth["end"] <= parent["end"]


def test_simulated_clock_makes_timestamps_deterministic(traced_round) -> None:
    # SimClock ticks in whole simulated seconds; every span timestamp
    # must be an integral number of seconds, which a wall clock would
    # essentially never produce.
    for span in traced_round:
        assert float(span["start"]).is_integer(), span
        assert float(span["end"]).is_integer(), span


def test_chain_spans_recorded_alongside_protocol(traced_round) -> None:
    names = {span["name"] for span in traced_round}
    assert "chain.import_block" in names
    assert "chain.create_block" in names
    assert "vm.execute_tx" in names
    assert "txsender.send" in names
    assert "snark.verify" in names
    assert "chain.verify_proof" in names
    assert "chain.batch_verify_proof" in names  # the audit's batched check


def test_metrics_registry_populated_by_the_round(traced_round) -> None:
    snap = obs.METRICS.snapshot()
    counters = snap["counters"]
    assert counters["protocol.registrations"] == 3
    assert counters["protocol.submissions"] == 2
    assert counters["protocol.audits"] == 1
    assert counters["protocol.rewards"] == 1
    # Contract-level counters tick once per EXECUTION: the miner runs
    # the tx in create_block and all 4 nodes (2 miners + 2 full nodes,
    # per the fixture) re-run it on import.
    executions = 1 + 4
    assert counters["task.published"] == executions
    assert counters["task.submissions"] == 2 * executions
    assert counters["chain.blocks_imported"] > 0
    assert counters["snark.verify.calls"] > 0
    assert counters["vm.transactions"] > 0
    assert snap["gauges"]["chain.height"] > 0
    assert snap["histograms"]["vm.gas_used_per_tx"]["count"] > 0
    # The whole registry renders without error.
    assert "protocol_registrations 3" in obs.METRICS.render_prometheus()


def test_phase_rows_and_timeline_rendering(traced_round) -> None:
    rows = phase_rows(traced_round)
    assert [row["phase"] for row in rows] == list(ALGORITHM1_PHASES)
    assert all(row["count"] > 0 for row in rows)
    assert rows[0]["start"] == 0.0  # origin-relative
    text = render_timeline(traced_round)
    for phase in ALGORITHM1_PHASES:
        assert phase in text
    assert "(missing)" not in text


def test_jsonl_export_round_trips_the_run(traced_round) -> None:
    buffer = io.StringIO()
    count = obs.write_spans_jsonl(traced_round, buffer)
    assert count == len(traced_round)
    parsed = obs.read_spans_jsonl(io.StringIO(buffer.getvalue()))
    assert parsed == traced_round


def test_send_span_records_a_retry() -> None:
    """One dropped broadcast: the blocking send's span and metrics show
    the second attempt that confirmed it."""
    from repro.chain.network import Testnet
    from repro.chain.transaction import Transaction
    from repro.chain.txsender import TxSender
    from repro.crypto import ecdsa

    class _DropFirst:
        def __init__(self) -> None:
            self.dropped = False

        def on_transaction(self, stx):
            if self.dropped:
                return [stx]
            self.dropped = True
            return []

    user = ecdsa.ECDSAKeyPair.from_seed(b"trace-retry")
    testnet = Testnet()
    testnet.fund(user.address(), 10**9)
    testnet.network.adversary = _DropFirst()
    sender = TxSender(testnet, timeout_blocks=2)
    tx = Transaction(nonce=0, gas_price=1, gas_limit=21_000, to=b"\x42" * 20, value=1)
    obs.reset()
    obs.enable()
    try:
        report = sender.send_with_report(tx, user)
        (span,) = [
            s.to_dict() for s in obs.TRACER.finished_spans()
            if s.name == "txsender.send"
        ]
        snap = obs.METRICS.snapshot()
    finally:
        obs.reset()
        obs.disable()
    assert report.receipt.success
    assert span["attrs"]["attempts"] == 2
    assert span["attrs"]["blocks_waited"] == report.blocks_waited == 3
    counters = snap["counters"]
    assert counters["txsender.sends"] == 1
    assert counters["txsender.attempts"] == 2
    assert counters["txsender.retries"] == 1
    assert snap["histograms"]["txsender.blocks_waited"]["count"] == 1
