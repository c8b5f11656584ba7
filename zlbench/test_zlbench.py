"""Tests for the benchmark's own code: span arithmetic, patching and
restoring, deterministic counts, and agreement with BENCHMARK.json.

Run from the repository root::

    python3 -m pytest zlbench/test_zlbench.py -q
"""

from __future__ import annotations

import json
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
for path in (ROOT / "src", HERE):
    if str(path) not in sys.path:
        sys.path.insert(0, str(path))

import pytest  # noqa: E402

import layers  # noqa: E402
import run  # noqa: E402
from tracing import Patcher, Recorder, covered, self_times  # noqa: E402
from workloads import WORKLOADS, EngineWorkload, chain_counts, cohort_seed  # noqa: E402


# ----- self-time arithmetic ---------------------------------------------------


def test_self_time_of_nested_spans() -> None:
    spans = [
        (0.0, 10.0, -1),  # root
        (1.0, 4.0, 0),  # child
        (2.0, 3.0, 1),  # grandchild
        (5.0, 9.0, 0),  # second child
    ]
    assert self_times(spans) == pytest.approx([3.0, 2.0, 1.0, 4.0])


def test_overlapping_children_are_not_subtracted_twice() -> None:
    # Two children overlap on [3, 5]: together they cover [1, 8].
    spans = [(0.0, 10.0, -1), (1.0, 5.0, 0), (3.0, 8.0, 0)]
    assert self_times(spans)[0] == pytest.approx(3.0)


def test_children_are_clipped_to_the_parent() -> None:
    # A child reported past its parent's end only covers the overlap.
    spans = [(0.0, 10.0, -1), (8.0, 12.0, 0), (-2.0, 1.0, 0)]
    assert self_times(spans)[0] == pytest.approx(7.0)


def test_covered_merges_touching_and_contained_intervals() -> None:
    assert covered([(0, 2), (2, 3), (5, 9), (6, 7)], 0, 10) == pytest.approx(7.0)
    assert covered([], 0, 10) == 0.0
    assert covered([(4, 4)], 0, 10) == 0.0


def test_recorder_keeps_recursion_in_one_span() -> None:
    ticks = iter(range(100))
    recorder = Recorder(clock=lambda: float(next(ticks)))

    def countdown(n: int) -> int:
        return 0 if n == 0 else traced(n - 1)

    def traced(n: int) -> int:
        return recorder.call(("test", "countdown"), countdown, (n,), {})

    traced(3)
    assert len(recorder.spans) == 1


# ----- patching ----------------------------------------------------------------


def _namespaces():
    """Every attribute of every loaded repro module and class, by identity."""
    seen = {}
    for name, module in list(sys.modules.items()):
        if module is None or not name.startswith("repro"):
            continue
        for attr, value in list(vars(module).items()):
            seen[(name, attr)] = value
            if isinstance(value, type) and value.__module__ == name:
                for member, raw in list(vars(value).items()):
                    seen[(name, attr, member)] = raw
    return seen


def test_wrappers_restore_every_patched_name() -> None:
    import repro.crypto.hashing as hashing
    import repro.crypto.keccak as keccak
    from repro.anonauth.scheme import AnonymousAuthScheme

    layers.load_library()
    before = _namespaces()
    original = keccak.keccak_256
    with layers.install(Patcher(Recorder())):
        # The ``from ... import`` binding in hashing is wrapped too.
        assert hashing.keccak_256 is not original
        assert keccak.keccak_256 is not original
        # A wrapped staticmethod is still static.
        assert isinstance(vars(AnonymousAuthScheme)["link"], staticmethod)
        during = _namespaces()
        assert any(during[key] is not before[key] for key in before)
    after = _namespaces()
    assert after.keys() == before.keys()
    assert [key for key in before if after[key] is not before[key]] == []


def test_every_target_is_called_through_its_wrapper() -> None:
    recorder = Recorder()
    from repro.crypto import hashing

    with layers.install(Patcher(recorder)):
        hashing.keccak256(b"abc")
    assert recorder.keys == [("crypto.keccak", "hash")]
    assert recorder.counters["keccak.bytes"] == 3


# ----- deterministic counts ------------------------------------------------------


def _traced_counts(workload, seed: int):
    recorder = Recorder()

    def phase(name, fn):
        with layers.install(Patcher(recorder)):
            return recorder.call((layers.BENCH, name), fn, (), {})

    cohort = run.Cohort(workload, cohort_seed(workload.name, seed, 0), phase=phase)
    cohort.gate(workload)
    chain = chain_counts(cohort.state[0].testnet)
    context = dict(
        cohort.outcome.counts, tasks=workload.size, gas=chain["gas"], retries=0
    )
    values = layers.metrics(layers.Ledger(recorder), context, 1.0)
    counts = {
        name: value
        for name, value in values.items()
        if layers.unit(name) not in ("s", "ratio")
    }
    counts.update(chain)
    return counts


def test_same_seed_gives_identical_counts() -> None:
    workload = EngineWorkload("engine-mock", "test", tasks=2, backend="mock")
    first = _traced_counts(workload, seed=5)
    second = _traced_counts(workload, seed=5)
    assert first == second
    assert first["crypto.keccak.calls"] > 0 and first["gas"] > 0


def test_dark_layers_flags_zero_metrics() -> None:
    lit = {name: 1 for name in layers.MUST_BE_LIT["shard-settle"]}
    assert layers.dark_layers("shard-settle", lit) == []
    lit["chain.sharding.deliveries"] = 0
    assert layers.dark_layers("shard-settle", lit) == ["chain.sharding.deliveries"]


# ----- BENCHMARK.json agrees with the code ---------------------------------------


def test_benchmark_json_matches_the_code() -> None:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    assert {w["name"]: w["why"] for w in spec["workloads"]} == {
        name: w.why for name, w in WORKLOADS.items()
    }
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END_UNITS
    emitted = layers.metrics(
        layers.Ledger(Recorder()),
        {"tasks": 1, "gas": 0, "retries": 0, "rounds": 0},
        1.0,
    )
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == {
        name: layers.unit(name) for name in emitted
    }
    for workload, names in layers.MUST_BE_LIT.items():
        assert workload in WORKLOADS
        assert set(names) <= set(emitted)
