"""ZebraLancer end-to-end benchmark: one workload, one result line.

Run from the repository root::

    python3 zlbench/run.py --workload engine-mock --seed 1 --seconds 20 --trace 0

``--trace 0`` repeats cohorts of the workload for ``--seconds`` seconds
with no tracing and reports the end-to-end metrics (medians over
cohorts).  ``--trace 1`` runs one cohort untraced twice (the first
warms the process) and the same cohort again with every layer wrapped,
prints the cost ledger, and reports the per-layer metrics.  Either way
every cohort passes the correctness gate outside its timed region; a
cohort that fails it counts as failed and is not timed, and the run
exits non-zero.

The last line of standard output is the result::

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

preceded by a ``{"host": ...}`` line (usable CPUs, Python, git sha).
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
import traceback
from pathlib import Path
from typing import Any, Dict, List, Optional

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"

#: Extra set-ups (untimed runs) fill up to this many set-up samples.
MIN_SETUP_SAMPLES = 5

END_TO_END_UNITS = {
    "tasks_per_s": "1/s",
    "setup_s": "s",
    "cpu_s_per_task": "s",
    "peak_rss_mb": "MB",
    "task_latency_blocks_p50": "blocks",
    "task_latency_blocks_max": "blocks",
    "task_success_rate": "ratio",
}


def host_block() -> Dict[str, Any]:
    sha: Optional[str] = None
    dirty: Optional[bool] = None
    try:
        top = subprocess.run(
            ["git", "-C", str(ROOT), "rev-parse", "--show-toplevel", "HEAD"],
            capture_output=True, text=True, timeout=30,
        )
        lines = top.stdout.split()
        if top.returncode == 0 and Path(lines[0]).resolve() == ROOT:
            sha = lines[1]
            status = subprocess.run(
                ["git", "-C", str(ROOT), "status", "--porcelain", "-uno"],
                capture_output=True, text=True, timeout=30,
            )
            dirty = bool(status.stdout.strip()) if status.returncode == 0 else None
    except (OSError, subprocess.SubprocessError, IndexError):
        pass
    return {
        "usable_cpus": len(os.sched_getaffinity(0)),
        "os_cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "git_sha": sha,
        "git_dirty": dirty,
    }


def cpu_seconds() -> float:
    """This process's CPU plus that of every reaped child (fork pools)."""
    own = resource.getrusage(resource.RUSAGE_SELF)
    kids = resource.getrusage(resource.RUSAGE_CHILDREN)
    return own.ru_utime + own.ru_stime + kids.ru_utime + kids.ru_stime


class Cohort:
    """One gated cohort: its timings and outputs."""

    def __init__(self, workload, seed: bytes, phase=None) -> None:
        # ``phase(name, fn)`` runs one step; tracing wraps it in a span.
        phase = phase or (lambda name, fn: fn())
        t0 = time.perf_counter()
        self.state = phase("setup", lambda: workload.setup(seed))
        t1 = time.perf_counter()
        cpu0 = cpu_seconds()
        self.outcome = phase("run", lambda: workload.run(self.state))
        t2 = time.perf_counter()
        self.cpu_s = cpu_seconds() - cpu0
        self.setup_s = t1 - t0
        self.run_s = t2 - t1

    def gate(self, workload) -> None:
        workload.gate(self.state, self.outcome)


def _metric(value: float, unit: str) -> Dict[str, Any]:
    return {"value": value, "unit": unit}


def measure(workload, seed: int, seconds: float) -> Dict[str, Any]:
    from workloads import cohort_seed

    attempted = failed = 0
    setups: List[float] = []
    rates: List[float] = []
    cpu_per_task: List[float] = []
    latencies: List[int] = []
    start = time.perf_counter()
    index = 0
    last = 0.0
    # Start another cohort only if one as long as the last still fits.
    while index == 0 or time.perf_counter() - start + last <= seconds:
        inputs = cohort_seed(workload.name, seed, index)
        index += 1
        attempted += workload.size
        began = time.perf_counter()
        try:
            cohort = Cohort(workload, inputs)
            cohort.gate(workload)
        except Exception:  # noqa: BLE001 - a failed cohort is reported, not fatal
            traceback.print_exc()
            failed += workload.size
            continue
        finally:
            last = time.perf_counter() - began
        done = cohort.outcome.completed
        failed += workload.size - done
        print(
            f"cohort {index - 1}: setup {cohort.setup_s:.3f}s run {cohort.run_s:.3f}s "
            f"cpu {cohort.cpu_s:.3f}s done {done}/{workload.size}",
            file=sys.stderr,
        )
        setups.append(cohort.setup_s)
        rates.append(done / cohort.run_s)
        cpu_per_task.append(cohort.cpu_s / done)
        latencies.extend(cohort.outcome.latency_blocks)
    while setups and len(setups) < MIN_SETUP_SAMPLES:
        t0 = time.perf_counter()
        workload.setup(cohort_seed(workload.name, seed, index))
        setups.append(time.perf_counter() - t0)
        index += 1
    metrics: Dict[str, Any] = {}
    if rates:
        values = {
            "tasks_per_s": statistics.median(rates),
            "setup_s": statistics.median(setups),
            "cpu_s_per_task": statistics.median(cpu_per_task),
            "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
            "task_latency_blocks_p50": statistics.median(latencies),
            "task_latency_blocks_max": max(latencies),
            "task_success_rate": (attempted - failed) / attempted,
        }
        metrics = {
            name: _metric(value, END_TO_END_UNITS[name])
            for name, value in values.items()
        }
    return {
        "correct": failed == 0 and bool(rates),
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }


def trace(workload, seed: int) -> Dict[str, Any]:
    import layers
    import ledger
    from tracing import Patcher, Recorder
    from workloads import chain_counts, cohort_seed

    inputs = cohort_seed(workload.name, seed, 0)
    layers.load_library()  # outside both timed cohorts
    recorder = Recorder()

    def traced(name: str, fn):
        with layers.install(Patcher(recorder)):
            return recorder.call((layers.BENCH, name), fn, (), {})

    try:
        # The first cohort warms the process's caches, so the untraced
        # and traced cohorts compared for ``trace.overhead`` both run warm.
        for _ in range(2):
            untraced = Cohort(workload, inputs)
            untraced.gate(workload)
        cohort = Cohort(workload, inputs, phase=traced)
        cohort.gate(workload)
    except Exception:  # noqa: BLE001 - a failed cohort is reported, not fatal
        traceback.print_exc()
        return {"correct": False, "attempted": workload.size,
                "failed": workload.size, "metrics": {}}
    system = cohort.state[0]
    chain = system.testnet
    senders = [chain.tx_sender] + [
        net.tx_sender for net in getattr(chain, "shard_testnets", [])
    ]
    context = dict(cohort.outcome.counts)
    context["tasks"] = cohort.outcome.attempted
    context["gas"] = chain_counts(chain)["gas"]
    context["retries"] = sum(s.total_resubmissions for s in senders)
    values = layers.metrics(
        layers.Ledger(recorder), context, untraced.setup_s + untraced.run_s
    )
    print(ledger.render(values))
    dark = layers.dark_layers(workload.name, values)
    if dark:
        print(f"dark layers on {workload.name}: {', '.join(dark)}", file=sys.stderr)
    done = cohort.outcome.completed
    return {
        "correct": not dark and done == workload.size,
        "attempted": workload.size,
        "failed": workload.size - done,
        "metrics": {
            name: _metric(value, layers.unit(name)) for name, value in values.items()
        },
    }


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)
    if not (SRC / "repro").is_dir():
        print(f"no library source at {SRC / 'repro'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(SRC))
    from workloads import WORKLOADS

    workload = WORKLOADS.get(args.workload)
    if workload is None:
        print(f"unknown workload {args.workload!r}; have {sorted(WORKLOADS)}",
              file=sys.stderr)
        return 2
    print(json.dumps({"host": host_block(), "workload": workload.name,
                      "seed": args.seed}))
    if args.trace:
        result = trace(workload, args.seed)
    else:
        result = measure(workload, args.seed, args.seconds)
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
