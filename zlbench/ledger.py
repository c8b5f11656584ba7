"""Render the per-layer cost ledger of a traced run.

Usage::

    python3 zlbench/run.py --workload engine-mock --seed 1 --seconds 20 --trace 1 \\
        | python3 zlbench/ledger.py

reads the run's result (its last JSON line) and prints layer → self
seconds → share of the traced wall, with ``trace.attributed_share`` and
``trace.overhead``.  ``run.py`` prints the same table itself before its
result line.
"""

from __future__ import annotations

import json
import sys
from typing import Dict, List, Tuple

from layers import BENCH, FORK_WAIT, LAYERS


def rows(values: Dict[str, float]) -> List[Tuple[str, float]]:
    """(layer, self seconds), largest first; the benchmark's own
    (unattributed) time and the parent-side fork-pool wait are rows of
    their own."""
    wall = values["trace.wall_s"]
    out = [
        (layer, values[f"{layer}.self_s"])
        for layer in LAYERS
        if layer != FORK_WAIT
    ]
    out.append((FORK_WAIT, values["core.engine.fork_wait_s"]))
    out.append((BENCH, wall * (1.0 - values["trace.attributed_share"])))
    return sorted(out, key=lambda row: -row[1])


def render(values: Dict[str, float]) -> str:
    wall = values["trace.wall_s"]
    lines = [f"{'layer':<24}{'self_s':>10}{'share':>8}"]
    for layer, seconds in rows(values):
        share = seconds / wall if wall else 0.0
        lines.append(f"{layer:<24}{seconds:>10.4f}{share:>8.1%}")
    lines.append(f"{'traced wall':<24}{wall:>10.4f}")
    lines.append(f"trace.attributed_share {values['trace.attributed_share']:.4f}")
    lines.append(f"trace.overhead {values['trace.overhead']:.4f}")
    return "\n".join(lines)


def main() -> int:
    last = [line for line in sys.stdin.read().splitlines() if line.strip()][-1]
    metrics = json.loads(last)["metrics"]
    print(render({name: entry["value"] for name, entry in metrics.items()}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
