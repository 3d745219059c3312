#!/usr/bin/env python3
"""Paired benchmark runs of two checkouts, alternating which side runs first.

PARENT and CHANGE are two checkouts of this repository.  Each of ten pairs
runs ``perfbench/run.py --trace 0`` in both for the ``run_seconds`` of the
change's BENCHMARK.json, the parent first in even pairs and the change first
in odd ones, so a drift in machine speed falls on both sides alike.  For
every end-to-end metric of that file the script prints each side's median
and quartiles, the change of the medians, in how many pairs the change was
better (ties count for neither side), whether that supports a claimed
gain (a win in at least nine of the ten pairs, medians further apart than
the parent's quartiles, and no larger a share of failed operations than the
parent's) and whether the change stayed within the metric's ``bound``: "no"
when its median is worse than the parent's by more than the bound (relative
to the parent's median); otherwise "unresolved" when either side's quartile
spread, relative to its median, is wider than the bound, unless every run
of the change is better than every run of the parent; else "yes".

Example:
    python3 scripts/paired_bench.py ../parent . --workload voronoi-poisson --seed 1
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

PAIRS = 10


def run_once(checkout: Path, workload: str, seed: int, seconds: float) -> dict:
    """One ``perfbench/run.py`` run in ``checkout``: its last output line, as JSON."""
    out = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload, "--seed", str(seed),
         "--seconds", str(seconds), "--trace", "0"],
        cwd=checkout, check=True, capture_output=True, text=True,
    ).stdout
    return json.loads(out.strip().splitlines()[-1])


def quartiles(values: list[float]) -> tuple[float, float, float]:
    """First quartile, median and third quartile."""
    if len(values) == 1:
        return values[0], values[0], values[0]
    q1, median, q3 = statistics.quantiles(values, n=4, method="inclusive")
    return q1, median, q3


def within_bound(parent: list[float], change: list[float], sign: float, bound: float) -> str:
    """"yes", "no" or "unresolved": whether the change's runs stayed within
    ``bound`` of the parent's, as the module docstring says; ``sign`` is 1.0
    where higher is better and -1.0 where lower is."""
    p_q, c_q = quartiles(parent), quartiles(change)
    if -sign * (c_q[1] - p_q[1]) > bound * abs(p_q[1]):
        return "no"
    if min(sign * c for c in change) > max(sign * p for p in parent):
        return "yes"
    if any(q[2] - q[0] > bound * abs(q[1]) for q in (p_q, c_q)):
        return "unresolved"
    return "yes"


def summarize(pairs: list[tuple[dict, dict]], metrics: list[dict], ops: dict) -> list[dict]:
    """One row per metric of ``metrics`` (BENCHMARK.json's ``end_to_end``, each
    with its ``bound``) over ``pairs`` of (parent, change) metric values by
    name; ``ops[side]`` holds the ``attempted`` and ``failed`` operations of
    each side.  A gain is claimable only from ``PAIRS`` pairs or more, and
    only if the change fails no larger a share of its operations."""
    rows = []
    parent_ops, change_ops = ops["parent"], ops["change"]
    # failed / attempted of the change <= that of the parent, in integers.
    fails_no_more = (change_ops["failed"] * parent_ops["attempted"]
                     <= parent_ops["failed"] * change_ops["attempted"])
    for spec in metrics:
        name, sign = spec["name"], 1.0 if spec["better"] == "higher" else -1.0
        parent = [p[name] for p, _ in pairs]
        change = [c[name] for _, c in pairs]
        p_q, c_q = quartiles(parent), quartiles(change)
        wins = sum(sign * (c - p) > 0 for p, c in zip(parent, change))
        gain = sign * (c_q[1] - p_q[1])
        rows.append({
            "name": name, "unit": spec["unit"], "parent": p_q, "change": c_q,
            "relative": (c_q[1] - p_q[1]) / p_q[1], "wins": wins, "pairs": len(pairs),
            "claimable": (len(pairs) >= PAIRS and 10 * wins >= 9 * len(pairs)
                          and gain > p_q[2] - p_q[0] and fails_no_more),
            "within_bound": within_bound(parent, change, sign, spec["bound"]),
        })
    return rows


def render(rows: list[dict]) -> str:
    lines = ["| metric | parent q1 / median / q3 | change q1 / median / q3 | median change "
             "| change better | gain claimable | within bound |", "|---|---|---|---|---|---|---|"]
    for row in rows:
        p, c = (" / ".join(f"{v:.4g}" for v in row[side]) for side in ("parent", "change"))
        lines.append(f"| {row['name']} ({row['unit']}) | {p} | {c} | {row['relative']:+.1%} "
                     f"| {row['wins']}/{row['pairs']} | {'yes' if row['claimable'] else 'no'} "
                     f"| {row['within_bound']} |")
    return "\n".join(lines)


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("parent", type=Path)
    parser.add_argument("change", type=Path)
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    args = parser.parse_args(argv)
    spec = json.loads((args.change / "BENCHMARK.json").read_text())
    metrics, seconds = spec["end_to_end"], spec["run_seconds"]
    pairs = []
    ops = {side: {"attempted": 0, "failed": 0} for side in ("parent", "change")}
    for i in range(PAIRS):
        sides = ("parent", "change") if i % 2 == 0 else ("change", "parent")
        result = {}
        for side in sides:
            out = run_once(getattr(args, side), args.workload, args.seed, seconds)
            for count in ("attempted", "failed"):
                ops[side][count] += out[count]
            result[side] = {name: m["value"] for name, m in out["metrics"].items()}
        pairs.append((result["parent"], result["change"]))
        print(f"pair {i + 1}/{PAIRS}: " + ", ".join(
            f"{m['name']} {result['parent'][m['name']]:.4g} -> {result['change'][m['name']]:.4g}"
            for m in metrics), flush=True)
    shares = ", ".join(
        f"{side} {ops[side]['failed']}/{ops[side]['attempted']} "
        f"({ops[side]['failed'] / max(ops[side]['attempted'], 1):.2%})" for side in ops)
    print(f"\n{args.workload}, seed {args.seed}, {PAIRS} pairs of {seconds:g} s; "
          f"failed operations: {shares}")
    print(render(summarize(pairs, metrics, ops)))
    return 0


if __name__ == "__main__":
    sys.exit(main())
