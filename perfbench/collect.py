"""Run a workload on several seeds and report each metric's spread.

    python3 perfbench/collect.py --workload voronoi-poisson --seeds 0-9 [--out runs.json]

Runs ``run.py`` once per seed, one run at a time, with the ``run_seconds``
of BENCHMARK.json.  For every metric it prints the median, the quartiles
(``statistics.quantiles(values, n=4)``), the spread (third minus first
quartile, as a share of the median) and, for end-to-end metrics, the bound
and whether the spread stays under a third of it.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def seeds(text: str) -> list[int]:
    lo, _, hi = text.partition("-")
    return list(range(int(lo), int(hi or lo) + 1))


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seeds", type=seeds, default=seeds("0-9"))
    parser.add_argument("--out", type=Path)
    args = parser.parse_args()

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    bounds = {m["name"]: m["bound"] for m in spec["end_to_end"]}
    runs = []
    for seed in args.seeds:
        cmd = [*spec["command"], "--workload", args.workload, "--seed", str(seed),
               "--seconds", str(spec["run_seconds"]), "--trace", "0"]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True, timeout=600)
        if proc.returncode != 0:
            print(proc.stderr, file=sys.stderr)
            return 1
        result = json.loads(proc.stdout.strip().splitlines()[-1])
        runs.append({"seed": seed, **result})
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']}", flush=True)
    if args.out:
        args.out.write_text(json.dumps(runs, indent=1) + "\n")

    print(f"{'metric':40s} {'median':>12s} {'q1':>12s} {'q3':>12s} {'spread':>8s} {'bound':>6s}")
    ok = all(run["correct"] for run in runs)
    for name in runs[0]["metrics"]:
        values = [run["metrics"][name]["value"] for run in runs]
        q1, median, q3 = statistics.quantiles(values, n=4)
        spread = (q3 - q1) / median if median else 0.0
        line = f"{name:40s} {median:12.6g} {q1:12.6g} {q3:12.6g} {spread:8.4f}"
        if name in bounds:
            steady = spread < bounds[name] / 3
            ok &= steady
            line += f" {bounds[name]:6.2f} {'ok' if steady else 'WIDE'}"
        print(line)
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
