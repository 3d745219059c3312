"""Run one benchmark workload and print its metrics.

    python3 perfbench/run.py --workload trapezoid-study --seed 0 --seconds 28 --trace 0

Run from the repository root.  The program is imported from ``src/``.
Every metric is printed as ``<name> <value> <unit>``; the last line is one
JSON object with ``correct``, ``attempted``, ``failed`` and ``metrics``:
the end-to-end metrics with ``--trace 0``, the per-layer metrics with
``--trace 1``.  Every operation's result is checked (see ``workloads.py``).

Load comes from this one process, one operation at a time (a closed loop
with one client).  BLAS is pinned to one thread.  End-to-end times are
scaled to one machine speed with the reference kernel of ``calibrate.py``.
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
from contextlib import nullcontext
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"

SETUP_MIN = 3          # set-up samples per run, at least ...
SETUP_SECONDS = 5.0    # ... and about as many as take this long
TAIL_BEYOND = 10
SPEED_SHARE = 0.2      # reference-kernel time per second of operation or set-up
SPEED_WINDOW = 0.4     # reference-kernel seconds that scale one operation, at least

# One set-up sample, in a fresh interpreter: import the program, generate
# the inputs (not timed) and run the workload's one-time program calls.
PROBE = """
import sys, time
sys.path[:0] = [{src!r}, {here!r}]
import polyserend
imported = time.monotonic()
from workloads import WORKLOADS
workload = WORKLOADS[{name!r}]({seed})
start = time.monotonic()
workload.setup()
print(imported, time.monotonic() - start)
"""


def fail(message: str) -> None:
    print(f"perfbench: {message}", file=sys.stderr)
    sys.exit(2)


def setup_seconds(name: str, seed: int) -> float:
    """Time from starting a fresh interpreter to its first operation, input generation excluded.

    The child reports the system-wide monotonic clock at the end of its
    import, so neither its exit nor the parent's wait for it is counted.
    """
    code = PROBE.format(src=str(SRC), here=str(HERE), name=name, seed=seed)
    t0 = time.monotonic()
    child = subprocess.run([sys.executable, "-c", code], check=True, timeout=120,
                           capture_output=True, text=True)
    imported, setup = map(float, child.stdout.split())
    return imported - t0 + setup


def tail(times: list[float]) -> tuple[float, float]:
    """Highest percentile with at least TAIL_BEYOND samples beyond it, never below the median.

    Returns (value, percentile).  With fewer than 2 * TAIL_BEYOND + 1
    samples no percentile above the median qualifies, and the median is
    returned with percentile 50.
    """
    ordered = sorted(times)
    k = len(ordered) - 1 - TAIL_BEYOND
    if k <= (len(ordered) - 1) / 2:
        return statistics.median(ordered), 50.0
    return ordered[k], 100.0 * (k + 1) / len(ordered)


class Loop:
    """Closed loop of operations for a fixed time; every result is checked."""

    def __init__(self, workload, tracer=None):
        self.workload = workload
        self.tracer = tracer
        self.times: list[float] = []
        self.blocks: list[int] = []   # speed block after each timed operation
        self.attempted = 0
        self.failed = 0
        self.completed = 0

    def _root(self, name: str):
        return self.tracer.span(name) if self.tracer is not None else nullcontext()

    def setup(self) -> float:
        t0 = time.perf_counter()
        with self._root("setup"):
            self.workload.setup()
        return time.perf_counter() - t0

    def step(self, i: int) -> None:
        self.attempted += 1
        try:
            t0 = time.perf_counter()
            with self._root("op"):
                result = self.workload.op(i)
            self.times.append(time.perf_counter() - t0)
            problems = self.workload.check(i, result)
        except Exception:
            traceback.print_exc()
            problems = ["raised"]
        if problems:
            self.failed += 1
            print(f"op {i} failed: {'; '.join(problems)}", file=sys.stderr)
        else:
            self.completed += 1

    def run(self, seconds: float, speed, every: float, between) -> float:
        """Run operations until they and the speed samples have taken ``seconds``.

        After each operation ``speed`` runs its reference kernel for a share
        of that operation's time; ``blocks`` keeps the index of the block
        that follows each timed operation.  ``between`` is called after the
        operation that passes each further ``every`` seconds of operation
        time, outside both clocks.  Returns the time the operations took.
        """
        busy, sampled, due, i = 0.0, 0.0, every, 0
        while busy + sampled < seconds:
            t0 = time.perf_counter()
            self.step(i)
            took = time.perf_counter() - t0
            busy += took
            block = speed.after(took)
            sampled += speed.blocks[block][0]
            if len(self.times) > len(self.blocks):
                self.blocks.append(block)
            i += 1
            if due <= busy and busy + sampled < seconds:
                between()
                due += every
        return busy


def machine() -> dict:
    import numpy
    import scipy

    def cache(level: int) -> str | None:
        base = Path("/sys/devices/system/cpu/cpu0/cache")
        for index in sorted(base.glob("index*")):
            kind = (index / "type").read_text().strip()
            if int((index / "level").read_text()) == level and kind in ("Unified", "Data"):
                return (index / "size").read_text().strip()
        return None

    return {
        "nproc": os.cpu_count(),
        "l2": cache(2),
        "l3": cache(3),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "blas_threads": os.environ["OPENBLAS_NUM_THREADS"],
    }


def untraced(workload, seconds: float) -> tuple[dict, Loop]:
    """End-to-end metrics, in seconds at the reference machine speed.

    The reference kernel of ``calibrate.py`` runs after every operation and
    every set-up sample, for SPEED_SHARE of its time.  Each operation and
    each set-up sample is divided by the kernel's slowdown in the blocks
    around it (at least SPEED_WINDOW seconds of them), and ``ops_per_s`` by
    the mean slowdown over the run, so drift in the shared host's speed
    cancels out.  Set-up is sampled in fresh processes, one before the timed
    loop and the rest spread over it (outside the operations' clock).
    """
    from calibrate import Speed

    speed = Speed(SPEED_SHARE, SPEED_WINDOW)
    speed.warm()
    raw, after = [], []

    def sample_setup() -> None:
        raw.append(setup_seconds(workload.name, workload.seed))
        after.append(speed.after(raw[-1]))

    sample_setup()
    count = max(SETUP_MIN, round(SETUP_SECONDS / raw[0]))
    loop = Loop(workload)
    loop.setup()
    elapsed = loop.run(seconds, speed, seconds / (1 + SPEED_SHARE) / count, sample_setup)
    slow = speed.slowdown()
    samples = [t / speed.near(b) for t, b in zip(raw, after)]
    scaled = [t / speed.near(b) for t, b in zip(loop.times, loop.blocks)]
    tail_s, tail_pct = tail(scaled)
    print(f"set-up samples {len(samples)}")
    print(f"samples {len(loop.times)}  tail percentile {tail_pct:.1f}  "
          f"fail_ratio {loop.failed / loop.attempted:.4f}")
    print(f"speed samples {len(speed.times)}  mean slowdown {slow:.4f}  unscaled: "
          f"setup_s {statistics.median(raw):.4f}  op_p50_s {statistics.median(loop.times):.4f}  "
          f"op_tail_s {tail(loop.times)[0]:.4f}  ops_per_s {loop.completed / elapsed:.4f}")
    metrics = {
        "setup_s": (statistics.median(samples), "s"),
        "op_p50_s": (statistics.median(scaled), "s"),
        "op_tail_s": (tail_s, "s"),
        "ops_per_s": (loop.completed / elapsed * slow, "1/s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    return metrics, loop


def traced(workload, seconds: float, trace_path: Path, spec: dict) -> tuple[dict, list[Loop]]:
    """Per-layer metrics of ``spec`` from spans; traced and untraced operations alternate.

    Both sides of each pair run the same input, so drift in machine speed
    cancels out of ``trace.overhead_ratio``.  Layer figures are for one
    set-up plus one mean operation, so layers that only run in set-up
    (dirichlet-sweep's assembly) still show.
    """
    from spans import Tracer
    from workloads import input_properties

    tracer = Tracer()
    plain, loop = Loop(workload), Loop(workload, tracer)
    with tracer.install():
        loop.setup()
    properties = input_properties(workload.meshes())
    start = time.perf_counter()
    i = 0
    while time.perf_counter() - start < seconds:
        plain.step(i)
        with tracer.install():
            loop.step(i)
        i += 1
    tracer.dump(trace_path, {"workload": workload.name, "seed": workload.seed})

    totals = tracer.totals()
    ops = max(len(loop.times), 1)
    base = statistics.median(plain.times)
    # Each operation's self time in the spans that BENCHMARK.json reports:
    # unreported spans (convergence_study, trapezoid_mesh, cell_maps) and
    # the loop itself are left out, so a gap in the layers shows.
    reported = {m["name"].rsplit(".", 1)[0] for m in spec["per_layer"]
                if m["name"].endswith((".s", ".self_s", ".calls"))}
    accounted = [t for sid, t in tracer.root_self_times(reported).items()
                 if tracer.names[sid] == "op"]
    values = {name: totals["setup"][name] + totals["op"][name] / ops
              for name in totals["setup"].keys() | totals["op"].keys()}
    values.update(properties)
    values["trace.overhead_ratio"] = statistics.median(loop.times) / base
    values["trace.accounted_ratio"] = statistics.median(accounted) / base
    values["trace.absent_targets"] = len(tracer.absent)
    # A name the program no longer calls has zero calls and zero time.
    metrics = {m["name"]: (values.get(m["name"], 0), m["unit"]) for m in spec["per_layer"]}
    for name in sorted(tracer.absent):
        print(f"absent: {name}")
    print("op self time by span (s per op):")
    for key, value in sorted(totals["op"].items(), key=lambda kv: -kv[1]):
        if key.endswith(".self_s"):
            print(f"  {key[:-7]:36s} {value / ops:.4f}")
    return metrics, [plain, loop]


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    # Pinned before numpy is first imported; the set-up probes inherit it.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"

    if not (SRC / "polyserend" / "__init__.py").is_file():
        fail(f"no program sources at {SRC}; run from a full checkout")
    sys.path.insert(0, str(SRC))
    sys.path.insert(0, str(HERE))
    import polyserend
    from workloads import WORKLOADS

    if Path(polyserend.__file__).resolve().parent != SRC / "polyserend":
        fail(f"imported polyserend from {polyserend.__file__}, not from {SRC}")
    if args.workload not in WORKLOADS:
        fail(f"unknown workload {args.workload!r}; choose from {', '.join(WORKLOADS)}")
    if args.seconds <= 0:
        fail("--seconds must be positive")

    print("machine " + json.dumps(machine()))
    workload = WORKLOADS[args.workload](args.seed)
    if args.trace:
        trace_path = HERE / "out" / f"{args.workload}-seed{args.seed}.trace.json"
        spec = json.loads((ROOT / "BENCHMARK.json").read_text())
        metrics, loops = traced(workload, args.seconds, trace_path, spec)
        print(f"spans written to {trace_path.relative_to(ROOT)}")
    else:
        metrics, loop = untraced(workload, args.seconds)
        loops = [loop]
    attempted = sum(loop.attempted for loop in loops)
    failed = sum(loop.failed for loop in loops)
    for name, (value, unit) in metrics.items():
        print(f"{name} {value:.6g} {unit}")
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": v, "unit": unit} for name, (v, unit) in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
