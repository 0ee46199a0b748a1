"""Benchmark for activita: one workload per run, timed end to end or traced.

    python3 perfbench/run.py --workload corpus --seed 0 --seconds 40 --trace 0

Run from the root of a checkout; the library is imported from its ``src``.
With ``--trace 0`` the run repeats untraced passes while the next one still
fits in ``--seconds`` (at least one) and reports the end-to-end metrics.
With ``--trace 1`` it alternates untraced and traced passes in the same way
(at least one of each) and reports the per-layer metrics of the traced ones.
The last line of stdout is one JSON object: correct, attempted, failed,
metrics.  The line before it is the run's record (machine, Python, git sha,
median, quartiles and sample count of each timing, per-check timings).

Every time is read from a ``SpeedClock``, which scales wall time by the
machine's measured speed (see speedclock.py), and every reported time is the
median over the run's repetitions of identical work: passes, set-ups, and for
latencies each operation over the passes.  The record also keeps the wall
times as measured.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import tempfile
import time
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(HERE))

from speedclock import SpeedClock  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import WORKLOADS, PassResult  # noqa: E402

# set-ups timed before each pass, so set-up samples spread over the run
SETUPS_PER_PASS = 3


def setup(workload, clock, times: list[float]) -> tuple[object, object]:
    """Import activita and its CLI from this checkout's src and build the
    inputs, SETUPS_PER_PASS times; keep the last import.

    Each import first drops the copy imported before, so it pays the full
    import cost.  The dropped modules and the last set-up's inputs are
    discarded outside the timed part, so they neither add to the set-up time
    nor linger.
    """
    for _ in range(SETUPS_PER_PASS):
        for name in [n for n in sys.modules if n == "activita" or n.startswith("activita.")]:
            del sys.modules[name]
        workload.discard()
        gc.collect()
        start = clock()
        import activita
        import activita.cli

        workload.setup(activita)
        times.append(clock() - start)
    return activita, activita.cli


def timed_pass(workload, activita, cli, clock, traced: bool) -> tuple[PassResult, float, float, Tracer]:
    """One pass with the full tracer installed, or with spans around the suite
    checks only; returns its result, clock time, wall time and tracer.

    A workload that times no operations of its own gets its suite checks as
    operations.
    """
    tracer = Tracer(checks_only=not traced, clock=clock)
    tracer.install(activita)
    try:
        wall_start, start = time.perf_counter(), clock()
        res = workload.run_pass(activita, cli, clock)
        wall, raw = clock() - start, time.perf_counter() - wall_start
    finally:
        tracer.uninstall()
    if not res.latencies_s:
        res.latencies_s = [duration for _, duration in tracer.check_spans]
    return res, wall, raw, tracer


def summary(values: list[float]) -> dict:
    if len(values) == 1:
        q1 = med = q3 = values[0]
    else:
        q1, med, q3 = statistics.quantiles(values, n=4)
    return {"min": min(values), "median": med, "q1": q1, "q3": q3, "n": len(values)}


def percentile(values: list[float], pct: int) -> float:
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def git_sha() -> str | None:
    """HEAD of the checkout read from .git, or None outside a git checkout."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def machine() -> dict:
    uname = platform.uname()
    return {
        "system": uname.system,
        "release": uname.release,
        "machine": uname.machine,
        "cpus": os.cpu_count(),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
    }


def measure(workload, seconds: float, trace: bool) -> dict:
    """Set up and run passes until the next would overrun ``seconds`` of wall time."""
    passes: list[PassResult] = []
    setups: list[float] = []
    walls = {False: [], True: []}
    raw_walls: list[float] = []
    tracers: list[Tracer] = []
    check_walls: dict[str, list[float]] = {}
    speed = SpeedClock().start()
    try:
        began = time.perf_counter()
        while True:
            activita, cli = setup(workload, speed.now, setups)
            traced = trace and len(walls[False]) > len(walls[True])
            res, wall, raw, tracer = timed_pass(workload, activita, cli, speed.now, traced)
            passes.append(res)
            walls[traced].append(wall)
            if traced:
                tracers.append(tracer)
            else:
                if not raw_walls:
                    first_rss_mb = peak_rss_mb()
                raw_walls.append(raw)
                per_check: dict[str, float] = {}
                for name, duration in tracer.check_spans:
                    per_check[name] = per_check.get(name, 0.0) + duration
                for name, total in per_check.items():
                    check_walls.setdefault(name, []).append(total)
            elapsed = time.perf_counter() - began
            if trace and not tracers:
                continue
            if elapsed + raw > seconds:
                break
    finally:
        speed.stop()
    return {"passes": passes, "setups": setups, "walls": walls, "raw_walls": raw_walls,
            "tracers": tracers, "check_walls": check_walls, "activita": activita,
            "speed": speed, "elapsed": elapsed, "first_rss_mb": first_rss_mb}


def peak_rss_mb() -> float:
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024


def layer_metrics(tracers: list[Tracer], problems: list[str]) -> dict:
    """Median time and the (repeating) counts over the traced passes."""
    runs = [t.layer_metrics() for t in tracers]
    metrics = {}
    for name, (_, unit) in runs[0].items():
        values = [r[name][0] for r in runs]
        if unit != "s" and len(set(values)) > 1:
            problems.append(f"{name} differs between traced passes of one seed: {values}")
        value = statistics.median(values) if unit == "s" else values[0]
        metrics[name] = {"value": value, "unit": unit}
    return metrics


def main(argv: list[str] | None = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not (ROOT / "src" / "activita" / "__init__.py").is_file():
        print(f"error: no activita sources under {ROOT / 'src'}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(ROOT / "src"))
    # the corpus must be the built-in one
    os.environ.pop("ACTIVITA_CORPUS_DIR", None)

    workdir = Path(tempfile.mkdtemp(prefix=".perfbench_tmp_", dir=ROOT))
    try:
        workload = WORKLOADS[args.workload](args.seed, workdir)
        run = measure(workload, args.seconds, bool(args.trace))
        passes, setup_times = run["passes"], run["setups"]
        problems = [p for res in passes for p in res.problems]
        problems += workload.check(run["activita"], passes)
        if len({p.digest for p in passes}) > 1:
            problems.append("stdout differs between passes with one seed")
        recorded = workload.digest_seed0
        if args.seed == 0 and recorded and passes[0].digest != recorded:
            problems.append("stdout at seed 0 differs from the recorded digest")
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted = sum(p.attempted for p in passes)
    failed = sum(p.failed for p in passes)
    walls = run["walls"]
    untraced = passes[::2] if args.trace else passes
    latencies_ms = [d * 1000 for res in untraced for d in res.latencies_s]
    # every pass runs the same operations in the same order
    per_op_ms = [statistics.median(op) * 1000 for op in zip(*(res.latencies_s for res in untraced))]
    speed = run["speed"]
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "cap": workload.cap,
        "loop": "closed, 1 client",
        "seconds": args.seconds,
        "trace": args.trace,
        "machine": machine(),
        "git_sha": git_sha(),
        "fail_ratio": failed / attempted,
        "digests": sorted({p.digest for p in passes}),
        "setup_s": summary(setup_times),
        "wall_s": summary(walls[False]),
        "measured_wall_s": summary(run["raw_walls"]),
        "query_ms": summary(latencies_ms),
        "query_per_op_median_ms": summary(per_op_ms),
        "speed_kernel_us": summary([k * 1e6 for k in speed.samples]),
        "speed_handler_share": speed.handler_s / run["elapsed"],
        "peak_rss_mb_end": peak_rss_mb(),
        "check_s": {name: summary(v) for name, v in sorted(run["check_walls"].items())},
    }
    if args.trace:
        metrics = layer_metrics(run["tracers"], problems)
        overhead = statistics.median(walls[True]) / statistics.median(walls[False])
        metrics["trace.overhead_ratio"] = {"value": overhead, "unit": "ratio"}
        record["traced_wall_s"] = summary(walls[True])
        record["calls_by_check"] = run["tracers"][0].calls_by_check
    else:
        metrics = {
            "wall_s": {"value": statistics.median(walls[False]), "unit": "s"},
            "setup_s": {"value": statistics.median(setup_times), "unit": "s"},
            "query_p50_ms": {"value": statistics.median(per_op_ms), "unit": "ms"},
            "query_p95_ms": {"value": percentile(per_op_ms, 95), "unit": "ms"},
            # the process grows a little with every set-up, so later passes
            # would tie the peak to the number of passes, i.e. to the speed
            "peak_rss_mb": {"value": run["first_rss_mb"], "unit": "MB"},
        }
    record["problems"] = problems[:20]
    for problem in problems[:20]:
        print(f"problem: {problem}", file=sys.stderr)
    print(json.dumps({"record": record}, sort_keys=True))
    print(json.dumps({
        "correct": not problems and failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
