"""Tests of the benchmark itself.

    python3 -m pytest perfbench/tests -q

The traced-run tests start the benchmark twice per workload and take about a
minute in all.
"""

from __future__ import annotations

import json
import signal
import subprocess
import sys
import time
from pathlib import Path

import pytest

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
sys.path.insert(0, str(BENCH))
sys.path.insert(0, str(ROOT / "src"))

import activita  # noqa: E402
from speedclock import SpeedClock  # noqa: E402
from tracer import Tracer  # noqa: E402
from workloads import generate_specs  # noqa: E402


def traced_run(workload: str, seed: int) -> tuple[dict, dict]:
    proc = subprocess.run(
        [sys.executable, str(BENCH / "run.py"), "--workload", workload,
         "--seed", str(seed), "--seconds", "1", "--trace", "1"],
        cwd=ROOT, capture_output=True, text=True, timeout=600, check=True,
    )
    *_, record, result = proc.stdout.splitlines()
    return json.loads(record)["record"], json.loads(result)


def counts(result: dict) -> dict:
    return {
        name: m["value"]
        for name, m in result["metrics"].items()
        if m["unit"] in ("count", "ratio") and name != "trace.overhead_ratio"
    }


@pytest.mark.parametrize("workload", ["corpus", "cold-queries"])
def test_traced_counts_repeat_across_runs(workload):
    rec1, res1 = traced_run(workload, 3)
    rec2, res2 = traced_run(workload, 3)
    assert res1["correct"] and res2["correct"]
    assert counts(res1) == counts(res2)
    assert counts(res1)["activity.profile.calls"] > 0
    assert rec1["calls_by_check"] == rec2["calls_by_check"]
    assert rec1["digests"] == rec2["digests"]


def test_self_times_add_up_and_uninstall_restores():
    m = activita.m5()
    originals = (activita.build_complex, activita.complexes.facet_F,
                 activita.Matroid.__dict__["is_independent"], activita.suite.ALL_CHECKS)
    tracer = Tracer().install(activita)
    try:
        activita.build_complex(m, "augmented-ea").fh
    finally:
        tracer.uninstall()
    after = (activita.build_complex, activita.complexes.facet_F,
             activita.Matroid.__dict__["is_independent"], activita.suite.ALL_CHECKS)
    assert after == originals
    metrics = tracer.layer_metrics()
    assert metrics["complexes.facet_F.calls"][0] == len(m.independent_sets)
    assert metrics["complexes.faces"][0] == len(activita.build_complex(m, "augmented-ea").faces)
    # every traced call made here sits under one of the two top-level spans
    top_level = metrics["complexes.build_s"][0] + tracer.stats["complexes.fh"].group[1]
    total_self = sum(v for name, (v, _) in metrics.items() if name.endswith(".self_s"))
    assert total_self == pytest.approx(top_level)


def test_cold_specs_are_relabelings_of_one_stream():
    for seed in (0, 1):
        specs = generate_specs(seed)
        assert len(specs) == 60
        shapes = [
            (len(m.bases), len(m.independent_sets), m.rank)
            for m in (activita.specio.matroid_from_dict(s) for s, _, _ in specs)
        ]
        if seed == 0:
            first = shapes
            assert {r for _, _, r in shapes} >= {0, 1, 2, 3, 4}
        else:
            assert shapes == first


def test_speed_clock_samples_and_restores_the_handler():
    before = signal.getsignal(signal.SIGALRM)
    clock = SpeedClock().start()
    try:
        readings = [clock.now()]
        end = time.perf_counter() + 0.2
        while time.perf_counter() < end:
            readings.append(clock.now())
    finally:
        clock.stop()
    assert signal.getsignal(signal.SIGALRM) == before
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)
    assert len(clock.samples) >= 5
    assert readings == sorted(readings) and readings[-1] > readings[0]
    assert 0 < clock.handler_s < 0.2
