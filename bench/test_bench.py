"""Tests of the benchmark itself: corpus determinism, smoke runs, traced counts.

    python3 -m pytest -q bench/test_bench.py
"""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import pytest

import corpus

BENCH = Path(__file__).resolve().parent
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text(encoding="utf-8"))
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def serialized(workload: str, seed: int, count: int) -> list[str]:
    ops = corpus.operations(workload, seed)
    return [corpus.serialize(op) for op in islice(ops, count)]


def bench(workload: str, seed: int, seconds: float, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    cmd = [sys.executable, "bench/run.py", "--workload", workload, "--seed", str(seed),
           "--seconds", str(seconds), "--trace", str(trace)]
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=170)


def result_of(proc: subprocess.CompletedProcess) -> dict:
    assert proc.returncode == 0, proc.stderr
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
def test_same_seed_same_corpus_other_seed_other_corpus(workload):
    first = serialized(workload, 7, 24)
    assert first == serialized(workload, 7, 24)
    assert first != serialized(workload, 8, 24)


def test_weave_corpus_holds_non_circles_and_defect_labels():
    ops = list(islice(corpus.operations("weave", 3), 64))
    perturbed = [op for op in ops if op["perturb"]]
    assert 0 < len(perturbed) <= len(ops) // 4
    assert {op["perturb"]["kind"] for op in perturbed} == {"off_plane", "chord"}
    for op in perturbed:
        chord_off_circle = op["perturb"]["kind"] == "chord" and op["expect"] is False
        assert op["defect"] == (corpus.COPLANAR_DEFECT if chord_off_circle else None)


def test_only_an_accepted_non_circle_is_excused():
    import run

    class Program:
        class TooFewPoints(Exception):
            pass

        def __init__(self, verdict):
            self.verdict = verdict

        def coordinate_curve(self, spec, which, fixed, samples, mask_poles):
            return op["points"]

        def is_circle_or_line(self, points):
            if isinstance(self.verdict, Exception):
                raise self.verdict
            return self.verdict

    op = next(op for op in corpus.operations("weave", 3) if op["defect"])
    assert run.run_weave(Program(True), op, None).known_defect == corpus.COPLANAR_DEFECT
    assert run.run_weave(Program(ValueError("boom")), op, None).known_defect is None
    assert run.run_weave(Program(False), op, None).ok


def test_defect_cases_are_kept_out_of_the_measured_stream():
    import run

    weave = run.Workload(None, "weave", ROOT)
    measured = list(islice(weave.operations(3), 64))
    probe = list(islice(weave.operations(3, defect=True), 8))
    assert not any(op["defect"] for op in measured)
    assert all(op["defect"] == corpus.COPLANAR_DEFECT for op in probe)
    assert any(op["perturb"] and op["perturb"]["kind"] == "off_plane" for op in measured)


def test_weave_run_reports_the_defect_probe():
    proc = bench("weave", 2, 0.3, 0)
    assert result_of(proc)["failed"] == 0
    assert any(line.startswith("defect probe: ") and line.endswith(f"({corpus.COPLANAR_DEFECT})")
               for line in proc.stdout.splitlines())


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_prints_every_named_metric(workload, trace):
    result = result_of(bench(workload, 1, 0.3, trace))
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1
    table = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert {name: m["unit"] for name, m in result["metrics"].items()} == {m["name"]: m["unit"] for m in table}
    assert all(isinstance(m["value"], float) for m in result["metrics"].values())


def test_traced_counts_repeat_exactly():
    counts = []
    for _ in range(2):
        metrics = result_of(bench("factor", 5, 0.3, 1))["metrics"]
        counts.append({k: m["value"] for k, m in metrics.items() if m["unit"] in ("calls/op", "steps/call", "points/op")})
    assert counts[0] == counts[1]
    assert counts[0]["split.calls"] == 1.0 and counts[0]["quat.mul_calls"] > 0


def test_bare_benchmark_directory_fails_without_result():
    bare = ROOT / ".bench_work" / "bare"
    shutil.rmtree(bare, ignore_errors=True)
    try:
        shutil.copytree(BENCH, bare / "bench", ignore=shutil.ignore_patterns("__pycache__"))
        shutil.copy(ROOT / "BENCHMARK.json", bare)
        proc = bench("factor", 1, 1, 0, cwd=bare)
        assert proc.returncode != 0
        assert '"metrics"' not in proc.stdout
    finally:
        shutil.rmtree(bare, ignore_errors=True)


def test_host_clock_scales_to_the_reference_loop_time():
    import run

    clock = run.HostClock()
    clock.loops = [0.5 * run.REF_CALIB_S, 1.5 * run.REF_CALIB_S, 2.0 * run.REF_CALIB_S]
    assert clock.scale(0) == 1.0
    assert clock.scale(1) == pytest.approx(1 / 1.75)
