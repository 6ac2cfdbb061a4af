"""Tests of the benchmark itself, on tiny smoke instances of each workload.

    python3 -m pytest bench/tests -q
"""

import json
import shutil
import signal
import subprocess
import sys
import time
from pathlib import Path

import numpy as np
import pytest

import frozen
import toric_codes as tc
import reference
from run import measure, run_passes
from tracing import Tracer
from workloads import make_plan

BENCH = Path(__file__).resolve().parents[1]
ROOT = BENCH.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]
EXACT_COUNTS = (
    ".calls",
    ".work",
    ".pivots",
    ".elems",
    ".entries",
    "size_mean",
    "list_frac",
    "budget_overshoot",
)


def bench(workload, trace, seed=3, cwd=ROOT):
    cmd = SPEC["command"] + [
        "--workload", workload, "--seed", str(seed), "--seconds", "0", "--trace", str(trace), "--smoke",
    ]
    cmd[0] = sys.executable
    return subprocess.run(cmd, cwd=cwd, capture_output=True, text=True, timeout=300)


def last_json(proc):
    return json.loads(proc.stdout.strip().splitlines()[-1])


@pytest.mark.parametrize("workload", WORKLOADS)
@pytest.mark.parametrize("trace", [0, 1])
def test_smoke_run_reports_every_metric(workload, trace):
    proc = bench(workload, trace)
    assert proc.returncode == 0, proc.stderr
    result = last_json(proc)
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert result["correct"] is True
    assert result["attempted"] >= 1 and result["failed"] == 0
    declared = SPEC["per_layer"] if trace else SPEC["end_to_end"]
    assert set(result["metrics"]) == {m["name"] for m in declared}
    for m in declared:
        assert result["metrics"][m["name"]]["unit"] == m["unit"]
    if not trace:
        assert all(v["value"] > 0 for v in result["metrics"].values())
    record = json.loads(proc.stdout.strip().splitlines()[-2])
    assert record["seed"] == 3 and record["machine"]["nproc"] >= 1
    if not trace:
        assert set(record["raw"]) == {"setup_s", "wall_s", "op_p50_ms", "op_p99_ms"}
        assert len(record["reference_s_samples"]) >= 1
        for name, raw in record["raw"].items():
            assert result["metrics"][name]["value"] == pytest.approx(raw * record["scale"], rel=1e-12)


def test_times_are_raw_at_the_nominal_reference_speed(monkeypatch):
    monkeypatch.setattr(reference, "sample", lambda: reference.NOMINAL_S)
    plan = make_plan(tc, "decode", seed=1, smoke=True)
    result, detail = measure(plan, 0.0)
    for name, raw in detail["raw"].items():
        assert result["metrics"][name]["value"] == pytest.approx(raw, rel=1e-12)


def test_reference_does_fixed_work():
    assert reference.run() == reference.run() == 1332522
    assert reference.sample() > 0


def test_host_speed_samples_throughout_and_leaves_the_samples_out():
    with reference.HostSpeed(interval=0.05) as host:
        t0, c0 = time.perf_counter(), host.clock()
        while time.perf_counter() - t0 < 0.5:
            sum(range(1000))
        elapsed, timed = time.perf_counter() - t0, host.clock() - c0
    assert len(host.ref_s) >= 4
    assert timed == pytest.approx(elapsed - host.paused_s, abs=0.02)
    assert host.scale() == pytest.approx(reference.NOMINAL_S * np.mean(1 / np.array(host.ref_s)))
    assert signal.getitimer(signal.ITIMER_REAL) == (0.0, 0.0)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_exact_counts_repeat_between_traced_runs(workload):
    first, second = (last_json(bench(workload, 1))["metrics"] for _ in range(2))
    counts = {k for k in first if k.endswith(EXACT_COUNTS)}
    assert counts
    assert {k: first[k]["value"] for k in counts} == {k: second[k]["value"] for k in counts}


@pytest.mark.parametrize("workload", WORKLOADS)
def test_tracing_changes_no_result(workload):
    plan = make_plan(tc, workload, seed=5, smoke=True)
    state = plan.setup()
    plain = run_passes(plan, state, 0.0)
    tracer = Tracer()
    traced = run_passes(plan, state, 0.0, tracer)
    assert plain.ok and traced.ok
    assert traced.keys == plain.keys
    assert sum(tracer.calls.values()) > 0


def test_tracer_wraps_every_binding_and_restores_it():
    orig = tc.codes.min_distance
    assert tc.decoder.min_distance is orig
    with Tracer() as tracer:
        wrapped = tc.codes.min_distance
        assert wrapped is not orig and wrapped.__wrapped__ is orig
        assert tc.decoder.min_distance is wrapped and tc.min_distance is wrapped
        assert tc.decoder_setup is tc.decoder.setup
        code = tc.toric_code(tc.GF(2, 3), frozen.FANS["fan7"], (0, 0, 5)).code
        assert tracer.calls["codes.LinearCode"] == 2  # the code and its dual
    assert tc.codes.min_distance is orig and tc.decoder.min_distance is orig
    assert not hasattr(tc.GF.vadd, "__wrapped__") and code.k == 11
    assert tracer.parent[0] == -1
    assert all(p < i for i, p in enumerate(tracer.parent))
    assert (np.frombuffer(tracer.end) >= np.frombuffer(tracer.start)).all()


def test_corpus_gate_trips_on_a_corrupted_distance(monkeypatch):
    rows = list(frozen.SMOKE_CORPUS_ROWS)
    family, field, params, (n, k, d) = rows[2]
    rows[2] = (family, field, params, (n, k, d + 1))
    monkeypatch.setattr(frozen, "SMOKE_CORPUS_ROWS", tuple(rows))
    plan = make_plan(tc, "corpus", seed=1, smoke=True)
    res = run_passes(plan, plan.setup(), 0.0)
    assert not res.ok and res.failed == 1
    assert "(n, k, d)" in res.problems[0]


def test_construct_gate_trips_on_a_corrupted_digest(monkeypatch):
    table = dict(frozen.SMOKE_CONSTRUCT_CODES)
    key = next(iter(table))
    n, k, k_dual, _ = table[key]
    table[key] = (n, k, k_dual, "0" * 64)
    monkeypatch.setattr(frozen, "SMOKE_CONSTRUCT_CODES", table)
    plan = make_plan(tc, "construct", seed=1, smoke=True)
    res = run_passes(plan, plan.setup(), 0.0)
    assert not res.ok and res.failed == 1


def test_decode_gate_trips_on_a_corrupted_planted_error():
    plan = make_plan(tc, "decode", seed=1, smoke=True)
    state = plan.setup()
    word = state["gf8-boundary"][1][0]
    pos = int(np.nonzero(word.planted)[0][0])
    word.planted[pos] = word.planted[pos] % 7 + 1  # another nonzero value of GF(8)
    res = run_passes(plan, state, 0.0)
    assert not res.ok
    assert "unique outcome differs" in res.problems[0]


def test_gate_failure_exits_nonzero_with_the_result(tmp_path):
    shutil.copytree(ROOT / "src", tmp_path / "src", ignore=shutil.ignore_patterns("__pycache__"))
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "out", "tests"))
    path = tmp_path / "bench" / "frozen.py"
    good, bad = "(0, 0, 3), (16, 4, 10))", "(0, 0, 3), (16, 4, 11))"
    path.write_text(path.read_text().replace(good, bad, 1))
    proc = bench("corpus", 0, cwd=tmp_path)
    assert proc.returncode == 1
    assert last_json(proc)["correct"] is False
    assert "check failed" in proc.stderr


def test_exits_nonzero_without_the_package(tmp_path):
    shutil.copytree(BENCH, tmp_path / "bench", ignore=shutil.ignore_patterns("__pycache__", "out"))
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    proc = bench("corpus", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert proc.stdout == ""
