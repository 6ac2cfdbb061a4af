"""Benchmark of the toric_codes package: one workload per run.

    python3 bench/run.py --workload corpus --seed 1 --seconds 30 --trace 0

Runs from the root of a source checkout (the package is imported from
``src/``).  Set-up is repeated and timed; the timed phase then runs whole
passes over the workload's operations, at least one, and another while it
is projected to end within ``--seconds``.  Every time is scaled to a fixed
host speed, by the mean speed of a reference computation that is sampled
twice a second throughout the run (see ``bench/reference.py``).  The raw
times are in the record line.  Every result is checked; a failed
check makes the exit code 1.  The last line of standard output is one JSON
object with ``correct``, ``attempted``, ``failed`` and ``metrics`` (the
end-to-end metrics, or with ``--trace 1`` the per-layer metrics); the line
before it is a JSON record with the seed, the machine and the raw samples.
See ``bench/README.md`` for the workloads and every metric.
"""

from __future__ import annotations

import argparse
import contextlib
import json
import os
import platform
import resource
import statistics
import sys
from pathlib import Path
from time import perf_counter

import numpy as np

import reference

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent


def machine() -> dict:
    cpu = ""
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((ln.split(":", 1)[1].strip() for ln in fh if ln.startswith("model name")), "")
    except OSError:
        pass
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)) if hasattr(os, "sched_getaffinity") else None,
        "cpu_model": cpu or platform.processor(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "loadavg_start": list(os.getloadavg()),
    }


class Passes:
    """Results of the timed phase: whole passes over the plan's items."""

    def __init__(self):
        self.pass_s: list[float] = []
        self.op_s: list[float] = []
        self.keys: list[tuple] | None = None
        self.count = 0  # the workload's exact count, first pass
        self.problems: list[str] = []
        self.failed = 0
        self.exact = 0

    @property
    def ok(self) -> bool:
        return not self.problems


def run_passes(plan, state, seconds: float, tracer=None, clock=perf_counter) -> Passes:
    res = Passes()
    t_start = clock()
    n_items = len(plan.items)
    while True:
        outputs = []
        p = len(res.pass_s)
        with tracer if tracer is not None else contextlib.nullcontext():
            tp = clock()
            for i, item in enumerate(plan.items):
                if tracer is not None:
                    tracer.op = p * n_items + i
                t0 = clock()
                outputs.append(plan.run(state, item))
                res.op_s.append(clock() - t0)
            res.pass_s.append(clock() - tp)
        outcomes = [plan.check(state, item, out) for item, out in zip(plan.items, outputs)]
        del outputs
        keys = [o.key for o in outcomes]
        for o, label in zip(outcomes, plan.labels):
            res.failed += o.failed
            res.exact += o.exact
            if not o.ok:
                res.problems.append(f"pass {p}, {label}: {o.problem}")
        if res.keys is None:
            res.keys, res.count = keys, sum(o.count for o in outcomes)
        elif keys != res.keys:
            res.problems.append(f"pass {p} differs from pass 0: results are not deterministic")
        elapsed = clock() - t_start
        if elapsed + statistics.median(res.pass_s) > seconds:
            return res


def percentile(values, q: float) -> float:
    return float(np.percentile(np.asarray(values), q))


def measure(plan, seconds: float) -> tuple[dict, dict]:
    reference.run()  # warm-up
    with reference.HostSpeed() as host:
        setup_s = []
        for _ in range(plan.setup_repeats):
            state = None  # let the previous state go before building the next
            t0 = host.clock()
            state = plan.setup()
            setup_s.append(host.clock() - t0)
        res = run_passes(plan, state, seconds, clock=host.clock)
    attempted = len(res.op_s)
    raw = {
        "setup_s": statistics.median(setup_s),
        "wall_s": sum(res.op_s) / len(res.pass_s),
        "op_p50_ms": percentile(res.op_s, 50) * 1e3,
        "op_p99_ms": percentile(res.op_s, 99) * 1e3,
    }
    scale = host.scale()
    metrics = {
        "setup_s": (raw["setup_s"] * scale, "s"),
        "wall_s": (raw["wall_s"] * scale, "s"),
        "op_p50_ms": (raw["op_p50_ms"] * scale, "ms"),
        "op_p99_ms": (raw["op_p99_ms"] * scale, "ms"),
        "unique_frac": (res.exact / attempted, "ratio"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024, "MB"),
    }
    detail = {
        "raw": raw,
        "scale": scale,
        "reference_s_samples": host.ref_s,
        "setup_s_samples": setup_s,
        "pass_s_samples": res.pass_s,
        "op_samples": attempted,
        "fail_frac": res.failed / attempted,
        f"{plan.count_name}_per_pass": res.count,
        "problems": res.problems[:20],
    }
    return _result(res, metrics), detail


def trace(plan, seconds: float, out_path: Path) -> tuple[dict, dict]:
    from tracing import Tracer, layer_metrics

    tracer = Tracer()
    with tracer:
        state = plan.setup()
    after_setup = tracer.snapshot()
    ref = run_passes(plan, state, 0.0)
    res = run_passes(plan, state, seconds, tracer)
    if res.keys != ref.keys:
        res.problems.append("traced results differ from untraced results")
    res.problems = ref.problems + res.problems
    metrics = layer_metrics(after_setup, tracer.snapshot(), len(res.pass_s))
    metrics["trace.overhead_s"] = (sum(res.op_s) / len(res.pass_s) - sum(ref.op_s), "s")
    metrics["trace.spans"] = (len(tracer.start) + tracer.spans_dropped, "count")
    out_path.parent.mkdir(parents=True, exist_ok=True)
    labels = [f"pass {p} {lab}" for p in range(len(res.pass_s)) for lab in plan.labels]
    tracer.save(out_path, labels)
    detail = {
        "untraced_pass_s": ref.pass_s[0],
        "traced_pass_s_samples": res.pass_s,
        "spans_stored": len(tracer.start),
        "spans_dropped": tracer.spans_dropped,
        "trace_file": str(out_path.relative_to(ROOT)),
        "problems": res.problems[:20],
    }
    return _result(res, metrics), detail


def _result(res: Passes, metrics: dict) -> dict:
    return {
        "correct": res.ok,
        "attempted": len(res.op_s),
        "failed": res.failed,
        "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()},
    }


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True, choices=("corpus", "construct", "decode"))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--smoke", action="store_true", help="tiny instance of the workload, for tests")
    args = ap.parse_args(argv)

    src = ROOT / "src"
    if not (src / "toric_codes" / "__init__.py").is_file():
        print(f"bench: package source not found under {src}", file=sys.stderr)
        return 2
    sys.path.insert(0, str(src))
    sys.path.insert(0, str(BENCH_DIR))
    import toric_codes as tc
    from workloads import make_plan

    info = machine()
    plan = make_plan(tc, args.workload, args.seed, smoke=args.smoke)
    if args.trace:
        out_path = BENCH_DIR / "out" / f"trace-{args.workload}-seed{args.seed}.npz"
        result, detail = trace(plan, args.seconds, out_path)
    else:
        result, detail = measure(plan, args.seconds)
    record = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "smoke": args.smoke,
        "machine": info,
    } | detail
    for problem in detail["problems"]:
        print(f"bench: check failed: {problem}", file=sys.stderr)
    print(json.dumps(record))
    print(json.dumps(result))
    return 0 if result["correct"] else 1


if __name__ == "__main__":
    sys.exit(main())
