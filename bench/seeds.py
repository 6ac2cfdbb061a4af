"""Run one workload on several seeds and summarise each metric's spread.

    python3 bench/seeds.py --workload decode --seeds 1-10 [--trace 0] [--out FILE]

Each run is a separate ``bench/run.py`` process with the seconds from
``BENCHMARK.json``.  For every metric the summary gives the median over the
runs and the distance between the first and third quartiles
(``statistics.quantiles(values, n=4)``) as a share of the median.  With
``--out`` the record and result lines of every run are appended to FILE.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent


def parse_seeds(text: str) -> list[int]:
    if "-" in text:
        lo, hi = text.split("-")
        return list(range(int(lo), int(hi) + 1))
    return [int(s) for s in text.split(",")]


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seeds", required=True, help="a range 1-10 or a list 1,4,7")
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    values: dict[str, list[float]] = {}
    status = 0
    for seed in parse_seeds(args.seeds):
        cmd = [sys.executable] + spec["command"][1:] + [
            "--workload", args.workload, "--seed", str(seed),
            "--seconds", str(spec["run_seconds"]), "--trace", str(args.trace),
        ]
        proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True)
        lines = proc.stdout.strip().splitlines()
        if proc.returncode or len(lines) < 2:
            print(f"seed {seed}: exit {proc.returncode}\n{proc.stderr}", file=sys.stderr)
            status = 1
            continue
        if args.out:
            with args.out.open("a") as fh:
                fh.write(lines[-2] + "\n" + lines[-1] + "\n")
        result = json.loads(lines[-1])
        for name, m in result["metrics"].items():
            values.setdefault(name, []).append(m["value"])
        shown = ", ".join(f"{k}={v['value']:.6g}" for k, v in result["metrics"].items())
        print(f"seed {seed}: correct={result['correct']} attempted={result['attempted']} "
              f"failed={result['failed']} {shown}", flush=True)
    for name, vals in values.items():
        med = statistics.median(vals)
        if len(vals) >= 2:
            q1, _, q3 = statistics.quantiles(vals, n=4)
            spread = f"{(q3 - q1) / med:.4f}" if med else "n/a"
        else:
            spread = "n/a"
        print(f"{name:40s} median {med:.6g}  iqr/median {spread}")
    return status


if __name__ == "__main__":
    sys.exit(main())
