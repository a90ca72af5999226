"""Run the benchmark over several seeds and summarise each metric.

    python3 perfbench/prove.py --seeds 10 --seconds 30
    python3 perfbench/prove.py --seeds 2 --seconds 30 --trace 1

For each workload, runs perfbench/run.py once per seed (one after the
other, each to completion) and prints, per metric with its unit, the
median, the first and third quartiles and their distance as a share of
the median.  The benchmark's own metrics come first, then the same run's
metrics under their per-workload names.  --out writes the summary and
every run's result line, environment and per-workload metrics to a JSON
file.
"""

from __future__ import annotations

import argparse
import json
import statistics
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("sweep", "deep", "verify")


def run_once(workload: str, seed: int, seconds: int, trace: int) -> dict:
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    proc = subprocess.run(cmd, cwd=ROOT, capture_output=True, text=True,
                          check=False)
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} exited {proc.returncode}:\n"
                           f"{proc.stderr}")
    detail = json.loads(lines[-2])
    return {"seed": seed, "result": json.loads(lines[-1]),
            "env": detail["env"], "named": detail.get("named")}


def spread(values: list[float]) -> dict:
    med = statistics.median(values)
    if len(values) > 1:
        q1, _, q3 = statistics.quantiles(values, n=4)
    else:
        q1 = q3 = med
    return {"median": med, "q1": q1, "q3": q3,
            "spread": (q3 - q1) / med if med else 0.0, "n": len(values)}


def summarise(tables: list[dict]) -> dict:
    """Per metric name: its unit and the spread of its values."""
    return {name: {"unit": first["unit"],
                   **spread([t[name]["value"] for t in tables])}
            for name, first in tables[0].items()}


def print_table(workload: str, title: str, summary: dict) -> None:
    print(f"\n{workload} — {title}")
    print(f"  {'metric':<48} {'unit':<6} {'median':>12} {'q1':>12} "
          f"{'q3':>12} {'spread':>8}")
    for name, s in summary.items():
        print(f"  {name:<48} {s['unit']:<6} {s['median']:>12.6g} "
              f"{s['q1']:>12.6g} {s['q3']:>12.6g} {s['spread']:>8.4f}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--first-seed", type=int, default=1)
    ap.add_argument("--seconds", type=int, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--out", type=Path)
    args = ap.parse_args(argv)

    report = {}
    ok = True
    for workload in WORKLOADS:
        runs = []
        for seed in range(args.first_seed, args.first_seed + args.seeds):
            run = run_once(workload, seed, args.seconds, args.trace)
            res = run["result"]
            ok &= res["correct"] and res["failed"] == 0
            print(f"{workload} seed {seed}: correct={res['correct']} "
                  f"attempted={res['attempted']} failed={res['failed']}",
                  flush=True)
            runs.append(run)
        entry = {"runs": runs,
                 "metrics": summarise([r["result"]["metrics"] for r in runs])}
        print_table(workload, "benchmark metrics", entry["metrics"])
        if not args.trace:
            entry["named"] = summarise([r["named"] for r in runs])
            print_table(workload, "per-workload names", entry["named"])
        report[workload] = entry
        print(flush=True)
    if args.out:
        args.out.write_text(json.dumps(
            {"seconds": args.seconds, "trace": args.trace,
             "env": report[WORKLOADS[0]]["runs"][0]["env"],
             "workloads": report}, indent=1) + "\n")
    return 0 if ok else 1


if __name__ == "__main__":
    sys.exit(main())
