"""Alternated benchmark pairs: the working tree against its parent commit.

    python3 tools/bench_pairs.py --label refline --seeds 10 --seconds 30
    python3 tools/bench_pairs.py --label refline-traced --workloads sweep \\
        --seeds 2 --seconds 30 --trace 1

The parent is HEAD while the tracked files of the working tree differ
from it (the change is staged or unstaged), and HEAD's first parent once
the change is committed.  Its committed files are unpacked into a
temporary directory with `git archive`, as the benchmark itself runs on
a fresh copy of committed files.  Then, for each workload and seed 1,
2, ..., it runs perfbench/run.py once in that copy and once in the
working tree, each to completion.  Which side runs first alternates
from seed to seed, so the drift of a shared machine falls on both sides
alike.  Every run gets its own empty PYTHONPYCACHEPREFIX, so neither
side imports bytecode that an earlier run or build left behind (in the
working tree's __pycache__, say), and both compile alike.

Writes BENCH_<label>.json (the working tree) and BENCH_<label>-parent.json
(the parent) at the root of the repository, one run per (workload, seed)
with run.py's result line.  Each file names its side's revision at the
top level: git_sha, the parent's resolved commit or the working tree's
HEAD, and for the working tree `uncommitted`, whether its tracked files
differed from HEAD.  run.py's own git_sha is dropped from env: it reads
the working tree's HEAD, the parent of an uncommitted change, and nothing
in the unpacked parent.  Prints, per workload and metric, each side's
median, the parent's interquartile range, and on how many seeds the
working tree did better than the parent run it was paired with (by the
direction BENCHMARK.json gives the metric).
"""

from __future__ import annotations

import argparse
import io
import json
import os
import subprocess
import sys
import tarfile
import tempfile
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
sys.path.insert(0, str(ROOT))
from perfbench.prove import WORKLOADS, spread  # noqa: E402

PAIRING = ("alternated with the other side per (workload, seed), same "
           "seeds; which side runs first alternates from seed to seed")


def uncommitted() -> bool:
    """Whether tracked files of the working tree differ from HEAD."""
    return subprocess.run(["git", "diff", "--quiet", "HEAD", "--"],
                          cwd=ROOT, check=False).returncode != 0


def resolve(rev: str) -> str:
    """The full commit sha rev names."""
    return subprocess.run(["git", "rev-parse", "--verify", rev], cwd=ROOT,
                          capture_output=True, text=True,
                          check=True).stdout.strip()


def export(rev: str, dest: Path) -> None:
    """The committed files of rev, unpacked under dest."""
    archive = subprocess.run(["git", "archive", "--format=tar", rev],
                             cwd=ROOT, capture_output=True, check=True).stdout
    with tarfile.open(fileobj=io.BytesIO(archive)) as tar:
        tar.extractall(dest, filter="data")


def run_once(root: Path, workload: str, seed: int, seconds: float,
             trace: int) -> dict:
    """run.py's result line and environment for one seed, run in root
    under a bytecode cache of its own, empty when the run starts."""
    cmd = [sys.executable, "perfbench/run.py", "--workload", workload,
           "--seed", str(seed), "--seconds", str(seconds),
           "--trace", str(trace)]
    with tempfile.TemporaryDirectory(prefix="bench-pycache-") as cache:
        proc = subprocess.run(cmd, cwd=root, capture_output=True, text=True,
                              check=False,
                              env={**os.environ, "PYTHONPYCACHEPREFIX": cache})
    lines = proc.stdout.strip().splitlines()
    if proc.returncode != 0 or len(lines) < 2:
        raise RuntimeError(f"{' '.join(cmd)} in {root} exited "
                           f"{proc.returncode}:\n{proc.stderr}")
    return {"seed": seed, "result": json.loads(lines[-1]),
            "env": json.loads(lines[-2])["env"]}


def directions() -> dict[str, str]:
    """'higher' or 'lower' per metric name, from BENCHMARK.json."""
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    return {m["name"]: m["better"]
            for m in spec["end_to_end"] + spec.get("per_layer", [])}


def report(side: dict, args: argparse.Namespace, revision: dict) -> dict:
    """One side's runs in the layout of the BENCH_*.json files, with its
    revision (git_sha, and uncommitted for the working tree) at the top
    level."""
    env = dict(next(iter(side.values()))[0]["env"])
    env.pop("git_sha", None)
    return {"seconds": args.seconds, "trace": args.trace, **revision,
            "env": env, "pairing": PAIRING,
            "workloads": {w: {"runs": [{"seed": r["seed"],
                                        "result": r["result"]}
                                       for r in runs]}
                          for w, runs in side.items()}}


def summary(workload: str, parent: list[dict], change: list[dict],
            better: dict[str, str]) -> None:
    print(f"\n{workload}\n  {'metric':<60} {'parent':>11} {'IQR':>10} "
          f"{'change':>11} {'wins':>6}")
    for name in parent[0]["result"]["metrics"]:
        old = [r["result"]["metrics"][name]["value"] for r in parent]
        new = [r["result"]["metrics"][name]["value"] for r in change]
        base = spread(old)
        way = better.get(name)
        won = sum((b > a) if way == "higher" else (b < a)
                  for a, b in zip(old, new))
        wins = "" if way is None else f"{won}/{len(old)}"
        print(f"  {name:<60} {base['median']:>11.5g} "
              f"{base['q3'] - base['q1']:>10.3g} "
              f"{spread(new)['median']:>11.5g} {wins:>6}")


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--label", required=True)
    ap.add_argument("--workloads", nargs="+", choices=WORKLOADS,
                    default=list(WORKLOADS))
    ap.add_argument("--seeds", type=int, default=10)
    ap.add_argument("--seconds", type=float, default=30.0)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)

    dirty = uncommitted()
    # the parent is HEAD while the change is uncommitted, else HEAD's parent
    revisions = {"parent": {"git_sha": resolve("HEAD" if dirty else "HEAD^")},
                 "change": {"git_sha": resolve("HEAD"), "uncommitted": dirty}}
    sides: dict[str, dict[str, list]] = {"parent": {}, "change": {}}
    with tempfile.TemporaryDirectory(prefix="bench-parent-") as tmp:
        parent = Path(tmp)
        export(revisions["parent"]["git_sha"], parent)
        roots = {"parent": parent, "change": ROOT}
        for workload in args.workloads:
            for seed in range(1, args.seeds + 1):
                order = ("parent", "change") if seed % 2 else \
                    ("change", "parent")
                for name in order:
                    run = run_once(roots[name], workload, seed,
                                   args.seconds, args.trace)
                    sides[name].setdefault(workload, []).append(run)
                    res = run["result"]
                    print(f"{workload} seed {seed} {name}: "
                          f"correct={res['correct']} "
                          f"attempted={res['attempted']} "
                          f"failed={res['failed']}", flush=True)
    for name, suffix in (("change", ""), ("parent", "-parent")):
        path = ROOT / f"BENCH_{args.label}{suffix}.json"
        path.write_text(json.dumps(report(sides[name], args,
                                          revisions[name]), indent=1) + "\n")
    better = directions()
    for workload in args.workloads:
        summary(workload, sides["parent"][workload],
                sides["change"][workload], better)
    return 0


if __name__ == "__main__":
    sys.exit(main())
