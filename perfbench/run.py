"""Benchmark for zetapath: one seeded workload in a single-threaded closed loop.

    python3 perfbench/run.py --workload sweep --seed 1 --seconds 30 --trace 0

Run it from the root of a checkout: the program is imported from ./src.
The seed alone generates the inputs (the m values, the grid densities and
the zero counts N); the program receives only those.  Operations run back
to back until --seconds have passed, finishing the pair of operations in
progress, and every output is checked.  The last line of stdout is one
JSON object:

    {"correct": ..., "attempted": ..., "failed": ..., "metrics": {...}}

With --trace 0 the metrics are the end-to-end ones.  With --trace 1 a
fixed number of operation pairs (set by --seconds) runs twice, untraced
and then with spans at the layer boundaries, and the metrics are the
per-layer ones; the spans are written to perfbench/out/.  The line before
the last holds the run's details: the environment, the inputs, every
timed item, and the metrics under their per-workload names with sample
counts.
"""

from __future__ import annotations

import argparse
import cmath
import gc
import importlib
import json
import os
import platform
import random
import resource
import statistics
import sys
import time
import traceback
from dataclasses import dataclass, field
from pathlib import Path
from types import SimpleNamespace

from spans import NoSpans, Patches, Spans

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = Path(__file__).resolve().parent / "out"

MODULES = ("tracer", "treepath", "etaengine", "zetafn", "sl2z", "exactquad")
SWEEP_SAMPLES = 2000
POLE_SCAN_AVATAR = 41
# Seconds one operation pair takes untraced on a 2-core Xeon; the traced
# run sizes its fixed operation count from these, so that its counts
# depend on the seed and --seconds only.
PAIR_SECONDS = {"sweep": 1.0, "deep": 3.0, "verify": 2.6}
# zetafn reflects through the functional equation left of this line
# (see its module docstring); the traced run splits zeta calls there.
REFLECT_RE = 0.4
# Untraced times are reported in reference seconds.  Each set-up and
# operation is timed between two speed samples, each the median time of
# REFERENCE_REPEATS runs of reference_work(), and scaled by REFERENCE_S
# over the mean of the two.  A shared machine's speed drifts by tens of
# percent within minutes; scaling by fixed work that touches no program
# code keeps runs made at different times comparable.  REFERENCE_S is
# about one run of reference_work() on a 2-core Intel Xeon under
# Python 3.11.  The details line gives every raw time and its scale.
REFERENCE_S = 0.0095
REFERENCE_REPEATS = 6
# Match criteria from the README's numerical contract.
MATCH_TOL = 1e-6
DOMINANCE = 10.0
ZERO_TOL = 1e-6


# -- inputs ---------------------------------------------------------------
#
# Inputs come in antithetic pairs: each draw is paired with its mirror in
# the range, so a pair costs about the same whatever the seed, and runs
# of different seeds measure comparable work.

def sweep_pairs(seed: int):
    """The acceptance sweep: m in 1..20 on one shared 2000-sample path."""
    rng = random.Random(seed)
    while True:
        m = rng.randint(1, 20)
        yield ({"m": m}, {"m": 21 - m})


def deep_pairs(seed: int):
    """m in 200..309, each trace on its own grid density from 2000..4000,
    no density used twice."""
    rng = random.Random(seed)
    for slot in rng.sample(range(2000, 3000), 1000):
        m = rng.randint(200, 309)
        d = slot if rng.random() < 0.5 else 6000 - slot
        yield ({"m": m, "samples": d}, {"m": 509 - m, "samples": 6000 - d})


def verify_pairs(seed: int):
    """find_zeros(N) for N in 150..200, each followed by the exact suites
    and a pole scan."""
    rng = random.Random(seed)
    while True:
        n = rng.randint(150, 200)
        yield ({"n": n}, {"n": 350 - n})


PAIRS = {"sweep": sweep_pairs, "deep": deep_pairs, "verify": verify_pairs}


# -- machine speed ------------------------------------------------------------

class _Cell:
    __slots__ = ("a", "b")

    def __init__(self, a: complex, b: complex):
        self.a, self.b = a, b


def _step(cell: _Cell, x: complex) -> _Cell:
    return _Cell(cell.a * x + cell.b, cmath.exp(-0.001j * x))


def reference_work() -> dict:
    """Fixed work in the program's style: small objects, complex
    arithmetic, cmath calls and dict stores."""
    cell, store = _Cell(0.5 + 0.1j, 0.2j), {}
    for k in range(1, 8001):
        cell = _step(cell, complex(k, 1.0))
        store[k & 63] = cell.a
        cell.a = cell.a / (1.0 + abs(cell.a))
    return store


def timed(fn) -> float:
    t0 = time.perf_counter()
    fn()
    return time.perf_counter() - t0


def speed_sample() -> float:
    return statistics.median(timed(reference_work)
                             for _ in range(REFERENCE_REPEATS))


# -- the program ------------------------------------------------------------

@dataclass
class Program:
    zp: SimpleNamespace
    table: object
    path: object
    zeros: object


def import_program() -> SimpleNamespace:
    """Import zetapath afresh from ./src, so each set-up pays for it."""
    if not (SRC / "zetapath" / "__init__.py").is_file():
        raise SystemExit(f"perfbench: no zetapath sources under {SRC}")
    if str(SRC) not in sys.path:
        sys.path.insert(0, str(SRC))
    for name in [n for n in sys.modules
                 if n == "zetapath" or n.startswith("zetapath.")]:
        del sys.modules[name]
    zp = SimpleNamespace(**{m: importlib.import_module(f"zetapath.{m}")
                            for m in MODULES})
    if Path(zp.tracer.__file__).resolve().parent != SRC / "zetapath":
        raise SystemExit(f"perfbench: zetapath imported from "
                         f"{zp.tracer.__file__}, not from {SRC}")
    return zp


def set_up(spans=None) -> Program:
    spans = spans or NoSpans()
    zp = import_program()
    with spans.span("sl2z.load_table"):
        table = zp.sl2z.load_table()
    with spans.span("treepath.find_c"):
        zp.treepath.find_c()
    with spans.span("treepath.build_path"):
        path = zp.treepath.build_path(zp.sl2z.SHIFT_WORD,
                                      samples=SWEEP_SAMPLES)
    zeros = zp.zetafn.reference_zeros()
    return Program(zp, table, path, zeros)


# -- operations and their checks --------------------------------------------

@dataclass
class Tally:
    """What one pass over the operations did and how long it took.

    items are the timed set-ups and operations in order, as dicts of raw
    seconds (keys ending in _s) and an operation's input; with speed
    samples, speed[k] and speed[k + 1] bracket items[k]."""

    attempted: int = 0
    failed: int = 0
    steps: int = 0
    elapsed: float = 0.0
    items: list[dict] = field(default_factory=list)
    speed: list[float] = field(default_factory=list)

    def attempt(self, ok: bool, what: str) -> None:
        self.attempted += 1
        if not ok:
            self.failed += 1
            print(f"perfbench: check failed: {what}", file=sys.stderr)

    def scaled(self, kind: str) -> list[dict]:
        """The items of one kind, every time in reference seconds."""
        out = []
        for k, item in enumerate(self.items):
            if item["kind"] == kind:
                scale = REFERENCE_S / (0.5 * (self.speed[k] + self.speed[k + 1]))
                out.append({key: v * scale if key.endswith("_s") else v
                            for key, v in item.items()})
        return out


def _guarded(tally: Tally, what: str, fn):
    """Run fn(); an exception counts as a failed operation, not an abort."""
    try:
        return fn()
    except Exception:
        traceback.print_exc(file=sys.stderr)
        tally.attempt(False, f"{what} raised")
        return None


def trace_ok(rec, m: int, ordinates) -> bool:
    """The endpoint is nearest zero m+1, within MATCH_TOL of it, and the
    runner-up zero is at least DOMINANCE times farther away."""
    dists = [abs(rec.end_s - complex(0.5, g)) for g in ordinates]
    best = min(range(len(dists)), key=dists.__getitem__)
    runner_up = min(d for j, d in enumerate(dists) if j != best)
    return (best == m and rec.matched_index == m + 1
            and dists[best] < MATCH_TOL
            and runner_up >= DOMINANCE * dists[best])


def run_trace(prog: Program, ctx, spans, tally: Tally, inp: dict) -> dict:
    m = inp["m"]

    def op():
        path = prog.path
        if "samples" in inp:
            with spans.span("treepath.build_path"):
                path = prog.zp.treepath.build_path(prog.zp.sl2z.SHIFT_WORD,
                                                   samples=inp["samples"])
        with spans.span("tracer.trace"):
            return prog.zp.tracer.trace(m, path=path, zeros=prog.zeros,
                                        ctx=ctx, table=prog.table)
    t0 = time.perf_counter()
    rec = _guarded(tally, f"trace {inp}", op)
    item = {"kind": "op", "op_s": time.perf_counter() - t0}
    if rec is not None:
        tally.steps += rec.steps
        tally.attempt(trace_ok(rec, m, prog.zeros.ordinates),
                      f"trace {inp} ended at {rec.end_s}, matched "
                      f"{rec.matched_index}")
    return item


def run_verify(prog: Program, ctx, spans, tally: Tally, inp: dict) -> dict:
    zp, n = prog.zp, inp["n"]
    t_op = time.perf_counter()
    with spans.span("zetafn.find_zeros"):
        found = _guarded(tally, f"find_zeros({n})",
                         lambda: zp.zetafn.find_zeros(n))
    t_exact = time.perf_counter()
    with spans.span("exactquad.run_symbolic_suite"):
        suite = _guarded(tally, "run_symbolic_suite",
                         zp.exactquad.run_symbolic_suite)
    with spans.span("sl2z.verify"):
        cosets = _guarded(tally, "CosetTable.verify",
                          lambda: zp.sl2z.load_table().verify())
    t_scan = time.perf_counter()
    with spans.span("treepath.pole_scan"):
        peak = _guarded(tally, "pole_scan", lambda: zp.treepath.pole_scan(
            prog.path, POLE_SCAN_AVATAR, ctx=ctx, table=prog.table))
    t_end = time.perf_counter()

    item = {"kind": "op", "op_s": t_end - t_op, "exact_s": t_scan - t_exact,
            "pole_scan_s": t_end - t_scan}
    if found is not None:
        item.update(n=n, find_zeros_s=t_exact - t_op)
        tally.attempt(len(found.ordinates) == n and all(
            abs(a - b) <= ZERO_TOL
            for a, b in zip(found.ordinates, prog.zeros.ordinates)),
            f"find_zeros({n}) differs from the packaged table")
    for name, report in (("symbolic suite", suite), ("coset table", cosets)):
        if report is not None:
            tally.attempt(report["ok"] is True, f"{name} reports ok false")
    if peak is not None:
        tally.attempt(True, "pole_scan")
    return item


RUN_OP = {"sweep": run_trace, "deep": run_trace, "verify": run_verify}


def run_pass(workload: str, prog: Program, pairs, spans=None,
             seconds: float | None = None, count: int | None = None,
             sample: bool = False) -> Tally:
    """Run operation pairs until `seconds` have passed or `count` pairs
    are done, with a fresh EtaContext shared by the whole pass.

    With sample, a timed set-up (whose result is dropped) precedes each
    pair, so that set-up is sampled across the whole run rather than in
    one burst at its start, and a speed sample follows every timed item."""
    spans = spans or NoSpans()
    ctx = prog.zp.etaengine.EtaContext()
    run_op = RUN_OP[workload]
    tally = Tally()
    t0 = time.perf_counter()
    if sample:
        tally.speed.append(speed_sample())
    for done, pair in enumerate(pairs, start=1):
        if sample:
            tally.items.append({"kind": "setup", "setup_s": timed(set_up)})
            gc.collect()
            tally.speed.append(speed_sample())
        for inp in pair:
            spans.op_id += 1
            tally.items.append({"input": inp,
                                **run_op(prog, ctx, spans, tally, inp)})
            if sample:
                tally.speed.append(speed_sample())
        if count is not None and done >= count:
            break
        if seconds is not None and time.perf_counter() - t0 >= seconds:
            break
    tally.elapsed = time.perf_counter() - t0
    return tally


# -- the traced run -----------------------------------------------------------

def _zeta_span_name(s, *_):
    s = complex(s)
    branch = "reflected" if s.real < REFLECT_RE else "direct"
    height = abs(s.imag)
    band = "lo" if height < 100 else "hi" if height >= 300 else "mid"
    return f"zetafn.zeta_with_prime.{branch}.{band}"


def install_probes(zp: SimpleNamespace, spans: Spans, patches: Patches) -> None:
    """Wrap each layer's public functions where their callers look them up."""
    eta, tr, tp = zp.etaengine, zp.tracer, zp.treepath
    patches.set(tr, "zeta_with_prime",
                spans.wrap_named(tr.zeta_with_prime, _zeta_span_name))
    for mod in (tr, tp):
        patches.set(mod, "avatar_eval",
                    spans.wrap(mod.avatar_eval, "etaengine.avatar_eval"))
        patches.set(mod, "z_eval_from_seed",
                    spans.wrap(mod.z_eval_from_seed,
                               "etaengine.z_eval_from_seed"))
    patches.set(eta, "dedekind_eta",
                spans.wrap(eta.dedekind_eta, "etaengine.dedekind_eta"))
    patches.set(eta, "reduce_to_fundamental",
                spans.wrap(eta.reduce_to_fundamental,
                           "etaengine.reduce_to_fundamental"))
    patches.set(zp.zetafn, "hardy_z",
                spans.wrap(zp.zetafn.hardy_z, "zetafn.hardy_z"))

    counters = spans.counters
    post_init = zp.sl2z.GroupElem.__post_init__

    def counted_post_init(self):
        counters["sl2z.groupelem.constructed"] += 1
        post_init(self)
    patches.set(zp.sl2z.GroupElem, "__post_init__", counted_post_init)

    multiplier = eta.EtaContext.multiplier
    seen: set = set()

    def counted_multiplier(self, m):
        counters["etaengine.multiplier.calls"] += 1
        seen.add(m.entries())
        counters["etaengine.multiplier.distinct"] = len(seen)
        return multiplier(self, m)
    patches.set(eta.EtaContext, "multiplier", counted_multiplier)


def layer_metrics(spans: Spans, tally: Tally, untraced_s: float) -> dict:
    """The per-layer metrics from the spans and counters of a traced pass."""
    summ = spans.summary()
    empty = {"calls": 0, "busy_s": 0.0, "self_s": 0.0, "parent_calls": {}}

    def get(name):
        return summ.get(name, empty)

    def per_call_us(entry):
        return 1e6 * entry["busy_s"] / entry["calls"] if entry["calls"] else 0.0

    out = {}
    trace = get("tracer.trace")
    out["tracer.trace.calls"] = trace["calls"]
    out["tracer.trace.self_s"] = trace["self_s"]
    out["tracer.steps"] = tally.steps
    avatar = get("etaengine.avatar_eval")
    out["tracer.halvings"] = (avatar["parent_calls"].get("tracer.trace", 0)
                              - tally.steps)
    zeta = {f"{b}.{band}": get(f"zetafn.zeta_with_prime.{b}.{band}")
            for b in ("direct", "reflected") for band in ("lo", "mid", "hi")}
    zeta_in_trace = sum(e["parent_calls"].get("tracer.trace", 0)
                        for e in zeta.values())
    out["tracer.zeta_per_step"] = (zeta_in_trace / tally.steps
                                   if tally.steps else 0.0)

    for name in ("avatar_eval", "z_eval_from_seed", "dedekind_eta"):
        entry = get(f"etaengine.{name}")
        out[f"etaengine.{name}.calls"] = entry["calls"]
        out[f"etaengine.{name}.busy_s"] = entry["busy_s"]
    out["etaengine.avatar_eval.us_per_call"] = per_call_us(avatar)
    out["etaengine.reduce_to_fundamental.busy_s"] = get(
        "etaengine.reduce_to_fundamental")["busy_s"]
    calls = spans.counters["etaengine.multiplier.calls"]
    out["etaengine.multiplier.calls"] = calls
    out["etaengine.multiplier.distinct_frac"] = (
        spans.counters["etaengine.multiplier.distinct"] / calls if calls else 0.0)

    out["sl2z.groupelem.constructed"] = spans.counters[
        "sl2z.groupelem.constructed"]
    out["sl2z.load_table.busy_s"] = get("sl2z.load_table")["busy_s"]
    out["sl2z.verify.busy_s"] = get("sl2z.verify")["busy_s"]

    for b in ("direct", "reflected"):
        bands = [zeta[f"{b}.{band}"] for band in ("lo", "mid", "hi")]
        out[f"zetafn.zeta_with_prime.{b}.calls"] = sum(e["calls"] for e in bands)
        out[f"zetafn.zeta_with_prime.{b}.busy_s"] = sum(e["busy_s"] for e in bands)
        for band in ("lo", "hi"):
            out[f"zetafn.zeta_with_prime.{b}.{band}.us_per_call"] = per_call_us(
                zeta[f"{b}.{band}"])
    hardy = get("zetafn.hardy_z")
    out["zetafn.hardy_z.calls"] = hardy["calls"]
    out["zetafn.hardy_z.busy_s"] = hardy["busy_s"]
    out["zetafn.find_zeros.busy_s"] = get("zetafn.find_zeros")["busy_s"]

    for name in ("find_c", "build_path", "pole_scan"):
        out[f"treepath.{name}.busy_s"] = get(f"treepath.{name}")["busy_s"]
    out["exactquad.run_symbolic_suite.busy_s"] = get(
        "exactquad.run_symbolic_suite")["busy_s"]
    out["trace.overhead_frac"] = tally.elapsed / untraced_s - 1.0
    return out


def layer_unit(name: str) -> str:
    if name.endswith("_s"):
        return "s"
    if name.endswith("us_per_call"):
        return "us"
    if name.endswith(("_frac", "_per_step")):
        return "ratio"
    return "count"


# -- results --------------------------------------------------------------------

def environment() -> dict:
    cpu = platform.machine()
    try:
        with open("/proc/cpuinfo") as fh:
            cpu = next((line.split(":", 1)[1].strip() for line in fh
                        if line.startswith("model name")), cpu)
    except OSError:
        pass
    return {"python": platform.python_version(),
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu,
            "git_sha": git_sha()}


def git_sha() -> str | None:
    """The checked-out commit, read from .git when there is one."""
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


def end_to_end_metrics(workload: str, tally: Tally) -> tuple[dict, dict]:
    """(the benchmark's metrics, the same under per-workload names), all
    times in reference seconds."""
    setups = [i["setup_s"] for i in tally.scaled("setup")]
    ops = tally.scaled("op")
    op_s = [i["op_s"] for i in ops]
    setup_s = statistics.median(setups)
    ops_per_s = len(op_s) / sum(op_s)
    op_p50 = statistics.median(op_s)
    rss_mb = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    metrics = {
        "setup_s": {"value": setup_s, "unit": "s"},
        "ops_per_s": {"value": ops_per_s, "unit": "1/s"},
        "op_p50_s": {"value": op_p50, "unit": "s"},
        "peak_rss_mb": {"value": rss_mb, "unit": "MB"},
        "ok_frac": {"value": (tally.attempted - tally.failed)
                    / tally.attempted, "unit": "frac"},
    }
    named = {"setup_s": {"value": setup_s, "unit": "s",
                         "samples": len(setups)}}
    if workload == "verify":
        zeros = [i["n"] / i["find_zeros_s"] for i in ops if "n" in i]
        named["zeros_per_s"] = {"value": statistics.median(zeros or [0.0]),
                                "unit": "1/s", "samples": len(zeros)}
        for name in ("exact_s", "pole_scan_s"):
            named[name] = {"value": statistics.median(i[name] for i in ops),
                           "unit": "s", "samples": len(ops)}
    else:
        named["traces_per_s"] = {"value": ops_per_s, "unit": "1/s",
                                 "samples": len(op_s)}
        named["trace_p50_s"] = {"value": op_p50, "unit": "s",
                                "samples": len(op_s)}
    named["peak_rss_mb"] = {"value": rss_mb, "unit": "MB"}
    named["fail_frac"] = {"value": tally.failed / tally.attempted,
                          "unit": "frac", "samples": tally.attempted}
    return metrics, named


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    ap.add_argument("--workload", required=True, choices=sorted(PAIRS))
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, required=True)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        ap.error("--seconds must be positive")

    detail = {"workload": args.workload, "seed": args.seed,
              "seconds": args.seconds, "trace": args.trace,
              "env": environment()}
    pairs = PAIRS[args.workload]
    if args.trace:
        spans = Spans()
        spans.op_id = 0
        prog = set_up(spans)
        count = max(1, int(args.seconds / (2 * PAIR_SECONDS[args.workload])))
        plain = run_pass(args.workload, prog, pairs(args.seed), count=count)
        with Patches() as patches:
            install_probes(prog.zp, spans, patches)
            tally = run_pass(args.workload, prog, pairs(args.seed),
                             spans=spans, count=count)
        metrics = {k: {"value": v, "unit": layer_unit(k)}
                   for k, v in layer_metrics(spans, tally,
                                             plain.elapsed).items()}
        spans_file = OUT / f"spans-{args.workload}.csv"
        spans.write_csv(spans_file)
        detail["spans"] = {"file": str(spans_file.relative_to(ROOT)),
                           "count": len(spans.start)}
        tally.attempted += plain.attempted
        tally.failed += plain.failed
    else:
        prog = set_up()
        tally = run_pass(args.workload, prog, pairs(args.seed),
                         seconds=args.seconds, sample=True)
        metrics, detail["named"] = end_to_end_metrics(args.workload, tally)
        detail["speed_s"] = tally.speed
    detail["items"] = tally.items
    print(json.dumps(detail))
    print(json.dumps({"correct": tally.failed == 0,
                      "attempted": tally.attempted, "failed": tally.failed,
                      "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
