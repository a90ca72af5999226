"""Self-checks of the benchmark: seeded inputs, span arithmetic, counts that
repeat exactly between traced runs, and refusal to run without the
program's sources."""

import itertools
import json
import shutil
import subprocess
import sys
from pathlib import Path

import run as bench
import spans as spans_mod

HERE = Path(__file__).resolve().parent


def _run(cwd: Path, *args: str) -> subprocess.CompletedProcess:
    return subprocess.run(
        [sys.executable, str(cwd / "perfbench" / "run.py"), *args],
        cwd=cwd, capture_output=True, text=True, timeout=170, check=False)


def test_inputs_depend_only_on_the_seed():
    for make in bench.PAIRS.values():
        first = list(itertools.islice(make(7), 40))
        assert first == list(itertools.islice(make(7), 40))
        assert first != list(itertools.islice(make(8), 40))


def test_deep_inputs_stay_in_range_and_never_share_a_grid():
    inputs = [inp for pair in bench.deep_pairs(3) for inp in pair]
    densities = [inp["samples"] for inp in inputs]
    assert len(set(densities)) == len(densities) == 2000
    assert all(2000 <= d <= 4000 for d in densities)
    assert all(200 <= inp["m"] <= 309 for inp in inputs)


def test_self_time_subtracts_direct_children(monkeypatch):
    clock = iter([0, 10, 12, 15, 40, 100])
    monkeypatch.setattr(spans_mod, "_now", lambda: next(clock))
    rec = spans_mod.Spans()
    with rec.span("outer"):
        with rec.span("inner"):
            with rec.span("leaf"):
                pass
    summary = rec.summary()
    assert abs(summary["outer"]["busy_s"] - 100e-9) < 1e-18
    assert abs(summary["outer"]["self_s"] - 70e-9) < 1e-18
    assert abs(summary["inner"]["self_s"] - 27e-9) < 1e-18
    assert summary["leaf"]["parent_calls"] == {"inner": 1}
    assert list(rec.parent) == [-1, 0, 1]


def _declared(kind: str) -> dict:
    spec = json.loads((HERE.parent / "BENCHMARK.json").read_text())
    return {m["name"]: m["unit"] for m in spec[kind]}


def _lines(*args: str) -> list[dict]:
    """The details line and the result line of a one-second sweep run."""
    proc = _run(HERE.parent, "--workload", "sweep", "--seed", "5",
                "--seconds", "1", *args)
    assert proc.returncode == 0, proc.stderr
    return [json.loads(line) for line in proc.stdout.splitlines()[-2:]]


def _result(*args: str) -> dict:
    return _lines(*args)[1]


def test_untraced_run_reports_every_end_to_end_metric():
    detail, result = _lines("--trace", "0")
    assert result["correct"] and result["failed"] == 0
    traces = [i for i in detail["items"] if i["kind"] == "op"]
    assert result["attempted"] == len(traces) > 0
    assert len(traces) % 2 == 0
    assert {k: m["unit"] for k, m in result["metrics"].items()} == \
        _declared("end_to_end")
    assert all(m["value"] > 0 for m in result["metrics"].values())


def test_traced_counts_repeat_exactly():
    results = [_result("--trace", "1") for _ in range(2)]
    assert {k: m["unit"] for k, m in results[0]["metrics"].items()} == \
        _declared("per_layer")
    counts = [{name: m["value"] for name, m in r["metrics"].items()
               if m["unit"] == "count"} for r in results]
    assert counts[0] == counts[1]
    assert counts[0]["tracer.trace.calls"] == 2
    assert counts[0]["sl2z.groupelem.constructed"] > 0
    assert counts[0]["zetafn.zeta_with_prime.reflected.calls"] > 0
    assert results[0]["correct"] and results[0]["failed"] == 0


def test_refuses_to_run_without_the_program(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("out", "__pycache__"))
    proc = _run(tmp_path, "--workload", "sweep", "--seed", "1",
                "--seconds", "1", "--trace", "0")
    assert proc.returncode != 0
    assert proc.stdout == ""


FAILING_FIND_ZEROS = """
import sys
import run

real_set_up = run.set_up


def set_up(spans=None):
    prog = real_set_up(spans)

    def find_zeros(n):
        raise RuntimeError("find_zeros made to fail")
    prog.zp.zetafn.find_zeros = find_zeros
    return prog


run.set_up = set_up
sys.exit(run.main(sys.argv[1:]))
"""


def test_failing_find_zeros_is_counted_not_fatal():
    proc = subprocess.run(
        [sys.executable, "-c", FAILING_FIND_ZEROS, "--workload", "verify",
         "--seed", "1", "--seconds", "1", "--trace", "0"],
        cwd=HERE, capture_output=True, text=True, timeout=170, check=False)
    assert proc.returncode == 0, proc.stderr
    detail, result = (json.loads(line)
                      for line in proc.stdout.splitlines()[-2:])
    ops = [i for i in detail["items"] if i["kind"] == "op"]
    assert not result["correct"]
    assert result["failed"] == len(ops) > 0
    assert result["attempted"] == 4 * len(ops)
    assert detail["named"]["zeros_per_s"]["value"] == 0.0
    assert detail["named"]["fail_frac"]["value"] == 0.25
