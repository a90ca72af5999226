"""tools/bench_pairs.py: the layout of the BENCH_*.json files it writes."""

import argparse
import importlib.util
from pathlib import Path

TOOL = Path(__file__).resolve().parent.parent / "tools" / "bench_pairs.py"


def _bench_pairs():
    spec = importlib.util.spec_from_file_location("bench_pairs", TOOL)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


def _run(seed, value):
    return {"seed": seed,
            "result": {"correct": True, "metrics": {"ops_per_s": {
                "value": value, "unit": "1/s"}}},
            "env": {"python": "3.11.7", "nproc": 2, "cpu": "x86_64",
                    "git_sha": "0" * 40}}


def test_report_names_each_sides_revision_at_the_top_level():
    bench_pairs = _bench_pairs()
    args = argparse.Namespace(seconds=30.0, trace=0)
    side = {"sweep": [_run(1, 38.0), _run(2, 38.5)],
            "deep": [_run(1, 16.0)]}
    change = bench_pairs.report(side, args, {"git_sha": "a" * 40,
                                             "uncommitted": True})
    assert change == {
        "seconds": 30.0, "trace": 0, "git_sha": "a" * 40,
        "uncommitted": True,
        # run.py's git_sha reads whatever HEAD the run's directory has
        "env": {"python": "3.11.7", "nproc": 2, "cpu": "x86_64"},
        "pairing": bench_pairs.PAIRING,
        "workloads": {
            "sweep": {"runs": [{"seed": 1, "result": side["sweep"][0]["result"]},
                               {"seed": 2, "result": side["sweep"][1]["result"]}]},
            "deep": {"runs": [{"seed": 1, "result": side["deep"][0]["result"]}]}}}
    parent = bench_pairs.report(side, args, {"git_sha": "b" * 40})
    assert parent["git_sha"] == "b" * 40 and "uncommitted" not in parent
    # the runs' own records are left as they were
    assert side["sweep"][0]["env"]["git_sha"] == "0" * 40
