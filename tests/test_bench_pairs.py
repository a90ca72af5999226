"""tools/bench_pairs.py: the layout of the BENCH_*.json files it writes."""

import argparse
import importlib.util
import json
import os
import subprocess
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


def test_every_run_starts_on_an_empty_bytecode_cache_of_its_own(
        monkeypatch, tmp_path):
    # a run must not import bytecode left in a __pycache__ by earlier runs
    bench_pairs = _bench_pairs()
    caches = []

    def fake_run(cmd, **kwargs):
        env = kwargs["env"]
        cache = Path(env["PYTHONPYCACHEPREFIX"])
        assert cache.is_dir() and not any(cache.iterdir())
        assert env["PATH"] == os.environ["PATH"]
        caches.append(cache)
        run = _run(1, 38.0)
        out = json.dumps({"env": run["env"]}) + "\n" + json.dumps(
            run["result"]) + "\n"
        return subprocess.CompletedProcess(cmd, 0, stdout=out, stderr="")

    monkeypatch.setattr(bench_pairs.subprocess, "run", fake_run)
    for root in (tmp_path / "parent", tmp_path / "change"):
        assert bench_pairs.run_once(root, "sweep", 1, 1.0, 0)["seed"] == 1
    assert len(set(caches)) == 2
    assert not any(cache.exists() for cache in caches)
