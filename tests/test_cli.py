"""Tests for the command-line interface: JSON output and exit codes."""

import json
import math
import os
import subprocess
import sys
from dataclasses import fields
from importlib.resources import files
from pathlib import Path

import pytest

from zetapath import cli, tracer, treepath
from zetapath.cli import main
from zetapath.tracer import (
    COUNTERS, ExperimentSummary, TraceFailure, TraceRecord,
)
from zetapath.zetafn import MAX_ZEROS

ZEROS_FILE = str(files("zetapath").joinpath("data/zeta_zeros.txt"))
SRC = str(Path(__file__).resolve().parents[1] / "src")


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def test_verify_symbolic(capsys):
    assert main(["verify-symbolic"]) == 0
    report = _json_out(capsys)
    assert report["ok"] is True
    assert len(report["identities"]) == 10
    assert all(item["ok"] for item in report["identities"])


def test_verify_cosets(capsys):
    assert main(["verify-cosets"]) == 0
    report = _json_out(capsys)
    assert report["ok"] is True
    assert report["rows"] == 96


def test_eval_tau(capsys):
    assert main(["eval", "--fn", "tau", "--z", "0.1,1.2"]) == 0
    out = _json_out(capsys)
    assert set(out) == {"fn", "z", "value", "residuals"}
    assert out["fn"] == "tau"
    assert math.isfinite(out["value"]["re"])
    assert max(out["residuals"].values()) < 1e-8


def test_eval_branch_value(capsys):
    assert main(["eval", "--fn", "Z", "--z", "0.0,1.0"]) == 0
    out = _json_out(capsys)
    v = complex(out["value"]["re"], out["value"]["im"])
    assert abs(abs(v) - 1.0) < 1e-9
    assert v.imag > 0.0
    assert max(out["residuals"].values()) < 1e-8


def test_eval_avatar(capsys):
    assert main(["eval", "--fn", "avatar", "--z=-0.25,0.9682458365518543",
                 "--n", "41"]) == 0
    out = _json_out(capsys)
    assert out["n"] == 41
    assert abs(complex(out["value"]["re"], out["value"]["im"])) < 1e-6


def test_eval_avatar_needs_index(capsys):
    assert main(["eval", "--fn", "avatar", "--z", "0.1,1.2"]) == 1
    assert _json_out(capsys)["error"] == "ValueError"


def test_eval_rejects_lower_half_plane(capsys):
    assert main(["eval", "--fn", "j", "--z=0.0,-1.0"]) == 1
    assert _json_out(capsys)["error"] == "ValueError"


@pytest.mark.parametrize("point", ["inf,1", "nan,1"])
def test_eval_rejects_non_finite_points(capsys, point):
    assert main(["eval", "--fn", "tau", f"--z={point}"]) == 1
    out = _json_out(capsys)
    assert out["error"] == "ValueError"
    assert "finite" in out["message"]


def test_eval_near_a_cusp_is_a_json_error(capsys):
    # tau is ~1e81 there: the value is finite, the residuals leave range
    for fn in ("Z", "sigma"):
        assert main(["eval", "--fn", fn,
                     "--z=0.006552700655029886,0.0320233352088164"]) == 1
        out = _json_out(capsys)
        assert out["error"] == "NearPole"
        assert "0.006552700655029886" in out["message"]


@pytest.mark.parametrize("fn, point", [("eta", "0.3,1e-320"),
                                       ("Z", "0.1,1e-300")])
def test_eval_near_the_real_axis_is_a_json_error(capsys, fn, point):
    # eta died with an OverflowError traceback; Z named 0.1+0j, the
    # point its walk ended at, in a ValueError
    assert main(["eval", "--fn", fn, f"--z={point}"]) == 1
    out = _json_out(capsys)
    assert out["error"] == "NearPole"
    assert str(complex(*map(float, point.split(",")))) in out["message"]


def test_eval_usage_errors():
    assert main(["eval", "--fn", "tau", "--z", "nonsense"]) == 2
    assert main(["eval", "--fn", "nosuch", "--z", "0,1"]) == 2
    assert main(["nosuchcommand"]) == 2
    assert main([]) == 2


def test_find_c(capsys):
    assert main(["find-c"]) == 0
    out = _json_out(capsys)
    assert math.pi / 2.0 < out["theta_c"] < 2.0 * math.pi / 3.0
    assert out["abs_avatar41_at_c"] < 1e-6
    assert abs(out["j_c"]["im"]) < 1e-6


@pytest.mark.parametrize("argv", [
    ["find-c"],
    ["eval", "--fn", "Z", "--z=0.0,1.0"],
])
def test_emit_writes_the_printed_line(capsys, tmp_path, argv):
    assert main(argv) == 0
    printed = capsys.readouterr().out
    target = tmp_path / "out.json"
    assert main([*argv, "--emit", str(target)]) == 0
    assert capsys.readouterr().out == ""
    assert target.read_text() == printed
    # complex values are written as {"re", "im"} objects
    out = json.loads(printed)
    value = out["c"] if argv == ["find-c"] else out["value"]
    assert list(value) == ["re", "im"]


def test_path_default_word(capsys, tmp_path):
    target = tmp_path / "path.csv"
    assert main(["path", "--samples", "120", "--emit", str(target)]) == 0
    out = _json_out(capsys)
    assert out["edges"] == 18
    assert out["max_vertex_mismatch"] < 1e-12
    lines = target.read_text().strip().splitlines()
    assert lines[0] == "t,re_z,im_z"
    assert len(lines) == 122  # header + samples + 1 points


def test_path_rejects_bad_word(capsys):
    assert main(["path", "--word", "RR"]) == 1
    assert _json_out(capsys)["error"] == "NotReduced"


@pytest.mark.parametrize("argv", [
    ["path", "--samples", "0", "--emit", "unused.csv"],
    ["path", "--samples", "-3"],
    ["trace", "--samples", "0"],
])
def test_samples_below_one_rejected(capsys, tmp_path, monkeypatch, argv):
    monkeypatch.chdir(tmp_path)
    assert main(argv) == 1
    assert _json_out(capsys)["error"] == "ValueError"
    assert not (tmp_path / "unused.csv").exists()


@pytest.mark.parametrize("argv, error", [
    # the shipped file holds 310 zeros: 311 is the first index past it
    (["trace", "--m", "311", "--zeros-file", ZEROS_FILE], "IndexError"),
    (["trace", "--m", "320", "--zeros-file", ZEROS_FILE], "IndexError"),
    # and the table 96 rows: 97 is the first avatar index past it
    (["eval", "--fn", "avatar", "--z", "0.1,1.2", "--n", "97"], "IndexError"),
])
def test_out_of_range_index_is_a_json_error(capsys, argv, error):
    assert main(argv) == 1
    assert _json_out(capsys)["error"] == error


def test_zeros_with_check(capsys):
    assert main(["zeros", "--count", "5", "--check", ZEROS_FILE]) == 0
    out = _json_out(capsys)
    assert out["count"] == 5
    ords = out["ordinates"]
    assert all(a < b for a, b in zip(ords, ords[1:]))
    assert out["check"]["ok"] is True
    assert out["check"]["max_delta"] < 1e-6


def test_zeros_check_failure(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("10.0\n20.0\n30.0\n")
    assert main(["zeros", "--count", "3", "--check", str(bad)]) == 1
    assert _json_out(capsys)["check"]["ok"] is False


def test_zeros_check_rejects_non_finite_ordinates(capsys, tmp_path):
    bad = tmp_path / "bad.txt"
    bad.write_text("14.134725\nnan\ninf\n")
    assert main(["zeros", "--count", "3", "--check", str(bad)]) == 1
    out = _json_out(capsys)
    assert out["error"] == "ParseError"
    assert out["message"].startswith("line 2:")


def test_zeros_check_needs_ordinates(capsys, tmp_path):
    empty = tmp_path / "empty.txt"
    empty.write_text("# no ordinates here\n")
    assert main(["zeros", "--count", "3", "--check", str(empty)]) == 1
    out = _json_out(capsys)
    assert out["error"] == "ValueError"
    assert out["message"] == f"{empty} has no ordinates to compare"


def test_zeros_count_bounds(capsys):
    assert main(["zeros", "--count", "0"]) == 1
    assert _json_out(capsys)["error"] == "ValueError"


def test_trace(capsys):
    assert main(["trace", "--m", "1"]) == 0
    out = _json_out(capsys)
    assert set(out) == {f.name for f in fields(TraceRecord)}
    assert out["matched_index"] == 2
    assert out["halvings"] == 0
    assert out["steps"] < out["zeta_evals"] < 1.5 * out["steps"]
    assert 0 < out["zeta_reflected"] < out["zeta_evals"]
    assert 0 < out["zeta_centres"] < out["zeta_evals"]
    assert out["newton_updates"] == out["zeta_evals"] - 1 - out["steps"]
    assert out["max_residual"] < 1e-8
    assert abs(out["end_s"]["re"] - 0.5) < 1e-6


def test_trace_exits_1_unless_it_lands_on_the_next_zero(capsys):
    # on a two-sample grid the walk returns to zero 1: matched, not landed
    assert main(["trace", "--m", "1", "--samples", "2"]) == 1
    assert _json_out(capsys)["matched_index"] == 1


@pytest.mark.parametrize("argv", [
    ["trace", "--pole-cap", "nan"],
    ["trace", "--pole-cap", "0"],
    ["trace", "--tol-residual", "inf"],
    ["experiment", "--max-m", "1", "--pole-cap", "nan"],
    ["experiment", "--max-m", "1", "--tol-residual", "-1"],
    ["trace", "--m", "1", "--pole-cap", "2"],
    ["experiment", "--max-m", "1", "--tol-residual", "1e-9"],
])
def test_walk_tolerances_rejected(capsys, monkeypatch, argv):
    # the tolerances are constants, so any value is a usage error
    monkeypatch.setattr(tracer, "find_zeros", None)  # nothing is computed
    assert main(argv) == 2
    assert "unrecognized arguments" in capsys.readouterr().err


def test_experiment(capsys):
    assert main(["experiment", "--max-m", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    records = [json.loads(line) for line in lines[:-1]]
    assert [r["matched_index"] for r in records] == [2, 3]
    summary = json.loads(lines[-1])["summary"]
    assert summary["success_count"] == 2
    assert summary["errors"] == []
    assert "newton_updates" in COUNTERS
    for name in COUNTERS:
        assert summary[name] == sum(r[name] for r in records)
    assert summary["newton_updates"] > 0


def test_experiment_errors_are_json_records(capsys, monkeypatch):
    # a pole cap below the avatar's modulus on the path blocks the walk
    monkeypatch.setattr(treepath, "POLE_CAP", 2.0)
    assert main(["experiment", "--max-m", "2"]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(lines[-1])["summary"]
    assert summary["success_count"] == 0
    errors = summary["errors"]
    assert [e["m"] for e in errors] == [1, 2]
    for e in errors:
        assert list(e) == list(TraceFailure._fields)
        assert e["kind"] == "Blocked"
        assert 0.0 < e["t"] < 1.0
        assert set(e["s"]) == {"re", "im"}


def test_experiment_on_a_coarse_grid_prints_json_lines(capsys):
    code = main(["experiment", "--max-m", "3", "--samples", "8"])
    lines = capsys.readouterr().out.strip().splitlines()
    records = [json.loads(line) for line in lines[:-1]]
    summary = json.loads(lines[-1])["summary"]
    assert len(records) + len(summary["errors"]) == 3
    assert code == (0 if summary["success_count"] == 3 else 1)


def test_experiment_emit(capsys, tmp_path):
    target = tmp_path / "traces.jsonl"
    assert main(["experiment", "--max-m", "1", "--emit", str(target)]) == 0
    emitted = target.read_text().strip().splitlines()
    assert len(emitted) == 1
    assert json.loads(emitted[0])["matched_index"] == 2
    stdout_lines = capsys.readouterr().out.strip().splitlines()
    assert len(stdout_lines) == 1
    assert json.loads(stdout_lines[0])["summary"]["success_count"] == 1


def test_experiment_bounds(capsys, monkeypatch):
    assert main(["experiment", "--max-m", str(MAX_ZEROS - 1)]) == 2
    assert f"between 0 and {MAX_ZEROS - 2}" in capsys.readouterr().err
    assert main(["experiment", "--max-m", "-1"]) == 2
    # the largest bound leaves zero m+2 to match against; the sweep
    # itself is stubbed
    asked = []

    def stub(max_m, **_):
        asked.append(max_m)
        return ExperimentSummary(records=(), errors=(), success_count=max_m,
                                 max_residual=0.0, wall_time=0.0,
                                 totals=dict.fromkeys(COUNTERS, 0))
    monkeypatch.setattr(cli, "run_experiment", stub)
    assert main(["experiment", "--max-m", str(MAX_ZEROS - 2)]) == 0
    assert asked == [MAX_ZEROS - 2]


def test_trace_bound(capsys, monkeypatch):
    # zero 350 is the last find_zeros certifies: trace 349 would land on
    # it with no zero 351 to name an overshoot, and there is no zero 0;
    # refused before any zero is computed
    monkeypatch.setattr(cli, "trace", None)     # the bound fires first
    for m in (-1, 0, MAX_ZEROS - 1, 400):
        assert main(["trace", "--m", str(m)]) == 2
        assert f"between 1 and {MAX_ZEROS - 2}" in capsys.readouterr().err


def test_experiment_zeros_file(capsys):
    assert main(["experiment", "--max-m", "1",
                 "--zeros-file", ZEROS_FILE]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[-1])["summary"]["success_count"] == 1


def test_a_closed_pipe_ends_the_cli_quietly():
    # the CSV is larger than a pipe's 64 KiB buffer, so the writer meets
    # the closed pipe while it still has rows to write
    proc = subprocess.Popen(
        [sys.executable, "-m", "zetapath.cli", "path", "--samples", "5000",
         "--emit", "/dev/stdout"],
        stdout=subprocess.PIPE, stderr=subprocess.PIPE,
        env={**os.environ, "PYTHONPATH": SRC})
    assert proc.stdout.read(10) == b"t,re_z,im_"
    proc.stdout.close()
    _, err = proc.communicate(timeout=60)
    assert proc.returncode == 1
    assert b"Traceback" not in err and b"BrokenPipeError" not in err, err
