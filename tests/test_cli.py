"""Tests for the command-line interface: JSON output and exit codes."""

import json
import math
from importlib.resources import files

import pytest

from zetapath.cli import main

ZEROS_FILE = str(files("zetapath").joinpath("data/zeta_zeros.txt"))


def _json_out(capsys):
    return json.loads(capsys.readouterr().out)


def test_verify_symbolic(capsys):
    assert main(["verify-symbolic"]) == 0
    report = _json_out(capsys)
    assert report["ok"] is True
    assert len(report["identities"]) == 8
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


def test_eval_near_a_cusp_is_a_json_error(capsys):
    # tau is ~1e81 there: the value is finite, the residuals leave range
    for fn in ("Z", "sigma"):
        assert main(["eval", "--fn", fn,
                     "--z=0.006552700655029886,0.0320233352088164"]) == 1
        out = _json_out(capsys)
        assert out["error"] == "NearPole"
        assert "0.006552700655029886" in out["message"]


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
    (["trace", "--m", "0"], "IndexError"),
    (["trace", "--m", "400"], "IndexError"),
    (["eval", "--fn", "avatar", "--z", "0.1,1.2", "--n", "200"], "KeyError"),
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


def test_zeros_count_bounds(capsys):
    assert main(["zeros", "--count", "0"]) == 1
    assert _json_out(capsys)["error"] == "ValueError"


def test_trace(capsys):
    assert main(["trace", "--m", "1"]) == 0
    out = _json_out(capsys)
    assert out["matched_index"] == 2
    assert out["halvings"] == 0
    assert out["steps"] < out["zeta_evals"] < 1.5 * out["steps"]
    assert 0 < out["zeta_reflected"] < out["zeta_evals"]
    assert out["max_residual"] < 1e-8
    assert abs(out["end_s"]["re"] - 0.5) < 1e-6


def test_experiment(capsys):
    assert main(["experiment", "--max-m", "2"]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert len(lines) == 3
    records = [json.loads(line) for line in lines[:-1]]
    assert [r["matched_index"] for r in records] == [2, 3]
    summary = json.loads(lines[-1])["summary"]
    assert summary["success_count"] == 2
    assert summary["errors"] == []
    for name in ("steps", "halvings", "zeta_evals", "zeta_reflected"):
        assert summary[name] == sum(r[name] for r in records)


def test_experiment_errors_are_json_records(capsys):
    # a pole cap below the avatar's modulus on the path blocks the walk
    assert main(["experiment", "--max-m", "2", "--pole-cap", "2"]) == 1
    lines = capsys.readouterr().out.strip().splitlines()
    summary = json.loads(lines[-1])["summary"]
    assert summary["success_count"] == 0
    errors = summary["errors"]
    assert [e["m"] for e in errors] == [1, 2]
    for e in errors:
        assert e["kind"] == "Blocked"
        assert 0.0 < e["t"] < 1.0
        assert set(e["s"]) == {"re", "im"}


def test_experiment_emit(capsys, tmp_path):
    target = tmp_path / "traces.jsonl"
    assert main(["experiment", "--max-m", "1", "--emit", str(target)]) == 0
    emitted = target.read_text().strip().splitlines()
    assert len(emitted) == 1
    assert json.loads(emitted[0])["matched_index"] == 2
    stdout_lines = capsys.readouterr().out.strip().splitlines()
    assert len(stdout_lines) == 1
    assert json.loads(stdout_lines[0])["summary"]["success_count"] == 1


def test_experiment_bounds(capsys):
    assert main(["experiment", "--max-m", "301"]) == 2
    assert main(["experiment", "--max-m", "-1"]) == 2


def test_experiment_zeros_file(capsys):
    assert main(["experiment", "--max-m", "1",
                 "--zeros-file", ZEROS_FILE]) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    assert json.loads(lines[-1])["summary"]["success_count"] == 1
