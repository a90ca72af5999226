"""Tests for the predictor-corrector continuation and the m-sweep runner."""

import math

import pytest

from zetapath import tracer
from zetapath.errors import Blocked, DerivativeSmall, StepCollapse
from zetapath.etaengine import EtaContext
from zetapath.sl2z import SHIFT_WORD
from zetapath.tracer import (
    TraceOptions, TraceRecord, _default_zeros, _match, run_experiment, trace,
    verify_fixing,
)
from zetapath.treepath import build_path
from zetapath.zetafn import ZeroList, find_zeros, reference_zeros

BAD_WORD = "RSRSrSRSR"  # endpoint sits in the index-41 pole fiber


@pytest.fixture(scope="module")
def zeros():
    return find_zeros(8)


def test_trace_first_zero_lands_on_second(zeros):
    rec = trace(1, zeros=zeros)
    assert rec.matched_index == 2
    assert abs(rec.end_s - complex(0.5, zeros.gamma(2))) < 1e-8
    assert rec.max_residual < 1e-8
    assert rec.gamma_start == zeros.gamma(1)
    # no halving: exactly one step per grid point of the 2000-sample path
    assert rec.halvings == 0
    assert rec.steps == 2000
    # the avatar modulus genuinely spikes mid-path
    assert 40.0 < rec.max_abs_avatar < 60.0


def test_trace_second_zero_lands_on_third(zeros):
    rec = trace(2, zeros=zeros)
    assert rec.matched_index == 3
    assert abs(rec.end_s - complex(0.5, zeros.gamma(3))) < 1e-8


def test_trace_deterministic(zeros):
    a = trace(1, zeros=zeros)
    b = trace(1, zeros=zeros)
    assert a.end_s == b.end_s
    assert a.steps == b.steps
    assert a.max_residual == b.max_residual
    assert a.max_abs_avatar == b.max_abs_avatar


def test_trace_doubling_samples_stable(zeros):
    a = trace(1, zeros=zeros)
    b = trace(1, path=build_path(SHIFT_WORD, samples=4000), zeros=zeros)
    assert a.matched_index == b.matched_index == 2
    assert abs(a.end_s - b.end_s) < 1e-7


def test_warm_trace_matches_cold_trace(zeros):
    shared = EtaContext()
    trace(2, zeros=zeros, ctx=shared)
    filled = shared.trajectory
    warm = trace(1, zeros=zeros, ctx=shared)
    assert shared.trajectory is filled
    cold = trace(1, zeros=zeros, ctx=EtaContext())
    assert warm.end_s == cold.end_s
    assert warm.steps == cold.steps
    assert warm.max_residual == cold.max_residual
    assert warm.max_abs_avatar == cold.max_abs_avatar


def test_trace_halves_off_the_grid_and_still_lands(zeros):
    # a tight cap on the corrector's move forces halved steps between
    # grid points
    path = build_path(SHIFT_WORD)
    rec = trace(1, path=path, opts=TraceOptions(ds_max=2e-3), zeros=zeros)
    assert rec.halvings > 0
    assert rec.steps > path.samples
    assert rec.matched_index == 2


def test_trace_rejects_start_off_the_marked_point(zeros):
    # a path anchored elsewhere on the arc starts with a nonzero avatar
    with pytest.raises(ValueError):
        trace(1, path=build_path("S", theta_c=1.7), zeros=zeros)


def test_trace_blocked_propagates(zeros):
    # a cap low enough to trip before the residual target becomes
    # unreachable surfaces the avatar pole as Blocked
    opts = TraceOptions(pole_cap=100.0)
    with pytest.raises(Blocked) as exc:
        trace(1, path=build_path(BAD_WORD), opts=opts, zeros=zeros)
    assert exc.value.t is not None


def test_trace_blocked_at_the_same_t_on_a_filled_trajectory(zeros):
    path = build_path(BAD_WORD)
    opts = TraceOptions(pole_cap=100.0)
    with pytest.raises(Blocked) as cold:
        trace(1, path=path, opts=opts, zeros=zeros, ctx=EtaContext())
    shared = EtaContext()
    # the default cap walks the trajectory past the lower cap before the
    # step collapses
    with pytest.raises(StepCollapse):
        trace(1, path=path, zeros=zeros, ctx=shared)
    with pytest.raises(Blocked) as warm:
        trace(1, path=path, opts=opts, zeros=zeros, ctx=shared)
    assert warm.value.t == cold.value.t


def test_trace_pole_path_collapses_at_default_cap(zeros):
    # with the default 1e6 cap the absolute residual target becomes
    # unreachable in binary64 once the avatar modulus passes ~1e3, so the
    # walk stalls before the cap can trigger
    with pytest.raises(StepCollapse):
        trace(1, path=build_path(BAD_WORD), zeros=zeros)


def test_trace_step_collapse(zeros):
    # an unattainable residual target forces halving to the floor
    opts = TraceOptions(residual_tol=1e-18)
    with pytest.raises(StepCollapse):
        trace(1, opts=opts, zeros=zeros)


def test_trace_derivative_guard(zeros):
    opts = TraceOptions(derivative_min=1e6)
    with pytest.raises(DerivativeSmall):
        trace(1, opts=opts, zeros=zeros)


def test_match_rules():
    zl = ZeroList(ordinates=(14.0, 21.0), source="ingested")
    opts = TraceOptions()
    assert _match(complex(0.5, 14.0), zl, opts) == 1
    assert _match(complex(0.5, 21.0 + 5e-7), zl, opts) == 2
    # too far from every ordinate
    assert _match(complex(0.5, 14.1), zl, opts) is None
    # equidistant: no dominance
    assert _match(complex(0.5, 17.5), zl, opts) is None


def test_experiment_small_sweep(zeros):
    summary = run_experiment(3, zeros=zeros)
    assert summary.success_count == 3
    assert summary.errors == ()
    assert [r.matched_index for r in summary.records] == [2, 3, 4]
    assert summary.max_residual < 1e-8
    assert all(math.isfinite(r.wall_time) and r.wall_time > 0.0
               for r in summary.records)


def test_experiment_empty():
    summary = run_experiment(0)
    assert summary.records == ()
    assert summary.errors == ()
    assert summary.success_count == 0
    assert summary.max_residual == 0.0


def test_experiment_records_failures(zeros):
    opts = TraceOptions(pole_cap=100.0)
    summary = run_experiment(2, path=build_path(BAD_WORD), opts=opts,
                             zeros=zeros)
    assert summary.success_count == 0
    assert summary.records == ()
    assert len(summary.errors) == 2
    assert all(msg.startswith("Blocked") for _, msg in summary.errors)


def test_experiment_needs_enough_zeros(zeros):
    with pytest.raises(ValueError):
        run_experiment(10, zeros=zeros)


def test_default_zeros_scan_then_fall_back_to_the_table():
    assert _default_zeros(3).ordinates == find_zeros(3).ordinates
    ref = reference_zeros()
    assert _default_zeros(201).ordinates == ref.ordinates
    assert len(_default_zeros(302)) == len(ref) == 310


def test_experiment_beyond_200_zeros_runs(monkeypatch):
    # the CLI accepts --max-m up to 300; only the zero list is at stake
    # here, so each trace is replaced by a record that lands on zero m+1
    def landed(m, zeros, **_):
        assert len(zeros) >= m + 2
        return TraceRecord(m=m, gamma_start=zeros.gamma(m),
                           end_s=complex(0.5, zeros.gamma(m + 1)),
                           matched_index=m + 1, steps=0, max_residual=0.0,
                           max_abs_avatar=0.0, wall_time=0.0)
    monkeypatch.setattr(tracer, "trace", landed)
    summary = run_experiment(250)
    assert summary.success_count == 250


def test_verify_fixing_report():
    report = verify_fixing()
    assert report["ok"] is True
    assert report["exact_conjugation"] is True
    assert report["identity_control"] is False
    assert report["points"] == 10
    assert report["numeric_max_delta"] < 1e-10


def test_record_fields_roundtrip(zeros):
    rec = trace(1, zeros=zeros)
    assert isinstance(rec, TraceRecord)
    assert rec.m == 1
    assert rec.wall_time > 0.0
