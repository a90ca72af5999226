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
from zetapath.zetafn import (
    ZeroList, find_zeros, reference_zeros, reflects, zeta_with_prime,
)

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
    # the extrapolating predictor meets the residual target on its first
    # evaluation at most steps; a first-order one makes about 2.4 per step
    assert rec.zeta_evals / rec.steps < 1.5
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


def test_deep_trace_doubling_samples_stable():
    ref = reference_zeros()
    a = trace(250, path=build_path(SHIFT_WORD, samples=2000), zeros=ref)
    b = trace(250, path=build_path(SHIFT_WORD, samples=4000), zeros=ref)
    assert a.matched_index == b.matched_index == 251
    assert abs(a.end_s - b.end_s) < 1e-7


def test_deep_trace_makes_about_one_zeta_evaluation_per_step():
    rec = trace(250, path=build_path(SHIFT_WORD, samples=3000),
                zeros=reference_zeros())
    assert rec.matched_index == 251
    assert rec.halvings == 0
    assert rec.steps == 3000
    # the start derivative is counted too
    assert rec.steps < rec.zeta_evals < 1.5 * rec.steps
    assert rec.max_residual < TraceOptions().residual_tol


def test_zeta_matches_mpmath_where_the_tracer_evaluates(monkeypatch):
    mpmath = pytest.importorskip("mpmath")
    picks = []
    for m in (1, 250):
        points = []

        def recording(s, points=points):
            points.append(s)
            return zeta_with_prime(s)

        monkeypatch.setattr(tracer, "zeta_with_prime", recording)
        trace(m, zeros=reference_zeros())
        reflected = [s for s in points if reflects(s)]
        direct = [s for s in points if not reflects(s)]
        assert reflected and direct
        picks += reflected[::len(reflected) // 10][:10]
        picks += direct[::len(direct) // 5][:5]
    with mpmath.workdps(30):
        for s in picks:
            val, der = zeta_with_prime(s)
            ref_val = complex(mpmath.zeta(s))
            ref_der = complex(mpmath.zeta(s, derivative=1))
            # relative where |zeta| >= 1; absolute nearer the zeros the
            # trace starts and ends on
            assert abs(val - ref_val) < 1e-12 * max(1.0, abs(ref_val)), s
            assert abs(der - ref_der) < 1e-12 * abs(ref_der), s


def test_trace_counts_reflected_evaluations(zeros, monkeypatch):
    points = []

    def recording(s):
        points.append(s)
        return zeta_with_prime(s)

    monkeypatch.setattr(tracer, "zeta_with_prime", recording)
    rec = trace(1, zeros=zeros)
    assert rec.zeta_evals == len(points)
    assert rec.zeta_reflected == sum(map(reflects, points))
    assert 0 < rec.zeta_reflected < rec.zeta_evals


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
    assert rec.zeta_evals > rec.steps
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
    for opts in (
            # an unattainable residual target forces halving to the floor
            TraceOptions(residual_tol=1e-18),
            # a step floor above half a grid step collapses at the first
            # halving
            TraceOptions(ds_max=1e-6, dt_min=1e-3)):
        with pytest.raises(StepCollapse) as exc:
            trace(1, opts=opts, zeros=zeros)
        assert exc.value.t == 0.0
        assert exc.value.s == complex(0.5, zeros.gamma(1))


def test_trace_derivative_guard(zeros):
    opts = TraceOptions(derivative_min=1e6)
    with pytest.raises(DerivativeSmall) as exc:
        trace(1, opts=opts, zeros=zeros)
    assert exc.value.t == 0.0
    assert exc.value.s == complex(0.5, zeros.gamma(1))


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
    for name in ("steps", "halvings", "zeta_evals", "zeta_reflected"):
        assert getattr(summary, name) == sum(getattr(r, name)
                                             for r in summary.records)
    assert 0 < summary.zeta_reflected < summary.zeta_evals


def test_experiment_empty():
    summary = run_experiment(0)
    assert summary.records == ()
    assert summary.errors == ()
    assert summary.success_count == 0
    assert summary.max_residual == 0.0
    assert summary.steps == summary.zeta_evals == summary.zeta_reflected == 0


def test_experiment_records_failures(zeros):
    opts = TraceOptions(pole_cap=100.0)
    summary = run_experiment(2, path=build_path(BAD_WORD), opts=opts,
                             zeros=zeros)
    assert summary.success_count == 0
    assert summary.records == ()
    assert [e.m for e in summary.errors] == [1, 2]
    assert all(e.kind == "Blocked" for e in summary.errors)
    for e in summary.errors:
        assert 0.0 < e.t <= 1.0
        assert isinstance(e.s, complex)


def test_experiment_needs_enough_zeros(zeros):
    with pytest.raises(ValueError):
        run_experiment(10, zeros=zeros)


def test_default_zeros_are_computed_up_to_the_cap():
    assert _default_zeros(3).ordinates == find_zeros(3).ordinates
    ref = reference_zeros()
    assert len(ref) == 310
    deep = _default_zeros(302)
    assert deep.source == "computed"
    assert len(deep) == 302
    worst = max(abs(a - b) for a, b in zip(deep.ordinates, ref.ordinates))
    assert worst < 1e-9
    assert _default_zeros(201).ordinates == deep.ordinates[:201]
    assert len(_default_zeros(400)) == 350


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
