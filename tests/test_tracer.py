"""Tests for the predictor-corrector continuation and the m-sweep runner."""

import cmath
import math

import pytest

from zetapath import tracer, treepath, zetafn
from zetapath.errors import (
    Blocked, DerivativeSmall, PathWalkError, StepCollapse,
)
from zetapath.etaengine import EtaContext
from zetapath.sl2z import SHIFT_WORD
from zetapath.tracer import (
    RESIDUAL_TOL, TraceRecord, _match, _zeros_for, run_experiment, trace,
    verify_fixing,
)
from zetapath.treepath import build_path
from zetapath.zetafn import (
    ZeroList, find_zeros, reference_zeros, reflects, zeta_with_prime,
)

from oracles import BAD_WORD


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
    # with no halving, every evaluation past the start and one per step
    # follows a Newton update
    assert rec.newton_updates == rec.zeta_evals - 1 - rec.steps > 0
    # the avatar modulus genuinely spikes mid-path
    assert 40.0 < rec.max_abs_avatar < 60.0


def test_trace_second_zero_lands_on_third(zeros):
    rec = trace(2, zeros=zeros)
    assert rec.matched_index == 3
    assert abs(rec.end_s - complex(0.5, zeros.gamma(3))) < 1e-8


@pytest.mark.parametrize("curve", [0.0, 0.1])
def test_trace_counts_its_newton_updates(zeros, monkeypatch, curve):
    # zeta replaced by f(s) = 10 (d + curve d^2), d = s - rho_1, which the
    # walk follows without halving: each call past the start and one per
    # step follows a Newton update, and the predictor alone meets a
    # linear f
    start = complex(0.5, zeros.gamma(1))
    calls = []

    def stub(s, disc=None):
        calls.append(s)
        d = s - start
        return 10.0 * (d + curve * d * d), 10.0 * (1.0 + 2.0 * curve * d)
    monkeypatch.setattr(tracer, "zeta_with_prime", stub)
    rec = trace(1, zeros=zeros)
    assert rec.halvings == 0 and rec.steps == 2000
    assert rec.newton_updates == len(calls) - 1 - rec.steps
    assert (rec.newton_updates > 0) == (curve > 0.0)
    assert rec.zeta_evals == 0                # the disc was bypassed


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
    assert rec.max_residual < RESIDUAL_TOL
    # one disc serves runs of evaluations: it is re-centred only when s
    # moves out of it or across the reflection line
    assert 0 < rec.zeta_centres < rec.zeta_evals / 20


# float.hex of end_s (re, im), max_residual and max_abs_avatar, then
# steps, halvings, zeta_evals, zeta_reflected and zeta_centres, per
# (m, samples): a refactor that keeps every bit keeps these.  The counts
# hinge on Newton residuals that land near RESIDUAL_TOL (in trace(250)
# the predicted points of the steps to t = 1729/3000 and 1730/3000 miss
# by 9.956e-11 and 9.969e-11, the record's max_residual, so they take no
# Newton update, and that of the step to t = 1270/3000 by 1.009e-10),
# so a walk value moved by ~1e-13 can flip zeta_evals and
# zeta_reflected.  The shift path's walk is mirrored: past t = 1/2 its
# values are conjugates of the walked half, within 1.5e-13 relative of
# a walk in full, which took two more Newton updates here (3505 zeta
# evaluations) and moved the endpoints in their last hex digits.
TRACE_HEX = {
    (1, 2000): (("0x1.0000000000190p-1", "0x1.505a463c7bd54p+4",
                 "0x1.b73d3429ff855p-34", "0x1.98f97b7ea8f4ap+5"),
                (2000, 0, 2576, 618, 61)),
    (2, 2000): (("0x1.0000000000137p-1", "0x1.902c78ff7a3afp+4",
                 "0x1.b48232018789fp-34", "0x1.98f97b7ea8f4ap+5"),
                (2000, 0, 2600, 570, 46)),
    (250, 3000): (("0x1.0000000000050p-1", "0x1.d8cc96b5ecb09p+8",
                   "0x1.b6735bd67ad82p-34", "0x1.98f97b7ea8f4ap+5"),
                  (3000, 0, 3503, 0, 18)),
}


@pytest.mark.parametrize("m, samples", list(TRACE_HEX))
def test_trace_outputs_are_frozen_bitwise(m, samples):
    rec = trace(m, path=build_path(SHIFT_WORD, samples=samples),
                zeros=reference_zeros())
    floats = (rec.end_s.real, rec.end_s.imag, rec.max_residual,
              rec.max_abs_avatar)
    counts = (rec.steps, rec.halvings, rec.zeta_evals, rec.zeta_reflected,
              rec.zeta_centres)
    assert (tuple(x.hex() for x in floats), counts) == TRACE_HEX[m, samples]
    assert rec.matched_index == m + 1


def test_zeta_matches_mpmath_where_the_tracer_evaluates(monkeypatch):
    mpmath = pytest.importorskip("mpmath")
    picks = []
    for m in (1, 250):
        points = []

        def recording(s, disc=None, points=points):
            val, der = zeta_with_prime(s, disc)
            points.append((s, val, der))
            return val, der

        monkeypatch.setattr(tracer, "zeta_with_prime", recording)
        trace(m, zeros=reference_zeros())
        # left of Re s = 0.4 the direct series' summands outgrow the value
        # most; trace(1) also reaches left of the reflection line, where
        # the disc expands the reflected series
        left = [p for p in points if p[0].real < 0.4]
        right = [p for p in points if p[0].real >= 0.4]
        assert left and right
        picks += left[::len(left) // 10][:10]
        picks += right[::len(right) // 5][:5]
        if m == 1:
            reflected = [p for p in points if reflects(p[0])]
            assert reflected
            picks += reflected[::len(reflected) // 5][:5]
    # the values the tracer received, read from its disc
    with mpmath.workdps(30):
        for s, val, der in picks:
            ref_val = complex(mpmath.zeta(s))
            ref_der = complex(mpmath.zeta(s, derivative=1))
            # relative where |zeta| >= 1; absolute nearer the zeros the
            # trace starts and ends on
            assert abs(val - ref_val) < 1e-12 * max(1.0, abs(ref_val)), s
            assert abs(der - ref_der) < 1e-12 * abs(ref_der), s


def test_trace_counts_reflected_evaluations(zeros, monkeypatch):
    points = []

    def recording(s, disc=None):
        points.append(s)
        return zeta_with_prime(s, disc)

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


def test_trace_halves_off_the_grid_and_still_lands(zeros, monkeypatch):
    # a tight cap on the corrector's move forces halved steps between
    # grid points
    monkeypatch.setattr(tracer, "_DS_MAX", 2e-3)
    path = build_path(SHIFT_WORD)
    rec = trace(1, path=path, zeros=zeros)
    assert rec.halvings > 0
    assert rec.steps > path.samples
    assert rec.zeta_evals > rec.steps
    assert rec.matched_index == 2


def test_trace_counts_the_avatar_evaluations_it_makes():
    # a cold trace on the mirrored shift path walks the grid to its
    # middle and one probe point past it; a warm one walks nothing
    path = build_path(SHIFT_WORD, samples=3000)
    ctx = EtaContext()
    cold = trace(250, path=path, zeros=reference_zeros(), ctx=ctx)
    assert cold.halvings == 0
    assert cold.avatar_evals == 1501
    assert 0.0 < cold.mirror_gap < 1e-12
    warm = trace(251, path=path, zeros=reference_zeros(), ctx=ctx)
    assert warm.avatar_evals == 0
    assert warm.mirror_gap == cold.mirror_gap


def test_halved_steps_count_their_avatar_reads(zeros, monkeypatch):
    monkeypatch.setattr(tracer, "_DS_MAX", 2e-3)
    rec = trace(1, zeros=zeros)
    assert rec.halvings > 0
    assert rec.avatar_evals == 1001 + rec.halvings


def test_a_trace_walked_in_full_repeats_the_unmirrored_walk(monkeypatch):
    # with no diamond taking the walk to its conjugate (none is 0) the
    # shift path is walked in full: every grid point, no gap, and the
    # record the walk in full gave before mirroring, bit for bit
    monkeypatch.setattr(treepath, "_CONJUGATE_DIAMOND", 0)
    rec = trace(1, path=build_path(SHIFT_WORD), zeros=reference_zeros())
    assert rec.avatar_evals == 2000 and rec.mirror_gap is None
    floats = (rec.end_s.real, rec.end_s.imag, rec.max_residual,
              rec.max_abs_avatar)
    assert tuple(x.hex() for x in floats) == (
        "0x1.00000000001a6p-1", "0x1.505a463c7bd50p+4",
        "0x1.b7391e20ad2a5p-34", "0x1.98f97b7ea8f4ap+5")
    assert (rec.steps, rec.halvings, rec.zeta_evals, rec.zeta_reflected,
            rec.zeta_centres) == (2000, 0, 2576, 618, 61)


def test_trace_rejects_start_off_the_marked_point(zeros, monkeypatch):
    # a path anchored elsewhere on the arc starts with a nonzero avatar
    monkeypatch.setattr(treepath, "find_c", lambda: cmath.exp(1.7j))
    with pytest.raises(ValueError):
        trace(1, path=build_path("S"), zeros=zeros)


def test_trace_blocked_propagates(zeros, monkeypatch):
    # a cap low enough to trip before the residual target becomes
    # unreachable surfaces the avatar pole as Blocked
    monkeypatch.setattr(treepath, "POLE_CAP", 100.0)
    with pytest.raises(Blocked) as exc:
        trace(1, path=build_path(BAD_WORD), zeros=zeros)
    assert exc.value.t is not None


def test_trace_blocked_at_the_same_t_on_a_filled_trajectory(zeros,
                                                            monkeypatch):
    path = build_path(BAD_WORD)
    cap = treepath.POLE_CAP
    monkeypatch.setattr(treepath, "POLE_CAP", 100.0)
    with pytest.raises(Blocked) as cold:
        trace(1, path=path, zeros=zeros, ctx=EtaContext())
    shared = EtaContext()
    # the usual cap walks the trajectory past the lower one before the
    # step collapses
    monkeypatch.setattr(treepath, "POLE_CAP", cap)
    with pytest.raises(StepCollapse):
        trace(1, path=path, zeros=zeros, ctx=shared)
    monkeypatch.setattr(treepath, "POLE_CAP", 100.0)
    with pytest.raises(Blocked) as warm:
        trace(1, path=path, zeros=zeros, ctx=shared)
    assert warm.value.t == cold.value.t


def test_trace_pole_path_collapses_at_default_cap(zeros):
    # with the 1e6 cap the absolute residual target becomes
    # unreachable in binary64 once the avatar modulus passes ~1e3, so the
    # walk stalls before the cap can trigger
    with pytest.raises(StepCollapse):
        trace(1, path=build_path(BAD_WORD), zeros=zeros)


def test_trace_step_collapse(zeros, monkeypatch):
    # an unattainable residual target forces halving to the floor
    monkeypatch.setattr(tracer, "RESIDUAL_TOL", 1e-18)
    with pytest.raises(StepCollapse) as tight:
        trace(1, zeros=zeros)
    # a step floor above half a grid step collapses at the first halving
    monkeypatch.setattr(tracer, "RESIDUAL_TOL", RESIDUAL_TOL)
    monkeypatch.setattr(tracer, "_DS_MAX", 1e-6)
    monkeypatch.setattr(tracer, "_DT_MIN", 1e-3)
    with pytest.raises(StepCollapse) as floor:
        trace(1, zeros=zeros)
    for exc in (tight, floor):
        assert exc.value.t == 0.0
        assert exc.value.s == complex(0.5, zeros.gamma(1))


def test_trace_derivative_guard(zeros, monkeypatch):
    monkeypatch.setattr(tracer, "_DERIVATIVE_MIN", 1e6)
    with pytest.raises(DerivativeSmall) as exc:
        trace(1, zeros=zeros)
    assert exc.value.t == 0.0
    assert exc.value.s == complex(0.5, zeros.gamma(1))


def test_trace_derivative_guard_mid_walk(zeros, monkeypatch):
    # a floor between |zeta'| at the start and the smallest |zeta'| the
    # walk meets passes the start and trips on the first evaluation below
    seen = []

    def recording(s, disc=None):
        val, der = zeta_with_prime(s, disc)
        seen.append((s, abs(der)))
        return val, der

    monkeypatch.setattr(tracer, "zeta_with_prime", recording)
    trace(1, zeros=zeros)
    start, lowest = seen[0][1], min(d for _, d in seen)
    assert lowest < start
    floor = 0.5 * (lowest + start)
    seen.clear()
    monkeypatch.setattr(tracer, "_DERIVATIVE_MIN", floor)
    with pytest.raises(DerivativeSmall) as exc:
        trace(1, zeros=zeros)
    assert 0.0 < exc.value.t < 1.0
    assert exc.value.s == seen[-1][0]
    assert seen[-1][1] < floor
    assert all(d >= floor for _, d in seen[:-1])


@pytest.mark.parametrize("samples", [8, 13, 20])
def test_trace_on_a_coarse_grid_lands_or_raises_a_walk_error(samples):
    # a coarse grid predicts points far from the strip; they halve the
    # step before zeta is evaluated there, where it would overflow
    path = build_path(SHIFT_WORD, samples=samples)
    zeros = find_zeros(22)
    for m in (1, 5, 20):
        try:
            rec = trace(m, path=path, zeros=zeros)
        except PathWalkError:
            continue
        assert rec.landed, (m, rec.matched_index)


@pytest.mark.parametrize("kwargs", [
    {"pole_cap": math.nan}, {"pole_cap": 0.0}, {"pole_cap": -1.0},
    {"residual_tol": math.nan}, {"residual_tol": math.inf},
    {"residual_tol": 0.0}, {"residual_tol": -1e-10},
])
def test_walk_tolerances_are_refused_before_any_zero(kwargs, monkeypatch):
    # the tolerances are constants: no value of either is a keyword
    def unreached(*args, **kw):
        raise AssertionError("a zero or an avatar was computed")
    for name in ("find_zeros", "avatar_trajectory", "avatar_eval"):
        monkeypatch.setattr(tracer, name, unreached)
    for run in (trace, run_experiment):
        with pytest.raises(TypeError):
            run(1, **kwargs)


def test_match_rules():
    zl = ZeroList(ordinates=(14.0, 21.0), source="ingested")
    assert _match(complex(0.5, 14.0), zl) == 1
    assert _match(complex(0.5, 21.0 + 5e-7), zl) == 2
    # too far from every ordinate
    assert _match(complex(0.5, 14.1), zl) is None
    # equidistant: no dominance
    assert _match(complex(0.5, 17.5), zl) is None


def test_experiment_small_sweep(zeros):
    summary = run_experiment(3, zeros=zeros)
    assert summary.success_count == 3
    assert summary.errors == ()
    assert [r.matched_index for r in summary.records] == [2, 3, 4]
    assert summary.max_residual < 1e-8
    assert all(math.isfinite(r.wall_time) and r.wall_time > 0.0
               for r in summary.records)
    for name in ("steps", "halvings", "newton_updates", "zeta_evals",
                 "zeta_reflected", "zeta_centres"):
        assert summary.totals[name] == sum(getattr(r, name)
                                           for r in summary.records)
    assert 0 < summary.totals["zeta_reflected"] < summary.totals["zeta_evals"]


def test_experiment_empty():
    summary = run_experiment(0)
    assert summary.records == ()
    assert summary.errors == ()
    assert summary.success_count == 0
    assert summary.max_residual == 0.0
    assert summary.totals == dict.fromkeys(tracer.COUNTERS, 0)


def test_experiment_records_failures(zeros, monkeypatch):
    monkeypatch.setattr(treepath, "POLE_CAP", 100.0)
    summary = run_experiment(2, path=build_path(BAD_WORD), zeros=zeros)
    assert summary.success_count == 0
    assert summary.records == ()
    assert [e.m for e in summary.errors] == [1, 2]
    assert all(e.kind == "Blocked" for e in summary.errors)
    for e in summary.errors:
        assert 0.0 < e.t <= 1.0
        assert isinstance(e.s, complex)


def test_trace_needs_the_zero_it_lands_on(zeros, monkeypatch):
    # zero m+1 must be in the list; refused before any avatar is evaluated
    def unreached(*args, **kwargs):
        raise AssertionError("an avatar was evaluated")
    monkeypatch.setattr(tracer, "avatar_trajectory", unreached)
    monkeypatch.setattr(tracer, "avatar_eval", unreached)
    three = ZeroList(zeros.ordinates[:3], source="computed")
    with pytest.raises(ValueError, match="m=3 needs at least 4 zeros"):
        trace(3, zeros=three)
    # without zero m itself the index is out of range, checked first
    for m in (0, 4):
        with pytest.raises(IndexError):
            trace(m, zeros=three)


def test_experiment_needs_enough_zeros(zeros):
    with pytest.raises(ValueError):
        run_experiment(10, zeros=zeros)


def test_default_zeros_are_computed_up_to_the_cap():
    # a trace from zero m computes the zeros through m + 2
    assert _zeros_for(1, 1, None).ordinates == find_zeros(3).ordinates
    ref = reference_zeros()
    assert len(ref) == 310
    deep = _zeros_for(300, 300, None)
    assert deep.source == "computed"
    assert len(deep) == 302
    worst = max(abs(a - b) for a, b in zip(deep.ordinates, ref.ordinates))
    assert worst < 1e-9
    assert _zeros_for(199, 199, None).ordinates == deep.ordinates[:201]
    assert len(_zeros_for(1, tracer.MAX_M, None)) == 350


def test_computed_zeros_stop_at_the_last_start(monkeypatch):
    # trace 349 would land on zero 350, the last find_zeros certifies,
    # with no zero 351 to name an overshoot; refused before any zero is
    # computed, as is a start below 1
    def unreached(n):
        raise AssertionError("find_zeros was called")
    monkeypatch.setattr(tracer, "find_zeros", unreached)
    with pytest.raises(ValueError, match="m=349 is past 348"):
        trace(349)
    with pytest.raises(ValueError, match="m=349 is past 348"):
        run_experiment(349)
    # a caller's own list long enough still serves
    own = ZeroList(tuple(float(k) for k in range(1, 352)), source="ingested")
    assert _zeros_for(349, 349, own) is own
    # there is no zero 0 or below: refused with the IndexError of a
    # missing zero, not find_zeros' error for a count m + 2 below 1
    for m in (-5, -1, 0):
        with pytest.raises(IndexError, match=f"zero index {m} is below 1"):
            trace(m)


def test_trace_refuses_a_start_that_is_not_an_integer(monkeypatch):
    # find_zeros refuses the count m + 2 before any Hardy Z evaluation
    def unreached(t):
        raise AssertionError("Hardy Z was evaluated")
    monkeypatch.setattr(zetafn, "_hardy_pair", unreached)
    with pytest.raises(TypeError):
        trace(1.5)


def test_experiment_beyond_200_zeros_runs(monkeypatch):
    # the CLI accepts --max-m up to MAX_ZEROS - 2; only the zero list is
    # at stake here, so each trace is replaced by a record that lands on
    # zero m+1
    def landed(m, zeros, **_):
        assert len(zeros) >= m + 2
        return TraceRecord(m=m, gamma_start=zeros.gamma(m),
                           end_s=complex(0.5, zeros.gamma(m + 1)),
                           matched_index=m + 1, steps=0, max_residual=0.0,
                           max_abs_avatar=0.0, wall_time=0.0, halvings=0,
                           newton_updates=0, zeta_evals=0, zeta_reflected=0,
                           zeta_centres=0, avatar_evals=0, mirror_gap=None)
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
