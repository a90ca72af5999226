"""Predictor-corrector continuation along tree paths.

Walking the path from the marked point c to its shift-element image while
enforcing zeta(s(t)) = w(t), where w is the branch-continued value of
avatar SHIFT_AVATAR (41), carries a critical-line zero to another point
of the zero list; the m-sweep experiment records which one.
"""

from __future__ import annotations

import cmath
import math
import time
from dataclasses import dataclass
from typing import NamedTuple

from .errors import Blocked, DerivativeSmall, PathWalkError, StepCollapse
# perfbench's install_probes wraps avatar_eval and z_eval_from_seed here.
from .etaengine import EtaContext, avatar_eval, z_eval_from_seed
from .sl2z import (
    SHIFT_AVATAR, SHIFT_ELEMENT, SHIFT_WORD, CosetTable, load_table, mobius,
)
from .treepath import (
    POLE_CAP, TreePath, avatar_trajectory, build_path, check_pole_cap, find_c,
)
from .zetafn import (
    MAX_ZEROS, ZeroList, ZetaDisc, find_zeros, zeta_with_prime,
)


# Constants read when trace and verify_fixing run.
_NEWTON_MAX = 5            # Newton updates in one step before it is halved
_DS_MAX = 0.5              # largest move of s a step may make
_DT_MIN = 1e-9             # path-step floor, below it StepCollapse
_MATCH_TOL = 1e-6          # endpoint distance to the matched zero
_DOMINANCE = 10.0          # runner-up zero at least this many times farther
_DERIVATIVE_MIN = 1e-6     # |zeta'| floor, below it DerivativeSmall
_FIXING_POINTS = 10        # arc points verify_fixing compares
RESIDUAL_TOL = 1e-10       # default |zeta(s) - w| a Newton step must reach


@dataclass(frozen=True)
class TraceRecord:
    """Outcome of one continuation run started at the m-th zero."""

    m: int
    gamma_start: float
    end_s: complex
    matched_index: int | None
    steps: int
    max_residual: float
    max_abs_avatar: float
    wall_time: float
    halvings: int
    zeta_evals: int
    zeta_reflected: int
    zeta_centres: int

    @property
    def landed(self) -> bool:
        """Whether the endpoint matched zero m + 1, the one the shift
        word should carry zero m to."""
        return self.matched_index == self.m + 1


COUNTERS = ("steps", "halvings", "zeta_evals", "zeta_reflected",
            "zeta_centres")     # the record counts a sweep sums
MAX_M = MAX_ZEROS - 2           # the last start whose zero m + 2 exists


def _zeros_for(first: int, last: int, zeros: ZeroList | None) -> ZeroList:
    """The zeros for traces from zero first..last: `zeros`, or find_zeros
    through zero last + 2 to name an overshoot.  IndexError without zero
    first, ValueError without zero last + 1 or, computing, past MAX_M; a
    first below 1 and a last past MAX_M are refused before any zero is
    computed."""
    if first < 1:
        raise IndexError(f"zero index {first} is below 1")
    if zeros is None:
        if last > MAX_M:
            raise ValueError(f"m={last} is past {MAX_M}: find_zeros stops "
                             f"at zero {MAX_ZEROS}")
        zeros = find_zeros(last + 2)
    zeros.gamma(first)
    if last >= len(zeros):
        raise ValueError(f"m={last} needs at least {last + 1} zeros, "
                         f"only {len(zeros)} available")
    return zeros


def _check_tolerances(residual_tol: float, pole_cap: float) -> None:
    check_pole_cap(pole_cap)
    if not (math.isfinite(residual_tol) and residual_tol > 0.0):
        raise ValueError(f"residual_tol must be finite and > 0 "
                         f"(got {residual_tol!r})")


def _match(s: complex, zeros: ZeroList) -> int | None:
    # nearest ordinate wins only with a clear dominance margin over the
    # runner-up; anything weaker stays unmatched
    best_j = None
    best_d = second_d = float("inf")
    for j, g in enumerate(zeros.ordinates, start=1):
        d = abs(s - complex(0.5, g))
        if d < best_d:
            best_j, best_d, second_d = j, d, best_d
        elif d < second_d:
            second_d = d
    if best_d < _MATCH_TOL and second_d >= _DOMINANCE * best_d:
        return best_j
    return None


def _zeta_checked(s: complex, disc: ZetaDisc,
                  t: float) -> tuple[complex, complex]:
    """zeta_with_prime(s, disc), raising DerivativeSmall at path
    parameter t where |zeta'| < _DERIVATIVE_MIN."""
    val, der = zeta_with_prime(s, disc)
    if abs(der) < _DERIVATIVE_MIN:
        raise DerivativeSmall(f"|zeta'| = {abs(der):.2e} at s = {s:.6f}, "
                              f"t={t:.6f}", t=t, s=s)
    return val, der


def trace(m: int, path: TreePath | None = None, zeros: ZeroList | None = None,
          ctx: EtaContext | None = None, table: CosetTable | None = None, *,
          residual_tol: float = RESIDUAL_TOL,
          pole_cap: float = POLE_CAP) -> TraceRecord:
    """Continue zeta(s) = Z_41(z), Z_41 the avatar SHIFT_AVATAR, along the
    path from the m-th zero towards zero m + 1, which the zero list must
    hold (IndexError without zero m, ValueError without m + 1 or, with
    no list given, for m past MAX_M).

    Steps through the path's grid k/samples, reading the avatar values
    from avatar_trajectory (shared through ctx with every other trace on
    the same path).  Each step predicts s from the avatar increment
    divided by zeta', corrected on a full grid step by extrapolating the
    first-order prediction's error over the last three consecutive full
    grid steps, then Newton-corrects to |zeta(s) - w| < residual_tol.
    The prediction starts from the Newton-refined point
    s - (zeta(s) - w)/zeta'(s) of the last accepted step; the reported s
    and every check stay on the verified point.  The step is halved, off
    the grid, when Newton needs more than _NEWTON_MAX updates or when the
    predicted point or a Newton point lies farther than _DS_MAX from s,
    which halves before zeta is evaluated there; the avatar at the
    halved point comes from the same trajectory (its at method), the
    next step aims at the grid point again, and a halving empties the
    error history.  A step below _DT_MIN raises StepCollapse, any
    evaluation with |zeta'| < _DERIVATIVE_MIN DerivativeSmall
    (_zeta_checked), and an avatar modulus above pole_cap Blocked; all
    three are PathWalkErrors.
    A pole_cap that is NaN or <= 0 and a residual_tol that is not finite
    and > 0 raise ValueError before any zero is computed.  The endpoint
    is matched against the zero list (_MATCH_TOL, _DOMINANCE), and the
    record's landed property says whether it matched zero m + 1.  Every
    zeta_with_prime call, the start derivative
    included, goes through one ZetaDisc, and the record reads its counts
    from it: zeta_evals, zeta_reflected (those through the functional
    equation) and zeta_centres (the expansions it built).
    """
    t_start = time.perf_counter()
    _check_tolerances(residual_tol, pole_cap)
    path = path or build_path(SHIFT_WORD)
    table = table or load_table()
    ctx = ctx or EtaContext()
    zeros = _zeros_for(m, m, zeros)
    gamma = zeros.gamma(m)
    s = complex(0.5, gamma)
    traj = avatar_trajectory(path, SHIFT_AVATAR, ctx=ctx, table=table)
    w = traj[0]
    if abs(w) > 1e-6:
        raise ValueError(f"avatar {SHIFT_AVATAR} is {abs(w):.2e} at the path "
                         "start, so the start pair does not satisfy the "
                         "relation")
    disc = ZetaDisc()
    val, der_s = _zeta_checked(s, disc, 0.0)
    # the predictor works from the Newton-refined point, which is free
    # given val and der_s; the verified s keeps up to residual_tol of
    # noise, and the extrapolation below would amplify it
    s_ref = s - (val - w) / der_s
    # errors of the first-order prediction on the last consecutive full
    # grid steps, most recent last
    errs: list[complex] = []
    max_residual = 0.0
    max_avatar = abs(w)
    steps = halvings = 0
    t = 0.0
    for k in range(1, traj.count + 1):
        t_grid = k / traj.count
        t_next, w_next = t_grid, traj[k]
        full_step = True
        while True:
            if abs(w_next) > pole_cap:
                raise Blocked(f"avatar {SHIFT_AVATAR} modulus "
                              f"{abs(w_next):.3e} exceeds the pole cap "
                              f"{pole_cap:.1e} at t={t_next:.6f}",
                              t=t_next, s=s)
            s_lin = s_ref + (w_next - w) / der_s
            s_try = s_lin
            if full_step and len(errs) == 3:
                # the error is smooth in k: extrapolate the quadratic
                # through the last three
                s_try += 3.0 * errs[2] - 3.0 * errs[1] + errs[0]
            resid = math.inf
            for _ in range(_NEWTON_MAX + 1):
                # a point past the step bound (or NaN) halves the step
                # before zeta is evaluated there, far from the strip
                if not abs(s_try - s) <= _DS_MAX:
                    break
                val, der = _zeta_checked(s_try, disc, t_next)
                resid = abs(val - w_next)
                if resid < residual_tol:
                    break
                s_try = s_try - (val - w_next) / der
            if resid < residual_tol:
                s_ref = s_try - (val - w_next) / der
                if full_step:
                    errs = errs[-2:] + [s_ref - s_lin]
                s, der_s, w, t = s_try, der, w_next, t_next
                steps += 1
                if resid > max_residual:
                    max_residual = resid
                if abs(w) > max_avatar:
                    max_avatar = abs(w)
                if t == t_grid:
                    break
                t_next, w_next = t_grid, traj[k]
                continue
            halvings += 1
            full_step = False
            errs = []
            dt = 0.5 * (t_next - t)
            if dt < _DT_MIN:
                raise StepCollapse(f"path step {dt:.3e} fell below "
                                   f"{_DT_MIN:.1e} at t={t:.6f}",
                                   t=t, s=s)
            t_next = t + dt
            w_next = traj.at(t_next, w)
    return TraceRecord(m=m, gamma_start=gamma, end_s=s,
                       matched_index=_match(s, zeros), steps=steps,
                       max_residual=max_residual, max_abs_avatar=max_avatar,
                       wall_time=time.perf_counter() - t_start,
                       halvings=halvings, zeta_evals=disc.evals,
                       zeta_reflected=disc.reflected,
                       zeta_centres=disc.centres)


class TraceFailure(NamedTuple):
    """A trace of the m-sweep that raised: the start index, the error's
    class name, and where on the walk it happened (t, and s when known)."""

    m: int
    kind: str
    t: float | None
    s: complex | None


@dataclass(frozen=True)
class ExperimentSummary:
    """Aggregated m-sweep results; per-m failures recorded, not fatal.
    totals maps each name in COUNTERS to its sum over the records."""

    records: tuple[TraceRecord, ...]
    errors: tuple[TraceFailure, ...]
    success_count: int
    max_residual: float
    wall_time: float
    totals: dict[str, int]


def run_experiment(max_m: int, path: TreePath | None = None,
                   zeros: ZeroList | None = None, *,
                   residual_tol: float = RESIDUAL_TOL,
                   pole_cap: float = POLE_CAP) -> ExperimentSummary:
    """Trace m = 1..max_m on one EtaContext and tally endpoint matches.

    A trace counts as a success when it landed (TraceRecord.landed).  A
    PathWalkError aborts only its own m and is recorded as a TraceFailure
    entry.  The tolerances are checked, as trace checks them, before any
    zero is computed.
    """
    t0 = time.perf_counter()
    _check_tolerances(residual_tol, pole_cap)
    path = path or build_path(SHIFT_WORD)
    ctx = EtaContext()
    zeros = _zeros_for(1, max(max_m, 0), zeros)
    records: list[TraceRecord] = []
    errors: list[TraceFailure] = []
    for m in range(1, max_m + 1):
        try:
            records.append(trace(m, path=path, zeros=zeros, ctx=ctx,
                                 residual_tol=residual_tol,
                                 pole_cap=pole_cap))
        except PathWalkError as exc:
            errors.append(TraceFailure(m, type(exc).__name__, exc.t, exc.s))
    success = sum(1 for r in records if r.landed)
    return ExperimentSummary(
        records=tuple(records), errors=tuple(errors), success_count=success,
        max_residual=max((r.max_residual for r in records), default=0.0),
        wall_time=time.perf_counter() - t0,
        totals={name: sum(getattr(r, name) for r in records)
                for name in COUNTERS})


def verify_fixing() -> dict:
    """Check that the shift element leaves avatar SHIFT_AVATAR unchanged.

    Exact part: the shift element stabilizes its coset, and not the
    identity coset (the control).  Numeric part: avatar values agree to
    1e-8 at sample points on the base arc around the marked point, the
    value at z continued from the seed and the value at the shifted point
    hinted by it.
    """
    table = load_table()
    rep = table.rep(SHIFT_AVATAR)
    exact = table.verify_stabilizer(SHIFT_AVATAR, SHIFT_ELEMENT)
    control = table.verify_stabilizer(1, SHIFT_ELEMENT)
    theta_c = cmath.phase(find_c())
    max_delta = 0.0
    for k in range(_FIXING_POINTS):
        theta = theta_c - 0.02 + 0.04 * k / (_FIXING_POINTS - 1)
        z = cmath.exp(1j * theta)
        u = z_eval_from_seed(mobius(rep, z))
        v = avatar_eval(SHIFT_AVATAR, mobius(SHIFT_ELEMENT, z), u)
        delta = abs(u - v)
        if delta > max_delta:
            max_delta = delta
    ok = exact and not control and max_delta < 1e-8
    return {"exact_conjugation": exact, "identity_control": control,
            "numeric_max_delta": max_delta, "points": _FIXING_POINTS,
            "ok": ok}
