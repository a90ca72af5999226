"""Predictor-corrector continuation along tree paths.

Walking the path from the marked point c to its shift-element image while
enforcing zeta(s(t)) = w(t), where w is the branch-continued index-41
avatar value, carries a critical-line zero to another point of the zero
list; the m-sweep experiment records which one.
"""

from __future__ import annotations

import cmath
import time
from dataclasses import dataclass
from typing import NamedTuple

from .errors import Blocked, DerivativeSmall, StepCollapse
from .etaengine import EtaContext, avatar_eval, z_eval, z_eval_from_seed
from .sl2z import SHIFT_ELEMENT, SHIFT_WORD, CosetTable, load_table, mobius
from .treepath import TreePath, avatar_trajectory, build_path, find_c
from .zetafn import (
    MAX_ZEROS, ZeroList, find_zeros, reflects, zeta_with_prime,
)


@dataclass(frozen=True)
class TraceOptions:
    """Knobs for one continuation run; defaults match the CLI."""

    residual_tol: float = 1e-10
    newton_max: int = 5
    ds_max: float = 0.5
    dt_min: float = 1e-9
    match_tol: float = 1e-6
    dominance: float = 10.0
    pole_cap: float = 1e6
    derivative_min: float = 1e-6


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
    halvings: int = 0
    zeta_evals: int = 0
    zeta_reflected: int = 0


def _default_zeros(count: int) -> ZeroList:
    """The first `count` zeros from find_zeros, at most its 350."""
    return find_zeros(min(count, MAX_ZEROS))


def _match(s: complex, zeros: ZeroList, opts: TraceOptions) -> int | None:
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
    if best_d < opts.match_tol and second_d >= opts.dominance * best_d:
        return best_j
    return None


def trace(m: int, path: TreePath | None = None,
          opts: TraceOptions | None = None, zeros: ZeroList | None = None,
          n: int = 41, ctx: EtaContext | None = None,
          table: CosetTable | None = None) -> TraceRecord:
    """Continue zeta(s) = Z_n(z) along the path, starting at the m-th zero.

    Steps through the path's grid k/samples, reading the avatar values
    from avatar_trajectory (shared through ctx with every other trace on
    the same path).  Each step predicts s from the avatar increment
    divided by zeta', corrected on a full grid step by extrapolating the
    first-order prediction's error over the last three consecutive full
    grid steps, then Newton-corrects to |zeta(s) - w| < residual_tol.
    The prediction starts from the Newton-refined point
    s - (zeta(s) - w)/zeta'(s) of the last accepted step; the reported s
    and every check stay on the verified point.  The step is halved, off the grid, when Newton
    needs more than newton_max updates or moves s by more than ds_max,
    and the next step aims at the grid point again; a halving empties the
    error history.  A step below dt_min raises StepCollapse;
    DerivativeSmall and Blocked guard multiple points of the continuation
    and avatar poles.  The endpoint is matched against the zero list, and
    the record counts its zeta_with_prime calls, the start derivative
    included, in zeta_evals, and those zeta evaluates through the
    functional equation in zeta_reflected.
    """
    t_start = time.perf_counter()
    opts = opts or TraceOptions()
    path = path or build_path(SHIFT_WORD)
    table = table or load_table()
    ctx = ctx or EtaContext()
    if zeros is None:
        zeros = _default_zeros(m + 2)
    gamma = zeros.gamma(m)
    s = complex(0.5, gamma)
    traj = avatar_trajectory(path, n, ctx=ctx, table=table)
    w = traj[0]
    if abs(w) > 1e-6:
        raise ValueError(f"avatar {n} is {abs(w):.2e} at the path start, so "
                         "the start pair does not satisfy the relation")
    val, der_s = zeta_with_prime(s)
    zeta_evals = 1
    zeta_reflected = int(reflects(s))
    if abs(der_s) < opts.derivative_min:
        raise DerivativeSmall(f"|zeta'| = {abs(der_s):.2e} at s = {s:.6f}",
                              t=0.0, s=s)
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
            if abs(w_next) > opts.pole_cap:
                raise Blocked(f"avatar {n} modulus {abs(w_next):.3e} exceeds "
                              f"the pole cap {opts.pole_cap:.1e} at "
                              f"t={t_next:.6f}", t=t_next, s=s)
            s_lin = s_ref + (w_next - w) / der_s
            s_try = s_lin
            if full_step and len(errs) == 3:
                # the error is smooth in k: extrapolate the quadratic
                # through the last three
                s_try += 3.0 * errs[2] - 3.0 * errs[1] + errs[0]
            accepted = False
            resid = 0.0
            for _ in range(opts.newton_max + 1):
                val, der = zeta_with_prime(s_try)
                zeta_evals += 1
                if reflects(s_try):
                    zeta_reflected += 1
                resid = abs(val - w_next)
                if resid < opts.residual_tol:
                    accepted = True
                    break
                if abs(der) < opts.derivative_min:
                    raise DerivativeSmall(f"|zeta'| = {abs(der):.2e} at "
                                          f"s = {s_try:.6f}, t={t_next:.6f}",
                                          t=t_next, s=s_try)
                s_try = s_try - (val - w_next) / der
            if accepted and abs(s_try - s) <= opts.ds_max:
                if abs(der) < opts.derivative_min:
                    raise DerivativeSmall(f"|zeta'| = {abs(der):.2e} at "
                                          f"s = {s_try:.6f}, t={t_next:.6f}",
                                          t=t_next, s=s_try)
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
            if dt < opts.dt_min:
                raise StepCollapse(f"path step {dt:.3e} fell below "
                                   f"{opts.dt_min:.1e} at t={t:.6f}",
                                   t=t, s=s)
            t_next = t + dt
            w_next = avatar_eval(n, path.point(t_next), w, ctx=ctx,
                                 table=table)
    return TraceRecord(m=m, gamma_start=gamma, end_s=s,
                       matched_index=_match(s, zeros, opts), steps=steps,
                       max_residual=max_residual, max_abs_avatar=max_avatar,
                       wall_time=time.perf_counter() - t_start,
                       halvings=halvings, zeta_evals=zeta_evals,
                       zeta_reflected=zeta_reflected)


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
    The counts sum those of the records."""

    records: tuple[TraceRecord, ...]
    errors: tuple[TraceFailure, ...]
    success_count: int
    max_residual: float
    wall_time: float
    steps: int
    halvings: int
    zeta_evals: int
    zeta_reflected: int


def run_experiment(max_m: int, path: TreePath | None = None,
                   opts: TraceOptions | None = None,
                   zeros: ZeroList | None = None, n: int = 41,
                   ctx: EtaContext | None = None,
                   table: CosetTable | None = None) -> ExperimentSummary:
    """Trace m = 1..max_m sequentially and tally endpoint matches.

    A trace counts as a success when its endpoint matches the (m+1)-st
    zero.  Blocked, StepCollapse and DerivativeSmall abort only their own
    m and are recorded as TraceFailure entries.
    """
    t0 = time.perf_counter()
    opts = opts or TraceOptions()
    path = path or build_path(SHIFT_WORD)
    table = table or load_table()
    ctx = ctx or EtaContext()
    if zeros is None:
        zeros = _default_zeros(max(max_m, 0) + 2)
    if max_m > len(zeros.ordinates) - 1:
        raise ValueError(f"max_m={max_m} needs at least {max_m + 1} zeros, "
                         f"only {len(zeros.ordinates)} available")
    records: list[TraceRecord] = []
    errors: list[TraceFailure] = []
    for m in range(1, max_m + 1):
        try:
            records.append(trace(m, path=path, opts=opts, zeros=zeros, n=n,
                                 ctx=ctx, table=table))
        except (Blocked, StepCollapse, DerivativeSmall) as exc:
            errors.append(TraceFailure(m, type(exc).__name__, exc.t, exc.s))
    success = sum(1 for r in records if r.matched_index == r.m + 1)
    return ExperimentSummary(
        records=tuple(records), errors=tuple(errors), success_count=success,
        max_residual=max((r.max_residual for r in records), default=0.0),
        wall_time=time.perf_counter() - t0,
        steps=sum(r.steps for r in records),
        halvings=sum(r.halvings for r in records),
        zeta_evals=sum(r.zeta_evals for r in records),
        zeta_reflected=sum(r.zeta_reflected for r in records))


def verify_fixing(n: int = 41, table: CosetTable | None = None,
                  ctx: EtaContext | None = None, points: int = 10) -> dict:
    """Check that the shift element leaves avatar n unchanged.

    Exact part: the shift element stabilizes the n-th coset, and not the
    identity coset (the control).  Numeric part: avatar values agree to
    1e-8 at sample points on the base arc around the marked point, the
    value at z continued from the seed and the value at the shifted point
    hinted by it.
    """
    table = table or load_table()
    ctx = ctx or EtaContext()
    rep = table.rep(n)
    exact = table.verify_stabilizer(n, SHIFT_ELEMENT)
    control = table.verify_stabilizer(1, SHIFT_ELEMENT)
    theta_c = cmath.phase(find_c())
    max_delta = 0.0
    for k in range(points):
        theta = theta_c - 0.02 + 0.04 * k / (points - 1)
        z = cmath.exp(1j * theta)
        u = z_eval_from_seed(mobius(rep, z), ctx=ctx)
        v = z_eval(mobius(rep, mobius(SHIFT_ELEMENT, z)), hint=u, ctx=ctx)
        delta = abs(u - v)
        if delta > max_delta:
            max_delta = delta
    ok = exact and not control and max_delta < 1e-8
    return {"exact_conjugation": exact, "identity_control": control,
            "numeric_max_delta": max_delta, "points": points, "ok": ok}
