"""Numerical engine: Dedekind eta, the level-15 eta quotients, and the
genus-one branch function they generate.

Points live in the open upper half-plane, represented as built-in complex
numbers and validated at entry.  Eta is evaluated by reducing the argument
to the standard fundamental domain (where the pentagonal-number series
needs only a handful of terms), then unwinding the transformation with the
exact multiplier system computed from Dedekind sums.

The branch function Z satisfies a quadratic over the degree-4/degree-6
quotient field, so each evaluation yields a reciprocal root pair {W, 1/W}.
Nothing local tells the two apart: B0 and B1 are palindromic, so both
roots satisfy the side constraint B1(Z) tau + B0(Z) = 0 alike.  The branch
is fixed by continuity alone: a hint (a value of the same branch at a
nearby point) selects the chordally nearest root, and a cold start
continues from the seed at i, the root there with positive imaginary part.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NearPole
from .exactquad import (
    B0_POLY, B1_POLY, BETA, C_POLY, D_POLY, GAMMA, DELTA,
    PSI_DENOM_CONST, PSI_DENOM_POLY,
)
from .sl2z import IDENTITY, GroupElem, load_table, mobius

_B0_C = B0_POLY.float_coeffs()
_B1_C = B1_POLY.float_coeffs()
_C_C = C_POLY.float_coeffs()
_D_C = D_POLY.float_coeffs()

_BETA_F = complex(BETA)
_GAMMA_F = complex(GAMMA)
_DELTA_F = complex(DELTA)
_CUBE27_F = 27.0 / (5.0 * math.sqrt(5.0))          # 3^3 * 5^(-3/2)
_RHS_SCALE_F = math.sqrt((5.0 + 2.0 * math.sqrt(5.0)) / 3.0)
_PSI_CONST_F = complex(PSI_DENOM_CONST)            # 3 sqrt5 * golden ratio
_PSI_POLY_C = PSI_DENOM_POLY.float_coeffs()

_SERIES_EPS = 1e-17        # pentagonal-series truncation, below binary64 ulp
_SEED_STEPS = 48           # hinted steps on the segment from the seed at i
# Past this |tau| the branch quadratic is divided through by tau^3.
_TAU_DIVIDE = 2.0 ** 64


def _horner(coeffs: tuple, z: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _require_upper(z: complex) -> complex:
    z = complex(z)
    if not z.imag > 0:
        raise ValueError(f"point must have positive imaginary part: {z}")
    return z


def chordal(u: complex, v: complex) -> float:
    """Distance on the Riemann sphere, normalized to max 1 (e.g. 0 vs inf)."""
    u_inf = cmath.isinf(u)
    v_inf = cmath.isinf(v)
    if u_inf and v_inf:
        return 0.0
    if u_inf:
        return 1.0 / math.sqrt(1.0 + abs(v) ** 2)
    if v_inf:
        return 1.0 / math.sqrt(1.0 + abs(u) ** 2)
    return abs(u - v) / math.sqrt((1.0 + abs(u) ** 2) * (1.0 + abs(v) ** 2))


def dedekind_sum(h: int, k: int) -> Fraction:
    """s(h, k) for k > 0, gcd(h, k) = 1, via the reciprocity law."""
    h %= k
    if h == 0:
        return Fraction(0)
    # s(h,k) + s(k,h) = -1/4 + (h^2 + k^2 + 1) / (12 h k)
    return (Fraction(-1, 4) + Fraction(h * h + k * k + 1, 12 * h * k)
            - dedekind_sum(k % h, h))


class EtaContext:
    """The pole tolerance, the multiplier cache, and the most recent
    avatar trajectory (kept by treepath.avatar_trajectory).

    Not safe to share across threads; concurrent callers should each own
    a context."""

    def __init__(self, pole_tol: float = 1e-10):
        self.pole_tol = pole_tol
        self._multipliers: dict[tuple[int, int, int, int], complex] = {}
        self.trajectory = None

    def multiplier(self, m: GroupElem) -> complex:
        """Multiplier eps(m) with eta(m z) = eps(m) (cz+d)^(1/2) eta(z),
        for m normalized to c > 0 (or c = 0, d > 0)."""
        key = m.entries()
        cached = self._multipliers.get(key)
        if cached is not None:
            return cached
        a, b, c, d = key
        if c == 0:
            phase = Fraction(b, 12)
        else:
            phase = Fraction(a + d, 12 * c) - dedekind_sum(d, c) - Fraction(1, 4)
        phase %= 2
        val = cmath.exp(1j * math.pi * float(phase))
        self._multipliers[key] = val
        return val


_DEFAULT_CTX = EtaContext()


def reduce_to_fundamental(z: complex) -> tuple[complex, GroupElem]:
    """Return (w, m) with w = m z, |Re w| <= 1/2 and |w| >= 1 (within a
    strict-boundary tolerance)."""
    w = _require_upper(z)
    a, b, c, d = 1, 0, 0, 1
    for _ in range(10000):
        n = round(w.real)
        if n:
            w = complex(w.real - n, w.imag)
            a, b = a - n * c, b - n * d       # (1, -n; 0, 1) * m
        if abs(w) < 1.0 - 1e-15:
            w = -1.0 / w
            a, b, c, d = -c, -d, a, b         # S * m
        else:
            return w, GroupElem(a, b, c, d)
    raise ValueError(f"fundamental-domain reduction did not converge for {z}")


def _eta_series(w: complex) -> complex:
    """Pentagonal-number series; w should be fundamental-domain reduced."""
    q = cmath.exp(2j * math.pi * w)
    total = 1 + 0j
    sign = 1
    for k in range(1, 100):
        sign = -sign
        q1 = q ** (k * (3 * k - 1) // 2)
        q2 = q ** (k * (3 * k + 1) // 2)
        total += sign * (q1 + q2)
        if abs(q1) < _SERIES_EPS:
            break
    return cmath.exp(1j * math.pi * w / 12.0) * total


def dedekind_eta(z: complex, ctx: EtaContext | None = None) -> complex:
    """eta(z) for Im z > 0, exact multiplier unwinding of the reduction."""
    ctx = ctx or _DEFAULT_CTX
    z = _require_upper(z)
    w, m = reduce_to_fundamental(z)
    val = _eta_series(w)
    if m == IDENTITY:
        return val
    if m.c < 0 or (m.c == 0 and m.d < 0):
        m = -m
    # eta(w) = eta(m z) = eps(m) (c z + d)^(1/2) eta(z); principal root is
    # continuous here since c > 0 keeps cz + d in the upper half-plane.
    return val / (ctx.multiplier(m) * cmath.sqrt(m.c * z + m.d))


def _etas(z: complex, ctx: EtaContext) -> tuple[complex, complex, complex, complex]:
    return (dedekind_eta(z, ctx), dedekind_eta(z / 3, ctx),
            dedekind_eta(z / 5, ctx), dedekind_eta(z / 15, ctx))


def _out_of_range(z: complex, what: str) -> NearPole:
    return NearPole(f"{what} leaves double range at z = {z} (near a cusp)",
                    z=z)


def _in_range(z: complex, what: str, compute) -> complex:
    """compute(), or NearPole at z if the value leaves double range."""
    try:
        value = compute()
    except (OverflowError, ZeroDivisionError):
        raise _out_of_range(z, what) from None
    if not cmath.isfinite(value):
        raise _out_of_range(z, what)
    return value


def _tau_lambda(z: complex,
                ctx: EtaContext) -> tuple[complex, complex, complex]:
    """tau, lambda and tau5 from one eta quartet."""
    e1, e3, e5, e15 = _etas(z, ctx)
    return (_in_range(z, "tau", lambda: ((e3 * e5) / (e1 * e15)) ** 3),
            _in_range(z, "lambda", lambda: e3 ** 6 / (e1 ** 3 * e5 ** 3)),
            _in_range(z, "tau5", lambda: (e5 / e1) ** 6))


def tau(z: complex, ctx: EtaContext | None = None) -> complex:
    """Degree-4 hauptmodul (eta_3 eta_5 / eta_1 eta_15)^3, with
    eta_m(z) = eta(z/m)."""
    return _tau_lambda(z, ctx or _DEFAULT_CTX)[0]


def lambda_fn(z: complex, ctx: EtaContext | None = None) -> complex:
    """Weight-0 quotient eta_1^-3 eta_3^6 eta_5^-3."""
    return _tau_lambda(z, ctx or _DEFAULT_CTX)[1]


def tau5(z: complex, ctx: EtaContext | None = None) -> complex:
    """Level-5 quotient (eta_5 / eta_1)^6; needs only two of the quartet."""
    ctx = ctx or _DEFAULT_CTX
    e1 = dedekind_eta(z, ctx)
    e5 = dedekind_eta(z / 5, ctx)
    return _in_range(z, "tau5", lambda: (e5 / e1) ** 6)


def sigma(z: complex, ctx: EtaContext | None = None) -> complex:
    """Square function recovered rationally:
    (250 tau^4 lambda^2 - D(tau)) / C(tau)."""
    ctx = ctx or _DEFAULT_CTX
    t, lam, _ = _tau_lambda(z, ctx)
    return _sigma_from(z, t, lam, ctx)


def _sigma_from(z: complex, t: complex, lam: complex,
                ctx: EtaContext) -> complex:
    den = _horner(_C_C, t)
    if abs(den) < ctx.pole_tol:
        raise NearPole(f"degree-4 denominator {abs(den):.3e} below tolerance",
                       z=z)
    return _in_range(
        z, "sigma", lambda: (250.0 * t ** 4 * lam ** 2 - _horner(_D_C, t)) / den)


def j_fricke(z: complex, ctx: EtaContext | None = None) -> complex:
    """Klein j-invariant via the level-5 quotient:
    (tau5^2 + 10 tau5 + 5)^3 / tau5."""
    ctx = ctx or _DEFAULT_CTX
    t5 = tau5(z, ctx)
    if abs(t5) < ctx.pole_tol * 1e-2:
        raise NearPole(f"level-5 quotient {abs(t5):.3e} too close to zero",
                       z=z)
    return _in_range(z, "j", lambda: (t5 * t5 + 10.0 * t5 + 5.0) ** 3 / t5)


@dataclass
class RootPair:
    """Both roots of the branch quadratic quad_a Z^2 + quad_b Z + quad_a
    at one point, with its coefficients."""

    first: complex
    second: complex
    quad_a: complex
    quad_b: complex


def z_root_pair(z: complex, ctx: EtaContext | None = None) -> RootPair:
    """Solve the defining quadratic
    (L - Rh) Z^2 - (3L - Rh) Z + (L - Rh) = 0, where
    L = tau^2 lambda + 27 * 5^(-3/2) tau^3 / lambda and
    Rh = sqrt((5 + 2 sqrt5)/3) (tau - BETA)(tau^2 + GAMMA tau + DELTA).

    The coefficient symmetry a = c makes the roots a reciprocal pair."""
    t, lam, _ = _tau_lambda(z, ctx or _DEFAULT_CTX)
    return _root_pair(z, t, lam)


def _root_pair(z: complex, t: complex, lam: complex) -> RootPair:
    # The roots depend only on p = b/a, through W + 1/W = -p.  Near a cusp
    # tau grows without bound and a, b with tau^3, so there the quadratic
    # is divided through by tau^3 before b*b can overflow; in the working
    # band it is not, and no bit changes.
    if abs(t) <= _TAU_DIVIDE:
        big_l = t * t * lam + _CUBE27_F * t ** 3 / lam
        rh = _RHS_SCALE_F * (t - _BETA_F) * (t * t + _GAMMA_F * t + _DELTA_F)
    else:
        u = 1.0 / t
        big_l = lam * u + _CUBE27_F / lam
        rh = (_RHS_SCALE_F * (1.0 - _BETA_F * u)
              * (1.0 + (_GAMMA_F + _DELTA_F * u) * u))
    a = big_l - rh
    b = rh - 3.0 * big_l
    disc = b * b - 4.0 * a * a
    if not cmath.isfinite(disc):
        raise _out_of_range(z, "the branch quadratic")
    if a == 0:
        r1, r2 = 0j, complex(math.inf, 0.0)
    else:
        sq = cmath.sqrt(disc)
        if abs(b + sq) >= abs(b - sq):
            q = -(b + sq) / 2.0
        else:
            q = -(b - sq) / 2.0
        if q == 0:  # b = 0 and a = c: roots are +-1
            r1, r2 = 1.0 + 0j, -1.0 + 0j
        else:
            r1, r2 = q / a, a / q
    return RootPair(r1, r2, a, b)


def _nearest(pair: RootPair, v: complex) -> complex:
    """The root chordally nearest v, the first on a tie."""
    if chordal(pair.first, v) <= chordal(pair.second, v):
        return pair.first
    return pair.second


def z_eval(z: complex, hint: complex | None = None,
           ctx: EtaContext | None = None) -> complex:
    """One branch value Z(z): the root chordally nearest the hint (branch
    continuity), or with no hint z_eval_from_seed(z)."""
    if hint is None:
        return z_eval_from_seed(z, ctx)
    return _nearest(z_root_pair(z, ctx), hint)


def z_eval_from_seed(z: complex, ctx: EtaContext | None = None) -> complex:
    """Branch value at z continued from the seed at i, the root there with
    positive imaginary part, along the straight segment in _SEED_STEPS
    hinted steps.  The one cold start: every value without a hint is
    this one.  A NearPole on the way carries z itself."""
    ctx = ctx or _DEFAULT_CTX
    z = _require_upper(z)
    seed = z_root_pair(1j, ctx)
    val = seed.first if seed.first.imag > 0 else seed.second
    try:
        for k in range(1, _SEED_STEPS + 1):
            w = 1j + (z - 1j) * (k / _SEED_STEPS)
            val = z_eval(w, hint=val, ctx=ctx)
    except NearPole as exc:
        raise NearPole(f"{exc}, continuing the seed to z = {z}",
                       z=z) from exc
    return val


def psi_phi(z: complex, branch_value: complex | None = None,
            ctx: EtaContext | None = None) -> tuple[complex, complex]:
    """The odd-cubic square root PSI and the cubic-model coordinate PHI.

    PSI = B1(Z)^2 sigma / [3 sqrt5 PHI_golden (Z^2-1)(Z^2-Z+1)(Z^2-3Z+1)],
    PHI = (PSI - Z) / (2 (Z - 1))."""
    ctx = ctx or _DEFAULT_CTX
    zv = branch_value if branch_value is not None else z_eval(z, ctx=ctx)
    return _psi_phi(sigma(z, ctx), zv, ctx)


def _psi_phi(s: complex, zv: complex,
             ctx: EtaContext) -> tuple[complex, complex]:
    b1 = _horner(_B1_C, zv)
    den = _PSI_CONST_F * _horner(_PSI_POLY_C, zv)
    if abs(den) < ctx.pole_tol:
        raise NearPole(f"normalizer {abs(den):.3e} below tolerance at Z={zv}")
    psi = b1 * b1 * s / den
    if abs(zv - 1.0) < ctx.pole_tol:
        raise NearPole("PHI undefined this close to Z = 1")
    phi = (psi - zv) / (2.0 * (zv - 1.0))
    return psi, phi


def identity_residuals(z: complex, ctx: EtaContext | None = None,
                       branch_value: complex | None = None) -> dict[str, float]:
    """Scaled residuals of the defining identities at one point.

    Each residual is |lhs - rhs| divided by (1 + the magnitudes of the
    terms combined), so a well-conditioned evaluation scores near machine
    epsilon regardless of how large the quotient values themselves grow.
    Keys: square_quartic (sigma^2 vs the degree-4 polynomial),
    weight_relation (lambda^2 recovery), branch_quadratic (the selected
    root), side_constraint (B1 Z + B0 vanishing), level5_link (tau5 from
    tau and sigma), odd_cubic_square and cubic_model (the PSI and PHI
    equations).

    The root is the one chordally nearest branch_value, or without one
    the smaller in modulus (the first on a tie).  Either root serves:
    Z -> 1/Z fixes tau, lambda and sigma, and B0, B1 are palindromic, so
    every identity holds on both roots alike.  Near a cusp, where a term
    leaves double range, NearPole is raised instead."""
    try:
        out = _residuals(z, ctx or _DEFAULT_CTX, branch_value)
    except OverflowError:
        raise _out_of_range(z, "an identity residual") from None
    if not all(map(math.isfinite, out.values())):
        raise _out_of_range(z, "an identity residual")
    return out


def _residuals(z: complex, ctx: EtaContext,
               branch_value: complex | None) -> dict[str, float]:
    t, lam, t5 = _tau_lambda(z, ctx)
    s = _sigma_from(z, t, lam, ctx)
    out: dict[str, float] = {}

    quart = ((t - 10.0) * t - 13.0) * t * t + 10.0 * t + 1.0
    out["square_quartic"] = (abs(s * s - quart)
                             / (1.0 + abs(s) ** 2 + abs(quart)))

    lhs = 250.0 * t ** 4 * lam * lam
    rhs = _horner(_C_C, t) * s + _horner(_D_C, t)
    out["weight_relation"] = abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))

    pair = _root_pair(z, t, lam)
    if branch_value is not None:
        zv = _nearest(pair, branch_value)
    else:
        zv = pair.first if abs(pair.first) <= abs(pair.second) else pair.second
    quad = pair.quad_a * zv * zv + pair.quad_b * zv + pair.quad_a
    quad_scale = abs(pair.quad_a) * (1.0 + abs(zv) ** 2) + abs(pair.quad_b) * abs(zv)
    out["branch_quadratic"] = abs(quad) / (1.0 + quad_scale)

    b1 = _horner(_B1_C, zv)
    b0 = _horner(_B0_C, zv)
    out["side_constraint"] = (abs(b1 * t + b0)
                              / (1.0 + abs(b1) * abs(t) + abs(b0)))

    link_num = (t ** 4 - 9.0 * t ** 3 - 9.0 * t - 1.0
                + (t * t - 4.0 * t - 1.0) * s)
    link = t5 * 2.0 * t - link_num
    link_scale = abs(t5) * 2.0 * abs(t) + abs(t) ** 4 + abs(t * t * s) + 1.0
    out["level5_link"] = abs(link) / (1.0 + link_scale)

    psi, phi = _psi_phi(s, zv, ctx)
    cubic = ((zv * 4.0 - 7.0) * zv + 4.0) * zv
    out["odd_cubic_square"] = (abs(psi * psi - cubic)
                               / (1.0 + abs(psi) ** 2 + abs(cubic)))
    model = (zv - 1.0) * phi * phi + zv * phi - zv * (zv - 1.0)
    model_scale = abs(zv - 1.0) * abs(phi) ** 2 + abs(zv) * (abs(phi) + abs(zv - 1.0))
    out["cubic_model"] = abs(model) / (1.0 + model_scale)
    return out


def avatar_eval(n: int, z: complex, hint: complex | None = None,
                ctx: EtaContext | None = None, table=None) -> complex:
    """Avatar value Z_n(z) = Z(P_n z), P_n the row-n coset representative.

    The hint, a branch value of the same avatar at a nearby point, selects
    the root as in z_eval; without one the value is continued from the
    seed at i."""
    ctx = ctx or _DEFAULT_CTX
    table = table or load_table()
    return z_eval(mobius(table.rep(n), z), hint=hint, ctx=ctx)
