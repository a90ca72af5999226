"""Numerical engine: Dedekind eta, the level-15 eta quotients, and the
genus-one branch function they generate.

Points live in the open upper half-plane, represented as built-in complex
numbers and validated at entry.  Eta is evaluated by reducing the argument
to the standard fundamental domain, where |q| <= exp(-pi sqrt3) leaves the
pentagonal-number series a fixed five-term polynomial, then unwinding the
transformation with the exact multiplier system from Dedekind sums.

The branch function Z satisfies a quadratic over the degree-4/degree-6
quotient field, so each evaluation yields a reciprocal root pair {W, 1/W}.
Nothing local tells the two apart: B0 and B1 are palindromic, so both
roots satisfy the side constraint B1(Z) tau + B0(Z) = 0 alike.  The branch
is fixed by continuity alone: a hint (a value of the same branch at a
nearby point) selects the chordally nearest root, and a cold start
continues from the seed at i, the root there with positive imaginary part.

Path walks need Z only at P_m e^(i theta), theta on the base arc from i
to omega, for the 96 coset representatives P_m: SL(2,Z) permutes the
avatars, so every edge of every path is one of these 96 arcs.  The
quadratic's a and b are analytic there, and arc_root_pair reads them
from a Chebyshev table of coset m (_ARC_NODES first-kind nodes in
theta), built from the eta quartet the first time m is met.
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
from .sl2z import GroupElem, load_table, mobius

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

# The base arc, as angles on the unit circle: from i to omega.
THETA_I = math.pi / 2.0
THETA_OMEGA = 2.0 * math.pi / 3.0
_ARC_MID = 0.5 * (THETA_OMEGA + THETA_I)
_ARC_HALF = 0.5 * (THETA_OMEGA - THETA_I)
# Chebyshev nodes per coset table, the fewest whose last two
# coefficients fall to rounding (below 1e-13 of the largest) on every
# coset of the shift path; 20 leave 3.8e-12 there, 22 leave 1.4e-13.
_ARC_NODES = 24
# The coset tables of arc_root_pair, per coset index, built when first met.
_ARC_TABLES: dict[int, tuple[complex, complex, tuple]] = {}

_SEED_STEPS = 48           # hinted steps on the segment from the seed at i
# Past this |tau| the branch quadratic is divided through by tau^3.
_TAU_DIVIDE = 2.0 ** 64
# Denominators below this modulus raise NearPole.
_POLE_TOL = 1e-10


def _horner(coeffs: tuple, z: complex) -> complex:
    acc = 0j
    for c in reversed(coeffs):
        acc = acc * z + c
    return acc


def _require_upper(z: complex) -> complex:
    z = complex(z)
    if not (z.imag > 0 and cmath.isfinite(z)):
        raise ValueError(f"point must be finite with positive imaginary "
                         f"part: {z}")
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
    if k <= 0 or math.gcd(h, k) != 1:
        raise ValueError(f"dedekind_sum needs k > 0, gcd(h, k) = 1: {h}, {k}")
    h %= k
    if h == 0:
        return Fraction(0)
    # s(h,k) + s(k,h) = -1/4 + (h^2 + k^2 + 1) / (12 h k)
    return (Fraction(-1, 4) + Fraction(h * h + k * k + 1, 12 * h * k)
            - dedekind_sum(k % h, h))


class EtaContext:
    """The multiplier cache and the most recent avatar trajectory (kept
    by treepath.avatar_trajectory): what a walk shares from one call to
    the next.  The walk's functions take a context, which its seed
    continuation from i uses; the point evaluators (tau, lambda_fn, tau5,
    sigma, j_fricke, psi_phi, identity_residuals, avatar_eval) and the
    coset tables use the module's own.

    Concurrent walks should each own a context, since each replaces the
    trajectory.  The multiplier cache only memoizes a pure function of the
    matrix entries, so the point evaluators may share the module's context
    across threads."""

    def __init__(self):
        self._multipliers: dict[tuple[int, int, int, int], complex] = {}
        self.trajectory = None

    def multiplier(self, m: GroupElem) -> complex:
        """Multiplier eps(m) with eta(m z) = eps(m) (cz+d)^(1/2) eta(z),
        for m normalized to c > 0 (or c = 0, d > 0); ValueError otherwise."""
        key = m.entries()
        cached = self._multipliers.get(key)
        if cached is not None:
            return cached
        a, b, c, d = key
        if c < 0 or (c == 0 and d <= 0):
            raise ValueError(f"multiplier needs c > 0 or c = 0, d > 0: {m}")
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
    w, a, b, c, d = _reduce(_require_upper(z))
    return w, GroupElem(a, b, c, d)


def _reduce(z: complex) -> tuple[complex, int, int, int, int]:
    """reduce_to_fundamental for a validated z, the matrix as its
    entries (w, a, b, c, d)."""
    w = z
    a, b, c, d = 1, 0, 0, 1
    for _ in range(10000):
        n = round(w.real)
        if n:
            w -= n                            # Im w - 0.0 is Im w exactly
            a, b = a - n * c, b - n * d       # (1, -n; 0, 1) * m
        if abs(w) < 1.0 - 1e-15:
            w = -1.0 / w
            a, b, c, d = -c, -d, a, b         # S * m
        else:
            return w, a, b, c, d
    raise ValueError(f"fundamental-domain reduction did not converge for {z}")


def _eta_series(w: complex) -> complex:
    """eta(w) for Im w >= sqrt(3)/2, as _reduce leaves it: |q| < 0.0044, so
    the pentagonal series is 1 - q - q^2 + q^5 + q^7 in double precision."""
    q = cmath.exp(2j * math.pi * w)
    q2 = q * q
    q4 = q2 * q2
    total = 1 - (q + q2) + (q4 * q + (q * q2) * q4)
    return cmath.exp(1j * math.pi * w / 12.0) * total


def dedekind_eta(z: complex, ctx: EtaContext | None = None) -> complex:
    """eta(z) for Im z > 0, exact multiplier unwinding of the reduction."""
    ctx = ctx or _DEFAULT_CTX
    z = _require_upper(z)
    w, a, b, c, d = _reduce(z)
    val = _eta_series(w)
    if a == 1 and b == 0 and c == 0:          # the identity: d = 1
        return val
    if c < 0 or (c == 0 and d < 0):
        a, b, c, d = -a, -b, -c, -d
    mult = ctx._multipliers.get((a, b, c, d))
    if mult is None:
        mult = ctx.multiplier(GroupElem(a, b, c, d))
    # eta(w) = eta(m z) = eps(m) (c z + d)^(1/2) eta(z); principal root is
    # continuous here since c > 0 keeps cz + d in the upper half-plane.
    return val / (mult * cmath.sqrt(c * z + d))


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


def _tau_lambda(z: complex, e1: complex, e3: complex, e5: complex,
                e15: complex) -> tuple[complex, complex]:
    """tau and lambda from the eta quartet _etas(z); NearPole at z names
    the first of them to leave double range."""
    what = "tau"
    try:
        t = ((e3 * e5) / (e1 * e15)) ** 3
        if cmath.isfinite(t):
            what = "lambda"
            lam = e3 ** 6 / (e1 ** 3 * e5 ** 3)
            if cmath.isfinite(lam):
                return t, lam
    except (OverflowError, ZeroDivisionError):
        pass
    raise _out_of_range(z, what)


def _tau5(z: complex, e1: complex, e5: complex) -> complex:
    """tau5 from eta(z) and eta(z/5)."""
    return _in_range(z, "tau5", lambda: (e5 / e1) ** 6)


def tau(z: complex) -> complex:
    """Degree-4 hauptmodul (eta_3 eta_5 / eta_1 eta_15)^3, with
    eta_m(z) = eta(z/m)."""
    return _tau_lambda(z, *_etas(z, _DEFAULT_CTX))[0]


def lambda_fn(z: complex) -> complex:
    """Weight-0 quotient eta_1^-3 eta_3^6 eta_5^-3."""
    return _tau_lambda(z, *_etas(z, _DEFAULT_CTX))[1]


def tau5(z: complex) -> complex:
    """Level-5 quotient (eta_5 / eta_1)^6; needs only two of the quartet."""
    return _tau5(z, dedekind_eta(z), dedekind_eta(z / 5))


def sigma(z: complex) -> complex:
    """Square function recovered rationally:
    (250 tau^4 lambda^2 - D(tau)) / C(tau)."""
    return _sigma_from(z, *_tau_lambda(z, *_etas(z, _DEFAULT_CTX)))


def _sigma_from(z: complex, t: complex, lam: complex) -> complex:
    den = _horner(_C_C, t)
    if abs(den) < _POLE_TOL:
        raise NearPole(f"degree-4 denominator {abs(den):.3e} below tolerance",
                       z=z)
    return _in_range(
        z, "sigma", lambda: (250.0 * t ** 4 * lam ** 2 - _horner(_D_C, t)) / den)


def j_fricke(z: complex) -> complex:
    """Klein j-invariant via the level-5 quotient:
    (tau5^2 + 10 tau5 + 5)^3 / tau5."""
    t5 = tau5(z)
    if abs(t5) < _POLE_TOL * 1e-2:
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
    t, lam = _tau_lambda(z, *_etas(z, ctx or _DEFAULT_CTX))
    return _roots(*_quad_coeffs(z, t, lam))


def _quad_coeffs(z: complex, t: complex,
                 lam: complex) -> tuple[complex, complex]:
    """The branch quadratic's a and b at z, from tau and lambda there;
    NearPole at z where its discriminant leaves double range."""
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
    if not cmath.isfinite(b * b - 4.0 * a * a):
        raise _out_of_range(z, "the branch quadratic")
    return a, b


def _roots(a: complex, b: complex) -> RootPair:
    """Both roots of a Z^2 + b Z + a, a reciprocal pair, each formed
    without cancellation."""
    if a == 0:
        return RootPair(0j, complex(math.inf, 0.0), a, b)
    sq = cmath.sqrt(b * b - 4.0 * a * a)
    if abs(b + sq) >= abs(b - sq):
        q = -(b + sq) / 2.0
    else:
        q = -(b - sq) / 2.0
    if q == 0:  # b = 0 and a = c: a (Z^2 + 1) = 0, roots are +-i
        return RootPair(1j, -1j, a, b)
    return RootPair(q / a, a / q, a, b)


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


def psi_phi(z: complex,
            branch_value: complex | None = None) -> tuple[complex, complex]:
    """The odd-cubic square root PSI and the cubic-model coordinate PHI,
    at the branch value Z given, or without one z_eval_from_seed(z).

    PSI = B1(Z)^2 sigma / [3 sqrt5 PHI_golden (Z^2-1)(Z^2-Z+1)(Z^2-3Z+1)],
    PHI = (PSI - Z) / (2 (Z - 1))."""
    zv = branch_value if branch_value is not None else z_eval_from_seed(z)
    return _psi_phi(sigma(z), zv)


def _psi_phi(s: complex, zv: complex) -> tuple[complex, complex]:
    b1 = _horner(_B1_C, zv)
    den = _PSI_CONST_F * _horner(_PSI_POLY_C, zv)
    if abs(den) < _POLE_TOL:
        raise NearPole(f"normalizer {abs(den):.3e} below tolerance at Z={zv}")
    psi = b1 * b1 * s / den
    if abs(zv - 1.0) < _POLE_TOL:
        raise NearPole("PHI undefined this close to Z = 1")
    phi = (psi - zv) / (2.0 * (zv - 1.0))
    return psi, phi


def identity_residuals(z: complex, *,
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
        out = _residuals(z, branch_value)
    except OverflowError:
        raise _out_of_range(z, "an identity residual") from None
    if not all(map(math.isfinite, out.values())):
        raise _out_of_range(z, "an identity residual")
    return out


def _residuals(z: complex, branch_value: complex | None) -> dict[str, float]:
    e1, e3, e5, e15 = _etas(z, _DEFAULT_CTX)
    t, lam = _tau_lambda(z, e1, e3, e5, e15)
    t5 = _tau5(z, e1, e5)
    s = _sigma_from(z, t, lam)
    out: dict[str, float] = {}

    quart = ((t - 10.0) * t - 13.0) * t * t + 10.0 * t + 1.0
    out["square_quartic"] = (abs(s * s - quart)
                             / (1.0 + abs(s) ** 2 + abs(quart)))

    lhs = 250.0 * t ** 4 * lam * lam
    rhs = _horner(_C_C, t) * s + _horner(_D_C, t)
    out["weight_relation"] = abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs))

    pair = _roots(*_quad_coeffs(z, t, lam))
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

    psi, phi = _psi_phi(s, zv)
    cubic = ((zv * 4.0 - 7.0) * zv + 4.0) * zv
    out["odd_cubic_square"] = (abs(psi * psi - cubic)
                               / (1.0 + abs(psi) ** 2 + abs(cubic)))
    model = (zv - 1.0) * phi * phi + zv * phi - zv * (zv - 1.0)
    model_scale = abs(zv - 1.0) * abs(phi) ** 2 + abs(zv) * (abs(phi) + abs(zv - 1.0))
    out["cubic_model"] = abs(model) / (1.0 + model_scale)
    return out


def avatar_eval(n: int, z: complex, hint: complex | None = None) -> complex:
    """Avatar value Z_n(z) = Z(P_n z), P_n the row-n coset representative.

    The hint, a branch value of the same avatar at a nearby point, selects
    the root as in z_eval; without one the value is continued from the
    seed at i."""
    return z_eval(mobius(load_table().rep(n), z), hint=hint)


def _arc_table(m: int) -> tuple[complex, complex, tuple]:
    """Coset m's Chebyshev table on the base arc: (a_0, b_0, the pairs
    (a_j, b_j) for j = _ARC_NODES - 1 down to 1), the series of the branch
    quadratic's a and b at P_m e^(i theta) in x = (theta - mid) / half.
    Interpolated at the _ARC_NODES first-kind nodes; built when m is
    first met and kept in _ARC_TABLES."""
    table = _ARC_TABLES.get(m)
    if table is not None:
        return table
    rep = load_table().rep(m)
    count = _ARC_NODES
    angles = [math.pi * (k + 0.5) / count for k in range(count)]
    nodes = []
    for phi in angles:
        theta = _ARC_MID + _ARC_HALF * math.cos(phi)
        z = mobius(rep, cmath.exp(1j * theta))
        t, lam = _tau_lambda(z, *_etas(z, _DEFAULT_CTX))
        nodes.append(_quad_coeffs(z, t, lam))
    series = []
    for j in range(count):
        weights = [(2.0 - (j == 0)) / count * math.cos(j * phi)
                   for phi in angles]
        series.append((sum(w * a for w, (a, _) in zip(weights, nodes)),
                       sum(w * b for w, (_, b) in zip(weights, nodes))))
    table = _ARC_TABLES[m] = (*series[0], tuple(reversed(series[1:])))
    return table


def arc_root_pair(m: int, theta: float) -> RootPair:
    """Both roots of Z at P_m e^(i theta), P_m the row-m representative
    of the packaged coset table and theta on the base arc [THETA_I,
    THETA_OMEGA], with a and b read from coset m's Chebyshev table (one
    Clenshaw pass for both).  Any element of the coset would serve for
    P_m: the roots depend only on b/a, which K fixes."""
    a0, b0, tail = _arc_table(m)
    x = (theta - _ARC_MID) / _ARC_HALF
    x2 = 2.0 * x
    a1 = a2 = b1 = b2 = 0j
    for aj, bj in tail:
        a1, a2 = aj + x2 * a1 - a2, a1
        b1, b2 = bj + x2 * b1 - b2, b1
    return _roots(a0 + x * a1 - a2, b0 + x * b1 - b2)


def arc_eval(m: int, theta: float, hint: complex) -> complex:
    """The root of arc_root_pair(m, theta) chordally nearest the hint."""
    return _nearest(arc_root_pair(m, theta), hint)
