"""Numerical engine: Dedekind eta, the level-15 eta quotients, and the
genus-one branch function they generate.

Points live in the open upper half-plane, represented as built-in complex
numbers and validated at entry.  _matrix_eta, the one evaluator of eta,
reduces N x, N an integer matrix, to the standard fundamental domain,
where |q| <= exp(-pi sqrt3) leaves the pentagonal-number series a fixed
five-term polynomial, and unwinds the transformation with the exact
multiplier system from Dedekind sums, composing the reducing matrix with
N in integers so that no step reads N x rounded to a double.  A quartet
eta(P x / k), k = 1, 3, 5, 15, is four of these (_etas).

The branch function Z satisfies a quadratic over the degree-4/degree-6
quotient field, so each evaluation yields a reciprocal root pair {W, 1/W}.
Nothing local tells the two apart: B0 and B1 are palindromic, so both
roots satisfy the side constraint B1(Z) tau + B0(Z) = 0 alike.  The branch
is fixed by continuity alone: a hint (a value of the same branch at a
nearby point) selects the nearer root on the Riemann sphere, by the one
rule of _nearest_root, and a cold start continues from the seed at i,
the root there nearest i.

Path walks need Z only at P_m e^(i theta), theta on the base arc from i
to omega, for the 96 coset representatives P_m: SL(2,Z) permutes the
avatars, so every edge of every path is one of these 96 arcs.  The
quadratic's a and b are analytic there, and arc_eval reads them from
coset m's table, _ARC_PANELS equal panels in theta of _ARC_NODES
first-kind Chebyshev nodes each, then picks the root nearest its hint.
A table is built the first time m is met, from the quadratic at P_m x
(_quad_at), as a hinted avatar_eval forms it.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction

from .errors import NearPole, out_of_range, within_range
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

# The base arc, as angles on the unit circle: from i to omega.
THETA_I = math.pi / 2.0
THETA_OMEGA = 2.0 * math.pi / 3.0
# Each coset table cuts the base arc into _ARC_PANELS equal panels in
# theta, each a Chebyshev series on _ARC_NODES first-kind nodes.  8 x 12
# is the cheapest cut measured whose last two coefficients fall below
# 1e-13 of each panel's largest on every coset of the shift path: 8 x 11
# leave 1.9e-12 and 4 x 14 leave 1.2e-13, and 4 x 16, which pass, run
# 15 Clenshaw steps a point to 11.
_ARC_PANELS = 8
_ARC_NODES = 12
_PANEL_WIDTH = (THETA_OMEGA - THETA_I) / _ARC_PANELS
# The coset tables of arc_eval, per coset index, built when first met:
# per panel (a_0, b_0, the pairs (a_j, b_j) for j = _ARC_NODES - 1 down
# to 1).
_ARC_TABLES: dict[int, tuple[tuple[complex, complex, tuple], ...]] = {}

_SEED_STEPS = 48           # hinted steps on the segment from the seed at i
# Past this |tau| the branch quadratic is divided through by tau^3.
_TAU_DIVIDE = 2.0 ** 64
# Denominators below this modulus raise NearPole.
_POLE_TOL = 1e-10
# _reduce leaves Im w >= sqrt(3)/2; composed from x the reduced point falls
# short by rounding that grows as u nears the real axis (near the corners
# of the domain: 4e-13 at Im u ~ 1e-4, 9e-9 at 1e-8).  Below this floor
# its digits are gone.
_REDUCED_IM = math.sqrt(3.0) / 2.0 - 1e-9


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
    """The multiplier cache that _matrix_eta reads and fills, and the most
    recent avatar trajectory (kept by treepath.avatar_trajectory): what a
    walk shares from one call to the next.  Below treepath only
    z_eval_from_seed, the walk's seed continuation from i, takes one; the
    point evaluators, dedekind_eta, avatar_eval and the coset tables use
    the module's own.

    Concurrent walks should each own a context, since each replaces the
    trajectory.  The multiplier cache only memoizes a pure function of the
    matrix entries, so the point evaluators may share the module's context
    across threads."""

    def __init__(self):
        self._multipliers: dict[tuple[int, int, int, int], complex] = {}
        self.trajectory = None

    def multiplier(self, m: GroupElem) -> complex:
        """Multiplier eps(m) with eta(m z) = eps(m) (cz+d)^(1/2) eta(z),
        for m normalized to c > 0 (or c = 0, d > 0); ValueError otherwise.
        Stored in the cache, which its callers read first."""
        a, b, c, d = m.entries()
        if c < 0 or (c == 0 and d <= 0):
            raise ValueError(f"multiplier needs c > 0 or c = 0, d > 0: {m}")
        if c == 0:
            phase = Fraction(b, 12)
        else:
            phase = Fraction(a + d, 12 * c) - dedekind_sum(d, c) - Fraction(1, 4)
        phase %= 2
        val = cmath.exp(1j * math.pi * float(phase))
        self._multipliers[a, b, c, d] = val
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


def dedekind_eta(z: complex) -> complex:
    """eta(z) for Im z > 0: _matrix_eta at the identity."""
    return _matrix_eta(1, 0, 0, 1, _require_upper(z), _DEFAULT_CTX)


def _matrix_eta(na: int, nb: int, nc: int, nd: int, x: complex,
                ctx: EtaContext) -> complex:
    """eta(u) at u = (na x + nb) / (nc x + nd), for integers of positive
    determinant, x validated by _require_upper and ctx's multiplier cache.
    The matrix gamma that reduces u is composed with N in integers, so the
    reduced point and the factor c u + d are formed from x itself, not
    from u rounded to a double, which loses digits where Im u is small.
    NearPole at x where the reduced point so formed is not finite or lies
    below _REDUCED_IM: u is then too near the real axis for a double."""
    _, a, b, c, d = _reduce((na * x + nb) / (nc * x + nd))
    if c < 0 or (c == 0 and d < 0):
        a, b, c, d = -a, -b, -c, -d
    gc, gd = c * na + d * nc, c * nb + d * nd
    w = ((a * na + b * nc) * x + a * nb + b * nd) / (gc * x + gd)
    if not (w.imag >= _REDUCED_IM and cmath.isfinite(w)):
        raise out_of_range("eta", x)
    val = _eta_series(w)
    mult = (ctx._multipliers.get((a, b, c, d))
            or ctx.multiplier(GroupElem(a, b, c, d)))
    # eta(w) = eps(gamma) (c u + d)^(1/2) eta(u); c > 0 keeps c u + d in
    # the upper half-plane, where the principal root is continuous
    return val / (mult * cmath.sqrt((gc * x + gd) / (nc * x + nd)))


def _etas(x: complex, ctx: EtaContext, rep: GroupElem = IDENTITY) -> list:
    """The quartet eta(P x / k), k = 1, 3, 5, 15, P = rep, each from
    _matrix_eta at x; ValueError unless x is finite with Im x > 0."""
    x = _require_upper(x)
    return [_matrix_eta(rep.a, rep.b, k * rep.c, k * rep.d, x, ctx)
            for k in (1, 3, 5, 15)]


def _off_pole(what: str, value: complex, z: complex,
              scale: float = 1.0) -> complex:
    """value, or NearPole at z where |value| is below _POLE_TOL * scale,
    _POLE_TOL read as it stands at the call."""
    if abs(value) < _POLE_TOL * scale:
        raise NearPole(f"{what} of modulus {abs(value):.3e} is below the "
                       f"pole tolerance at {z}", z=z)
    return value


def _tau_lambda(z: complex, e1: complex, e3: complex, e5: complex,
                e15: complex) -> tuple[complex, complex]:
    """tau and lambda from the eta quartet _etas(z); NearPole at z names
    the first of them out of double range."""
    t = within_range("tau", z, lambda: ((e3 * e5) / (e1 * e15)) ** 3)
    return t, within_range("lambda", z, lambda: e3 ** 6 / (e1 ** 3 * e5 ** 3))


def _tau5(z: complex, e1: complex, e5: complex) -> complex:
    """tau5 from eta(z) and eta(z/5)."""
    return within_range("tau5", z, lambda: (e5 / e1) ** 6)


def tau(z: complex) -> complex:
    """Degree-4 hauptmodul (eta_3 eta_5 / eta_1 eta_15)^3, with
    eta_m(z) = eta(z/m)."""
    return _tau_lambda(z, *_etas(z, _DEFAULT_CTX))[0]


def lambda_fn(z: complex) -> complex:
    """Weight-0 quotient eta_1^-3 eta_3^6 eta_5^-3."""
    return _tau_lambda(z, *_etas(z, _DEFAULT_CTX))[1]


def tau5(z: complex) -> complex:
    """Level-5 quotient (eta_5 / eta_1)^6; needs only two of the quartet."""
    z = _require_upper(z)
    return _tau5(z, *[_matrix_eta(1, 0, 0, k, z, _DEFAULT_CTX) for k in (1, 5)])


def sigma(z: complex) -> complex:
    """Square function recovered rationally:
    (250 tau^4 lambda^2 - D(tau)) / C(tau)."""
    return _sigma_from(z, *_tau_lambda(z, *_etas(z, _DEFAULT_CTX)))


def _sigma_from(z: complex, t: complex, lam: complex) -> complex:
    den = _off_pole("degree-4 denominator", _horner(_C_C, t), z)
    return within_range(
        "sigma", z, lambda: (250.0 * t ** 4 * lam ** 2 - _horner(_D_C, t)) / den)


def j_fricke(z: complex) -> complex:
    """Klein j-invariant via the level-5 quotient:
    (tau5^2 + 10 tau5 + 5)^3 / tau5."""
    t5 = _off_pole("level-5 quotient", tau5(z), z, 1e-2)
    return within_range("j", z, lambda: (t5 * t5 + 10.0 * t5 + 5.0) ** 3 / t5)


@dataclass
class RootPair:
    """Both roots of the branch quadratic a Z^2 + b Z + a at one point."""

    first: complex
    second: complex


def z_root_pair(z: complex) -> RootPair:
    """Solve the defining quadratic
    (L - Rh) Z^2 - (3L - Rh) Z + (L - Rh) = 0, where
    L = tau^2 lambda + 27 * 5^(-3/2) tau^3 / lambda and
    Rh = sqrt((5 + 2 sqrt5)/3) (tau - BETA)(tau^2 + GAMMA tau + DELTA).

    The coefficient symmetry a = c makes the roots a reciprocal pair."""
    return _roots(*_quad_at(z, _DEFAULT_CTX))


def _quad_at(x: complex, ctx: EtaContext, rep: GroupElem = IDENTITY) -> tuple:
    """The branch quadratic's a and b at P x, P = rep, from the quartet
    _etas(x, ctx, rep); a NearPole carries P x, or x from _matrix_eta."""
    etas = _etas(x, ctx, rep)
    z = mobius(rep, x)
    return _quad_coeffs(z, *_tau_lambda(z, *etas))


def _quad_coeffs(z: complex, t: complex,
                 lam: complex) -> tuple[complex, complex]:
    """The branch quadratic's a and b at z, from tau and lambda there;
    NearPole at z where its discriminant is out of double range."""
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
        raise out_of_range("the branch quadratic", z)
    return a, b


def _roots(a: complex, b: complex) -> RootPair:
    """Both roots of a Z^2 + b Z + a, a reciprocal pair, each formed
    without cancellation."""
    if a == 0:
        return RootPair(0j, complex(math.inf, 0.0))
    q = _root_q(a, b)
    if q == 0:  # b = 0 and a = c: a (Z^2 + 1) = 0, roots are +-i
        return RootPair(1j, -1j)
    return RootPair(q / a, a / q)


def _root_q(a: complex, b: complex) -> complex:
    """q = -(b +- sqrt(b^2 - 4 a^2)) / 2 with the sign that avoids
    cancellation: the roots of a Z^2 + b Z + a are q / a and a / q."""
    sq = cmath.sqrt(b * b - 4.0 * a * a)
    if abs(b + sq) >= abs(b - sq):
        return -(b + sq) / 2.0
    return -(b - sq) / 2.0


def _nearest_root(a: complex, b: complex, v: complex) -> complex:
    """The root of a Z^2 + b Z + a nearest v on the Riemann sphere, q / a
    on a tie: the one branch rule.

    The roots are r = q / a and 1/r (_root_q), and z -> 1/z is an isometry
    of the sphere's chordal metric, so 1/r is as far from v as r is from
    1/v.  r is at least as near v as 1/r exactly when |r - v| <= |r v - 1|,
    that is, multiplied by |a|, when |q - a v| <= |q v - a|.  Where a = 0
    the roots are 0 and infinity, 0 the nearer when |v| <= 1; where q = 0
    (b = 0 and 4 a^2 underflowing) they are +-i, i the nearer when
    Im v >= 0."""
    if a == 0:
        return 0j if abs(v) <= 1.0 else complex(math.inf, 0.0)
    q = _root_q(a, b)
    if q == 0:
        return 1j if v.imag >= 0.0 else -1j
    # for v infinite, where a v may be nan + nan j, or past 1e154, where a
    # side's modulus may pass the largest double with finite parts, q / a,
    # the root of modulus at least 1, is the nearer
    try:
        first = abs(q - a * v) <= abs(q * v - a) or cmath.isinf(v)
    except OverflowError:
        first = True
    return q / a if first else a / q


def z_eval_from_seed(z: complex, ctx: EtaContext | None = None) -> complex:
    """Branch value at z continued from the seed at i, the root there
    nearest i (the one with positive imaginary part), along the straight
    segment in _SEED_STEPS hinted steps ending at z itself.  The one cold
    start: every value without a hint is this one.  A NearPole on the way
    carries z itself."""
    ctx = ctx or _DEFAULT_CTX
    z = _require_upper(z)
    val = 1j
    try:
        for k in range(_SEED_STEPS + 1):
            w = 1j + (z - 1j) * (k / _SEED_STEPS) if k < _SEED_STEPS else z
            val = _nearest_root(*_quad_at(w, ctx), val)
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
    return _psi_phi(z, sigma(z), zv)


def _psi_phi(z: complex, s: complex,
             zv: complex) -> tuple[complex, complex]:
    """PSI and PHI from sigma and Z at z, the point a NearPole carries."""
    b1 = _horner(_B1_C, zv)
    den = _off_pole("normalizer", _PSI_CONST_F * _horner(_PSI_POLY_C, zv), z)
    psi = b1 * b1 * s / den
    phi = (psi - zv) / (2.0 * _off_pole("Z - 1", zv - 1.0, z))
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

    The root is the one nearest branch_value (_nearest_root), or without
    one the one nearest 0, the smaller in modulus.  Either root serves:
    Z -> 1/Z fixes tau, lambda and sigma, and B0, B1 are palindromic, so
    every identity holds on both roots alike.  Near a cusp, where a term
    is out of double range, NearPole is raised instead."""
    try:
        out = _residuals(z, branch_value)
    except OverflowError:
        raise out_of_range("an identity residual", z) from None
    if not all(map(math.isfinite, out.values())):
        raise out_of_range("an identity residual", z)
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

    a, b = _quad_coeffs(z, t, lam)
    zv = _nearest_root(a, b, 0j if branch_value is None else branch_value)
    quad = a * zv * zv + b * zv + a
    quad_scale = abs(a) * (1.0 + abs(zv) ** 2) + abs(b) * abs(zv)
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

    psi, phi = _psi_phi(z, s, zv)
    cubic = ((zv * 4.0 - 7.0) * zv + 4.0) * zv
    out["odd_cubic_square"] = (abs(psi * psi - cubic)
                               / (1.0 + abs(psi) ** 2 + abs(cubic)))
    model = (zv - 1.0) * phi * phi + zv * phi - zv * (zv - 1.0)
    model_scale = abs(zv - 1.0) * abs(phi) ** 2 + abs(zv) * (abs(phi) + abs(zv - 1.0))
    out["cubic_model"] = abs(model) / (1.0 + model_scale)
    return out


def avatar_eval(n: int, z: complex, hint: complex | None = None) -> complex:
    """Avatar value Z_n(z) = Z(P_n z), P_n the row-n coset representative;
    Z itself is avatar 1, whose representative is the identity.

    The hint, a branch value of the same avatar at a nearby point, selects
    the root nearest it (_nearest_root: branch continuity), from the
    quadratic _quad_at forms at P_n z; without one the value is
    z_eval_from_seed(P_n z)."""
    rep = load_table().rep(n)
    if hint is None:
        return z_eval_from_seed(mobius(rep, z))
    return _nearest_root(*_quad_at(z, _DEFAULT_CTX, rep), hint)


def _arc_table(m: int) -> tuple[tuple[complex, complex, tuple], ...]:
    """Coset m's panels on the base arc: panel p, theta in THETA_I +
    [p, p + 1] * _PANEL_WIDTH, holds the Chebyshev series of the branch
    quadratic's a and b at P_m e^(i theta) in x = 2 u - 2 p - 1, u =
    (theta - THETA_I) / _PANEL_WIDTH, interpolated at the _ARC_NODES
    first-kind nodes; see _ARC_TABLES for the layout.  Built and kept in
    _ARC_TABLES, which _arc_coeffs reads first."""
    rep = load_table().rep(m)
    count = _ARC_NODES
    angles = [math.pi * (k + 0.5) / count for k in range(count)]
    weights = [[(2.0 - (j == 0)) / count * math.cos(j * phi)
                for phi in angles] for j in range(count)]
    panels = []
    for p in range(_ARC_PANELS):
        thetas = (THETA_I + (p + 0.5 + 0.5 * math.cos(phi)) * _PANEL_WIDTH
                  for phi in angles)
        nodes = [_quad_at(cmath.exp(1j * t), _DEFAULT_CTX, rep) for t in thetas]
        series = [(sum(w * a for w, (a, _) in zip(row, nodes)),
                   sum(w * b for w, (_, b) in zip(row, nodes)))
                  for row in weights]
        panels.append((*series[0], tuple(reversed(series[1:]))))
    table = _ARC_TABLES[m] = tuple(panels)
    return table


def _arc_coeffs(m: int, theta: float) -> tuple[complex, complex]:
    """The branch quadratic's a and b at P_m e^(i theta), from the panel
    of coset m's table that holds theta (one Clenshaw pass for both);
    ValueError for theta off the base arc [THETA_I, THETA_OMEGA], NaN
    included."""
    if not THETA_I <= theta <= THETA_OMEGA:
        raise ValueError(f"angle {theta} off the base arc "
                         f"[{THETA_I}, {THETA_OMEGA}]")
    u = (theta - THETA_I) / _PANEL_WIDTH
    p = min(int(u), _ARC_PANELS - 1)
    a0, b0, tail = (_ARC_TABLES.get(m) or _arc_table(m))[p]
    x = 2.0 * (u - p) - 1.0
    x2 = 2.0 * x
    a1 = a2 = b1 = b2 = 0j
    for aj, bj in tail:
        a1, a2 = aj + x2 * a1 - a2, a1
        b1, b2 = bj + x2 * b1 - b2, b1
    return a0 + x * a1 - a2, b0 + x * b1 - b2


def arc_eval(m: int, theta: float, hint: complex) -> complex:
    """The root of Z at P_m e^(i theta) from _arc_coeffs(m, theta)
    nearest the hint (_nearest_root)."""
    return _nearest_root(*_arc_coeffs(m, theta), hint)
