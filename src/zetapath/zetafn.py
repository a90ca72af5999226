"""Riemann zeta at desk scale: Euler-Maclaurin evaluation with exact
Bernoulli coefficients, the Hardy rotation for critical-line work, zeros
located on Gram points in Rosser blocks with a count certified by
Turing's method, and ingestion of precomputed zero tables.

Right of Re s = -1 a single Euler-Maclaurin pass covers the working
range (|Im s| up to ~700): the truncation point N = 1.8 |Im s| / 2 pi + 10
grows linearly with |Im s|, and 25 Bernoulli correction terms,
generated exactly from the tangent numbers, hold the error near 1e-12;
for each N they sum to N^(1-s) times one real polynomial of degree 49,
built once and evaluated by Horner's rule.  Further left the summands
n^(-s) and the correction terms outgrow the value, at low heights first
(see _REFLECT_RE), so the evaluator reflects through the functional
equation instead and keeps full relative accuracy there.  For runs of
nearby evaluations, such as the tracer's, a ZetaDisc evaluates zeta
from one Taylor series of the whole approximant about a centre, and on
the reflected side from a Taylor polynomial of log Gamma about it.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from fractions import Fraction
from itertools import accumulate
from operator import add, mul
from pathlib import Path

from .errors import (
    MissedZero, MonotonicityError, ParseError, PoleAtOne, out_of_range,
    within_range,
)


def _bernoulli_even(count: int) -> tuple[Fraction, ...]:
    """B_2, B_4, ..., B_2count exactly, from the integer tangent numbers
    T_1..T_count (Brent-Harvey recurrence) through
    B_2n = (-1)^(n-1) 2n T_n / (4^n (4^n - 1))."""
    t = [0, 1] + [0] * (count - 1)
    for k in range(2, count + 1):
        t[k] = (k - 1) * t[k - 1]
    for k in range(2, count + 1):
        for j in range(k, count + 1):
            t[j] = (j - k) * t[j - 1] + (j - k + 2) * t[j]
    return tuple(Fraction((-1) ** (n - 1) * 2 * n * t[n],
                          4 ** n * (4 ** n - 1))
                 for n in range(1, count + 1))


_BERNOULLI = _bernoulli_even(25)   # B_2..B_50
# B_2j / (2j)! exactly, j = 1..25.
_EM_COEFFS = tuple(b / math.factorial(2 * (j + 1))
                   for j, b in enumerate(_BERNOULLI))
# B_2j / (2j (2j-1)) for the Stirling series, j = 1..8.
_STIRLING = tuple(float(_BERNOULLI[j]) / ((2 * (j + 1)) * (2 * (j + 1) - 1))
                  for j in range(8))
# B_2j / 2j for the digamma asymptotic series, j = 1..8.
_DIGAMMA_COEFFS = tuple(float(_BERNOULLI[j]) / (2 * (j + 1)) for j in range(8))
# B_2j / 2, j = 1..8: _log_gamma's polygamma series for q_k, k >= 2.
_POLYGAMMA_COEFFS = tuple(float(b) / 2.0 for b in _BERNOULLI[:8])
# The correction polynomial of _em_poly, per truncation point N, built
# when N is first met.
_EM_POLYS: dict[int, tuple[float, ...]] = {}
_LN: tuple[float, ...] = (0.0,)     # ln n, index n; grown by _logs

_POLE_TOL = 1e-12
# zeta refuses |Im s| above this.  The main sum runs N = 1.8 |Im s| / 2 pi
# + 10 terms and _LN keeps as many logarithms, so a height asks for
# memory in proportion: N = 28,657 here, 2.9e7 (about 1 GB) at 1e8.  The
# bound stays well past the |Im s| <= 1500 that traces to zero 1000 need.
_MAX_HEIGHT = 1e5
_BISECT_TOL = 1e-10
# Halley's method for a zero stops at a step this small inside its bracket.
_HALLEY_STEP = 1e-5
_NEWTON_CAP = 16    # evaluations a zero may take; those through 350 take 1-3
# Newton steps at most on a bracket's cubic, for a zero's first point;
# those through 350 take 3-7.
_CUBIC_STEPS = 50
# Rounds of added points before a Rosser block that falls short of sign
# changes raises MissedZero.
_ROSSER_ROUNDS = 4
# Zero 350 sits near t = 612, inside the |Im s| <= 700 zeta contract.
MAX_ZEROS = 350
# zeta reflects left of this line.  The worst error of the direct series
# in value or derivative (relative where |zeta| >= 1) against mpmath at
# 30 digits, as a share of 1e-12, over t in {0, 1, ..., 600}: 0.69 at
# Re s = -0.5 and 0.68 at -1 (both at t = 528, the phase-rounding floor
# of every branch there), 1.10 at -1.5 (t = 10), 4.4 at -2, 22.8 at -2.5
# and 80.9 at -3 (t = 6).  Over t in [0, 100] by quarters it is 0.46 at
# -1, 0.76 at -1.25 and 1.56 at -1.5.
_REFLECT_RE = -1.0
# A ZetaDisc serves the points within this distance of its centre, with
# its Taylor remainder bounded by _DISC_TOL.
_DISC_RADIUS = 0.1
_DISC_TOL = 1e-17
# A disc that s leaves is re-centred this many radii past s, on the ray
# from its old centre through s, so the path crosses most of a diameter
# before it leaves the next one.
_DISC_LEAD = 0.9
_LNPI = math.log(math.pi)
_LN2PI = math.log(2.0 * math.pi)


def _check_height(s: complex) -> None:
    """ValueError naming s unless it is finite with |Im s| <= _MAX_HEIGHT:
    checked before any truncation point is formed or table grows."""
    if not (abs(s.imag) <= _MAX_HEIGHT and cmath.isfinite(s)):
        raise ValueError(f"zeta needs s finite with |Im s| <= "
                         f"{_MAX_HEIGHT:g}, got {s}")


def _term_count(s: complex) -> int:
    """Euler-Maclaurin truncation point N = 1.8 |Im s| / 2 pi + 10, at
    least 20: with 25 correction terms the series then holds the
    1e-12 contract through |Im s| = 700."""
    return max(20, int(1.8 * abs(s.imag) / (2.0 * math.pi)) + 10)


def _em_poly(n: int) -> tuple[float, ...]:
    """Coefficients, highest degree first, of the degree-49 real polynomial
    P_n(s) = sum_{j=1..25} c_j n^(-2j) s (s+1) ... (s+2j-2), c_j = B_2j/(2j)!,
    whose n^(1-s) multiple is the Euler-Maclaurin correction series.

    Built exactly over the integers, scaled by den n^50, by nesting
    Q_j = c_j n^(-2j) + (s+2j-1)(s+2j) Q_(j+1) down to P_n = s Q_1; each
    coefficient is rounded once.  Built when n is first met and kept in
    _EM_POLYS."""
    poly = _EM_POLYS.get(n)
    if poly is not None:
        return poly
    count = len(_EM_COEFFS)
    den = math.lcm(*(c.denominator for c in _EM_COEFFS))
    n2 = n * n
    # c_j den n^(50-2j), j = 1..25
    heads = [c.numerator * (den // c.denominator) * n2 ** (count - j)
             for j, c in enumerate(_EM_COEFFS, start=1)]
    q = [heads[-1]]                        # Q_25, lowest degree first
    for j in range(count - 1, 0, -1):
        # (s + 2j - 1)(s + 2j) = s^2 + lin s + const
        lin, const = 4 * j - 1, (2 * j - 1) * (2 * j)
        q = [const * x + lin * y + z
             for x, y, z in zip(q + [0, 0], [0] + q + [0], [0, 0] + q)]
        q[0] += heads[j - 1]
    scale = den * n2 ** count
    poly = _EM_POLYS[n] = tuple(x / scale for x in reversed(q)) + (0.0,)
    return poly


def _correction_taylor(n: int, c: complex, order: int,
                       tol: float) -> list[complex]:
    """Taylor coefficients p_0, p_1, ... of P_n(u) about c, lowest first,
    to the orders that reach tol on the disc |u - c| <= _DISC_RADIUS.

    There |u| <= rho = |c| + _DISC_RADIUS, so the leading coefficients
    whose terms |p_m| rho^m sum below tol are dropped; of the degree M
    left, with A = sum |p_m| rho^m, the k-th Taylor term is at most
    A y^k / k!, y = M _DISC_RADIUS / rho, and the orders past the first
    k whose remainder bound A y^(k+1)/(k+1)! e^y falls below tol (and
    past `order`) are not formed.  Each kept order is one synthetic
    division by u - c."""
    poly = _em_poly(n)
    rho = abs(c) + _DISC_RADIUS
    sizes = [abs(a) * rho ** m
             for m, a in zip(range(len(poly) - 1, -1, -1), poly)]
    # the constant stays even when every size is below tol (large Re c)
    top = min(len(poly) - 1,
              sum(1 for head in accumulate(sizes) if head < tol))
    poly = poly[top:]
    y = (len(poly) - 1) * _DISC_RADIUS / rho
    bound = sum(sizes[top:]) * math.exp(y) * y           # at k = 0
    last = min(order, len(poly) - 1)
    k = 0
    while bound >= tol and k < last:
        k += 1
        bound *= y / (k + 1)
    coeffs = []
    for _ in range(k + 1):
        acc = 0j
        quotient = []
        for a in poly:
            acc = acc * c + a
            quotient.append(acc)
        coeffs.append(quotient.pop())
        poly = quotient
    return coeffs


def _logs(n_cut: int) -> tuple[float, ...]:
    """ln n for n < n_cut at least, index n: _LN, rebound when outgrown."""
    global _LN
    ln = _LN
    if n_cut > len(ln):
        ln = _LN = ln + tuple(map(math.log, range(len(ln), n_cut)))
    return ln


def _zeta_em(s: complex, order: int) -> tuple[complex, complex, complex]:
    """Euler-Maclaurin value and its derivatives up to `order` (0, 1 or
    2), 0 for those not asked: the main sum below the truncation point
    N = _term_count(s), term by term, then the tail, N^(-s)/2 and the
    correction series.  Each derivative is one more accumulator in the
    main sum and in the Horner pass; the value, and zeta' where asked,
    are the same bit for bit whatever the order."""
    if abs(s - 1.0) < _POLE_TOL:
        raise PoleAtOne(f"zeta pole at s = 1 (given {s})")
    n_cut = _term_count(s)
    exp = cmath.exp
    neg_s = -s
    lns = _logs(n_cut)[1:n_cut]
    total = total_p = total_pp = 0j
    if order == 2:
        for ln_n in lns:
            pw = exp(neg_s * ln_n)
            total += pw
            lpw = ln_n * pw
            total_p -= lpw
            total_pp += ln_n * lpw
    elif order:
        for ln_n in lns:
            pw = exp(neg_s * ln_n)
            total += pw
            total_p -= ln_n * pw
    else:
        for ln_n in lns:
            total += exp(neg_s * ln_n)
    ln_nc = math.log(n_cut)
    nc_pow = exp(neg_s * ln_nc)             # n_cut^(-s)
    nc_pow1 = nc_pow * n_cut                # n_cut^(1-s)
    tail = nc_pow1 / (s - 1.0)
    total += tail + nc_pow / 2.0
    if order:
        total_p += tail * (-ln_nc - 1.0 / (s - 1.0)) - ln_nc * nc_pow / 2.0
    if order == 2:
        # (log tail)' = -ln N - r, r = 1/(s - 1), and r' = -r^2
        r = 1.0 / (s - 1.0)
        total_pp += (tail * ((ln_nc + r) ** 2 + r * r)
                     + ln_nc * ln_nc * nc_pow / 2.0)
    # The correction series is n_cut^(1-s) P(s); Horner's rule gives P
    # and, alongside, P' and P''/2.  Where n_cut^(1-s) underflows to 0
    # (Re s past about 250) the series adds nothing, and from Re s ~ 2e6
    # on the pass itself would overflow at s^49 and return NaN, so it is
    # skipped.
    if not nc_pow1:
        return total, total_p, total_pp
    poly = _em_poly(n_cut)
    p = 0j
    if order == 2:
        dp = half_d2p = 0j
        for a in poly:
            half_d2p = half_d2p * s + dp
            dp = dp * s + p
            p = p * s + a
        total_p += nc_pow1 * (dp - ln_nc * p)
        # (N^(1-s) P)'' = N^(1-s) (P'' - 2 ln N P' + ln^2 N P)
        total_pp += nc_pow1 * (2.0 * (half_d2p - ln_nc * dp)
                               + ln_nc * ln_nc * p)
    elif order:
        dp = 0j
        for a in poly:
            dp = dp * s + p
            p = p * s + a
        total_p += nc_pow1 * (dp - ln_nc * p)
    else:
        for a in poly:
            p = p * s + a
    total += nc_pow1 * p
    return total, total_p, total_pp


def _chi(s: complex, order: int = 0) -> tuple[complex, complex, list]:
    """(chi(s), cot(pi s/2), [q_1..q_order] of log Gamma about 1 - s):
    chi(s) = (2 pi)^s sin(pi s/2) Gamma(1-s) / pi reflects zeta(s) =
    chi(s) zeta(1-s), and the other two make up its log derivative."""
    x = 0.5 * math.pi * s
    if not cmath.isfinite(2.0 * x):
        # left of Re s ~ -5.7e307 the phase 2x is past double range, as
        # chi is from about Re s = -254 on
        raise out_of_range("zeta", s)
    # u = e^(+-2ix) keeps |u| <= 1; past |Im x| = 10, where sin x would
    # overflow, log sin x (up to 2 pi i k: it is only exp'd) comes from u
    if x.imag >= 0.0:
        u = cmath.exp(2j * x)
        cot = 1j * (u + 1.0) / (u - 1.0)
    else:
        u = cmath.exp(-2j * x)
        cot = 1j * (1.0 + u) / (1.0 - u)
    if x.imag > 10.0:
        log_sin = cmath.log(0.5j) - 1j * x + cmath.log(1.0 - u)
    elif x.imag < -10.0:
        log_sin = cmath.log(-0.5j) + 1j * x + cmath.log(1.0 - u)
    else:
        log_sin = cmath.log(cmath.sin(x))
    log_gamma = _log_gamma(1.0 - s, order)
    chi = within_range("zeta", s, lambda: cmath.exp(
        s * _LN2PI - _LNPI + log_sin + log_gamma[0]))
    return chi, cot, log_gamma[1:]


def _in_range(s: complex, val: complex,
              der: complex) -> tuple[complex, complex]:
    """(val, der), or NearPole at s where either is not finite, as left
    of Re s = -254.19 at Im s = 14, where |zeta| passes the largest
    double."""
    if cmath.isfinite(val) and cmath.isfinite(der):
        return val, der
    raise out_of_range("zeta", s)


def reflects(s: complex) -> bool:
    """Whether zeta evaluates s through the functional equation: left of
    Re s = -1, short of Re s = -1.5, where the direct series loses the
    1e-12 contract at low heights (the curve is at _REFLECT_RE).  The
    reflected argument 1 - s then has Re > 2, off the pole."""
    return s.real < _REFLECT_RE


def _zeta_eval(s: complex, want_prime: bool) -> tuple[complex, complex]:
    """(zeta(s), zeta'(s) or 0): _zeta_em at s, or where s reflects at
    1 - s times chi(s), with (log chi)'(s) on the derivative path."""
    _check_height(s)
    if not reflects(s):
        return _zeta_em(s, want_prime)[:2]
    val, der, _ = _zeta_em(1.0 - s, want_prime)
    if not want_prime:
        return _in_range(s, _chi(s)[0] * val, 0j)
    chi, cot, (q1,) = _chi(s, 1)
    log_chi_prime = _LN2PI + 0.5 * math.pi * cot - q1
    return _in_range(s, chi * val, chi * (log_chi_prime * val - der))


class ZetaDisc:
    """Zeta as one Taylor series about a centre, for evaluations that move
    s a little at a time, as the tracer's do.

    A disc centred at s0 serves the points s within R = _DISC_RADIUS of
    s0 on the same side of `reflects`, the line Re s = -1: right of it
    the disc expands the direct series, as far left as the disc-less
    path evaluates it, and left of it the reflected one.  Its first
    centre is the first s.
    A point outside the disc or across `reflects` moves s0 to _DISC_LEAD R
    past the point, on the ray from the old centre through it, so that a
    path crosses most of a diameter of each disc, not a radius.  On the
    side of s it works at u = s (or 1 - s) about c = s0 (or 1 - s0), with
    the Euler-Maclaurin approximant of the disc-less path,
    F(u) = sum_{n<N} n^(-u) + N^(1-u)/(u-1) + N^(-u)/2 + N^(1-u) P_N(u),
    N the truncation point at height |Im c| + R, so that one N covers
    the whole disc.  F has a pole at u = 1, which a disc centred within
    R of it contains, so the disc expands G(u) = (u - 1) F(u), which is
    entire, to order K + 1 in d = u - c:
    - the main sum, a_k = (-1)^k sum_{n<N} n^(-c) (ln n)^k / k!;
    - N^(-u) = N^(-c) e^(-d ln N);
    - P_N by _correction_taylor, to the orders that reach _DISC_TOL;
    - G = (u - 1)(main sum + N^(-u)/2 + N^(1-u) P_N) + N^(1-u), by
      Cauchy products.
    K is the first order whose remainder bound S x^(K+1)/(K+1)! e^x,
    x = R ln N, S = sum_{n<N} n^(-Re c) + N^(1-Re c), falls below
    _DISC_TOL.  An evaluation is the pole guard and one Horner pass for
    G and G' in d, then F = G/(u - 1) and F' = (G' - F)/(u - 1).  Where s
    reflects, zeta(s) = chi(s) F(1 - s) with
    chi(s) = chi(s0) e^(Q(d)) (cos h - tan(pi c/2) sin h), h = pi d / 2,
    and Q(d) = log Gamma(c + d) - log Gamma(c) - d ln 2 pi a Taylor
    polynomial to the orders that reach _DISC_TOL.  A centring takes
    chi(s0), tan(pi c/2) = cot(pi s0/2) and Q from one _chi call; no
    evaluation runs _zeta_em or _chi.
    zeta_with_prime(s, disc) evaluates through the disc,
    which counts its evaluations (evals), those that reflect (reflected)
    and its expansions (centres)."""

    def __init__(self) -> None:
        self.evals = self.reflected = self.centres = 0
        self._s0 = complex("nan")    # covers nothing before the first
        self._reflected = False
        self._c = 0j
        self._coeffs: tuple[complex, ...] = ()
        # chi(s0), tan(pi c / 2) and Q, highest degree first
        self._chi: tuple[complex, complex, tuple[complex, ...]] = (0j, 0j, ())

    def _evaluate(self, s: complex) -> tuple[complex, complex]:
        """(zeta(s), zeta'(s)), re-centring the disc first unless s lies
        in it."""
        side = reflects(s)
        # `not <=`: the NaN centre of a fresh disc covers no point
        if side != self._reflected or not abs(s - self._s0) <= _DISC_RADIUS:
            self._centre(s, side)
        self.evals += 1
        self.reflected += side
        u = 1.0 - s if side else s
        w = u - 1.0
        if abs(w) < _POLE_TOL:
            raise PoleAtOne(f"zeta pole at s = 1 (given {u})")
        d = u - self._c
        g = dg = 0j
        for a in self._coeffs:
            dg = dg * d + g
            g = g * d + a
        val = g / w
        der = (dg - val) / w
        if not side:
            return val, der
        # zeta(s) = chi F(u), and zeta'(s) is -d/du of it
        chi0, tan_c, q_poly = self._chi
        q = dq = 0j
        for a in q_poly:
            dq = dq * d + q
            q = q * d + a
        h = 0.5 * math.pi * d
        sin_h, cos_h = cmath.sin(h), cmath.cos(h)
        ratio = cos_h - tan_c * sin_h
        chi = chi0 * cmath.exp(q) * ratio
        log_chi_prime = dq - 0.5 * math.pi * (sin_h + tan_c * cos_h) / ratio
        return _in_range(s, chi * val, -chi * (log_chi_prime * val + der))

    def _centre(self, s: complex, side: bool) -> None:
        """Centre the disc at s0: on s for a fresh disc, else _DISC_LEAD
        radii past s on the ray from the old centre through s.  Expand G
        about c = s0 (or 1 - s0 where s reflects), and there take chi(s0),
        tan(pi c / 2) and Q."""
        _check_height(s)
        s0 = s
        lead = s - self._s0
        gap = abs(lead)                     # NaN on a fresh disc
        if gap > 0.0:
            s0 += lead * (_DISC_LEAD * _DISC_RADIUS / gap)
        c = 1.0 - s0 if side else s0
        n_cut = _term_count(complex(0.0, abs(c.imag) + _DISC_RADIUS))
        lns = _logs(n_cut)[1:n_cut]
        ln_nc = math.log(n_cut)
        neg_c = -c
        exp = cmath.exp
        terms = [exp(neg_c * ln_n) for ln_n in lns]         # n^(-c)
        nc_pow = exp(neg_c * ln_nc)                         # N^(-c)
        tail = n_cut * abs(nc_pow)                          # |N^(1-c)|
        x = _DISC_RADIUS * ln_nc
        size = sum(map(abs, terms)) + tail
        if side:
            # |q_k| <= (1/k)(|c|^-k + (pi/2) |c|^(1-k)) bounds the terms
            # from order k on by (R/k) (R/|c|)^(k-1) (1/|c| + pi/2) /
            # (1 - R/|c|); Q stops before the first k where that is < tol
            tol = _DISC_TOL / size
            ratio = _DISC_RADIUS / abs(c)
            scale = (1.0 / abs(c) + 0.5 * math.pi) / (1.0 - ratio)
            k = 2
            while _DISC_RADIUS / k * ratio ** (k - 1) * scale >= tol:
                k += 1
            chi, cot, q = _chi(s0, k - 1)
            q[0] -= _LN2PI
            self._chi = (chi, cot, tuple(reversed(q)) + (0j,))
        growth = math.exp(x)
        bound = size * growth * x                           # at K = 0
        order = 0
        while bound >= _DISC_TOL:
            order += 1
            bound *= x / (order + 1)
        # the main sum: a_k = (-1)^k sum n^(-c) (ln n)^k / k!
        main = [sum(terms)]
        scale = 1.0
        for k in range(1, order + 1):
            terms = list(map(mul, terms, lns))              # n^(-c) (ln n)^k
            scale /= -k
            main.append(scale * sum(terms))
        # N^(-u) = N^(-c) e^(-(u - c) ln N), to order K + 1
        em = [nc_pow]
        for k in range(1, order + 2):
            em.append(em[-1] * (-ln_nc / k))
        # G = (u - 1) main + N^(-u) H, H = (u - 1)(1/2 + N P_N) + N
        w0 = c - 1.0
        # a weight that underflows to 0 (Re c past about 250) leaves P_N
        # nothing to add above _DISC_TOL, so it forms no orders there; from
        # Re c ~ 2e6 on, sizing them would overflow
        weight = tail * growth
        h = [n_cut * p for p in _correction_taylor(
            n_cut, c, order, _DISC_TOL / weight)] if weight else [0j]
        h[0] += 0.5
        big_h = [w0 * a + prev for a, prev in zip(h + [0j], [0j] + h)]
        big_h[0] += n_cut
        g = [w0 * a + prev for a, prev in zip(main + [0j], [0j] + main)]
        for i, a in enumerate(big_h):
            g[i:] = map(add, g[i:], [a * e for e in em[:order + 2 - i]])
        self._s0, self._reflected, self._c = s0, side, c
        self._coeffs = tuple(reversed(g))
        self.centres += 1


def zeta(s: complex) -> complex:
    """zeta(s).

    Measured error is about 1e-12, relative where |zeta| >= 1, through
    |Im s| = 700 on both branches: direct right of Re s = -1 and
    reflected left of it (see `reflects`).  At every 10th point a trace
    of zero 250 visits (t near 471, Re s down to -0.31, all direct)
    mpmath measured up to 5.3e-13 in value or derivative.  Above
    Im s = 450 the rounding of phases of a few thousand sets a floor
    near 1e-12 that some points exceed: the derivative by 1.19e-12 at
    0.5868658594052902+465.7628128314928i, and the value by 1.21e-12
    at 0.1525753110801975+672.8619536125639i, both direct.

    Refused: ValueError for s not finite or |Im s| > _MAX_HEIGHT = 1e5,
    PoleAtOne within 1e-12 of s = 1, NearPole where the value is out
    of double range (left of Re s = -254 at Im s = 14).  Far right, at
    any Re s up to the largest double, zeta is 1."""
    return _zeta_eval(complex(s), False)[0]


def zeta_with_prime(s: complex,
                    disc: ZetaDisc | None = None) -> tuple[complex, complex]:
    """(zeta(s), zeta'(s)) sharing one pass, zeta' by the differentiated
    sum; the tracer's inner loop.

    A disc evaluates s itself, and counts it: from its expansion,
    re-centred first (ahead of s, see ZetaDisc) when s lies outside it,
    which replaces the whole Euler-Maclaurin pass and, where s reflects,
    the reflection factor but for a ratio of sines.  The values agree
    with the disc-less ones to rounding, not bitwise.  Refuses what zeta
    refuses, with the same errors."""
    s = complex(s)
    if disc is None:
        return _zeta_eval(s, True)
    return disc._evaluate(s)


def _log_gamma(z: complex, order: int = 0) -> list[complex]:
    """[log Gamma(z), q_1, ..., q_order] for Re z > 0, where
    log Gamma(z + d) = log Gamma(z) + sum q_k d^k, q_k = psi^(k-1)(z) / k!.
    After one upward shift to |z| >= 12: log Gamma by Stirling, q_1 by the
    digamma asymptotic series, the others by the polygamma one."""
    acc = 0j
    shifted = []
    while abs(z) < 12.0:
        acc -= cmath.log(z)
        if order:
            shifted.append(1.0 / z)
        z += 1.0
    log_z = cmath.log(z)
    series = 0j
    zpow = z
    z2 = z * z
    for coeff in _STIRLING:
        series += coeff / zpow
        zpow *= z2
    # (z - 1/2)(log z - 1) is (z - 1/2) log z - z + 1/2 with one rounding
    # fewer at the scale of |z| log |z|
    out = [(z - 0.5) * (log_z - 1.0) + (0.5 * _LN2PI - 0.5) + series + acc]
    if not order:
        return out
    inv2_powers = accumulate([1.0 / z2] * len(_DIGAMMA_COEFFS), mul)
    out.append(log_z - 0.5 / z
               - sum(map(mul, _DIGAMMA_COEFFS, inv2_powers)) - sum(shifted))
    v = 1.0 / z
    v2_powers = list(accumulate([v * v] * len(_POLYGAMMA_COEFFS), mul))
    # B_2i (2i+k-2)! / ((2i)! k!), i = 1..8, from k = 2
    weights = _POLYGAMMA_COEFFS
    shift_powers = shifted
    v_power = v                                          # v^(k-1)
    for k in range(2, order + 1):
        shift_powers = list(map(mul, shift_powers, shifted))
        term = v_power * (1.0 / ((k - 1) * k) + v / (2 * k)
                          + sum(map(mul, weights, v2_powers)))
        term += sum(shift_powers) / k
        out.append(-term if k % 2 else term)
        weights = [w * (2 * i + k - 1) / (k + 1)
                   for i, w in enumerate(weights, start=1)]
        v_power *= v
    return out


def rs_theta(t: float) -> float:
    """Phase theta(t) with e^(i theta) zeta(1/2+it) real for real t.
    ValueError naming t unless it is finite with |t| <= _MAX_HEIGHT, the
    heights zeta serves."""
    if not abs(t) <= _MAX_HEIGHT:
        raise ValueError(f"rs_theta needs t finite with |t| <= "
                         f"{_MAX_HEIGHT:g}, got {t}")
    return _log_gamma(0.25 + 0.5j * t)[0].imag - 0.5 * t * _LNPI


def _rotated(t: float, value: complex) -> complex:
    """e^(i theta(t)) value: Hardy Z at t from value = zeta(1/2 + it)."""
    return cmath.exp(1j * rs_theta(t)) * value


def hardy_z(t: float) -> complex:
    """Rotated critical-line value; imaginary part is numerical residue.
    ValueError, from zeta, naming 1/2 + it for t not finite or
    |t| > _MAX_HEIGHT."""
    return _rotated(t, zeta(complex(0.5, t)))


@dataclass(frozen=True)
class ZeroList:
    """Ordered positive ordinates of critical-line zeros."""

    ordinates: tuple[float, ...]
    source: str  # "computed" | "ingested"

    def __post_init__(self):
        prev = 0.0
        for g in self.ordinates:
            if not prev < g < math.inf:
                raise MonotonicityError(
                    f"ordinates must be finite, positive and strictly "
                    f"increasing; saw {g} after {prev}")
            prev = g

    def __len__(self) -> int:
        return len(self.ordinates)

    def gamma(self, m: int) -> float:
        """m-th ordinate, 1-based."""
        if not 1 <= m <= len(self.ordinates):
            raise IndexError(f"zero index {m} outside 1..{len(self.ordinates)}")
        return self.ordinates[m - 1]


def _hardy_pair(t: float) -> tuple[float, float]:
    """(Z(t), Z'(t)) from one pass for zeta and zeta' at 1/2 + it: Z is
    hardy_z(t).real bit for bit, and Z' = -Im e^(i theta)(theta' zeta +
    zeta'), with theta'(t) = Re psi(1/4 + it/2) / 2 - ln(pi) / 2.  The
    theta' term, -theta' Im Z, is 0 for exact values, but it cancels
    much of the rounding: at t = 612 Z' is 8.6e-14 off mpmath with it and
    4.5e-13 without.  The critical line never reflects."""
    s = complex(0.5, t)
    _check_height(s)
    val, der, _ = _zeta_em(s, 1)
    log_gamma, psi = _log_gamma(0.25 + 0.5j * t, 1)
    rot = cmath.exp(1j * (log_gamma.imag - 0.5 * t * _LNPI))
    theta_p = 0.5 * (psi.real - _LNPI)
    return (rot * val).real, -(rot * (theta_p * val + der)).imag


def _gram_points():
    """(n, g_n) for n = -1, 0, 1, ...: theta(g_n) = n pi by Newton on
    rs_theta with theta'(t) ~ ln(t / 2 pi) / 2, each started one spacing
    pi / theta' past the last.  MissedZero, naming n and the last step,
    where 10 steps do not bring the step below 1e-11."""
    n, g = -1, 9.667
    while True:
        for _ in range(10):
            step = (rs_theta(g) - n * math.pi) / (0.5 * (math.log(g) - _LN2PI))
            g -= step
            if abs(step) < 1e-11:
                break
        else:
            raise MissedZero(f"Gram point g_{n} did not converge: last "
                             f"Newton step {step:.3g} at t = {g:.9f}")
        yield n, g
        n += 1
        g += 2.0 * math.pi / (math.log(g) - _LN2PI)


def _rosser_blocks():
    """(ts, vs, ds) per Rosser block [g_a, g_b]: g_a and g_b consecutive
    good Gram points ((-1)^n Z(g_n) > 0), ts the Gram points from g_a to
    g_b, vs the Hardy Z values there and ds Z'.  Starts at g_-1, which is
    good."""
    ts: list[float] = []
    vs: list[float] = []
    ds: list[float] = []
    for n, g in _gram_points():
        v, d = _hardy_pair(g)
        ts.append(g)
        vs.append(v)
        ds.append(d)
        if len(ts) > 1 and (v if n % 2 == 0 else -v) > 0.0:
            yield ts, vs, ds
            ts, vs, ds = [g], [v], [d]


def _separate(ts: list[float], vs: list[float],
              ds: list[float]) -> tuple[list, list, list]:
    """Points of one Rosser block showing as many sign changes of Z as the
    block has Gram intervals (Rosser's rule), with Z and Z' there.  Where
    changes are missing, each round adds a point to every interval,
    weighted by sqrt(u/v) towards the smaller end when both ends share a
    sign; MissedZero after _ROSSER_ROUNDS rounds."""
    want = len(ts) - 1
    for rounds in range(_ROSSER_ROUNDS + 1):
        found = sum(u * v < 0.0 for u, v in zip(vs, vs[1:]))
        if found == want:
            return ts, vs, ds
        if rounds == _ROSSER_ROUNDS:
            raise MissedZero(f"Rosser block [{ts[0]:.6f}, {ts[-1]:.6f}] "
                             f"shows {found} sign changes of Z for {want} "
                             f"Gram intervals")
        nts, nvs, nds = ts[:1], vs[:1], ds[:1]
        for a, b, u, v, d in zip(ts, ts[1:], vs, vs[1:], ds[1:]):
            if u * v > 0.0:
                w = math.sqrt(v / u)
                c = (w * a + b) / (w + 1.0)
            else:
                c = 0.5 * (a + b)
            u_c, d_c = _hardy_pair(c)
            nts += (c, b)
            nvs += (u_c, v)
            nds += (d_c, d)
        ts, vs, ds = nts, nvs, nds


def _hermite_root(a: float, b: float, fa: float, fb: float,
                  da: float, db: float) -> float:
    """A root in [a, b] of the cubic Hermite interpolant of Z on the
    bracket (values fa, fb of opposite sign, slopes da, db): Newton on the
    cubic with its own derivative, from the secant point, inside a bracket
    that the sign of each value shrinks, bisecting where a step would leave
    it, until a step is at most 1e-12 of the bracket."""
    h = b - a
    # p(x) = fa + x (c1 + x (c2 + x c3)) at t = a + h x, x in [0, 1]
    c1 = h * da
    c2 = 3.0 * (fb - fa) - h * (2.0 * da + db)
    c3 = 2.0 * (fa - fb) + h * (da + db)
    lo, hi = 0.0, 1.0
    x = fa / (fa - fb)
    for _ in range(_CUBIC_STEPS):
        p = fa + x * (c1 + x * (c2 + x * c3))
        if (p > 0.0) == (fb > 0.0):
            hi = x
        else:
            lo = x
        dp = c1 + x * (2.0 * c2 + 3.0 * x * c3)
        step = p / dp if dp else math.inf
        if not lo <= x - step <= hi:
            step = x - 0.5 * (lo + hi)
        x -= step
        if abs(step) <= 1e-12:
            break
    return a + h * x


def _halley_zero(a: float, b: float, fa: float, fb: float,
                 da: float, db: float) -> float:
    """The zero of Hardy Z in [a, b] (fa, fb of opposite sign, da, db the
    slopes Z' there), by Halley's method along the critical line from the
    root of the bracket's cubic Hermite interpolant: each iterate t, the
    last Halley point if it lies in the bracket and else the bracket's
    secant point, makes one evaluation of zeta, zeta' and zeta'' at
    1/2 + it.  The sign of Z at t shrinks the bracket, and the Halley
    point is t - Im(2 zeta zeta' / (2 zeta'^2 - zeta zeta'')), Halley's
    step for the analytic zeta(1/2 + it) in t, whose zero is real.  Done
    once that step is at most _HALLEY_STEP inside the bracket, where
    cubic convergence leaves ~1e-15, or the bracket is below _BISECT_TOL:
    returns the Halley point if it lies in the bracket, else t.
    MissedZero after _NEWTON_CAP evaluations, or where |zeta'| <= 1e-3 at
    the last t, which lies within _HALLEY_STEP of the zero: the
    continuation divides by zeta' there."""
    c = _hermite_root(a, b, fa, fb, da, db)
    for _ in range(_NEWTON_CAP):
        t = c if a <= c <= b else (a * fb - b * fa) / (fb - fa)
        val, der, der2 = _zeta_em(complex(0.5, t), 2)
        z = _rotated(t, val).real
        if (z > 0.0) == (fb > 0.0):
            b, fb = t, z
        else:
            a, fa = t, z
        c = t - (2.0 * val * der / (2.0 * der * der - val * der2)).imag
        if b - a < _BISECT_TOL or a <= c <= b and abs(c - t) <= _HALLEY_STEP:
            break
    else:
        raise MissedZero(f"Halley did not converge in [{a:.9f}, {b:.9f}]")
    if abs(der) <= 1e-3:
        raise MissedZero(f"derivative too small at ordinate {t:.9f}; "
                         f"zero may be multiple or misplaced")
    return c if a <= c <= b else t


def find_zeros(count: int) -> ZeroList:
    """First `count` critical-line zeros, count <= 350 (t up to ~612).

    Hardy Z and Z' are evaluated once per Gram point; each Rosser block
    must show as many sign changes as it has Gram intervals, with points
    added where it does not (MissedZero if that fails).  The count is
    certified by Turing's method in Brent's form: once the block holding
    zero `count` ends at g_n, K more blocks, K >= 0.0061 ln^2 g +
    0.08 ln g (and at least 2), must satisfy Rosser's rule; then
    N(g_n) = n + 1 exactly and every zero below g_n is one of the sign
    changes found.  Each wanted sign change is refined by Halley's method
    along the critical line from the root of the cubic that matches Z
    and Z' at the ends of its bracket, and each zero must be simple
    (|zeta'| > 1e-3).  TypeError for a count that is not an integer,
    before any search."""
    count = operator.index(count)
    if not 1 <= count <= MAX_ZEROS:
        raise ValueError(f"count must be in 1..{MAX_ZEROS}, got {count}")
    brackets: list[tuple[float, ...]] = []
    turing = 0
    for ts, vs, ds in _rosser_blocks():
        ts, vs, ds = _separate(ts, vs, ds)
        if len(brackets) >= count:
            turing += 1
            lg = math.log(ts[-1])
            if turing >= max(2, math.ceil(0.0061 * lg * lg + 0.08 * lg)):
                break
        else:
            brackets += [(a, b, u, v, du, dv) for a, b, u, v, du, dv
                         in zip(ts, ts[1:], vs, vs[1:], ds, ds[1:])
                         if u * v < 0.0]
    return ZeroList(tuple(_halley_zero(*bracket)
                          for bracket in brackets[:count]), source="computed")


def load_zeros(path) -> ZeroList:
    """Parse one decimal ordinate per line; '#' starts a comment."""
    text = Path(path).read_text()
    ordinates: list[float] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            g = float(body)
        except ValueError:
            raise ParseError(f"not a decimal ordinate: {body!r}",
                             line=lineno) from None
        if not math.isfinite(g):
            raise ParseError(f"not a finite ordinate: {body!r}", line=lineno)
        ordinates.append(g)
    try:
        return ZeroList(tuple(ordinates), source="ingested")
    except MonotonicityError as exc:
        raise MonotonicityError(f"{path}: {exc}") from None


def reference_zeros() -> ZeroList:
    """The packaged 310-entry reference table."""
    from importlib.resources import files
    return load_zeros(files("zetapath").joinpath("data/zeta_zeros.txt"))
