"""Riemann zeta at desk scale: Euler-Maclaurin evaluation with exact
Bernoulli coefficients, the Hardy rotation for critical-line work, zeros
located on Gram points in Rosser blocks with a count certified by
Turing's method, and ingestion of precomputed zero tables.

Right of Re s = 0.4 a single Euler-Maclaurin pass covers the working
range (|Im s| up to ~700): the truncation point N = 1.8 |Im s| / 2 pi + 10
grows linearly with |Im s|, and up to 25 Bernoulli correction terms,
generated exactly from the tangent numbers, hold the error near 1e-12;
the series stops early once its terms fall below 1e-18.  Left of that
line the alternating summands outgrow the value, so the evaluator
reflects through the functional equation instead and keeps full relative
accuracy there.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import MissedZero, MonotonicityError, ParseError, PoleAtOne


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
# B_2j / (2j)! as floats, j = 1..25.
_EM_COEFFS = tuple(float(b) / math.factorial(2 * (j + 1))
                   for j, b in enumerate(_BERNOULLI))
# B_2j / (2j (2j-1)) for the Stirling series, j = 1..8.
_STIRLING = tuple(float(_BERNOULLI[j]) / ((2 * (j + 1)) * (2 * (j + 1) - 1))
                  for j in range(8))
# B_2j / 2j for the digamma asymptotic series, j = 1..8.
_DIGAMMA_COEFFS = tuple(float(_BERNOULLI[j]) / (2 * (j + 1)) for j in range(8))
# Correction terms below this modulus (value and derivative alike) end
# the Euler-Maclaurin series early.
_EM_STOP = 1e-18
# ln n for n < 400, index n: the main sum's logarithms up to the default
# truncation point at |Im s| ~ 1300.
_LN = [0.0] + [math.log(n) for n in range(1, 400)]

_POLE_TOL = 1e-12
_BISECT_TOL = 1e-10
# Rounds of added points before a Rosser block that falls short of sign
# changes raises MissedZero.
_ROSSER_ROUNDS = 4
# Zero 350 sits near t = 612, inside the |Im s| <= 700 zeta contract.
MAX_ZEROS = 350
_REFLECT_RE = 0.4
_LNPI = math.log(math.pi)
_LN2PI = math.log(2.0 * math.pi)


def _term_count(s: complex) -> int:
    """Euler-Maclaurin truncation point N = 1.8 |Im s| / 2 pi + 10, at
    least 20: with up to 25 correction terms the series then holds the
    1e-12 contract through |Im s| = 700."""
    return max(20, int(1.8 * abs(s.imag) / (2.0 * math.pi)) + 10)


def _zeta_em(s: complex, want_prime: bool,
             terms: int | None = None) -> tuple[complex, complex]:
    """Euler-Maclaurin value and (optionally) derivative in one pass."""
    if abs(s - 1.0) < _POLE_TOL:
        raise PoleAtOne(f"zeta pole at s = 1 (given {s})")
    n_cut = terms if terms is not None else _term_count(s)
    lns = _LN
    if n_cut > len(_LN):
        lns = [0.0] + [math.log(n) for n in range(1, n_cut)]
    exp = cmath.exp
    neg_s = -s
    total = 0j
    total_p = 0j
    if want_prime:
        for ln_n in lns[1:n_cut]:
            pw = exp(neg_s * ln_n)
            total += pw
            total_p -= ln_n * pw
    else:
        for ln_n in lns[1:n_cut]:
            total += exp(neg_s * ln_n)
    ln_nc = math.log(n_cut)
    nc_pow = cmath.exp(-s * ln_nc)          # n_cut^(-s)
    nc_pow1 = nc_pow * n_cut                # n_cut^(1-s)
    tail = nc_pow1 / (s - 1.0)
    total += tail + nc_pow / 2.0
    if want_prime:
        total_p += tail * (-ln_nc - 1.0 / (s - 1.0)) - ln_nc * nc_pow / 2.0
    # Correction terms: coeff_j * n_cut^(-s-2j+1) * prod_{i=0}^{2j-2}(s+i).
    # u and v carry n_cut^(-s+1) times the product and its derivative,
    # the factor n_cut^(-2j) rides on the coefficient, and the series
    # stops once a term and its derivative are both below _EM_STOP.
    u = nc_pow1 * s
    v = nc_pow1
    inv_nc2 = 1.0 / (n_cut * n_cut)
    s2 = s * s
    two_s = s + s
    cn = inv_nc2
    for j, coeff in enumerate(_EM_COEFFS):
        if j:
            # (s + 2j - 1)(s + 2j) and its derivative
            f = s2 + (4 * j - 1) * s + (2 * j - 1) * (2 * j)
            v = v * f + u * (two_s + (4 * j - 1))
            u = u * f
            cn *= inv_nc2
        c = coeff * cn
        term = c * u
        term_p = c * (v - ln_nc * u)
        total += term
        if want_prime:
            total_p += term_p
        if abs(term_p) < _EM_STOP and abs(term) < _EM_STOP:
            break
    return total, total_p


def _log_sin(x: complex) -> complex:
    # log sin x up to a multiple of 2 pi i (harmless: only exp'd); the
    # large-|Im| branches avoid overflow in sin itself
    if x.imag > 10.0:
        return cmath.log(0.5j) - 1j * x + cmath.log(1.0 - cmath.exp(2j * x))
    if x.imag < -10.0:
        return cmath.log(-0.5j) + 1j * x + cmath.log(1.0 - cmath.exp(-2j * x))
    return cmath.log(cmath.sin(x))


def _cot(x: complex) -> complex:
    # exponential forms keep |u| <= 1 on either half plane
    if x.imag >= 0.0:
        u = cmath.exp(2j * x)
        return 1j * (u + 1.0) / (u - 1.0)
    u = cmath.exp(-2j * x)
    return 1j * (1.0 + u) / (1.0 - u)


def _digamma(z: complex) -> complex:
    """Digamma for Re z > 0 via the asymptotic series with upward shift."""
    acc = 0j
    while abs(z) < 12.0:
        acc -= 1.0 / z
        z += 1.0
    inv2 = 1.0 / (z * z)
    series = 0j
    zpow = inv2
    for coeff in _DIGAMMA_COEFFS:
        series -= coeff * zpow
        zpow *= inv2
    return cmath.log(z) - 0.5 / z + series + acc


def _zeta_reflect(s: complex, want_prime: bool,
                  terms: int | None) -> tuple[complex, complex]:
    """Functional-equation branch: evaluate at 1-s and multiply back."""
    val, der = _zeta_em(1.0 - s, want_prime, terms)
    half = 0.5 * math.pi * s
    chi = cmath.exp(s * _LN2PI - _LNPI + _log_sin(half) + _log_gamma(1.0 - s))
    if not want_prime:
        return chi * val, 0j
    log_chi_prime = _LN2PI + 0.5 * math.pi * _cot(half) - _digamma(1.0 - s)
    return chi * val, chi * (log_chi_prime * val - der)


def reflects(s: complex) -> bool:
    """Whether zeta evaluates s through the functional equation: left of
    Re s = 0.4, where the summands outgrow the value, except within 1/2
    of the origin, which keeps the reflected argument 1-s off the pole."""
    return s.real < _REFLECT_RE and abs(s) > 0.5


def _zeta_eval(s: complex, want_prime: bool,
               terms: int | None = None) -> tuple[complex, complex]:
    if reflects(s):
        return _zeta_reflect(s, want_prime, terms)
    return _zeta_em(s, want_prime, terms)


def zeta(s: complex, terms: int | None = None) -> complex:
    """zeta(s).

    Measured absolute error stays under 1e-12 on the critical line through
    |Im s| = 700 and throughout 0 <= Re s <= 30 for |Im s| <= 500; left of
    Re s = 0.4 the reflected evaluation holds the error under 1e-12,
    relative where |zeta| >= 1: at the points a trace of zero 250 visits
    (t near 471, Re s down to -0.31) mpmath measured up to 9.6e-13 in the
    value and 8.4e-13 in the derivative.
    `terms` overrides the automatic truncation point, for convergence
    checks only."""
    return _zeta_eval(complex(s), False, terms)[0]


def zeta_prime(s: complex, terms: int | None = None) -> complex:
    """zeta'(s) by the differentiated sum, not finite differences."""
    return _zeta_eval(complex(s), True, terms)[1]


def zeta_with_prime(s: complex) -> tuple[complex, complex]:
    """(zeta(s), zeta'(s)) sharing one pass; the tracer's inner loop."""
    return _zeta_eval(complex(s), True)


def _log_gamma(z: complex) -> complex:
    """Principal log-gamma for Re z > 0 via Stirling with upward shift."""
    acc = 0j
    while abs(z) < 12.0:
        acc -= cmath.log(z)
        z += 1.0
    series = 0j
    zpow = z
    z2 = z * z
    for coeff in _STIRLING:
        series += coeff / zpow
        zpow *= z2
    # (z - 1/2)(log z - 1) is (z - 1/2) log z - z + 1/2 with one rounding
    # fewer at the scale of |z| log |z|
    return ((z - 0.5) * (cmath.log(z) - 1.0) + (0.5 * _LN2PI - 0.5)
            + series + acc)


def rs_theta(t: float) -> float:
    """Phase theta(t) with e^(i theta) zeta(1/2+it) real for real t."""
    return (_log_gamma(0.25 + 0.5j * t)).imag - 0.5 * t * math.log(math.pi)


def hardy_z(t: float) -> complex:
    """Rotated critical-line value; imaginary part is numerical residue."""
    return cmath.exp(1j * rs_theta(t)) * zeta(0.5 + 1j * t)


@dataclass(frozen=True)
class ZeroList:
    """Ordered positive ordinates of critical-line zeros."""

    ordinates: tuple[float, ...]
    source: str  # "computed" | "ingested"

    def __post_init__(self):
        prev = 0.0
        for g in self.ordinates:
            if g <= prev:
                raise MonotonicityError(
                    f"ordinates must be strictly increasing and positive; "
                    f"saw {g} after {prev}")
            prev = g

    def __len__(self) -> int:
        return len(self.ordinates)

    def gamma(self, m: int) -> float:
        """m-th ordinate, 1-based."""
        if not 1 <= m <= len(self.ordinates):
            raise IndexError(f"zero index {m} outside 1..{len(self.ordinates)}")
        return self.ordinates[m - 1]


def _gram_points():
    """(n, g_n) for n = -1, 0, 1, ...: theta(g_n) = n pi by Newton on
    rs_theta with theta'(t) ~ ln(t / 2 pi) / 2, each started one spacing
    pi / theta' past the last."""
    n, g = -1, 9.667
    while True:
        for _ in range(10):
            step = (rs_theta(g) - n * math.pi) / (0.5 * (math.log(g) - _LN2PI))
            g -= step
            if abs(step) < 1e-11:
                break
        yield n, g
        n += 1
        g += 2.0 * math.pi / (math.log(g) - _LN2PI)


def _rosser_blocks():
    """(ts, vs) per Rosser block [g_a, g_b]: g_a and g_b consecutive good
    Gram points ((-1)^n Z(g_n) > 0), ts the Gram points from g_a to g_b
    and vs the Hardy Z values there.  Starts at g_-1, which is good."""
    ts: list[float] = []
    vs: list[float] = []
    for n, g in _gram_points():
        v = hardy_z(g).real
        ts.append(g)
        vs.append(v)
        if len(ts) > 1 and (v if n % 2 == 0 else -v) > 0.0:
            yield ts, vs
            ts, vs = [g], [v]


def _separate(ts: list[float], vs: list[float]) -> tuple[list, list]:
    """Points of one Rosser block showing as many sign changes of Z as the
    block has Gram intervals (Rosser's rule).  Where changes are missing,
    each round adds a point to every interval, weighted by sqrt(u/v)
    towards the smaller end when both ends share a sign; MissedZero after
    _ROSSER_ROUNDS rounds."""
    want = len(ts) - 1
    for rounds in range(_ROSSER_ROUNDS + 1):
        found = sum(u * v < 0.0 for u, v in zip(vs, vs[1:]))
        if found == want:
            return ts, vs
        if rounds == _ROSSER_ROUNDS:
            raise MissedZero(f"Rosser block [{ts[0]:.6f}, {ts[-1]:.6f}] "
                             f"shows {found} sign changes of Z for {want} "
                             f"Gram intervals")
        nts, nvs = ts[:1], vs[:1]
        for a, b, u, v in zip(ts, ts[1:], vs, vs[1:]):
            if u * v > 0.0:
                w = math.sqrt(v / u)
                c = (w * a + b) / (w + 1.0)
            else:
                c = 0.5 * (a + b)
            nts += (c, b)
            nvs += (hardy_z(c).real, v)
        ts, vs = nts, nvs


def _illinois(a: float, b: float, fa: float, fb: float) -> float:
    """Zero of Hardy Z bracketed by [a, b] (fa, fb of opposite sign):
    secant steps, halving the value kept at an end that survives twice
    (Illinois), until the bracket is below _BISECT_TOL."""
    side = 0
    while b - a > _BISECT_TOL:
        c = (a * fb - b * fa) / (fb - fa)
        fc = hardy_z(c).real
        if fc == 0.0:
            return c
        if (fc > 0.0) == (fb > 0.0):
            b, fb = c, fc
            if side == -1:
                fa *= 0.5
            side = -1
        else:
            a, fa = c, fc
            if side == 1:
                fb *= 0.5
            side = 1
    return 0.5 * (a + b)


def find_zeros(count: int) -> ZeroList:
    """First `count` critical-line zeros, count <= 350 (t up to ~612).

    Hardy Z is evaluated once per Gram point; each Rosser block must show
    as many sign changes as it has Gram intervals, with points added
    where it does not (MissedZero if that fails).  The count is certified
    by Turing's method in Brent's form: once the block holding zero
    `count` ends at g_n, K more blocks, K >= 0.0061 ln^2 g + 0.08 ln g
    (and at least 2), must satisfy Rosser's rule; then N(g_n) = n + 1
    exactly and every zero below g_n is one of the sign changes found.
    Each wanted sign change is refined by the Illinois secant to a
    1e-10 bracket, and each zero must be simple (|zeta'| > 1e-3)."""
    if not 1 <= count <= MAX_ZEROS:
        raise ValueError(f"count must be in 1..{MAX_ZEROS}, got {count}")
    brackets: list[tuple[float, float, float, float]] = []
    turing = 0
    for ts, vs in _rosser_blocks():
        ts, vs = _separate(ts, vs)
        if len(brackets) >= count:
            turing += 1
            lg = math.log(ts[-1])
            if turing >= max(2, math.ceil(0.0061 * lg * lg + 0.08 * lg)):
                break
        else:
            brackets += [(a, b, u, v) for a, b, u, v
                         in zip(ts, ts[1:], vs, vs[1:]) if u * v < 0.0]
    kept = [_illinois(*bracket) for bracket in brackets[:count]]
    for g in kept:
        # simple-zero sanity: the continuation divides by zeta' here
        if abs(zeta_prime(0.5 + 1j * g)) <= 1e-3:
            raise MissedZero(f"derivative too small at ordinate {g:.9f}; "
                             f"zero may be multiple or misplaced")
    return ZeroList(tuple(kept), source="computed")


def load_zeros(path) -> ZeroList:
    """Parse one decimal ordinate per line; '#' starts a comment."""
    text = Path(path).read_text()
    ordinates: list[float] = []
    for lineno, raw in enumerate(text.splitlines(), start=1):
        body = raw.split("#", 1)[0].strip()
        if not body:
            continue
        try:
            ordinates.append(float(body))
        except ValueError:
            raise ParseError(f"not a decimal ordinate: {body!r}",
                             line=lineno) from None
    try:
        return ZeroList(tuple(ordinates), source="ingested")
    except MonotonicityError as exc:
        raise MonotonicityError(f"{path}: {exc}") from None


def reference_zeros() -> ZeroList:
    """The packaged 310-entry reference table."""
    from importlib.resources import files
    return load_zeros(files("zetapath").joinpath("data/zeta_zeros.txt"))
