"""Riemann zeta at desk scale: Euler-Maclaurin evaluation with exact
Bernoulli coefficients, the Hardy rotation for critical-line work, zero
location by sign changes, and ingestion of precomputed zero tables.

Right of Re s = 0.4 a single Euler-Maclaurin pass covers the working
range (|Im s| up to ~700): the truncation point N grows linearly with
|Im s| and fifteen Bernoulli correction terms hold the absolute error
well under 1e-12.  Left of that line the alternating summands outgrow
the value, so the evaluator reflects through the functional equation
instead and keeps full relative accuracy there.
"""

from __future__ import annotations

import cmath
import math
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from .errors import MissedZero, MonotonicityError, ParseError, PoleAtOne

# B_2..B_30, exact.
_BERNOULLI = (
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6),
    Fraction(-3617, 510), Fraction(43867, 798), Fraction(-174611, 330),
    Fraction(854513, 138), Fraction(-236364091, 2730), Fraction(8553103, 6),
    Fraction(-23749461029, 870), Fraction(8615841276005, 14322),
)
# B_2j / (2j)! as floats, j = 1..15.
_EM_COEFFS = tuple(float(b) / math.factorial(2 * (j + 1))
                   for j, b in enumerate(_BERNOULLI))
# B_2j / (2j (2j-1)) for the Stirling series, j = 1..8.
_STIRLING = tuple(float(_BERNOULLI[j]) / ((2 * (j + 1)) * (2 * (j + 1) - 1))
                  for j in range(8))
# B_2j / 2j for the digamma asymptotic series, j = 1..8.
_DIGAMMA_COEFFS = tuple(float(_BERNOULLI[j]) / (2 * (j + 1)) for j in range(8))

_POLE_TOL = 1e-12
_GRID_STEP = 0.05
_BISECT_TOL = 1e-10
_REFLECT_RE = 0.4
_LN2 = math.log(2.0)
_LNPI = math.log(math.pi)


def _term_count(s: complex) -> int:
    return max(30, int(0.5 * abs(s.imag)) + 20)


def _zeta_em(s: complex, want_prime: bool,
             terms: int | None = None) -> tuple[complex, complex]:
    """Euler-Maclaurin value and (optionally) derivative in one pass."""
    if abs(s - 1.0) < _POLE_TOL:
        raise PoleAtOne(f"zeta pole at s = 1 (given {s})")
    n_cut = terms if terms is not None else _term_count(s)
    total = 0j
    total_p = 0j
    for n in range(1, n_cut):
        ln_n = math.log(n)
        pw = cmath.exp(-s * ln_n)
        total += pw
        if want_prime:
            total_p -= ln_n * pw
    ln_nc = math.log(n_cut)
    nc_pow = cmath.exp(-s * ln_nc)          # n_cut^(-s)
    tail = nc_pow * n_cut / (s - 1.0)       # n_cut^(1-s)/(s-1)
    total += tail + nc_pow / 2.0
    if want_prime:
        total_p += tail * (-ln_nc - 1.0 / (s - 1.0)) - ln_nc * nc_pow / 2.0
    # Correction terms: coeff_j * n_cut^(-s-2j+1) * prod_{i=0}^{2j-2}(s+i),
    # with the product and its derivative grown incrementally.
    prod = s
    prod_d = 1.0 + 0j
    inv_nc2 = 1.0 / (n_cut * n_cut)
    scale = nc_pow / n_cut  # n_cut^(-s-1) for the first correction term
    total += _EM_COEFFS[0] * scale * prod
    if want_prime:
        total_p += _EM_COEFFS[0] * scale * (prod_d - ln_nc * prod)
    for j in range(1, len(_EM_COEFFS)):
        for i in (2 * j - 1, 2 * j):
            prod_d = prod_d * (s + i) + prod
            prod = prod * (s + i)
        scale *= inv_nc2
        total += _EM_COEFFS[j] * scale * prod
        if want_prime:
            total_p += _EM_COEFFS[j] * scale * (prod_d - ln_nc * prod)
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
    chi = cmath.exp(s * _LN2 + (s - 1.0) * _LNPI + _log_sin(half)
                    + _log_gamma(1.0 - s))
    if not want_prime:
        return chi * val, 0j
    log_chi_prime = _LN2 + _LNPI + 0.5 * math.pi * _cot(half) - _digamma(1.0 - s)
    return chi * val, chi * (log_chi_prime * val - der)


def _zeta_eval(s: complex, want_prime: bool,
               terms: int | None = None) -> tuple[complex, complex]:
    # the |s| guard keeps the reflection argument 1-s away from the pole
    if s.real < _REFLECT_RE and abs(s) > 0.5:
        return _zeta_reflect(s, want_prime, terms)
    return _zeta_em(s, want_prime, terms)


def zeta(s: complex, terms: int | None = None) -> complex:
    """zeta(s).

    Measured absolute error stays under 1e-12 on the critical line through
    |Im s| = 700 and throughout 0 <= Re s <= 30 for |Im s| <= 500; left of
    Re s = 0.4 the reflected evaluation holds relative error near 1e-13,
    which is also absolute 1e-12 wherever the value is of order one.
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
    return ((z - 0.5) * cmath.log(z) - z
            + 0.5 * math.log(2.0 * math.pi) + series + acc)


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


def _bisect_zero(lo: float, hi: float, f_lo: float) -> float:
    while hi - lo > _BISECT_TOL:
        mid = 0.5 * (lo + hi)
        f_mid = hardy_z(mid).real
        if f_mid == 0.0:
            return mid
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return 0.5 * (lo + hi)


def _scan(count: int, step: float) -> list[float]:
    zeros: list[float] = []
    t = 2.0
    f_prev = hardy_z(t).real
    while len(zeros) < count:
        t_next = t + step
        f_next = hardy_z(t_next).real
        if f_prev == 0.0:
            zeros.append(t)
        elif (f_next > 0.0) != (f_prev > 0.0):
            zeros.append(_bisect_zero(t, t_next, f_prev))
        t, f_prev = t_next, f_next
        if t > 1000.0:
            raise MissedZero(f"scan passed t=1000 with {len(zeros)} zeros")
    return zeros


def find_zeros(count: int) -> ZeroList:
    """First `count` critical-line zeros (count <= 200, desk scale).

    Sign changes of the Hardy function on a step-0.05 grid, bisected to
    1e-10; the tally is checked against the smooth counting estimate
    theta(T)/pi + 1 and the grid auto-refines once on disagreement."""
    if not 1 <= count <= 200:
        raise ValueError(f"count must be in 1..200, got {count}")
    step = _GRID_STEP
    zeros = _scan(count + 1, step)
    mid = 0.5 * (zeros[count - 1] + zeros[count])
    expected = round(rs_theta(mid) / math.pi + 1.0)
    if expected != count:
        step /= 2.0
        zeros = _scan(count + 1, step)
        mid = 0.5 * (zeros[count - 1] + zeros[count])
        expected = round(rs_theta(mid) / math.pi + 1.0)
        if expected != count:
            raise MissedZero(
                f"found {count} sign changes below t={mid:.3f} but the "
                f"counting estimate expects {expected}")
    kept = zeros[:count]
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
