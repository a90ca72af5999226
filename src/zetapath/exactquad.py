"""Exact arithmetic over Q(sqrt 5) and the symbolic identity suite.

Everything in this module is exact: a number a + b*sqrt(5), under the
real embedding sqrt(5) > 0, is held as three integers (p + q*sqrt(5))/d
in lowest terms with d > 0, and polynomials carry such numbers (or,
nested, other polynomials) as coefficients.  The verify_* functions check
algebraic identities used by the evaluation engine; each returns True
only on exact equality.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction
from math import gcd, isqrt
from typing import Iterable, Union

Rat = Union[int, Fraction]


def _as_fraction(x: Rat) -> Fraction:
    if isinstance(x, Fraction):
        return x
    if isinstance(x, int):
        return Fraction(x)
    raise TypeError(f"expected int or Fraction, got {type(x).__name__}")


def _parts(x) -> tuple[int, int, int] | None:
    """(p, q, d) of a QuadNum, int or Fraction; None for anything else."""
    if isinstance(x, QuadNum):
        return x._p, x._q, x._d
    if isinstance(x, int):
        return x, 0, 1
    if isinstance(x, Fraction):
        return x.numerator, 0, x.denominator
    return None


_new = object.__new__
_set = object.__setattr__


def _make(p: int, q: int, d: int) -> "QuadNum":
    """The QuadNum (p + q*sqrt(5))/d for d > 0, reduced by one gcd."""
    g = gcd(p, q, d)
    if g != 1:
        p, q, d = p // g, q // g, d // g
    x = _new(QuadNum)
    _set(x, "_p", p)
    _set(x, "_q", q)
    _set(x, "_d", d)
    return x


def _quotient(xp: int, xq: int, xd: int, yp: int, yq: int, yd: int) -> "QuadNum":
    """x / y from the parts of both: 1/y = yd (yp - yq sqrt5) / (yp^2 - 5 yq^2)."""
    n = yp * yp - 5 * yq * yq
    if n == 0:
        raise ZeroDivisionError("division by zero in Q(sqrt 5)")
    if n < 0:
        n, yd = -n, -yd
    return _make((xp * yp - 5 * xq * yq) * yd, (xq * yp - xp * yq) * yd, xd * n)


@dataclass(frozen=True, init=False, repr=False)
class QuadNum:
    """An element a + b*sqrt(5) of the real quadratic field Q(sqrt 5),
    stored as integers (p + q*sqrt(5))/d in lowest terms with d > 0, so
    equal values compare and hash equal; a and b read back as Fractions."""

    _p: int
    _q: int
    _d: int

    def __init__(self, a: Rat = 0, b: Rat = 0):
        a, b = _as_fraction(a), _as_fraction(b)
        da, db = a.denominator, b.denominator
        d = da // gcd(da, db) * db    # lcm: no prime divides p, q and d
        _set(self, "_p", a.numerator * (d // da))
        _set(self, "_q", b.numerator * (d // db))
        _set(self, "_d", d)

    @property
    def a(self) -> Fraction:
        return Fraction(self._p, self._d)

    @property
    def b(self) -> Fraction:
        return Fraction(self._q, self._d)

    def __add__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        p, q, d = o
        return _make(self._p * d + p * self._d, self._q * d + q * self._d,
                     self._d * d)

    __radd__ = __add__

    def __sub__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        p, q, d = o
        return _make(self._p * d - p * self._d, self._q * d - q * self._d,
                     self._d * d)

    def __rsub__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        p, q, d = o
        return _make(p * self._d - self._p * d, q * self._d - self._q * d,
                     self._d * d)

    def __mul__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        p, q, d = o
        # (p + q s)(p' + q' s) = pp' + 5qq' + (pq' + qp') s
        return _make(self._p * p + 5 * self._q * q, self._p * q + self._q * p,
                     self._d * d)

    __rmul__ = __mul__

    def __truediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _quotient(self._p, self._q, self._d, *o)

    def __rtruediv__(self, other):
        o = _parts(other)
        if o is None:
            return NotImplemented
        return _quotient(*o, self._p, self._q, self._d)

    def __neg__(self):
        return _make(-self._p, -self._q, self._d)

    def __pow__(self, n: int):
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = QuadNum(1)
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def conjugate(self) -> "QuadNum":
        """Galois conjugate a - b*sqrt(5)."""
        return _make(self._p, -self._q, self._d)

    def norm(self) -> Fraction:
        """Field norm a^2 - 5 b^2."""
        return Fraction(self._p * self._p - 5 * self._q * self._q,
                        self._d * self._d)

    def __bool__(self) -> bool:
        return self._p != 0 or self._q != 0

    def __float__(self) -> float:
        """The double nearest a + b*sqrt(5), from the integers alone.

        With r = isqrt(5 q^2 4^k), q sqrt5 2^k lies strictly between r and
        r + 1 (for q > 0; -r - 1 and -r for q < 0), so the value lies
        strictly between two rationals whose correctly rounded int
        quotients are compared; once they agree, every number between
        them rounds to that double.  The value is irrational when q != 0,
        so no rounding boundary traps the loop."""
        p, q, d = self._p, self._q, self._d
        if not q:
            return p / d
        k = 64
        while True:
            r = isqrt(5 * q * q << 2 * k)
            lo = (p << k) + (r if q > 0 else -r - 1)
            den = d << k
            f = lo / den
            if f == (lo + 1) / den:
                return f
            k *= 2

    def __complex__(self) -> complex:
        return complex(float(self))

    def __repr__(self) -> str:
        return f"QuadNum({self.a!r}, {self.b!r})"

    def __str__(self) -> str:
        return f"{self.a} + {self.b}*sqrt5"


ONE = QuadNum(1)
SQRT5 = QuadNum(0, 1)
PHI = QuadNum(Fraction(1, 2), Fraction(1, 2))  # golden ratio

# Roots of t^4 - 10 t^3 - 13 t^2 + 10 t + 1, grouped so that
# ALPHA*ALPHA_P = BETA*BETA_P = -1.
ALPHA = QuadNum(Fraction(-1, 2), Fraction(-1, 2))
ALPHA_P = QuadNum(Fraction(-1, 2), Fraction(1, 2))
BETA = QuadNum(Fraction(11, 2), Fraction(-5, 2))
BETA_P = QuadNum(Fraction(11, 2), Fraction(5, 2))

# Coefficients of the degree-2 factor in the branch quadratic's right side.
GAMMA = QuadNum(Fraction(-1, 2), Fraction(-21, 50))
DELTA = QuadNum(Fraction(-1, 10), Fraction(-3, 50))


class QuadPoly:
    """Dense univariate polynomial, low-degree-first coefficients.

    Coefficients may be QuadNum or, for two-variable work, QuadPoly again;
    any ring with +, -, *, bool and == works.  Trailing zero coefficients
    are stripped, so the zero polynomial has an empty tuple and degree -1.
    """

    __slots__ = ("coeffs",)

    def __init__(self, coeffs: Iterable):
        cs = list(coeffs)
        while cs and not cs[-1]:
            cs.pop()
        self.coeffs = tuple(cs)

    @staticmethod
    def constant(c) -> "QuadPoly":
        return QuadPoly([c])

    @property
    def degree(self) -> int:
        return len(self.coeffs) - 1

    def __bool__(self) -> bool:
        return bool(self.coeffs)

    def __eq__(self, other) -> bool:
        return isinstance(other, QuadPoly) and self.coeffs == other.coeffs

    def __add__(self, other: "QuadPoly") -> "QuadPoly":
        a, b = self.coeffs, other.coeffs
        if len(a) < len(b):
            a, b = b, a
        out = list(a)
        for i, c in enumerate(b):
            out[i] = out[i] + c
        return QuadPoly(out)

    def __sub__(self, other: "QuadPoly") -> "QuadPoly":
        return self + (-other)

    def __neg__(self) -> "QuadPoly":
        return QuadPoly([-c for c in self.coeffs])

    def __mul__(self, other: "QuadPoly") -> "QuadPoly":
        if not self or not other:
            return QuadPoly([])
        out: list = [None] * (len(self.coeffs) + len(other.coeffs) - 1)
        for i, ci in enumerate(self.coeffs):
            for j, cj in enumerate(other.coeffs):
                t = ci * cj
                out[i + j] = t if out[i + j] is None else out[i + j] + t
        return QuadPoly(out)

    def __pow__(self, n: int) -> "QuadPoly":
        if not isinstance(n, int) or n < 0:
            raise ValueError("only nonnegative integer powers")
        out = QuadPoly([ONE]) if not self.coeffs or isinstance(self.coeffs[0], QuadNum) \
            else QuadPoly([QuadPoly([ONE])])
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def __call__(self, x):
        """Horner evaluation; x must live in the coefficient ring."""
        if not self.coeffs:
            return x * 0
        acc = self.coeffs[-1]
        for c in reversed(self.coeffs[:-1]):
            acc = acc * x + c
        return acc

    def compose(self, other: "QuadPoly") -> "QuadPoly":
        """Substitute the polynomial `other` for this polynomial's variable."""
        acc = QuadPoly([])
        for c in reversed(self.coeffs):
            acc = acc * other + QuadPoly.constant(c)
        return acc

    def float_coeffs(self) -> tuple:
        return tuple(complex(c) for c in self.coeffs)


def _qp(*nums) -> QuadPoly:
    """Polynomial with QuadNum coefficients from ints/Fractions/QuadNums."""
    return QuadPoly([c if isinstance(c, QuadNum) else QuadNum(c) for c in nums])


# Quartic satisfied by the degree-4 hauptmodul value wherever the square
# function vanishes: t^4 - 10 t^3 - 13 t^2 + 10 t + 1.
QUARTIC = _qp(1, 10, -13, -10, 1)

# Palindromic quartics entering the side constraint B1(Z)*t + B0(Z) = 0.
B0_POLY = QuadPoly([
    ONE,
    QuadNum(Fraction(-7, 2), Fraction(-3, 2)),
    QuadNum(6, 3),
    QuadNum(Fraction(-7, 2), Fraction(-3, 2)),
    ONE,
])
B1_POLY = QuadPoly([
    QuadNum(Fraction(-1, 2), Fraction(-1, 2)),
    QuadNum(-2, 1),
    QuadNum(Fraction(9, 2), Fraction(-3, 2)),
    QuadNum(-2, 1),
    QuadNum(Fraction(-1, 2), Fraction(-1, 2)),
])

# Numerator/denominator polynomials tying the weight-0 square function to
# the eta quotients: lambda^2 = (C_POLY(t)*sigma + D_POLY(t)) / (250 t^4).
C_POLY = _qp(-1, -19, -104, -125, 125)
D_POLY = _qp(1, 24, 180, 374, -396, -750, 125)

# Factorizations of B0 + r*B1 for each quartic root r: (root, constant,
# squarefree-part polynomial, squared-part polynomial).  The ALPHA_P factor
# drops to degree 3 because 1 + ALPHA*ALPHA_P = 0 kills the leading term.
B_FACTORIZATIONS = (
    (ALPHA_P, QuadNum(0, -3), _qp(0, 1), _qp(-1, 1)),            # -3 sqrt5 * Z (Z-1)^2
    (ALPHA, QuadNum(Fraction(5, 2), Fraction(1, 2)), _qp(1), _qp(1, -1, 1)),
    (BETA_P, QuadNum(-2, -1), _qp(4, -7, 4), _qp(1, 1)),         # -(2+sqrt5)(Z+1)^2(4Z^2-7Z+4)
    (BETA, QuadNum(Fraction(9, 2), Fraction(-3, 2)), _qp(1), _qp(1, -3, 1)),
)

# Product of the four factorization constants: 45 * PHI^2.
CONSTANT_PRODUCT = QuadNum(Fraction(135, 2), Fraction(45, 2))

# Odd cubic appearing on the right of the square identity: 4Z^3 - 7Z^2 + 4Z.
ODD_CUBIC = _qp(0, 4, -7, 4)


def verify_substitution_identity() -> bool:
    """Check that (x,y) -> (x-1, y*(x-1)) carries the genus-one quintic
    relation onto Y^2 + XY + Y = X^3 + X^2, exactly.

    With x = X + 1 and y = Y/X, clearing the denominator X must turn
    (x-1)y^2 + xy - x(x-1) into Y^2 + XY + Y - X^3 - X^2 times X.
    """
    X = _qp(0, 1)
    one = _qp(1)

    # F(x, y) = (x-1) y^2 + x y - x(x-1), stored as y-coefficients in x.
    f_y0 = -(X * (X - one))
    f_y1 = X
    f_y2 = X - one
    # Substitute y = Y/X and multiply by X^2:
    #   X^2 F(x, Y/X) = f_y2(x) Y^2 + f_y1(x) X Y + f_y0(x) X^2,
    # then substitute x = X + 1 in each coefficient.  The cleared powers
    # of X live in the new variable, so compose before multiplying.
    shift = _qp(1, 1)
    lhs = QuadPoly([
        f_y0.compose(shift) * X * X,
        f_y1.compose(shift) * X,
        f_y2.compose(shift),
    ])
    # X * (Y^2 + X Y + Y - X^3 - X^2), same nested layout (outer var Y).
    rhs = QuadPoly([
        X * (-(X ** 3) - X * X),
        X * (X + one),
        X,
    ])
    return lhs == rhs


def verify_weierstrass_invariants() -> dict:
    """Standard invariants of Y^2 + XY + Y = X^3 + X^2.

    Returns the computed values; `ok` is True iff the discriminant is -15
    and the j-invariant is -1/15.
    """
    a1, a2, a3, a4, a6 = 1, 1, 1, 0, 0
    b2 = Fraction(a1 * a1 + 4 * a2)
    b4 = Fraction(2 * a4 + a1 * a3)
    b6 = Fraction(a3 * a3 + 4 * a6)
    b8 = Fraction(a1 * a1 * a6 + 4 * a2 * a6 - a1 * a3 * a4 + a2 * a3 * a3 - a4 * a4)
    disc = -b2 * b2 * b8 - 8 * b4 ** 3 - 27 * b6 ** 2 + 9 * b2 * b4 * b6
    c4 = b2 * b2 - 24 * b4
    j = c4 ** 3 / disc
    return {
        "b2": b2, "b4": b4, "b6": b6, "b8": b8,
        "discriminant": disc, "c4": c4, "j": j,
        "ok": disc == -15 and j == Fraction(-1, 15),
    }


def verify_quartic_factorization() -> bool:
    """t^4 - 10t^3 - 13t^2 + 10t + 1 splits over Q(sqrt 5) with the four
    stated roots; also checks root sum 10 and root product 1."""
    prod = _qp(1)
    for r in (ALPHA, ALPHA_P, BETA, BETA_P):
        prod = prod * QuadPoly([-r, ONE])
    roots_ok = (ALPHA + ALPHA_P + BETA + BETA_P == QuadNum(10)
                and ALPHA * ALPHA_P * BETA * BETA_P == ONE
                and ALPHA * ALPHA_P == QuadNum(-1)
                and BETA * BETA_P == QuadNum(-1))
    return prod == QUARTIC and roots_ok


def verify_b_factorizations() -> bool:
    """Each B0 + r*B1 equals its stated constant times factored polynomial."""
    for root, const, squarefree, squared in B_FACTORIZATIONS:
        lhs = B0_POLY + QuadPoly.constant(root) * B1_POLY
        rhs = QuadPoly.constant(const) * squarefree * squared * squared
        if lhs != rhs:
            return False
    return True


def verify_constant_product() -> bool:
    """The four factorization constants multiply to 45 * PHI^2."""
    prod = ONE
    for _, const, _, _ in B_FACTORIZATIONS:
        prod = prod * const
    return prod == CONSTANT_PRODUCT and prod == QuadNum(45) * PHI * PHI


# Denominator normalizing B1^2 * sigma to the square root of the odd cubic:
# PSI_DENOM_CONST * (Z^2-1)(Z^2-Z+1)(Z^2-3Z+1), whose square is the
# non-cubic part of the product identity below.
PSI_DENOM_CONST = QuadNum(Fraction(15, 2), Fraction(3, 2))  # 3 sqrt5 * PHI
PSI_DENOM_POLY = _qp(-1, 0, 1) * _qp(1, -1, 1) * _qp(1, -3, 1)


def verify_square_product_identity() -> bool:
    """prod_r (B0 + r B1) = 45 PHI^2 (Z-1)^2 (Z+1)^2 (Z^2-Z+1)^2 (Z^2-3Z+1)^2
    * (4Z^3 - 7Z^2 + 4Z).

    Both sides have degree 15: the r = ALPHA_P factor of the left side
    loses its leading term since 1 + ALPHA*ALPHA_P = 0.  Equivalently,
    (B1^2/PSI_DENOM)^2 * sigma^2 equals the odd cubic, which is the
    normalization used by the numerical engine.
    """
    lhs = _qp(1)
    for r in (ALPHA, ALPHA_P, BETA, BETA_P):
        lhs = lhs * (B0_POLY + QuadPoly.constant(r) * B1_POLY)
    rhs = (QuadPoly.constant(CONSTANT_PRODUCT)
           * _qp(-1, 1) ** 2 * _qp(1, 1) ** 2 * _qp(1, -1, 1) ** 2
           * _qp(1, -3, 1) ** 2 * ODD_CUBIC)
    denom_ok = (QuadPoly.constant(PSI_DENOM_CONST * PSI_DENOM_CONST)
                * PSI_DENOM_POLY * PSI_DENOM_POLY * ODD_CUBIC == lhs)
    return lhs == rhs and denom_ok and lhs.degree == 15 and rhs.degree == 15


def verify_cubic_reduction() -> bool:
    """Substituting P = 2(Z-1)*Q + Z turns P^2 - (4Z^3 - 7Z^2 + 4Z) into
    4(Z-1) * [(Z-1)Q^2 + Z*Q - Z(Z-1)], an identity in Z and Q."""
    Z = _qp(0, 1)
    one = _qp(1)
    # Outer variable Q, inner coefficients polynomials in Z.
    p = QuadPoly([Z, (Z - one) * _qp(2)])
    lhs = p * p - QuadPoly.constant(ODD_CUBIC)
    bracket = QuadPoly([-(Z * (Z - one)), Z, Z - one])
    rhs = QuadPoly.constant(_qp(-4, 4)) * bracket
    return lhs == rhs


def exact_j_target() -> dict:
    """Exact special values at the distinguished point where Z = 0.

    There the degree-4 hauptmodul value is ALPHA_P, the square function
    vanishes, the degree-6 quotient equals (5 sqrt5 - 25)/2, and the
    j-invariant works out to 135(637 sqrt5 - 1415)/2; run_symbolic_suite
    checks both closed forms.
    """
    t = ALPHA_P
    # (t^4 - 9 t^3 - 9 t - 1) / (2 t), the square-free part of the
    # degree-6 quotient relation at sigma = 0.
    numer = t ** 4 - QuadNum(9) * t ** 3 - QuadNum(9) * t - ONE
    t5 = numer / (QuadNum(2) * t)
    j = (t5 * t5 + QuadNum(10) * t5 + QuadNum(5)) ** 3 / t5
    return {
        "tau": t,
        "tau5": t5,
        "tau5_float": float(t5),
        "j": j,
        "j_float": float(j),
    }


def run_symbolic_suite() -> dict:
    """Run all exact identity checks; returns {'identities': [...], 'ok': bool}
    plus the exact special values as floats."""
    wi = verify_weierstrass_invariants()
    tgt = exact_j_target()
    results = [
        {"identity": "substitution_identity", "ok": verify_substitution_identity()},
        {"identity": "weierstrass_discriminant",
         "ok": wi["discriminant"] == -15, "value": str(wi["discriminant"])},
        {"identity": "weierstrass_j", "ok": wi["j"] == Fraction(-1, 15),
         "value": str(wi["j"])},
        {"identity": "quartic_factorization", "ok": verify_quartic_factorization()},
        {"identity": "b_factorizations", "ok": verify_b_factorizations()},
        {"identity": "constant_product", "ok": verify_constant_product()},
        {"identity": "square_product_identity", "ok": verify_square_product_identity()},
        {"identity": "cubic_reduction", "ok": verify_cubic_reduction()},
        {"identity": "special_tau5",
         "ok": tgt["tau5"] == QuadNum(Fraction(-25, 2), Fraction(5, 2)),
         "value": str(tgt["tau5"])},
        {"identity": "special_j",
         "ok": tgt["j"] == QuadNum(Fraction(-191025, 2), Fraction(85995, 2)),
         "value": str(tgt["j"])},
    ]
    return {
        "identities": results,
        "ok": all(r["ok"] for r in results),
        "special_point": {
            "tau": str(tgt["tau"]),
            "tau5": tgt["tau5_float"],
            "j_target": tgt["j_float"],
        },
    }
