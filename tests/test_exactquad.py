"""Exact arithmetic and identity checks, with pointwise oracles.

Polynomial identities are cross-checked by exact evaluation at more
rational points than the degree, which is an independent route that does
not rely on the polynomial-multiplication code under test.
"""

from __future__ import annotations

import math
import os
import pickle
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetapath.exactquad import (
    ALPHA, ALPHA_P, B0_POLY, B1_POLY, B_FACTORIZATIONS, BETA, BETA_P,
    C_POLY, CONSTANT_PRODUCT, D_POLY, GAMMA, DELTA, ODD_CUBIC, ONE, PHI,
    PSI_DENOM_CONST, PSI_DENOM_POLY, QUARTIC, QuadNum, QuadPoly, SQRT5,
    exact_j_target, run_symbolic_suite, verify_b_factorizations,
    verify_constant_product, verify_cubic_reduction,
    verify_quartic_factorization, verify_square_product_identity,
    verify_substitution_identity, verify_weierstrass_invariants,
)

rationals = st.fractions(min_value=-1000, max_value=1000, max_denominator=50)
quadnums = st.builds(QuadNum, rationals, rationals)


@given(quadnums, quadnums, quadnums)
@settings(max_examples=200)
def test_ring_axioms(x, y, z):
    assert (x * y) * z == x * (y * z)
    assert x * (y + z) == x * y + x * z
    assert x + y == y + x
    assert x * y == y * x


@given(quadnums, quadnums)
@settings(max_examples=200)
def test_conjugation_and_norm(x, y):
    assert (x * y).conjugate() == x.conjugate() * y.conjugate()
    assert (x * y).norm() == x.norm() * y.norm()
    assert x * x.conjugate() == QuadNum(x.norm())


@given(quadnums, quadnums)
@settings(max_examples=200)
def test_division(x, y):
    if y:
        assert (x / y) * y == x
    if x and y:
        assert 1 / (x * y) == (1 / y) * (1 / x)


class PairModel:
    """Reference model: a + b*sqrt(5) as a plain pair of Fractions."""

    def __init__(self, a, b=0):
        self.a, self.b = Fraction(a), Fraction(b)

    def __add__(self, o):
        return PairModel(self.a + o.a, self.b + o.b)

    def __sub__(self, o):
        return PairModel(self.a - o.a, self.b - o.b)

    def __mul__(self, o):
        return PairModel(self.a * o.a + 5 * self.b * o.b,
                         self.a * o.b + self.b * o.a)

    def __truediv__(self, o):
        n = o.norm()
        return PairModel((self.a * o.a - 5 * self.b * o.b) / n,
                         (self.b * o.a - self.a * o.b) / n)

    def __neg__(self):
        return PairModel(-self.a, -self.b)

    def conjugate(self):
        return PairModel(self.a, -self.b)

    def norm(self):
        return self.a * self.a - 5 * self.b * self.b

    def __str__(self):
        return f"{self.a} + {self.b}*sqrt5"


def _agrees(x, model):
    """x holds the model's value, reads it back, and is in lowest terms:
    equal, with an equal hash, to the QuadNum built from the model's pair."""
    fresh = QuadNum(model.a, model.b)
    return (x.a == model.a and x.b == model.b and str(x) == str(model)
            and x == fresh and hash(x) == hash(fresh)
            and bool(x) == bool(model.a or model.b))


pairs = st.tuples(rationals, rationals)
scalars = st.one_of(st.integers(-1000, 1000), rationals)


@given(pairs, pairs, scalars)
@settings(max_examples=300)
def test_integer_quadnum_matches_the_pair_of_fractions_model(xp, yp, k):
    x, y = QuadNum(*xp), QuadNum(*yp)
    mx, my, mk = PairModel(*xp), PairModel(*yp), PairModel(k)
    assert _agrees(x, mx) and _agrees(y, my)
    assert _agrees(x + y, mx + my) and _agrees(x - y, mx - my)
    assert _agrees(x * y, mx * my) and _agrees(-x, -mx)
    assert _agrees(x.conjugate(), mx.conjugate()) and x.norm() == mx.norm()
    assert _agrees(x ** 3, mx * mx * mx)
    # an int or Fraction on either side
    assert _agrees(x + k, mx + mk) and _agrees(k + x, mk + mx)
    assert _agrees(x - k, mx - mk) and _agrees(k - x, mk - mx)
    assert _agrees(x * k, mx * mk) and _agrees(k * x, mk * mx)
    if y:
        assert _agrees(x / y, mx / my) and _agrees(k / y, mk / my)
    if k:
        assert _agrees(x / k, mx / mk)
    assert (x == y) == (mx.a == my.a and mx.b == my.b)


def test_construction_normalises():
    half = QuadNum(Fraction(2, 4))
    assert half == QuadNum(Fraction(1, 2)) and hash(half) == hash(QuadNum(Fraction(1, 2)))
    assert QuadNum(Fraction(-3, 6), Fraction(5, 10)) == ALPHA_P
    assert PHI + PHI == QuadNum(1, 1) and hash(PHI + PHI) == hash(QuadNum(1, 1))
    assert PHI - PHI == QuadNum() and hash(PHI - PHI) == hash(QuadNum(0))
    assert (PHI / PHI).a == 1 and (PHI / PHI).b == 0
    assert QuadNum(b=Fraction(6, 4)).b == Fraction(3, 2)


def test_quadnum_surface():
    for bad in (0.5, "1", None, 1j):
        with pytest.raises(TypeError):
            QuadNum(bad)
        with pytest.raises(TypeError):
            QuadNum(1, bad)
        with pytest.raises(TypeError):
            PHI + bad
    with pytest.raises(AttributeError):
        PHI.a = Fraction(1)
    with pytest.raises(ZeroDivisionError):
        PHI / QuadNum()
    # equal only to a QuadNum
    assert QuadNum(1) != 1 and ONE != Fraction(1) and ONE == QuadNum(1)
    assert isinstance(PHI.a, Fraction) and isinstance(PHI.norm(), Fraction)
    assert complex(PHI) == complex(float(PHI))
    assert pickle.loads(pickle.dumps(PHI)) == PHI


def test_int_minus_quadnum():
    assert 1 - PHI == -ALPHA_P == PHI.conjugate()
    assert 1 - PHI == -(PHI - 1)
    assert Fraction(1, 2) - SQRT5 == QuadNum(Fraction(1, 2), -1)


def _sign(u, v):
    """Sign of u + v*sqrt(5) for Fractions u, v, exactly."""
    su, sv = (u > 0) - (u < 0), (v > 0) - (v < 0)
    if su * sv >= 0:
        return su or sv
    return su if u * u > 5 * v * v else sv


def _correctly_rounded(x, f):
    """f is the double nearest x: x lies strictly between the midpoints
    from f to its two neighbours (an irrational x never meets a midpoint),
    compared in exact Fraction arithmetic."""
    below = (Fraction(f) + Fraction(math.nextafter(f, -math.inf))) / 2
    above = (Fraction(f) + Fraction(math.nextafter(f, math.inf))) / 2
    return _sign(x.a - below, x.b) > 0 and _sign(x.a - above, x.b) < 0


# inverse golden powers: a + b*sqrt(5) with a and b nearly cancelling
cancelling = st.integers(0, 80).map(lambda n: ONE / PHI ** n)


@given(st.one_of(quadnums, cancelling, cancelling.map(lambda x: -x)))
@settings(max_examples=300)
def test_float_is_correctly_rounded(x):
    f = float(x)
    if x.b:
        assert _correctly_rounded(x, f)
    else:
        assert f == float(x.a)


def test_float_of_the_engine_constants():
    # each cancelled to several ulps when formed as float(a) + float(b)*sqrt(5)
    j = exact_j_target()["j"]
    expected = {
        B1_POLY.coeffs[1]: "0x1.e3779b97f4a7cp-3",
        B1_POLY.coeffs[2]: "0x1.255992d382209p+0",
        BETA: "-0x1.715609f7c746cp-4",
        j: "0x1.3c6a9b3d6d28ep+9",
    }
    for x, hexval in expected.items():
        assert float(x).hex() == hexval
        assert _correctly_rounded(x, float(x))
    assert _correctly_rounded(ONE / PHI ** 30, float(ONE / PHI ** 30))


def test_float_embedding():
    assert float(SQRT5) == pytest.approx(5 ** 0.5, rel=1e-15)
    assert float(PHI) == pytest.approx((1 + 5 ** 0.5) / 2, rel=1e-15)
    # real embedding is positive for sqrt5
    assert float(SQRT5) > 0


def test_fundamental_unit_powers():
    # PHI is a unit: norm -1; PHI^2 = PHI + 1
    assert PHI.norm() == -1
    assert PHI * PHI == PHI + ONE


def test_weierstrass_invariants():
    wi = verify_weierstrass_invariants()
    assert wi["b2"] == 5 and wi["b4"] == 1 and wi["b6"] == 1 and wi["b8"] == 1
    assert wi["discriminant"] == -15
    assert wi["c4"] == 1
    assert wi["j"] == Fraction(-1, 15)
    assert wi["ok"]


def test_substitution_identity():
    assert verify_substitution_identity()


def test_quartic_factorization():
    assert verify_quartic_factorization()
    # root bookkeeping
    assert ALPHA + ALPHA_P + BETA + BETA_P == QuadNum(10)
    assert ALPHA * ALPHA_P * BETA * BETA_P == ONE
    # each claimed root kills the quartic, checked by direct Horner
    for r in (ALPHA, ALPHA_P, BETA, BETA_P):
        assert not QUARTIC(r)


SAMPLE_POINTS = [QuadNum(Fraction(k, 7), Fraction(j, 11))
                 for k in range(-8, 9, 2) for j in (0, 1)]


@pytest.mark.parametrize("root,const,squarefree,squared", B_FACTORIZATIONS)
def test_b_factorization_pointwise(root, const, squarefree, squared):
    # evaluation oracle at 18 points, more than the degree
    for x in SAMPLE_POINTS:
        lhs = B0_POLY(x) + root * B1_POLY(x)
        rhs = const * squarefree(x) * squared(x) * squared(x)
        assert lhs == rhs


def test_b_factorizations():
    assert verify_b_factorizations()


def test_constant_product():
    assert verify_constant_product()
    assert float(CONSTANT_PRODUCT) == pytest.approx(117.81152949374527, rel=1e-14)
    # conjugation balances the identity as well
    prod = ONE
    for _, const, _, _ in B_FACTORIZATIONS:
        prod = prod * const.conjugate()
    assert prod == CONSTANT_PRODUCT.conjugate()


def test_square_product_identity():
    assert verify_square_product_identity()


def test_square_product_pointwise():
    # independent evaluation oracle for the degree-15 identity
    for x in SAMPLE_POINTS:
        lhs = ONE
        for r in (ALPHA, ALPHA_P, BETA, BETA_P):
            lhs = lhs * (B0_POLY(x) + r * B1_POLY(x))
        rhs = (CONSTANT_PRODUCT * (x - ONE) ** 2 * (x + ONE) ** 2
               * (x * x - x + ONE) ** 2
               * (x * x - QuadNum(3) * x + ONE) ** 2
               * (QuadNum(4) * x ** 3 - QuadNum(7) * x * x + QuadNum(4) * x))
        assert lhs == rhs


def test_square_product_degree():
    lhs = QuadPoly([ONE])
    for r in (ALPHA, ALPHA_P, BETA, BETA_P):
        lhs = lhs * (B0_POLY + QuadPoly.constant(r) * B1_POLY)
    # the ALPHA_P factor drops to degree 3, so the product has degree 15
    assert (B0_POLY + QuadPoly.constant(ALPHA_P) * B1_POLY).degree == 3
    assert lhs.degree == 15


def test_psi_denominator_square():
    sq = (QuadPoly.constant(PSI_DENOM_CONST * PSI_DENOM_CONST)
          * PSI_DENOM_POLY * PSI_DENOM_POLY * ODD_CUBIC)
    lhs = QuadPoly([ONE])
    for r in (ALPHA, ALPHA_P, BETA, BETA_P):
        lhs = lhs * (B0_POLY + QuadPoly.constant(r) * B1_POLY)
    assert sq == lhs


def test_cubic_reduction():
    assert verify_cubic_reduction()
    # hand-checked point: Q=1, Z=2 gives 4 on both sides
    Z, Q = QuadNum(2), ONE
    psi = 2 * (Z - ONE) * Q + Z
    lhs = psi * psi - (QuadNum(4) * Z ** 3 - QuadNum(7) * Z * Z + QuadNum(4) * Z)
    rhs = QuadNum(4) * (Z - ONE) * ((Z - ONE) * Q * Q + Z * Q - Z * (Z - ONE))
    assert lhs == rhs == QuadNum(4)


def test_exact_j_target():
    tgt = exact_j_target()
    assert tgt["tau"] == ALPHA_P
    assert tgt["tau5"] == QuadNum(Fraction(-25, 2), Fraction(5, 2))
    assert tgt["j"] == QuadNum(Fraction(-191025, 2), Fraction(85995, 2))
    # the special point sits strictly inside the j-range of the seed arc
    assert 0 < tgt["j_float"] < 1728
    # float recomputation of j from the float tau5 agrees
    t5 = tgt["tau5_float"]
    assert tgt["j_float"] == pytest.approx((t5 * t5 + 10 * t5 + 5) ** 3 / t5, rel=1e-13)
    # the quartic vanishes at tau, consistent with sigma = 0 there
    assert not QUARTIC(tgt["tau"])


def test_gamma_delta_values():
    assert GAMMA == QuadNum(Fraction(-1, 2), Fraction(-21, 50))
    assert DELTA == QuadNum(Fraction(-1, 10), Fraction(-3, 50))


def test_coefficient_tables_are_palindromic():
    # z^4 B(1/z) = B(z): both roots Z, 1/Z of the branch quadratic satisfy
    # the side constraint B1(Z) tau + B0(Z) = 0 alike, so only continuity
    # can select the branch
    assert B0_POLY.coeffs == B0_POLY.coeffs[::-1]
    assert B1_POLY.coeffs == B1_POLY.coeffs[::-1]
    assert B0_POLY.degree == B1_POLY.degree == 4
    assert C_POLY.degree == 4 and D_POLY.degree == 6


def test_run_symbolic_suite():
    r = run_symbolic_suite()
    assert r["ok"]
    assert len(r["identities"]) == 10
    assert all(item["ok"] for item in r["identities"])
    assert r["special_point"]["j_target"] == pytest.approx(632.8328625472187, abs=1e-10)


def test_special_point_checks_survive_python_O():
    # the special values are checked by the suite itself, not by asserts
    # that -O strips: a wrong hauptmodul value must fail both entries
    code = (
        "import zetapath.exactquad as q\n"
        "assert not __debug__\n"
        "names = lambda r: {i['identity']: i['ok'] for i in r['identities']}\n"
        "r = q.run_symbolic_suite()\n"
        "assert r['ok'] and names(r)['special_tau5'] and names(r)['special_j']\n"
        "q.ALPHA_P = q.QuadNum(2)\n"
        "r = q.run_symbolic_suite()\n"
        "print(r['ok'], names(r)['special_tau5'], names(r)['special_j'])\n")
    src = str(Path(__file__).resolve().parents[1] / "src")
    out = subprocess.run([sys.executable, "-O", "-c", code], check=True,
                         capture_output=True, text=True,
                         env={**os.environ, "PYTHONPATH": src})
    assert out.stdout.split() == ["False", "False", "False"]
