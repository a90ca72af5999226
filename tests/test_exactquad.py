"""Exact arithmetic and identity checks, with pointwise oracles.

Polynomial identities are cross-checked by exact evaluation at more
rational points than the degree, which is an independent route that does
not rely on the polynomial-multiplication code under test.
"""

from __future__ import annotations

import os
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
