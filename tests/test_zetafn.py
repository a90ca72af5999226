"""Zeta evaluator tests: classical values, frozen high-precision spot
checks, zero finding against the packaged reference table, file parsing."""

import cmath
import itertools
import math
import os
import random
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from zetapath import zetafn
from zetapath.errors import (
    MissedZero, MonotonicityError, NearPole, ParseError, PoleAtOne,
)
from zetapath.zetafn import (
    MAX_ZEROS, ZeroList, ZetaDisc, find_zeros, hardy_z, load_zeros,
    reference_zeros, reflects, rs_theta, zeta, zeta_with_prime,
)

# Spot values frozen from an independent arbitrary-precision run.
FROZEN = {
    (0.5 + 14.134j): complex(0.00009058656819553876843227, -0.0005679405478698981329),
    (2.0 - 5.0j): complex(0.8509629436242629572109, -0.09899694613483134722718),
    (0.5 + 99.9j): complex(2.625915652433530066647, 0.34535790585491550509),
    (0.5 + 700.0j): complex(-0.1694958606946157628982, -0.9319151291422189328176),
    (10.0 + 0.1j): complex(1.000992117172878865776, -0.00006964485373840967872758),
    (-3.27 + 18.22j): complex(60.089751945659482, 0.21156039720588328),
    (-5.0 + 14.1j): complex(-17.576284738757568, -94.166159725623206),
    (-2.5 + 0.0j): complex(0.0085169287778503305, 0.0),
    (0.39 + 9.0j): complex(1.4748764057498069, 0.21148226057916492),
    (0.41 + 9.0j): complex(1.4698276809039117, 0.20776583801384435),
}

# larger left-plane values are only meaningful relatively
FROZEN_RELATIVE = {
    (-12.0 + 18.0j): complex(-922836.70539172833, -847051.71058488051),
    (-20.0 + 33.0j): complex(-1379605572594456.1, -1332872259635045.6),
}


def test_frozen_spot_values():
    for s, ref in FROZEN.items():
        assert abs(zeta(s) - ref) < 1e-12, s


def test_frozen_left_plane_relative():
    for s, ref in FROZEN_RELATIVE.items():
        assert abs(zeta(s) - ref) / abs(ref) < 1e-12, s


def test_trivial_zeros():
    for k in (2.0, 4.0, 6.0, 8.0):
        assert abs(zeta(complex(-k, 0.0))) < 1e-13


def test_left_plane_derivative():
    ref = complex(-46.858953538477582, -6.8347720425864007)
    s = complex(-3.0, 18.2)
    assert abs(zeta_with_prime(s)[1] - ref) / abs(ref) < 1e-12
    h = 1e-6
    fd = (zeta(s + h) - zeta(s - h)) / (2.0 * h)
    assert abs(zeta_with_prime(s)[1] - fd) / abs(ref) < 1e-7
    assert abs(zeta(s.conjugate()) - zeta(s).conjugate()) < 1e-12


def test_classical_values():
    assert abs(zeta(2.0) - math.pi ** 2 / 6.0) < 1e-12
    assert abs(zeta(0.0) + 0.5) < 1e-12
    assert abs(zeta(-1.0) + 1.0 / 12.0) < 1e-12
    assert abs(zeta(4.0) - math.pi ** 4 / 90.0) < 1e-12
    assert abs(zeta_with_prime(0.0)[1] + 0.5 * math.log(2.0 * math.pi)) < 1e-12


def test_derivative_against_finite_difference():
    s = 2.0 + 3.0j
    h = 1e-6
    fd = (zeta(s + h) - zeta(s - h)) / (2.0 * h)
    assert abs(zeta_with_prime(s)[1] - fd) < 1e-8


def test_shared_pass_matches_separate_calls():
    s = 0.3 + 41.7j
    v, vp = zeta_with_prime(s)
    assert v == zeta(s)
    assert vp == zeta_with_prime(s)[1]


def test_conjugation_symmetry():
    rng = random.Random(10)
    for _ in range(20):
        s = complex(rng.uniform(-0.5, 3.0), rng.uniform(0.5, 120.0))
        assert abs(zeta(s.conjugate()) - zeta(s).conjugate()) < 1e-12


def test_truncation_point_convergence(monkeypatch):
    points = (0.5 + 30.0j, 1.7 + 111.0j, -0.4 + 9.0j)
    at_default = [zeta(s) for s in points]
    term_count = zetafn._term_count
    monkeypatch.setattr(zetafn, "_term_count", lambda s: term_count(s) + 10)
    for s, ref in zip(points, at_default):
        assert abs(zeta(s) - ref) < 1e-12


def test_truncation_point_rule():
    assert zetafn._term_count(0.5 + 14.13j) == 20
    assert zetafn._term_count(0.5 + 541.8j) == 165
    assert zetafn._term_count(0.5 - 541.8j) == 165
    # the ln n table grows to the truncation point the first time it is met
    zeta(0.5 + 1300j)
    assert zetafn._term_count(0.5 + 1300j) <= len(zetafn._LN)


def test_truncation_past_the_log_table(monkeypatch):
    s = 0.5 + 30.0j
    at_default = zeta(s)
    n = len(zetafn._LN) + 50
    monkeypatch.setattr(zetafn, "_term_count", lambda _: n)
    assert abs(zeta(s) - at_default) < 1e-12
    # the table grew to N, rebound rather than built per call
    table = zetafn._LN
    assert len(table) == n
    assert table[0] == 0.0
    assert all(table[k] == math.log(k) for k in range(1, n))
    zeta(s)
    assert zetafn._LN is table


# B_2..B_30 as they were typed in before the tangent-number generator.
TYPED_BERNOULLI = (
    Fraction(1, 6), Fraction(-1, 30), Fraction(1, 42), Fraction(-1, 30),
    Fraction(5, 66), Fraction(-691, 2730), Fraction(7, 6),
    Fraction(-3617, 510), Fraction(43867, 798), Fraction(-174611, 330),
    Fraction(854513, 138), Fraction(-236364091, 2730), Fraction(8553103, 6),
    Fraction(-23749461029, 870), Fraction(8615841276005, 14322),
)


def test_bernoulli_generator_reproduces_the_typed_values():
    assert zetafn._bernoulli_even(15) == TYPED_BERNOULLI
    assert zetafn._BERNOULLI[:15] == TYPED_BERNOULLI
    assert len(zetafn._EM_COEFFS) == 25


def test_bernoulli_generator_satisfies_the_defining_recurrence():
    # sum_{k=0}^{n} C(n+1, k) B_k = 0 for n >= 1, exactly
    even = zetafn._bernoulli_even(25)
    b = [Fraction(1), Fraction(-1, 2)] + [Fraction(0)] * 49
    for j, value in enumerate(even, start=1):
        b[2 * j] = value
    for n in range(1, 51):
        assert sum(math.comb(n + 1, k) * b[k] for k in range(n + 1)) == 0, n


def _exact_correction(n, s):
    """(P, P') of the correction series sum_j c_j n^(-2j) s(s+1)...(s+2j-2)
    term by term in exact rationals, s taken exactly from its floats."""
    sr, si = Fraction(s.real), Fraction(s.imag)
    # the rising product R and its derivative D, as (re, im) pairs
    rr, ri, dr, di = sr, si, Fraction(1), Fraction(0)
    pr = pi = qr = qi = Fraction(0)
    for j, c in enumerate(zetafn._EM_COEFFS, start=1):
        if j > 1:
            for k in (2 * j - 3, 2 * j - 2):
                fr = sr + k
                dr, di = dr * fr - di * si + rr, dr * si + di * fr + ri
                rr, ri = rr * fr - ri * si, rr * si + ri * fr
        w = c / Fraction(n) ** (2 * j)
        pr, pi, qr, qi = pr + w * rr, pi + w * ri, qr + w * dr, qi + w * di
    return complex(pr, pi), complex(qr, qi)


@pytest.mark.parametrize("n", [20, 32, 95, 165, 450])
def test_horner_correction_matches_the_term_by_term_series(n):
    poly = zetafn._em_poly(n)
    assert len(poly) == 50
    top = 2.0 * math.pi * (n - 10) / 1.8      # the top of n's height band
    for re in (0.4, 1.5, 30.0):
        for im in (top, 5.0, -5.0, -top):
            s = complex(re, im)
            p = dp = 0j
            for a in poly:                    # as _zeta_em evaluates it
                dp = dp * s + p
                p = p * s + a
            ref_p, ref_dp = _exact_correction(n, s)
            assert abs(p - ref_p) <= 1e-15 * abs(ref_p), s
            assert abs(dp - ref_dp) <= 1e-15 * abs(ref_dp), s


@pytest.mark.parametrize("c", [0.5 + 14.13j, 0.7 - 40.0j, 0.5 + 541.8j,
                               0.05 + 0.0j, 1.05 + 0.0j, -2.0 + 1.0j])
def test_correction_taylor_reproduces_the_polynomial_on_the_disc(c):
    # the kept leading coefficients and orders of P_N about c must give
    # P_N on the whole disc |u - c| <= R to the tolerance they were cut at
    n = zetafn._term_count(complex(0.0, abs(c.imag) + zetafn._DISC_RADIUS))
    tol = 1e-17
    coeffs = zetafn._correction_taylor(n, c, 30, tol)
    assert len(coeffs) < 12
    poly = zetafn._em_poly(n)
    for k in range(8):
        d = zetafn._DISC_RADIUS * complex(math.cos(k), math.sin(k))
        p = 0j
        for a in poly:
            p = p * (c + d) + a
        taylor = sum(a * d ** j for j, a in enumerate(coeffs))
        assert abs(taylor - p) < tol + 1e-15 * abs(p), (c, d)


def test_log_gamma_taylor_matches_mpmath_polygamma(monkeypatch):
    mpmath = pytest.importorskip("mpmath")
    radius = zetafn._DISC_RADIUS
    chi = zetafn._chi
    orders = []

    def recording_chi(s, order=0):
        orders.append(order)
        return chi(s, order)
    monkeypatch.setattr(zetafn, "_chi", recording_chi)
    with mpmath.workdps(30):
        for z in (0.7 - 40.0j, 3.0 + 0.0j, 0.65 + 0.3j, 0.6 - 541.8j,
                  2.2 - 40.0j, 2.15 + 0.6j, 2.11 - 541.8j):
            q = zetafn._log_gamma(z, 20)[1:]
            for k, qk in enumerate(q, start=1):
                ref = complex(mpmath.psi(k - 1, z) / mpmath.factorial(k))
                assert abs(qk - ref) * radius ** k < 1e-16, (z, k)
        # a disc centred where s = 1 - z reflects (Re z > 2) takes
        # q_1..q_K about z from _chi; the next term is below the tolerance
        # the series stopped at, _DISC_TOL over the disc's bound on its
        # sum and tail
        for z in (2.2 - 40.0j, 3.0 + 0.0j, 2.15 + 0.6j, 2.11 - 541.8j):
            assert reflects(1.0 - z)
            zeta_with_prime(1.0 - z, ZetaDisc())
            order = orders[-1]
            n_cut = zetafn._term_count(complex(0.0, abs(z.imag) + radius))
            size = (sum(n ** -z.real for n in range(1, n_cut))
                    + n_cut ** (1.0 - z.real))
            ref = complex(mpmath.psi(order, z) / mpmath.factorial(order + 1))
            tol = zetafn._DISC_TOL / size
            assert abs(ref) * radius ** (order + 1) < tol, (z, order)


def test_correction_polynomials_are_built_on_first_use():
    # building the polynomials for N = 20..229 takes ~60 ms, more than the
    # rest of an import; a fresh interpreter must start with none
    code = ("import zetapath.zetafn as z; assert z._EM_POLYS == {}; "
            "z.zeta(0.5 + 14.13j); assert list(z._EM_POLYS) == [20]")
    src = str(Path(__file__).resolve().parents[1] / "src")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


def test_zeta_matches_mpmath_on_a_seeded_panel():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(2011)
    points = [complex(rng.uniform(-0.5, 3.0), rng.uniform(10.0, 700.0))
              for _ in range(400)]
    # and, from the same generator, points left of the reflection line
    points += [complex(rng.uniform(-2.0, -1.0), rng.uniform(10.0, 700.0))
               for _ in range(40)]
    assert any(map(reflects, points)) and not all(map(reflects, points))
    with mpmath.workdps(30):
        for s in points:
            val, der = zeta_with_prime(s)
            ref_val = complex(mpmath.zeta(s))
            ref_der = complex(mpmath.zeta(s, derivative=1))
            assert abs(val - ref_val) < 1e-12 * max(1.0, abs(ref_val)), s
            assert abs(der - ref_der) < 1e-12 * max(1.0, abs(ref_der)), s


# The four points of the 4000-point panel (seeds 0-9, drawn as the panel
# above) where the disc-less evaluation misses 1e-12, all direct and above
# Im s = 450, and their measured errors (value, derivative; relative where
# |zeta| >= 1): the phase-rounding floor that README's contract
# documents.
FLOOR_POINTS = [
    (0.1525753110801975 + 672.8619536125639j, 1.215e-12, 8.34e-13),
    (0.24061271749730695 + 653.813471607747j, 1.019e-12, 7.38e-13),
    (0.5868658594052902 + 465.7628128314928j, 3.45e-13, 1.192e-12),
    (0.5151661737870725 + 692.7874141365313j, 2.37e-13, 1.113e-12),
]


def test_documented_floor_points_stay_at_their_measured_error():
    # the floor may shrink, but no change widens it unnoticed
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for s, err_val, err_der in FLOOR_POINTS:
            assert not reflects(s)
            val, der = zeta_with_prime(s)
            ref_val = complex(mpmath.zeta(s))
            ref_der = complex(mpmath.zeta(s, derivative=1))
            assert abs(val - ref_val) <= err_val * max(1.0, abs(ref_val)), s
            assert abs(der - ref_der) <= err_der * max(1.0, abs(ref_der)), s


def _disc_pairs(seed, *draws):
    """(s0, s): a disc centre s0 and a point s on the same side of
    `reflects` within the disc's radius.  For each (centre, count) of
    draws in turn, count pairs with s0 drawn by `centre(rng)`, all from
    one generator seeded with seed."""
    rng = random.Random(seed)
    pairs = []
    for centre, count in draws:
        drawn = len(pairs) + count
        while len(pairs) < drawn:
            s0 = centre(rng)
            radius = rng.uniform(0.0, zetafn._DISC_RADIUS)
            angle = rng.uniform(0.0, 2.0 * math.pi)
            s = s0 + radius * complex(math.cos(angle), math.sin(angle))
            if reflects(s) == reflects(s0):
                pairs.append((s0, s))
    assert any(reflects(s) for _, s in pairs)
    assert not all(reflects(s) for _, s in pairs)
    return pairs


def _strip_centre(rng):
    """A centre with -0.5 <= Re s0 <= 1.5 and 14 <= Im s0 <= 620."""
    return complex(rng.uniform(-0.5, 1.5), rng.uniform(14.0, 620.0))


def _left_centre(rng):
    """A centre with -1.6 <= Re s0 <= -1.1 and 14 <= Im s0 <= 620, so
    that every point within R of it reflects."""
    return complex(rng.uniform(-1.6, -1.1), rng.uniform(14.0, 620.0))


def _line_centre(rng):
    """A centre within R of the reflection line Re s = -1, with
    0 <= Im s0 <= 14."""
    radius = zetafn._DISC_RADIUS
    return complex(rng.uniform(-1.0 - radius, -1.0 + radius),
                   rng.uniform(0.0, 14.0))


def _low_centre(rng):
    """A centre with -2 <= Re s0 <= 3 and 0 <= Im s0 <= 14: one in three
    within R of the pole at s = 1, one in three by |s| = 1/2, about the
    origin, the rest anywhere in the box."""
    kind = rng.randrange(3)
    if kind == 0:
        return complex(rng.uniform(-2.0, 3.0), rng.uniform(0.0, 14.0))
    radius = rng.uniform(0.0, zetafn._DISC_RADIUS)
    around = 1.0
    if kind == 2:
        radius += 0.5 - 0.5 * zetafn._DISC_RADIUS
        around = 0.0
    angle = rng.uniform(0.0, math.pi)
    return around + radius * complex(math.cos(angle), math.sin(angle))


def _disc_eval(s0, s):
    disc = ZetaDisc()
    zeta_with_prime(s0, disc)
    val, der = zeta_with_prime(s, disc)
    assert disc.centres == 1
    return val, der


def _assert_matches_mpmath(mpmath, pairs):
    """Each s of pairs within 1e-12 of mpmath at 30 digits (relative
    where |zeta| >= 1), in value and derivative, without a disc and
    through a disc centred at s0, but for the documented floor above
    Im s = 450: at most one point where the disc-less evaluation misses,
    and the disc, which shares the floor, adds nothing to it there."""
    floor = []
    with mpmath.workdps(30):
        for s0, s in pairs:
            ref_val = complex(mpmath.zeta(s))
            ref_der = complex(mpmath.zeta(s, derivative=1))
            tol_val = 1e-12 * max(1.0, abs(ref_val))
            tol_der = 1e-12 * max(1.0, abs(ref_der))
            val, der = _disc_eval(s0, s)
            err_val, err_der = abs(val - ref_val), abs(der - ref_der)
            direct_val, direct_der = zeta_with_prime(s)
            direct_err_val = abs(direct_val - ref_val)
            direct_err_der = abs(direct_der - ref_der)
            if direct_err_val < tol_val and direct_err_der < tol_der:
                assert err_val < tol_val and err_der < tol_der, (s0, s)
            else:
                floor.append(s)
                assert err_val < direct_err_val + 0.05 * tol_val, (s0, s)
                assert err_der < direct_err_der + 0.05 * tol_der, (s0, s)
    assert len(floor) <= 1 and all(s.imag > 450.0 for s in floor)


def test_disc_matches_mpmath_on_a_seeded_panel():
    mpmath = pytest.importorskip("mpmath")
    _assert_matches_mpmath(mpmath, _disc_pairs(
        1979, (_strip_centre, 208), (_left_centre, 40)))


def test_direct_series_holds_the_contract_down_to_the_reflection_line():
    # the curve at _REFLECT_RE, pinned: a seeded panel over -1 <= Re s
    # < 0.4, where the direct series' summands outgrow the value most,
    # Im s in [0, 700], and points within 1e-3 of the line on each side,
    # each through a disc centred within R of it on the same side too
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(1698)
    line, radius = zetafn._REFLECT_RE, zetafn._DISC_RADIUS
    points = [complex(rng.uniform(line, 0.4), rng.uniform(0.0, 700.0))
              for _ in range(300)]
    for side in (-1.0, 1.0):
        points += [complex(line + side * rng.uniform(1e-9, 1e-3),
                           rng.uniform(0.0, 700.0)) for _ in range(20)]
    assert sum(map(reflects, points)) == 20
    pairs = []
    for s in points:
        s0 = s
        while s0 == s or reflects(s0) != reflects(s):
            s0 = s + rng.uniform(0.0, radius) * cmath.exp(
                1j * rng.uniform(0.0, 2.0 * math.pi))
        pairs.append((s0, s))
    _assert_matches_mpmath(mpmath, pairs)


def test_disc_agrees_with_the_direct_evaluation():
    for s0, s in _disc_pairs(2010, (_strip_centre, 302),
                             (_left_centre, 60)):
        val, der = _disc_eval(s0, s)
        ref_val, ref_der = zeta_with_prime(s)
        assert abs(val - ref_val) < 2e-12 * max(1.0, abs(ref_val)), s
        assert abs(der - ref_der) < 2e-12 * max(1.0, abs(ref_der)), s


def test_disc_agrees_with_the_direct_evaluation_at_low_height():
    # the disc about a centre within R of s = 1 contains the pole of
    # N^(1-u)/(u - 1): at (1.05, 0.96) a geometric series in 1/(u - 1)
    # about the centre diverges; about -2 the reflection factor vanishes;
    # from Re u ~ 12 (u = s, or 1 - s where s reflects) every term of P_N
    # is below the tolerance it is cut at, and only its constant is kept;
    # by the reflection line Re s = -1 both branches meet
    pairs = [(1.05 + 0.0j, 0.96 + 0.0j), (0.95 + 0.0j, 1.0 + 1e-9j),
             (-2.0 + 0.0j, -1.95 + 0.02j), (-1.95 + 0.0j, -2.0 + 0.0j),
             (13.0 + 0.0j, 13.05 + 0.02j), (-12.0 + 0.0j, -12.05 + 0.03j),
             (20.0 + 0.0j, 19.93 - 0.05j), (-30.0 + 3.0j, -30.02 + 3.06j)]
    pairs += _disc_pairs(1859, (_low_centre, 440), (_line_centre, 60))
    assert any(abs(s0 - 1.0) < zetafn._DISC_RADIUS for s0, _ in pairs[8:])
    assert any(abs(abs(s) - 0.5) < 0.02 for _, s in pairs)
    for side in (False, True):
        assert any(abs(s.real + 1.0) < 0.02 and reflects(s) == side
                   for _, s in pairs)
    for s0, s in pairs:
        val, der = _disc_eval(s0, s)
        ref_val, ref_der = zeta_with_prime(s)
        assert abs(val - ref_val) < 2e-12 * max(1.0, abs(ref_val)), (s0, s)
        assert abs(der - ref_der) < 2e-12 * max(1.0, abs(ref_der)), (s0, s)


def test_disc_agrees_with_the_direct_evaluation_far_right():
    # past Re c ~ 250 the weight |N^(1-c)| e^(R ln N) that P_N's tolerance
    # is divided by underflows to 0, and P_N forms no orders there
    for s in (260 + 14j, 300 + 14j, 1000 + 14j, 260 + 500j):
        val, der = zeta_with_prime(s, ZetaDisc())
        ref_val, ref_der = zeta_with_prime(s)
        assert abs(val - ref_val) < 2e-12 * max(1.0, abs(ref_val)), s
        assert abs(der - ref_der) < 2e-12 * max(1.0, abs(ref_der)), s


def test_disc_evaluates_without_the_euler_maclaurin_finish(monkeypatch):
    # the disc expands the whole approximant and log Gamma: once it is
    # centred, an evaluation in it runs neither _zeta_em nor _chi
    points = (0.5 + 77.1j, 0.3 + 77.1j, -1.3 + 77.1j)
    refs = [zeta_with_prime(s + 0.05j) for s in points]
    discs = [ZetaDisc() for _ in points]
    for s, disc in zip(points, discs):
        zeta_with_prime(s, disc)

    def finish(*args):
        raise AssertionError("the disc-less finish ran")
    monkeypatch.setattr(zetafn, "_zeta_em", finish)
    monkeypatch.setattr(zetafn, "_chi", finish)
    for s, disc, ref in zip(points, discs, refs):
        val, der = zeta_with_prime(s + 0.05j, disc)
        assert disc.centres == 1 and disc.evals == 2
        assert abs(val - ref[0]) < 2e-12 * max(1.0, abs(ref[0])), s
        assert abs(der - ref[1]) < 2e-12 * max(1.0, abs(ref[1])), s
    with pytest.raises(AssertionError, match="disc-less finish"):
        zeta_with_prime(points[0])


def test_disc_recentres_when_s_leaves_it_or_crosses_reflects():
    disc = ZetaDisc()
    radius = zetafn._DISC_RADIUS
    lead = zetafn._DISC_LEAD * radius
    # (s, centres, reflected) after each evaluation
    steps = [
        (-0.95 + 300.0j, 1, 0),                 # the first centre, on s
        (-0.95 + 300.0j + 0.9 * radius, 1, 0),  # inside
        (-0.95 + 300.0j - 0.9j * radius, 1, 0),
        # outside: re-centred past s, at -0.95 + 300i + 2.0i radius
        (-0.95 + 300.0j + 1.1j * radius, 2, 0),
        (-0.95 + 300.0j + 1.6j * radius, 2, 0),  # inside the new disc
        (-1.01 + 300.0j + 1.6j * radius, 3, 1),  # inside, but it reflects
        (-1.01 + 300.0j + 1.7j * radius, 3, 2),  # inside the reflected disc
        (-0.99 + 300.0j + 1.6j * radius, 4, 2),  # and back
    ]
    centre = None
    for evals, (s, centres, reflected) in enumerate(steps, start=1):
        val, der = zeta_with_prime(s, disc)
        assert (disc.evals, disc.centres, disc.reflected) == \
            (evals, centres, reflected), s
        assert abs(s - disc._s0) <= radius, s
        if centre is None:
            assert disc._s0 == s
        elif disc._s0 != centre:
            # lead past s, on the ray from the old centre through s
            assert abs(abs(disc._s0 - s) - lead) < 1e-12, s
            ahead = (disc._s0 - s) / (s - centre)
            assert ahead.real > 0.0 and abs(ahead.imag) < 1e-9, s
        centre = disc._s0
        if evals == 4:
            assert abs(centre - (-0.95 + 300.0j + 2.0j * radius)) < 1e-12
        ref_val, ref_der = zeta_with_prime(s)
        assert abs(val - ref_val) < 2e-12 * max(1.0, abs(ref_val)), s
        assert abs(der - ref_der) < 2e-12 * max(1.0, abs(ref_der)), s


def test_disc_centres_ahead_along_a_straight_walk():
    # each disc is centred _DISC_LEAD radii past the point that left the
    # one before, so a straight walk crosses (1 + _DISC_LEAD) radii of
    # each, less a step
    radius, alpha = zetafn._DISC_RADIUS, zetafn._DISC_LEAD
    start, length, step = 0.5 + 14.0j, 2.0, 1e-3
    disc = ZetaDisc()
    count = round(length / step)
    for k in range(count + 1):
        s = start + complex(0.0, k * step)
        val, der = zeta_with_prime(s, disc)
        assert abs(s - disc._s0) <= radius, s
        if k % 100 == 0:
            ref_val, ref_der = zeta_with_prime(s)
            assert abs(val - ref_val) < 2e-12 * max(1.0, abs(ref_val)), s
            assert abs(der - ref_der) < 2e-12 * max(1.0, abs(ref_der)), s
    assert disc.evals == count + 1
    assert disc.centres <= math.ceil(
        length / ((1.0 + alpha) * radius - step)) + 1
    assert disc.reflected == 0


def test_disc_keeps_the_pole_guard():
    disc = ZetaDisc()
    zeta_with_prime(1.05 + 0.0j, disc)
    with pytest.raises(PoleAtOne):
        zeta_with_prime(1.0 + 1e-14j, disc)
    with pytest.raises(PoleAtOne):
        zeta_with_prime(1.0, ZetaDisc())


def test_import_builds_no_disc():
    # discs belong to their callers: a fresh interpreter holds none after
    # the import or after disc-less evaluations
    code = ("import gc, zetapath.zetafn as z; "
            "z.zeta_with_prime(0.3 + 541.8j); z.zeta(0.5 + 14.13j); "
            "assert not any(isinstance(o, z.ZetaDisc) "
            "for o in gc.get_objects())")
    src = str(Path(__file__).resolve().parents[1] / "src")
    subprocess.run([sys.executable, "-c", code], check=True,
                   env={**os.environ, "PYTHONPATH": src})


# (s, float.hex of Re, Im of zeta(s) and of zeta'(s) without a disc, the
# same through a disc centred at s - 0.05i), frozen on the direct branch
# (0.5, and 0.3 right of the reflection line at -1) and the reflected one
# (-1.3) at three heights.  A change meant to move these bits, such as a
# new reflection factor, re-freezes them.  Against mpmath at 30 digits
# (value, derivative; relative where |zeta| >= 1, without a disc and
# through it) the 0.3 rows are off by 1.8e-15, 5.4e-15 and 3.4e-15,
# 7.9e-15 at 14.13; 7.2e-15, 1.2e-14 and 3.1e-14, 2.9e-14 at 77.1;
# 6.6e-13, 4.0e-13 and 2.6e-13, 1.8e-13 at 541.8.  The -1.3 rows are off
# by 4.3e-15, 4.1e-15 and 4.7e-15, 5.3e-15; 1.1e-14, 1.1e-14 and 2.0e-14,
# 1.9e-14; 1.5e-13, 1.5e-13 and 3.6e-13, 3.6e-13.
ZETA_HEX = [
    (0.5 + 14.13j,
     ("0x1.38843111b1370p-11", "-0x1.e4c8e0ce67b0bp-9",
      "0x1.907d3d7653703p-1", "0x1.0552d7f8bee0bp-3"),
     ("0x1.38843111ae00cp-11", "-0x1.e4c8e0ce67abap-9",
      "0x1.907d3d765371bp-1", "0x1.0552d7f8bedd8p-3")),
    (0.5 + 77.1j,
     ("0x1.a303238e45b2bp-6", "-0x1.e440a75db1fd6p-5",
      "0x1.440a4357cfa8bp+0", "0x1.456d6b23730e3p-1"),
     ("0x1.a303238e44378p-6", "-0x1.e440a75db1b2bp-5",
      "0x1.440a4357cfb84p+0", "0x1.456d6b237307cp-1")),
    (0.5 + 541.8j,
     ("0x1.9ba840c9ca0c0p-3", "0x1.09fb309cd82bdp-6",
      "-0x1.8b092d9abcb6dp-1", "0x1.fc3e9ed25c6cbp+1"),
     ("0x1.9ba840c9ca56ap-3", "0x1.09fb309cc4facp-6",
      "-0x1.8b092d9abd487p-1", "0x1.fc3e9ed25d066p+1")),
    (0.3 + 14.13j,
     ("-0x1.5999c7036c3e5p-3", "-0x1.191dfcb983cc0p-5",
      "0x1.d44805335ec22p-1", "0x1.72b4b69c76892p-3"),
     ("-0x1.5999c7036c423p-3", "-0x1.191dfcb983c7dp-5",
      "0x1.d44805335ec45p-1", "0x1.72b4b69c7681fp-3")),
    (0.3 + 77.1j,
     ("-0x1.2e50ccf281cefp-2", "-0x1.fab155907978dp-3",
      "0x1.0132319dc9611p+1", "0x1.5109c82fede55p+0"),
     ("-0x1.2e50ccf281f77p-2", "-0x1.fab1559079608p-3",
      "0x1.0132319dc96edp+1", "0x1.5109c82fede2ap+0")),
    (0.3 + 541.8j,
     ("0x1.74766d8bec120p-1", "-0x1.363effb5df899p+0",
      "-0x1.53c809d1340bap+2", "0x1.1bc01713f4cdcp+3"),
     ("0x1.74766d8bec532p-1", "-0x1.363effb5e0350p+0",
      "-0x1.53c809d134368p+2", "0x1.1bc01713f5227p+3")),
    (-1.3 + 14.13j,
     ("-0x1.83cd56ac518c8p+1", "-0x1.337eae0734669p+0",
      "0x1.8594e7c5eec12p+1", "0x1.c459fb332d25cp+0"),
     ("-0x1.83cd56ac518eep+1", "-0x1.337eae073466dp+0",
      "0x1.8594e7c5eec3fp+1", "0x1.c459fb332d26dp+0")),
    (-1.3 + 77.1j,
     ("-0x1.83adcb953fb58p+5", "-0x1.97ec63e627f3dp+5",
      "0x1.ff59f0e1011b1p+6", "0x1.1a5985dfd7777p+7"),
     ("-0x1.83adcb953faf7p+5", "-0x1.97ec63e627e7ap+5",
      "0x1.ff59f0e101132p+6", "0x1.1a5985dfd76f4p+7")),
    (-1.3 + 541.8j,
     ("0x1.79cb5b4c2134ap+11", "-0x1.d1bc7f199c4cbp+8",
      "-0x1.aa28bbb19eff0p+13", "0x1.2fb666558a84ep+10"),
     ("0x1.79cb5b4c21751p+11", "-0x1.d1bc7f1995e90p+8",
      "-0x1.aa28bbb19f38ap+13", "0x1.2fb66655833aep+10")),
]


def test_zeta_is_bitwise_frozen_on_a_branch_panel():
    for s, direct, through_disc in ZETA_HEX:
        disc = ZetaDisc()
        zeta_with_prime(s - 0.05j, disc)
        for (val, der), frozen in ((zeta_with_prime(s), direct),
                                   (zeta_with_prime(s, disc), through_disc)):
            got = tuple(x.hex() for z in (val, der) for x in (z.real, z.imag))
            assert got == frozen, s
        assert disc.centres == 1
        assert zeta(s) == zeta_with_prime(s)[0]


# theta(t) and Z(t) in float.hex: (t, theta, Re Z, Im Z).  The first three
# heights put 1/4 + it/2 inside |z| < 12, where log Gamma shifts upward.
THETA_Z_HEX = [
    (9.667, "-0x1.921f0f4a7f8aap+1",
     "-0x1.8825d682938e6p+0", "-0x1.1e72800000000p-50"),
    (14.13, "-0x1.bb079b819cb38p+0",
     "-0x1.eb0a416f5d03dp-9", "0x1.1030000000000p-50"),
    (20.0, "0x1.2fd856920fae0p+0",
     "0x1.25d900154c132p+0", "0x1.7000000000000p-50"),
    (100.0, "0x1.5fe37f4853566p+6",
     "0x1.58aa4c1234625p+1", "0x1.4e40000000000p-48"),
    (611.0, "0x1.111cac3b97167p+10",
     "0x1.bc3dfec026f32p-2", "0x1.3800000000000p-49"),
]


def test_theta_and_hardy_z_are_frozen_bitwise():
    for t, theta, z_re, z_im in THETA_Z_HEX:
        z = hardy_z(t)
        assert (rs_theta(t).hex(), z.real.hex(), z.imag.hex()) == (
            theta, z_re, z_im), t


def test_reflects_is_the_branch_rule():
    # zeta reflects left of Re s = -1 and nowhere else, so the reflected
    # argument 1 - s stays right of Re = 2, off the pole
    assert reflects(-1.3 + 14.0j) and reflects(-2.5 + 0.0j)
    assert reflects(complex(math.nextafter(-1.0, -2.0), 14.0))
    assert not reflects(-1.0 + 14.0j) and not reflects(0.3 + 14.0j)
    assert not reflects(0.4 + 14.0j)
    assert not reflects(0.0j) and not reflects(0.2 + 0.2j)
    assert not reflects(-0.9 + 0.0j)
    for s in (-1.3 + 41.7j, 0.3 + 41.7j, 0.7 + 41.7j):
        u = 1.0 - s if reflects(s) else s
        val, der, _ = zetafn._zeta_em(u, 1)
        if reflects(s):
            # zeta(s) = chi(s) zeta(1-s), zeta'(s) by (log chi)'
            chi, cot, (q1,) = zetafn._chi(s, 1)
            log_chi_prime = zetafn._LN2PI + 0.5 * math.pi * cot - q1
            val, der = chi * val, chi * (log_chi_prime * val - der)
        assert zeta_with_prime(s) == (val, der)


def test_reflected_branch_below_the_real_axis():
    # zeta(conj s) = conj zeta(s), so below the real axis the reflected
    # value and derivative, with and without a disc, mirror those above
    points = [s for s, _, _ in ZETA_HEX if reflects(s)]
    points += [-1.3 + 2.0j, -1.1 + 5.5j, -1.5 + 0.7j, -1.2 + 13.0j]
    for s in points:
        low = s.conjugate()
        assert reflects(low) and reflects(s - 0.05j)
        for got, ref in ((zeta_with_prime(low), zeta_with_prime(s)),
                         (_disc_eval(low + 0.05j, low),
                          _disc_eval(s - 0.05j, s))):
            for x, y in zip(got, ref):
                assert abs(x - y.conjugate()) < 1e-12 * abs(y), (s, got)
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for s in points[-4:]:
            low = s.conjugate()
            refs = (complex(mpmath.zeta(low)),
                    complex(mpmath.zeta(low, derivative=1)))
            for got in (zeta_with_prime(low), _disc_eval(low + 0.05j, low)):
                for x, y in zip(got, refs):
                    assert abs(x - y) < 1e-12 * abs(y), (low, got)


def test_pole_guard():
    with pytest.raises(PoleAtOne):
        zeta(1.0)
    with pytest.raises(PoleAtOne):
        zeta_with_prime(1.0 + 1e-14j)[1]


def test_far_left_values_out_of_double_range_raise_near_pole():
    # |zeta(-200 + 14i)| ~ 6.3e223; past Re s ~ -254 it leaves double
    # range, and every entry point names the point instead of returning
    # inf or raising a bare OverflowError; past Re s ~ -5.7e307 the
    # reflection factor's phase leaves it too
    entries = (zeta, lambda s: zeta_with_prime(s)[0],
               lambda s: zeta_with_prime(s, ZetaDisc())[0])
    for evaluate in entries:
        value = evaluate(-200 + 14j)
        assert cmath.isfinite(value) and 6e223 < abs(value) < 7e223
        for s in (-259 + 14j, -300 + 14j, -1e300 + 0j, -1e308 + 0j,
                  -1.7e308 + 0j, -1e308 + 5j):
            with pytest.raises(NearPole) as err:
                evaluate(s)
            assert err.value.z == s


def test_far_right_zeta_is_one():
    # zeta is 1 to double precision there: the correction pass, which
    # would overflow at s^49, and a disc's sizing of P_N, which would
    # overflow at rho^49, add nothing
    for s in (2.67e8, 3e8, 1e308, 2e6, 2e6 + 300j):
        assert zeta(s) == 1.0, s
        assert zeta_with_prime(s) == (1.0, 0.0), s
        assert zeta_with_prime(s, ZetaDisc()) == (1.0, 0.0), s


def test_zeta_refuses_what_it_cannot_evaluate(monkeypatch):
    # a non-finite s, or one past _MAX_HEIGHT, is refused with a
    # ValueError naming it before any table grows: the main sum would
    # ask for ~2.9e299 logarithms at Im s = 1e300
    logs = zetafn._logs

    def capped(n_cut):
        if n_cut > 10 ** 6:
            raise AssertionError(f"asked for {n_cut} logarithms")
        return logs(n_cut)
    monkeypatch.setattr(zetafn, "_logs", capped)
    # a disc that already has a centre names s too, not the centre it
    # would move to past s
    used = ZetaDisc()
    zeta_with_prime(0.5 + 14.0j, used)
    entries = (zeta, zeta_with_prime,
               lambda s: zeta_with_prime(s, ZetaDisc()),
               lambda s: zeta_with_prime(s, used))
    nan, inf = math.nan, math.inf
    for s in (complex(nan, 0.0), complex(0.5, nan), complex(0.5, inf),
              complex(inf, 1.0), complex(-inf, 1.0), 0.5 + 1e300j,
              0.5 - 1e8j, -3.0 + 1e300j):
        for evaluate in entries:
            with pytest.raises(ValueError) as err:
                evaluate(s)
            assert str(s) in str(err.value)
    for t in (nan, inf, -inf, 1e300):
        with pytest.raises(ValueError) as err:
            hardy_z(t)
        assert str(complex(0.5, t)) in str(err.value)
        # rs_theta refuses the same heights, naming t
        with pytest.raises(ValueError) as err:
            rs_theta(t)
        assert str(t) in str(err.value)
    # the bound itself is served, and nothing past it; the tables it
    # grows are put back afterwards
    monkeypatch.setattr(zetafn, "_LN", zetafn._LN)
    monkeypatch.setattr(zetafn, "_EM_POLYS", dict(zetafn._EM_POLYS))
    bound = zetafn._MAX_HEIGHT
    assert cmath.isfinite(zeta(2.0 + bound * 1j))
    # a used disc serves a point just under the bound, though the point
    # leaves it and the new centre lies above the bound
    below = 2.0 + (bound - 0.01) * 1j
    near = ZetaDisc()
    zeta_with_prime(below - 0.14j, near)
    val, der = zeta_with_prime(below, near)
    assert near.centres == 2 and near._s0.imag > bound
    ref_val, ref_der = zeta_with_prime(below)
    assert abs(val - ref_val) < 1e-11 and abs(der - ref_der) < 1e-11
    for evaluate in entries:
        with pytest.raises(ValueError):
            evaluate(0.5 + (bound + 1.0) * 1j)
    assert math.isfinite(rs_theta(bound)) and math.isfinite(rs_theta(-bound))
    with pytest.raises(ValueError):
        rs_theta(bound + 1.0)


def test_hardy_function_is_real_on_samples():
    for k in range(19):
        t = 10.0 + 5.0 * k
        assert abs(hardy_z(t).imag) < 1e-10


def test_theta_is_odd_smooth_anchor():
    # theta(t) ~ (t/2)log(t/(2 pi e)) - pi/8: check the asymptote loosely
    # and exact oddness of the closed form at the origin-symmetric pair.
    t = 200.0
    approx = 0.5 * t * math.log(t / (2.0 * math.pi * math.e)) - math.pi / 8.0
    assert abs(rs_theta(t) - approx) < 1e-3 * (1.0 + abs(approx))


def test_first_zeros_against_known_ordinates():
    zl = find_zeros(2)
    assert abs(zl.gamma(1) - 14.134725141) < 1e-8
    assert abs(zl.gamma(2) - 21.022039639) < 1e-8


def test_first_thirty_zero_properties():
    zl = find_zeros(30)
    assert len(zl) == 30
    assert zl.source == "computed"
    gaps = [b - a for a, b in zip(zl.ordinates, zl.ordinates[1:])]
    assert all(g > 0.5 for g in gaps)
    for g in zl.ordinates:
        assert abs(zeta(0.5 + 1j * g)) < 1e-8


def test_computed_matches_ingested_reference():
    zl = find_zeros(30)
    ref = reference_zeros()
    assert len(ref) == 310
    assert ref.source == "ingested"
    worst = max(abs(a - b) for a, b in zip(zl.ordinates, ref.ordinates))
    assert worst < 1e-6


def test_find_zeros_bounds(monkeypatch):
    # each refused at entry, before any Hardy Z evaluation; 1.5 is in
    # range, and was only refused at the end of the search
    def unreached(t):
        raise AssertionError("Hardy Z was evaluated")
    monkeypatch.setattr(zetafn, "_hardy_pair", unreached)
    with pytest.raises(ValueError):
        find_zeros(0)
    with pytest.raises(ValueError):
        find_zeros(351)
    for count in (1.5, 3.0, "3"):
        with pytest.raises(TypeError):
            find_zeros(count)


# Gram points below g_320 where Gram's law fails: (-1)^n Z(g_n) < 0.
BAD_GRAM = (126, 134, 195, 211, 232, 254, 288)


@pytest.fixture(scope="module")
def zeros_311():
    return find_zeros(311)


def _gram_table(last: int) -> list[float]:
    """g_-1 .. g_last, index n + 1."""
    out = []
    for n, g in zetafn._gram_points():
        out.append(g)
        if n == last:
            return out


def test_find_zeros_through_zero_311_matches_the_table(zeros_311):
    ref = reference_zeros()
    assert len(zeros_311) == 311
    assert zeros_311.source == "computed"
    worst = max(abs(a - b) for a, b in zip(zeros_311.ordinates, ref.ordinates))
    assert worst < 1e-12                    # 1.7e-13 at zero 233
    assert abs(zeta(0.5 + 1j * zeros_311.gamma(311))) < 1e-8
    assert zeros_311.ordinates[:200] == find_zeros(200).ordinates


def test_gram_points_solve_the_theta_equation():
    # g_-1, g_0 and g_320 frozen from an arbitrary-precision run
    grams = _gram_table(320)
    assert abs(grams[0] - 9.6669080561301921) < 1e-9
    assert abs(grams[1] - 17.845599540410861) < 1e-9
    assert abs(grams[-1] - 572.65667342538442) < 1e-9
    for n, g in enumerate(grams, start=-1):
        assert abs(rs_theta(g) - n * math.pi) < 1e-9


def test_bad_gram_points_below_320_are_separated(zeros_311):
    # each failure of Gram's law sits in a two-interval Rosser block
    # [g_(n-1), g_(n+1)]; both of its zeros fall in one Gram interval
    grams = _gram_table(320)
    bad = [n for n, g in enumerate(grams, start=-1)
           if (hardy_z(g).real if n % 2 == 0 else -hardy_z(g).real) < 0.0]
    assert tuple(bad) == BAD_GRAM
    ords = zeros_311.ordinates
    for n in BAD_GRAM:
        lo, mid, hi = grams[n], grams[n + 1], grams[n + 2]
        # zeros n + 1 and n + 2 (1-based), alone in the block
        assert ords[n - 1] < lo < ords[n] < ords[n + 1] < hi < ords[n + 2]
        assert ords[n + 1] < mid or mid < ords[n]
    # N(g_n) = n + 1 at every good Gram point through g_308
    for n, g in enumerate(grams[:310], start=-1):
        if n not in BAD_GRAM:
            assert sum(o < g for o in ords) == n + 1


def test_find_zeros_reads_hardy_z_bitwise(monkeypatch):
    # Z at every Gram and Rosser point comes from the pass that also
    # gives Z', and is hardy_z's value bit for bit, so the Rosser blocks,
    # Turing's count and BAD_GRAM read the same signs as through hardy_z
    seen = {}
    plain = zetafn._hardy_pair

    def recorded(t):
        seen[t] = pair = plain(t)
        return pair
    monkeypatch.setattr(zetafn, "_hardy_pair", recorded)
    find_zeros(MAX_ZEROS)
    assert set(_gram_table(320)) <= set(seen)
    for t, (z, _) in seen.items():
        assert z == hardy_z(t).real, t


def test_find_zeros_200_makes_few_zeta_evaluations(monkeypatch):
    orders = []
    plain = zetafn._zeta_em

    def counted(s, order):
        orders.append(order)
        return plain(s, order)
    monkeypatch.setattr(zetafn, "_zeta_em", counted)
    per_zero = []
    halley = zetafn._halley_zero

    def refined(*bracket):
        start = len(orders)
        g = halley(*bracket)
        per_zero.append(len(orders) - start)
        return g
    monkeypatch.setattr(zetafn, "_halley_zero", refined)
    find_zeros(200)
    # Z and Z' at 209 Gram and Rosser points, then 405 Halley evaluations
    # with zeta'', 2.0 per zero (1 for 4 zeros, 2 for 187, 3 for 9)
    assert orders.count(1) == 209 and orders.count(2) == 405
    assert len(orders) <= 620
    assert len(per_zero) == 200 and set(per_zero) <= {1, 2, 3}


def test_hardy_z_prime_and_zeta_second_derivative_match_mpmath():
    mpmath = pytest.importorskip("mpmath")
    with mpmath.workdps(30):
        for t in (14.13, 100.0, 396.0, 612.0):
            ref = float(mpmath.siegelz(t, derivative=1))
            # 8.9e-14 at worst, at t = 396; without the theta' term of
            # Z', 4.5e-13 at t = 612
            assert abs(zetafn._hardy_pair(t)[1] - ref) < 2e-13, t
            ref = complex(mpmath.zeta(mpmath.mpc(0.5, t), derivative=2))
            # 3.0e-13 at worst, at t = 612
            assert abs(zetafn._zeta_em(complex(0.5, t), 2)[2] - ref) < (
                1e-12 * max(1.0, abs(ref))), t


def test_hardy_z_prime_and_zeta_second_derivative_by_differences():
    # central differences of step h = 1e-5, good to ~1e-8 here; asking
    # for zeta'' leaves the value and zeta' as they are, bit for bit
    h = 1e-5
    for t in (14.13, 100.0, 396.0, 612.0):
        z, z_p = zetafn._hardy_pair(t)
        assert z == hardy_z(t).real
        diff = (hardy_z(t + h).real - hardy_z(t - h).real) / (2.0 * h)
        assert abs(z_p - diff) < 1e-6 * max(1.0, abs(z_p)), t
    for s in (0.5 + 14.13j, 0.5 + 100.0j, 0.5 + 396.0j, 0.5 + 612.0j,
              2.0 + 3.0j, -0.7 + 41.7j):
        val, der, der2 = zetafn._zeta_em(s, 2)
        assert (val, der) == zeta_with_prime(s)
        diff = (zeta_with_prime(s + h)[1] - zeta_with_prime(s - h)[1]) / (
            2.0 * h)
        assert abs(der2 - diff) < 1e-6 * max(1.0, abs(der2)), s


def test_find_zeros_matches_mpmath_zetazero():
    mpmath = pytest.importorskip("mpmath")
    zl = find_zeros(350)
    with mpmath.workdps(30):
        for k in (1, 2, 37, 100, 127, 200, 311, 350):
            # 2.5e-13 at worst over k = 1..350
            assert abs(mpmath.zetazero(k).imag - zl.gamma(k)) < 1e-12


def _fake_zeta(monkeypatch, z_of, slope_of, curve_of=lambda t: 0.0):
    """Route _zeta_em through a made-up function: on the critical line
    Hardy Z at t is z_of(t), zeta' is -i e^(-i theta) slope_of(t) and
    zeta'' is -e^(-i theta) curve_of(t), so the Halley step
    Im(2 zeta zeta' / (2 zeta'^2 - zeta zeta'')) is Halley's step
    2 f f' / (2 f'^2 - f f'') for f = z_of, f' = slope_of, f'' = curve_of,
    and Newton's where curve_of is 0.  Returns the list of ordinates
    evaluated, filled as _halley_zero runs."""
    seen = []

    def fake(s, order):
        t = s.imag
        seen.append(t)
        unrotate = cmath.exp(-1j * rs_theta(t))
        return (unrotate * z_of(t), -1j * unrotate * slope_of(t),
                -unrotate * curve_of(t))
    monkeypatch.setattr(zetafn, "_zeta_em", fake)
    return seen


def test_a_cubic_z_starts_at_its_zero(monkeypatch):
    # Z = e + e^3, e = t - 20, is its own cubic Hermite interpolant on
    # [19.5, 21], so the first point is the zero, and its Halley step ends
    # the refinement there
    seen = _fake_zeta(monkeypatch, lambda t: (t - 20.0) + (t - 20.0) ** 3,
                      lambda t: 1.0 + 3.0 * (t - 20.0) ** 2,
                      lambda t: 6.0 * (t - 20.0))
    g = zetafn._halley_zero(19.5, 21.0, -0.625, 2.0, 1.75, 4.0)
    assert len(seen) == 1 and abs(seen[0] - 20.0) < 1e-14
    assert abs(g - 20.0) < 1e-14


def test_halley_exit_returns_the_stepped_point(monkeypatch):
    # the same Z from a start at the secant point 20.25, which slopes
    # equal to the secant's give: Halley's error goes e -> ~ -e^3, 0.25,
    # -0.0105, 1.2e-6, and only a step below _HALLEY_STEP ends the
    # refinement, at the stepped point
    seen = _fake_zeta(monkeypatch, lambda t: (t - 20.0) + (t - 20.0) ** 3,
                      lambda t: 1.0 + 3.0 * (t - 20.0) ** 2,
                      lambda t: 6.0 * (t - 20.0))
    g = zetafn._halley_zero(19.5, 21.0, -1.0, 1.0, 4.0 / 3.0, 4.0 / 3.0)
    assert seen[0] == 20.25 and len(seen) == 3
    assert seen[1] < 20.0 < seen[2] < 20.0 + zetafn._HALLEY_STEP
    assert g != seen[-1] and abs(g - 20.0) < 1e-14


def test_bracket_exit_returns_the_last_point(monkeypatch):
    # each step overshoots threefold, 6e-11 here, past the other end of a
    # bracket the first evaluation narrowed to 4.5e-11
    seen = _fake_zeta(monkeypatch, lambda t: t - 20.0, lambda t: 0.25)
    slope = 2.0 / 9e-11
    g = zetafn._halley_zero(20.0 - 6e-11, 20.0 + 3e-11, -1.0, 1.0,
                            slope, slope)
    assert seen == [g]
    assert abs(g - 20.0) < zetafn._BISECT_TOL


def test_a_step_out_of_the_bracket_falls_back_to_the_secant(monkeypatch):
    # the first step, 50, leaves [19, 20.5]; the second iterate is that
    # bracket's secant point, which the linear Z makes the zero itself
    slopes = iter([0.01])
    seen = _fake_zeta(monkeypatch, lambda t: t - 20.0,
                      lambda t: next(slopes, 1.0))
    assert zetafn._halley_zero(19.0, 22.0, -1.0, 1.0,
                               2.0 / 3.0, 2.0 / 3.0) == 20.0
    assert seen == [20.5, 20.0]


def test_halley_gives_up_at_its_evaluation_cap(monkeypatch):
    # a doubled step reflects t about the zero: 20.5, 19.5, 20.5, ...
    seen = _fake_zeta(monkeypatch, lambda t: t - 20.0, lambda t: 0.5)
    with pytest.raises(MissedZero, match="Halley did not converge"):
        zetafn._halley_zero(19.0, 22.0, -1.0, 1.0, 2.0 / 3.0, 2.0 / 3.0)
    assert seen == [20.5, 19.5] * (zetafn._NEWTON_CAP // 2)


def test_a_zero_with_a_small_derivative_raises_missed_zero(monkeypatch):
    # zeta scaled by 1e-6: every sign, cubic start and Halley step as
    # before, but |zeta'| at the first zero is 7.9e-7
    plain = zetafn._zeta_em
    monkeypatch.setattr(zetafn, "_zeta_em", lambda s, order: tuple(
        1e-6 * v for v in plain(s, order)))
    with pytest.raises(MissedZero, match="derivative too small"):
        find_zeros(1)


def test_a_gram_point_that_does_not_converge_raises_missed_zero(monkeypatch):
    # theta off by +1e-6 and -1e-6 in turn: each Newton step for g_-1
    # moves it by ~1e-5, never below 1e-11, and no Z is evaluated
    offsets = itertools.cycle((1e-6, -1e-6))
    plain = zetafn.rs_theta
    monkeypatch.setattr(zetafn, "rs_theta",
                        lambda t: plain(t) + next(offsets))

    def unreached(t):
        raise AssertionError("Hardy Z was evaluated")
    monkeypatch.setattr(zetafn, "_hardy_pair", unreached)
    with pytest.raises(MissedZero, match=r"Gram point g_-1 did not converge: "
                                         r"last Newton step -?\d"):
        find_zeros(1)


@pytest.mark.parametrize("count, hidden",
                         [(150, 100), (100, 101), (100, 102)])
def test_hidden_zero_pair_raises_missed_zero(monkeypatch, count, hidden):
    # -Z (and -Z') between zeros `hidden` and `hidden + 1` touches zero
    # at both without changing sign: the pair is invisible to sign
    # changes, and the Rosser block holding it cannot be separated: a
    # wanted block, or the first or the second Turing block past zero
    # `count`
    ref = reference_zeros()
    lo, hi = ref.gamma(hidden), ref.gamma(hidden + 1)
    plain = zetafn._hardy_pair

    def hiding(t):
        z, z_p = plain(t)
        return (-z, -z_p) if lo <= t <= hi else (z, z_p)
    monkeypatch.setattr(zetafn, "_hardy_pair", hiding)
    with pytest.raises(MissedZero, match="Rosser block"):
        find_zeros(count)


def test_load_zeros_roundtrip(tmp_path):
    p = tmp_path / "zeros.txt"
    p.write_text("# header\n14.134725  # first\n21.022040\n\n25.010858\n")
    zl = load_zeros(p)
    assert zl.ordinates == (14.134725, 21.022040, 25.010858)
    assert zl.source == "ingested"


def test_load_zeros_parse_error_carries_line(tmp_path):
    p = tmp_path / "bad.txt"
    p.write_text("14.1347\nnot-a-number\n")
    with pytest.raises(ParseError) as err:
        load_zeros(p)
    assert err.value.line == 2


@pytest.mark.parametrize("bad", ["nan", "inf", "-inf"])
def test_load_zeros_rejects_non_finite_ordinates(tmp_path, bad):
    p = tmp_path / "bad.txt"
    p.write_text(f"14.134725\n21.022040\n{bad}\n")
    with pytest.raises(ParseError, match="finite") as err:
        load_zeros(p)
    assert err.value.line == 3


@pytest.mark.parametrize("bad", [math.nan, math.inf])
def test_zerolist_rejects_non_finite_ordinates(bad):
    with pytest.raises(MonotonicityError, match="finite"):
        ZeroList((14.134725, bad), source="ingested")
    with pytest.raises(MonotonicityError, match="finite"):
        ZeroList((bad, 14.134725), source="ingested")


def test_load_zeros_monotonicity(tmp_path):
    p = tmp_path / "dec.txt"
    p.write_text("21.02\n14.13\n")
    with pytest.raises(MonotonicityError):
        load_zeros(p)
    with pytest.raises(MonotonicityError):
        ZeroList((-1.0, 2.0), source="ingested")


def test_zerolist_gamma_accessor():
    zl = ZeroList((14.1, 21.0), source="ingested")
    assert zl.gamma(1) == 14.1
    assert zl.gamma(2) == 21.0
    with pytest.raises(IndexError):
        zl.gamma(3)
    with pytest.raises(IndexError):
        zl.gamma(0)
