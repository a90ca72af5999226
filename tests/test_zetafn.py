"""Zeta evaluator tests: classical values, frozen high-precision spot
checks, zero finding against the packaged reference table, file parsing."""

import math
import random
from fractions import Fraction

import pytest

from zetapath import zetafn
from zetapath.errors import MissedZero, MonotonicityError, ParseError, PoleAtOne
from zetapath.zetafn import (
    ZeroList, find_zeros, hardy_z, load_zeros, reference_zeros, reflects,
    rs_theta, zeta, zeta_prime, zeta_with_prime,
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
    assert abs(zeta_prime(s) - ref) / abs(ref) < 1e-12
    h = 1e-6
    fd = (zeta(s + h) - zeta(s - h)) / (2.0 * h)
    assert abs(zeta_prime(s) - fd) / abs(ref) < 1e-7
    assert abs(zeta(s.conjugate()) - zeta(s).conjugate()) < 1e-12


def test_classical_values():
    assert abs(zeta(2.0) - math.pi ** 2 / 6.0) < 1e-12
    assert abs(zeta(0.0) + 0.5) < 1e-12
    assert abs(zeta(-1.0) + 1.0 / 12.0) < 1e-12
    assert abs(zeta(4.0) - math.pi ** 4 / 90.0) < 1e-12
    assert abs(zeta_prime(0.0) + 0.5 * math.log(2.0 * math.pi)) < 1e-12


def test_derivative_against_finite_difference():
    s = 2.0 + 3.0j
    h = 1e-6
    fd = (zeta(s + h) - zeta(s - h)) / (2.0 * h)
    assert abs(zeta_prime(s) - fd) < 1e-8


def test_shared_pass_matches_separate_calls():
    s = 0.3 + 41.7j
    v, vp = zeta_with_prime(s)
    assert v == zeta(s)
    assert vp == zeta_prime(s)


def test_conjugation_symmetry():
    rng = random.Random(10)
    for _ in range(20):
        s = complex(rng.uniform(-0.5, 3.0), rng.uniform(0.5, 120.0))
        assert abs(zeta(s.conjugate()) - zeta(s).conjugate()) < 1e-12


def test_truncation_point_convergence():
    for s in (0.5 + 30.0j, 1.7 + 111.0j, -0.4 + 9.0j):
        n = zetafn._term_count(s)
        assert abs(zeta(s, terms=n) - zeta(s, terms=n + 10)) < 1e-12


def test_truncation_point_rule():
    assert zetafn._term_count(0.5 + 14.13j) == 20
    assert zetafn._term_count(0.5 + 541.8j) == 165
    assert zetafn._term_count(0.5 - 541.8j) == 165
    # the ln n table covers the default truncation point to |Im s| ~ 1300
    assert zetafn._term_count(0.5 + 1300j) <= len(zetafn._LN)


def test_terms_override_past_the_log_table():
    s = 0.5 + 30.0j
    n = len(zetafn._LN) + 50
    assert abs(zeta(s, terms=n) - zeta(s)) < 1e-12


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


def test_zeta_matches_mpmath_on_a_seeded_panel():
    mpmath = pytest.importorskip("mpmath")
    rng = random.Random(2011)
    points = [complex(rng.uniform(-0.5, 3.0), rng.uniform(10.0, 700.0))
              for _ in range(400)]
    assert any(map(reflects, points)) and not all(map(reflects, points))
    with mpmath.workdps(30):
        for s in points:
            val, der = zeta_with_prime(s)
            ref_val = complex(mpmath.zeta(s))
            ref_der = complex(mpmath.zeta(s, derivative=1))
            assert abs(val - ref_val) < 1e-12 * max(1.0, abs(ref_val)), s
            assert abs(der - ref_der) < 1e-12 * max(1.0, abs(ref_der)), s


def test_reflects_is_the_branch_rule():
    assert reflects(0.3 + 14.0j) and reflects(-2.5 + 0.0j)
    assert not reflects(0.4 + 14.0j)
    # near the origin the reflected argument 1-s would sit by the pole
    assert not reflects(0.0j) and not reflects(0.2 + 0.2j)
    for s in (0.3 + 41.7j, 0.7 + 41.7j):
        branch = zetafn._zeta_reflect if reflects(s) else zetafn._zeta_em
        assert zeta_with_prime(s) == branch(s, True, None)


def test_pole_guard():
    with pytest.raises(PoleAtOne):
        zeta(1.0)
    with pytest.raises(PoleAtOne):
        zeta_prime(1.0 + 1e-14j)


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


def test_find_zeros_bounds():
    with pytest.raises(ValueError):
        find_zeros(0)
    with pytest.raises(ValueError):
        find_zeros(351)


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
    assert worst < 1e-9
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


def test_find_zeros_200_makes_few_hardy_z_calls(monkeypatch):
    calls = []
    plain = zetafn.hardy_z

    def counted(t):
        calls.append(t)
        return plain(t)
    monkeypatch.setattr(zetafn, "hardy_z", counted)
    find_zeros(200)
    assert len(calls) < 3000


@pytest.mark.parametrize("count, hidden",
                         [(150, 100), (100, 101), (100, 102)])
def test_hidden_zero_pair_raises_missed_zero(monkeypatch, count, hidden):
    # -Z between zeros `hidden` and `hidden + 1` touches zero at both
    # without changing sign: the pair is invisible to sign changes, and
    # the Rosser block holding it cannot be separated: a wanted block, or
    # the first or the second Turing block past zero `count`
    ref = reference_zeros()
    lo, hi = ref.gamma(hidden), ref.gamma(hidden + 1)
    plain = zetafn.hardy_z

    def hiding(t):
        return -plain(t) if lo <= t <= hi else plain(t)
    monkeypatch.setattr(zetafn, "hardy_z", hiding)
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
