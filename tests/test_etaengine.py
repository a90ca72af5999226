"""Eta engine tests: multiplier system against independent oracles,
quotient invariances, branch selection, and the identity residual panel."""

import cmath
import math
import random
from fractions import Fraction

import pytest

from zetapath import etaengine
from zetapath.errors import NearPole
from zetapath.etaengine import (
    EtaContext, avatar_eval, chordal, dedekind_eta,
    dedekind_sum, identity_residuals, j_fricke, lambda_fn, psi_phi,
    reduce_to_fundamental, sigma, tau, tau5, z_eval, z_eval_from_seed,
    z_root_pair,
)
from zetapath.exactquad import ALPHA_P, exact_j_target
from zetapath.sl2z import (
    R, S, SHIFT_ELEMENT, T, GroupElem, load_table, mobius,
)

from oracles import band_points, eta_q_product, random_element, sign_normalize

# CM point on the unit circle with Re = -1/4 and its translate by the
# (4,1;-1,0) coset representative; the degree-4 quotient takes the exact
# golden-ratio value at the translate, pinning j there.
C_POINT = complex(-0.25, math.sqrt(15.0) / 4.0)
Z0_POINT = complex(-15.0 / 4.0, math.sqrt(15.0) / 4.0)

J_TARGET = 632.8328625472187


def dedekind_sum_brute(h, k):
    """Exact sawtooth-sum oracle for the arithmetic recursion."""
    total = Fraction(0)
    for r in range(1, k):
        a = Fraction(r, k)
        b = Fraction(h * r, k)
        saw_a = a - int(a) - Fraction(1, 2) if a != int(a) else Fraction(0)
        bfrac = b - (b.numerator // b.denominator)
        saw_b = bfrac - Fraction(1, 2) if bfrac else Fraction(0)
        total += saw_a * saw_b
    return total


def test_eta_against_q_product_oracle():
    for z in (1j, 2j, 0.3 + 0.9j, -0.41 + 1.7j, 0.05 + 1.1j):
        mine = dedekind_eta(z)
        oracle = eta_q_product(z)
        assert abs(mine - oracle) / abs(oracle) < 1e-12


def test_eta_closed_forms():
    eta_i = dedekind_eta(1j)
    assert abs(eta_i.imag) < 1e-16
    ref_i = math.gamma(0.25) / (2.0 * math.pi ** 0.75)
    assert abs(eta_i.real - ref_i) < 1e-13 * ref_i
    eta_2i = dedekind_eta(2j)
    ref_2i = math.gamma(0.25) / (2.0 ** (11.0 / 8.0) * math.pi ** 0.75)
    assert abs(eta_2i.real - ref_2i) < 1e-13 * ref_2i


def test_eta_generator_relations():
    rng = random.Random(31)
    for _ in range(20):
        z = complex(rng.uniform(-2.0, 2.0), rng.uniform(0.05, 3.0))
        lhs = dedekind_eta(z + 1.0)
        rhs = cmath.exp(1j * math.pi / 12.0) * dedekind_eta(z)
        assert abs(lhs - rhs) / abs(rhs) < 1e-12
        lhs = dedekind_eta(-1.0 / z)
        rhs = cmath.sqrt(-1j * z) * dedekind_eta(z)
        assert abs(lhs - rhs) / abs(rhs) < 1e-12


def test_eta_transformation_hundred_random_elements():
    rng = random.Random(47)
    ctx = EtaContext()
    checked = 0
    while checked < 100:
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.2, 2.0))
        m = random_element(rng)
        mz = mobius(m, z)
        m_n = sign_normalize(m)
        rhs = (ctx.multiplier(m_n) * cmath.sqrt(m_n.c * z + m_n.d)
               * dedekind_eta(z, ctx))
        lhs = dedekind_eta(mz, ctx)
        assert abs(lhs - rhs) / abs(rhs) < 1e-10
        checked += 1
    assert checked == 100


def test_multiplier_roots_of_unity():
    rng = random.Random(5)
    ctx = EtaContext()
    for _ in range(30):
        m = sign_normalize(random_element(rng))
        eps = ctx.multiplier(m)
        assert abs(abs(eps) - 1.0) < 1e-14
        assert abs(eps ** 24 - 1.0) < 1e-12
    for b in (-7, -1, 0, 1, 5, 12):
        eps = ctx.multiplier(GroupElem(1, b, 0, 1))
        assert abs(eps - cmath.exp(1j * math.pi * b / 12.0)) < 1e-15


def test_dedekind_sum_against_brute_force():
    assert dedekind_sum(1, 2) == 0
    assert dedekind_sum(1, 3) == Fraction(1, 18)
    assert dedekind_sum(2, 5) == 0
    rng = random.Random(13)
    done = 0
    while done < 25:
        k = rng.randrange(2, 40)
        h = rng.randrange(1, k)
        if math.gcd(h, k) != 1:
            continue
        assert dedekind_sum(h, k) == dedekind_sum_brute(h, k)
        done += 1


def test_dedekind_sum_refuses_a_non_positive_modulus():
    # the reciprocity recursion holds for k > 0 only: at k = -3 it would
    # give -1/18, and at k = 0 divide by zero
    for k in (-3, -1, 0):
        with pytest.raises(ValueError):
            dedekind_sum(1, k)


def test_dedekind_sum_refuses_non_coprime_arguments():
    # the reciprocity law assumes gcd(h, k) = 1: without the check (2, 4)
    # gave -1/32 and (2, 6) 5/144, where the sawtooth sums are 0 and 1/18
    for h, k in ((2, 4), (2, 6), (0, 3), (-9, 12)):
        with pytest.raises(ValueError):
            dedekind_sum(h, k)


def test_multiplier_refuses_an_unnormalized_matrix():
    ctx = EtaContext()
    # -T acts as T, but the relation eta(m z) = eps(m) (cz+d)^(1/2) eta(z)
    # with cz + d = -1 needs eps(-T) = exp(-5i pi/12), not T's exp(i pi/12)
    for m in (-T, GroupElem(-1, 0, 0, -1), -S, GroupElem(-2, -1, -1, -1)):
        with pytest.raises(ValueError):
            ctx.multiplier(m)
    assert ctx._multipliers == {}
    assert ctx.multiplier(T) == cmath.exp(1j * math.pi / 12.0)
    assert abs(ctx.multiplier(S) - cmath.exp(-0.25j * math.pi)) < 1e-15


def _eta_series_loop(w):
    """Reference: the pentagonal series summed pair by pair until a term
    drops below 1e-17, and the number of pairs summed."""
    q = cmath.exp(2j * math.pi * w)
    total = 1 + 0j
    sign = 1
    for k in range(1, 100):
        sign = -sign
        q1 = q ** (k * (3 * k - 1) // 2)
        q2 = q ** (k * (3 * k + 1) // 2)
        total += sign * (q1 + q2)
        if abs(q1) < 1e-17:
            break
    return cmath.exp(1j * math.pi * w / 12.0) * total, k


def test_eta_series_matches_the_adaptive_loop_bitwise():
    corner = math.sqrt(3.0) / 2.0
    panel = [cmath.exp(1j * th) for th in (math.pi / 3.0, 0.4 * math.pi,
                                           math.pi / 2.0, 2.0 * math.pi / 3.0)]
    for y in (corner, 1.0, 1.2, 1.25, 6.2, 6.25, 50.0, 300.0):
        panel += [complex(x, y) for x in (0.0, -0.0, 0.5, -0.5, 0.25, -0.1)]
    rng = random.Random(18)
    while len(panel) < 6000:
        w = complex(rng.uniform(-0.5, 0.5),
                    corner * (300.0 / corner) ** rng.random() ** 2)
        if abs(w) >= 1.0:
            panel.append(w)
    pairs = set()
    for w in panel:
        old, k = _eta_series_loop(w)
        new = etaengine._eta_series(w)
        assert ((new.real.hex(), new.imag.hex())
                == (old.real.hex(), old.imag.hex())), w
        pairs.add(k)
    assert pairs == {1, 2, 3}


def test_reduction_properties():
    rng = random.Random(99)
    for _ in range(30):
        z = complex(rng.uniform(-8.0, 8.0), 10.0 ** rng.uniform(-4.0, 0.5))
        w, m = reduce_to_fundamental(z)
        assert abs(w - mobius(m, z)) < 1e-9 * (1.0 + abs(w))
        assert abs(w.real) <= 0.5 + 1e-9
        assert abs(w) >= 1.0 - 1e-9
        assert w.imag >= math.sqrt(3.0) / 2.0 - 1e-9
        q = cmath.exp(2j * math.pi * w)
        assert abs(q) <= math.exp(-math.pi * math.sqrt(3.0)) + 1e-12


def _reduce_rebuilt(z):
    """Reference: _reduce as it rebuilt w with complex() at each
    translation."""
    w = z
    a, b, c, d = 1, 0, 0, 1
    for _ in range(10000):
        n = round(w.real)
        if n:
            w = complex(w.real - n, w.imag)
            a, b = a - n * c, b - n * d
        if abs(w) < 1.0 - 1e-15:
            w = -1.0 / w
            a, b, c, d = -c, -d, a, b
        else:
            return w, a, b, c, d
    raise AssertionError(z)


def _shift_walk_arguments(step=7):
    """The four eta arguments at every step-th unreduced point P_41 g x
    of the traced avatar's 3000-sample walk (Im z/15 reaches 1.5e-4
    there), which the walk evaluated before it read coset tables."""
    from zetapath.sl2z import SHIFT_WORD
    from zetapath.tracer import SHIFT_AVATAR
    from zetapath.treepath import build_path
    path = build_path(SHIFT_WORD, samples=3000)
    rep = load_table().rep(SHIFT_AVATAR)
    for k in range(0, path.samples + 1, step):
        z = mobius(rep, path.point(k / path.samples))
        yield from (z, z / 3, z / 5, z / 15)


def test_reduce_matches_the_rebuilding_loop_bitwise():
    # edges: Re exactly +-1/2 and -0.0 (before and after a translation),
    # |w| = 1, |Re z| near 1e6 and Im z down to 1e-4
    panel = [complex(x, y) for x in (0.5, -0.5, -0.0, 0.0, 2.5, -3.5, 7.0)
             for y in (1e-4, 0.5, math.sqrt(3.0) / 2.0, 1.0, 3.0)]
    panel += [cmath.exp(1j * th) for th in (math.pi / 3.0, math.pi / 2.0,
                                           2.0 * math.pi / 3.0, 1.3)]
    panel += [0.6 + 0.8j, -0.6 + 0.8j, 3.6 + 0.8j, 0.8 + 0.6j, 1j, 4 + 1j]
    panel += [complex(x, y) for x in (1e6 + 0.3, -1e6 - 0.49, 999999.5,
                                      -1e6 + 0.5)
              for y in (1e-4, 0.03, 1.0)]
    rng = random.Random(19)
    for _ in range(3000):
        panel.append(complex(rng.uniform(-8.0, 8.0),
                             10.0 ** rng.uniform(-4.0, 0.5)))
    for _ in range(200):
        panel.append(complex(rng.choice((-1.0, 1.0)) * 1e6
                             + rng.uniform(-1.0, 1.0),
                             10.0 ** rng.uniform(-4.0, 0.5)))
    panel += _shift_walk_arguments()
    signed_zeros = 0
    for z in panel:
        w, *m = etaengine._reduce(z)
        w_ref, *m_ref = _reduce_rebuilt(z)
        assert ((w.real.hex(), w.imag.hex(), m)
                == (w_ref.real.hex(), w_ref.imag.hex(), m_ref)), z
        signed_zeros += math.copysign(1.0, w.real) < 0 and w.real == 0
    assert signed_zeros > 0


# (z, float.hex of eta(z)) frozen from the GroupElem-based unwinding; the
# comments give the reducing matrix.  Identity, translations, c > 0, and
# c < 0, where the matrix is negated before the multiplier is looked up.
ETA_HEX = [
    (0.1 + 1.5j, ("0x1.5994007b7fd3cp-1", "0x1.210d507a4e038p-6")),  # I
    (0.5 + 0.8660254037844386j,
     ("0x1.9663d28dbed7bp-1", "0x1.ac049b6063835p-4")),  # I, at the corner
    (2.3 + 1.2j, ("0x1.345a6106b7997p-1", "0x1.a7644a133aa38p-2")),  # [[1,-2],[0,1]]
    (-0.7 + 0.9j, ("0x1.8defea0022a9cp-1", "-0x1.2c7ad80fcf66ep-3")),  # [[0,-1],[1,1]]
    (0.1234 + 0.3j, ("0x1.a782b37141729p-1", "-0x1.7cb0ac3c3032ap-4")),  # [[1,-1],[1,0]]
    (0.3 + 0.01j, ("0x1.36cd3f6abfbcfp+1", "0x1.7e80019b8c5bdp-3")),  # [[-3,1],[-10,3]]
    (-0.41 + 0.05j, ("0x1.998148b470945p+0", "-0x1.003ec778e087fp-2")),  # [[-5,-2],[-2,-1]]
    (1 / 3 + 0.001j, ("0x1.29e2a04d7e3b0p-38", "-0x1.a0fc3e9d7bf7ap-42")),  # [[-1,0],[3,-1]]
    (0.00655 + 0.032j, ("0x1.22cd52016a338p-13", "-0x1.1971056bcfe1cp-9")),  # [[6,-1],[1,0]]
    (-1.9 + 0.004j, ("-0x1.e288723bb86c7p+0", "-0x1.c9e823a5795cap+0")),  # [[-1,-2],[10,19]]
]


def test_eta_is_bitwise_frozen_on_a_reduction_panel():
    signs = set()
    for z, (re, im) in ETA_HEX:
        m = reduce_to_fundamental(z)[1]
        signs.add((m.c > 0) - (m.c < 0))
        value = dedekind_eta(z, EtaContext())       # cold multiplier cache
        assert (value.real.hex(), value.imag.hex()) == (re, im), z
        assert dedekind_eta(z) == value             # warm cache
    assert signs == {-1, 0, 1}


def test_warm_trajectory_walk_builds_no_group_element(monkeypatch):
    from zetapath.sl2z import SHIFT_WORD
    from zetapath.treepath import avatar_trajectory, build_path
    path = build_path(SHIFT_WORD, samples=200)
    table = load_table()
    ctx = EtaContext()
    first = avatar_trajectory(path, 41, ctx=ctx, table=table)
    cold = [first[k] for k in range(201)]
    built = []
    post_init = GroupElem.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)
    monkeypatch.setattr(GroupElem, "__post_init__", counting)
    ctx.trajectory = None
    again = avatar_trajectory(path, 41, ctx=ctx, table=table)
    assert again is not first
    assert [again[k] for k in range(201)] == cold
    assert built == []


def test_eta_matches_mpmath_along_a_shift_walk():
    mpmath = pytest.importorskip("mpmath")
    worst = 0.0
    with mpmath.workdps(30):
        for w in _shift_walk_arguments():
            ref = complex(mpmath.eta(w))
            worst = max(worst, abs(dedekind_eta(w) - ref) / abs(ref))
    assert worst <= 1e-12


TAU_INVARIANCE = [GroupElem(1, 0, 1, 1), GroupElem(2, 15, 1, 8)]
LAMBDA_INVARIANCE = [GroupElem(1, 0, 1, 1), GroupElem(1, 15, 0, 1),
                     GroupElem(16, 15, 1, 1)]


@pytest.mark.parametrize("m", TAU_INVARIANCE)
def test_tau_invariance(m):
    rng = random.Random(61)
    for z in band_points(rng, 6):
        ref = tau(z)
        moved = tau(mobius(m, z))
        assert abs(moved - ref) / (1.0 + abs(ref)) < 1e-9


@pytest.mark.parametrize("m", LAMBDA_INVARIANCE)
def test_lambda_invariance(m):
    rng = random.Random(62)
    for z in band_points(rng, 6):
        ref = lambda_fn(z)
        moved = lambda_fn(mobius(m, z))
        assert abs(moved - ref) / (1.0 + abs(ref)) < 1e-9


def test_square_function_against_quartic_root():
    rng = random.Random(17)
    for z in band_points(rng, 12):
        t = tau(z)
        lam = lambda_fn(z)
        s_rat = sigma(z)
        quart = t ** 4 - 10.0 * t ** 3 - 13.0 * t * t + 10.0 * t + 1.0
        s_root = cmath.sqrt(quart)
        if abs(s_root - s_rat) > abs(-s_root - s_rat):
            s_root = -s_root
        assert abs(s_rat - s_root) / (1.0 + abs(s_root)) < 1e-9
        lhs = 250.0 * t ** 4 * lam * lam
        rhs = ((125.0 * t - 125.0) * t ** 3 - 104.0 * t * t - 19.0 * t - 1.0) * s_root \
            + (((((125.0 * t - 750.0) * t - 396.0) * t + 374.0) * t + 180.0) * t + 24.0) * t + 1.0
        assert abs(lhs - rhs) / (1.0 + abs(lhs) + abs(rhs)) < 1e-9


def test_identity_residual_panel():
    # Z -> 1/Z fixes tau, lambda and sigma, so the identities hold on both
    # roots: the panel runs with no branch value (the smaller root) and
    # with each root given
    rng = random.Random(2026)
    for z in band_points(rng, 50):
        pair = z_root_pair(z)
        for branch in (None, pair.first, pair.second):
            res = identity_residuals(z, branch_value=branch)
            assert res["square_quartic"] < 1e-9
            for key in ("weight_relation", "branch_quadratic",
                        "side_constraint", "level5_link", "odd_cubic_square",
                        "cubic_model"):
                assert res[key] < 1e-8, (key, z, branch, res[key])
    # branch_value is keyword-only: a second positional argument, such as
    # a context, is refused rather than read as a branch value
    with pytest.raises(TypeError):
        identity_residuals(z, EtaContext())


def test_identity_residuals_evaluate_one_eta_quartet(monkeypatch):
    calls = []
    evaluate = etaengine.dedekind_eta

    def counted(z, ctx=None):
        calls.append(z)
        return evaluate(z, ctx)
    monkeypatch.setattr(etaengine, "dedekind_eta", counted)
    identity_residuals(0.13 + 1.07j)
    assert len(calls) == 4


def test_j_special_values():
    assert abs(j_fricke(1j) - 1728.0) < 1e-8 * 1728.0
    omega = cmath.exp(2j * math.pi / 3.0)
    assert abs(j_fricke(omega)) < 1e-6


def test_j_real_monotone_on_unit_arc():
    thetas = [math.pi / 2.0 + (math.pi / 6.0) * k / 49.0 for k in range(50)]
    values = []
    for th in thetas:
        jv = j_fricke(cmath.exp(1j * th))
        assert abs(jv.imag) < 1e-6 * (1.0 + abs(jv))
        values.append(jv.real)
    assert abs(values[0] - 1728.0) < 1e-6 * 1728.0
    assert abs(values[-1]) < 1e-6
    assert all(a > b for a, b in zip(values, values[1:]))


def test_j_at_golden_quotient_point():
    # tau is exactly the golden-ratio quartic root at the translate, so j
    # there must agree with the exact special-value computation.
    assert abs(tau(Z0_POINT) - complex(ALPHA_P)) < 1e-12
    target = exact_j_target()
    assert abs(j_fricke(Z0_POINT) - target["j_float"]) < 1e-10 * target["j_float"]
    assert abs(target["j_float"] - J_TARGET) < 1e-10


def test_branch_seed_at_i():
    zv = z_eval(1j)
    assert zv.imag > 0
    assert abs(abs(zv) - 1.0) < 1e-12
    pair = z_root_pair(1j)
    others = [pair.first, pair.second]
    assert min(abs(zv - o) for o in others) < 1e-14
    assert abs(zv - z_eval(1j)) == 0.0


def test_branch_hint_selection():
    rng = random.Random(8)
    z = band_points(rng, 1)[0]
    pair = z_root_pair(z)
    assert abs(z_eval(z, hint=pair.first) - pair.first) == 0.0
    assert abs(z_eval(z, hint=pair.second) - pair.second) == 0.0


def test_branch_without_hint_is_the_seeded_value():
    # no hint means the one cold start: continuation from the seed at i
    rng = random.Random(8)
    for z in band_points(rng, 20):
        assert z_eval(z) == z_eval_from_seed(z)


def test_branch_seeded_value_vanishes_at_degenerate_point():
    zv = z_eval_from_seed(Z0_POINT)
    assert abs(zv) < 1e-6
    assert z_eval(Z0_POINT) == zv


def test_branch_roots_are_reciprocal():
    rng = random.Random(21)
    for z in band_points(rng, 10):
        pair = z_root_pair(z)
        assert abs(pair.first * pair.second - 1.0) < 1e-8


def test_seed_continuation_deterministic():
    rng = random.Random(77)
    for z in band_points(rng, 5):
        a = z_eval_from_seed(z)
        b = z_eval_from_seed(z)
        assert a == b
        pair = z_root_pair(z)
        assert min(chordal(a, pair.first), chordal(a, pair.second)) < 1e-10


def test_psi_phi_vanishes_toward_branch_zero():
    mags = []
    for h in (0.2, 0.05, 0.01, 0.002):
        z = Z0_POINT + 1j * h
        zv = z_eval(z, hint=0.0)
        psi, phi = psi_phi(z, zv)
        mags.append((abs(psi), abs(phi)))
    assert all(a > b for (a, _), (b, _) in zip(mags, mags[1:]))
    assert all(a > b for (_, a), (_, b) in zip(mags, mags[1:]))
    assert mags[-1][0] < 1e-2
    assert mags[-1][1] < 1e-2


def test_psi_phi_pole_guards():
    z = 0.1 + 1.2j
    for bad in (1.0, cmath.exp(1j * math.pi / 3.0), (3.0 + math.sqrt(5.0)) / 2.0):
        with pytest.raises(NearPole):
            psi_phi(z, bad)


def test_psi_phi_default_branch_is_the_seed_continuation():
    z = 0.13 + 1.07j
    assert psi_phi(z) == psi_phi(z, z_eval_from_seed(z))


def test_sigma_pole_guard_follows_the_module_constant(monkeypatch):
    monkeypatch.setattr(etaengine, "_POLE_TOL", 1e12)
    with pytest.raises(NearPole):
        sigma(0.1 + 1.2j)


def test_j_near_pole_at_cusp():
    with pytest.raises(NearPole):
        j_fricke(0.01j)


def test_chordal_metric():
    inf = complex(math.inf, 0.0)
    assert chordal(0.0, inf) == 1.0
    assert chordal(inf, inf) == 0.0
    assert chordal(2.0 + 1j, 2.0 + 1j) == 0.0
    assert abs(chordal(0.0, 1.0) - 1.0 / math.sqrt(2.0)) < 1e-15


def test_avatar_row_one_matches_plain_eval():
    assert avatar_eval(1, 1j) == z_eval(1j)


def test_avatar_hint_and_quadratic_invariant():
    table = load_table()
    hint = z_eval(mobius(table.rep(41), 1j))
    z = 0.02 + 1.01j
    val = avatar_eval(41, z, hint)
    pair = z_root_pair(mobius(table.rep(41), z))
    quad = pair.quad_a * val * val + pair.quad_b * val + pair.quad_a
    scale = abs(pair.quad_a) * (1.0 + abs(val) ** 2) + abs(pair.quad_b) * abs(val)
    assert abs(quad) / (1.0 + scale) < 1e-8


def _pair_set(z):
    p = z_root_pair(z)
    return p.first, p.second


def _setwise_close(pa, pb, tol):
    direct = max(chordal(pa[0], pb[0]), chordal(pa[1], pb[1]))
    crossed = max(chordal(pa[0], pb[1]), chordal(pa[1], pb[0]))
    return min(direct, crossed) < tol


def test_avatar_transport_matches_table_action():
    table = load_table()
    rng = random.Random(3000)
    rows = rng.sample(range(1, 97), 10)
    for n in rows:
        for z in (0.13 + 1.07j, -0.31 + 0.98j, 0.02 + 1.4j):
            row = table.by_index[n]
            pa = _pair_set(mobius(table.rep(n), mobius(R, z)))
            pb = _pair_set(mobius(table.rep(row.n_r), z))
            assert _setwise_close(pa, pb, 1e-8)
            u = min(pa, key=abs)
            if chordal(u, 1.0 / u if u != 0 else complex(math.inf, 0)) > 1e-6:
                va = avatar_eval(n, mobius(R, z), u)
                vb = avatar_eval(row.n_r, z, u)
                assert chordal(va, vb) < 1e-8


def test_avatar_row41_fixed_by_shift_element():
    rng = random.Random(3001)
    for z in band_points(rng, 10):
        az = mobius(SHIFT_ELEMENT, z)
        table = load_table()
        pa = _pair_set(mobius(table.rep(41), az))
        pb = _pair_set(mobius(table.rep(41), z))
        assert _setwise_close(pa, pb, 1e-8)
        u = min(pb, key=abs)
        if chordal(u, 1.0 / u if u != 0 else complex(math.inf, 0)) > 1e-6:
            assert chordal(avatar_eval(41, az, u),
                           avatar_eval(41, z, u)) < 1e-8


def test_rejects_lower_half_plane():
    for fn in (dedekind_eta, tau, lambda_fn, tau5, sigma, j_fricke):
        with pytest.raises(ValueError):
            fn(0.3 - 1j)


@pytest.mark.parametrize("z", [complex(math.inf, 1.0), complex(math.nan, 1.0),
                               complex(0.3, math.inf), complex(0.3, math.nan)])
def test_rejects_non_finite_points(z):
    # rejected at entry: the reduction's round() cannot take them
    for fn in (dedekind_eta, tau, lambda_fn, tau5, sigma, j_fricke,
               z_eval_from_seed, reduce_to_fundamental):
        with pytest.raises(ValueError, match="finite") as err:
            fn(z)
        assert str(z) in str(err.value)


# Near the cusp 0 tau reaches ~1e81 here; the branch quadratic's
# coefficients once reached ~1e245 and its discriminant overflowed.
CUSP_POINT = complex(0.006552700655029886, 0.0320233352088164)


def test_branch_value_near_a_cusp_is_finite():
    v = z_eval_from_seed(CUSP_POINT)
    assert cmath.isfinite(v)
    # tau -> infinity at the cusp: the roots tend to a reciprocal pair on
    # the unit circle
    assert abs(abs(v) - 1.0) < 1e-9
    pair = z_root_pair(CUSP_POINT)
    assert min(chordal(v, pair.first), chordal(v, pair.second)) < 1e-10
    assert abs(pair.first * pair.second - 1.0) < 1e-12


def test_residuals_near_a_cusp_raise_near_pole_with_the_point():
    # tau^4 leaves double range there
    with pytest.raises(NearPole) as err:
        identity_residuals(CUSP_POINT)
    assert err.value.z == CUSP_POINT
    assert str(CUSP_POINT) in str(err.value)


def test_cusp_panel_is_finite_or_raises_near_pole():
    rng = random.Random(2024)
    ctx = EtaContext()
    finite = raised = 0
    for _ in range(3000):
        z = complex(rng.uniform(-0.5, 0.5), 0.03 * 50.0 ** rng.random())
        try:
            v = z_eval_from_seed(z, ctx)
            assert cmath.isfinite(v), z
            res = identity_residuals(z, branch_value=v)
            assert all(math.isfinite(r) for r in res.values()), z
            finite += 1
        except NearPole as exc:
            assert exc.z is not None
            raised += 1
    assert raised > 0 and finite > 2900


def test_root_pair_overflow_raises_rather_than_returning_nan(monkeypatch):
    # without the cusp form the discriminant overflows at CUSP_POINT
    monkeypatch.setattr(etaengine, "_TAU_DIVIDE", math.inf)
    with pytest.raises(NearPole) as err:
        z_root_pair(CUSP_POINT)
    assert err.value.z == CUSP_POINT


def test_root_pair_divided_through_agrees_in_the_band(monkeypatch):
    # the cusp form of the branch quadratic has the same roots
    points = band_points(random.Random(91), 40)
    plain = [z_root_pair(z) for z in points]
    monkeypatch.setattr(etaengine, "_TAU_DIVIDE", 0.0)
    for z, ref in zip(points, plain):
        pair = z_root_pair(z)
        assert chordal(pair.first, ref.first) < 1e-12, z
        assert chordal(pair.second, ref.second) < 1e-12, z


def _quadratic_residual(pair, r):
    # |a r^2 + b r + a|, relative to |a| where a != 0; the quadratic is
    # palindromic, so the root inf is checked through its reciprocal 0
    a, b = pair.quad_a, pair.quad_b
    if cmath.isinf(r):
        r = 0j
    return abs(a * r * r + b * r + a) / (abs(a) or 1.0)


def test_root_pair_degenerate_branches(monkeypatch):
    # q == 0: b = 0 and 4a^2 underflows, leaving a (Z^2 + 1) = 0
    for name in ("_CUBE27_F", "_BETA_F", "_GAMMA_F", "_DELTA_F"):
        monkeypatch.setattr(etaengine, name, 0.0)
    monkeypatch.setattr(etaengine, "_RHS_SCALE_F", 3.0 * 2.0 ** -600)
    pair = etaengine._roots(*etaengine._quad_coeffs(
        1j, 1 + 0j, 2.0 ** -600 + 0j))
    assert pair.quad_a != 0 and pair.quad_b == 0
    assert {pair.first, pair.second} == {1j, -1j}
    for r in (pair.first, pair.second):
        assert _quadratic_residual(pair, r) < 1e-15
    assert etaengine._nearest(pair, 0.2 + 0.9j) == 1j
    assert etaengine._nearest(pair, 0.2 - 0.9j) == -1j
    # a == 0: the roots are 0 and inf
    monkeypatch.setattr(etaengine, "_RHS_SCALE_F", 0.0)
    pair = etaengine._roots(*etaengine._quad_coeffs(1j, 0j, 1 + 0j))
    assert pair.quad_a == 0
    assert pair.first == 0 and cmath.isinf(pair.second)
    for r in (pair.first, pair.second):
        assert _quadratic_residual(pair, r) == 0.0
    assert etaengine._nearest(pair, 0.1 + 0.1j) == 0
    assert cmath.isinf(etaengine._nearest(pair, 1e6j))


def test_quotients_out_of_double_range_raise_near_pole():
    # nearer the cusps 0 and 1/2 the quotients themselves overflow
    for fn, z in ((tau, 0.008j), (lambda_fn, 0.008j), (sigma, 0.01j),
                  (z_eval_from_seed, 0.008j), (tau5, 0.5 + 0.0001j),
                  (j_fricke, 0.5 + 0.001j), (j_fricke, 0.25 + 0.0003j)):
        with pytest.raises(NearPole) as err:
            fn(z)
        assert err.value.z is not None


@pytest.mark.parametrize("what, quartet", [
    ("tau", (0j, 1 + 0j, 1 + 0j, 1 + 0j)),                  # e1 = 0
    ("tau", (1 + 0j, 1e160 + 0j, 1 + 0j, 1 + 0j)),          # overflow
    ("tau", (1 + 0j, complex(math.nan, 0.0), 1 + 0j, 1 + 0j)),  # NaN
    ("lambda", (1 + 0j, 1e60 + 0j, 1e-60 + 0j, 1 + 0j)),    # overflow
    ("lambda", (1e-10 + 0j, 1e50 + 0j, 1 + 0j, 1e60 + 0j)),  # inf quotient
])
def test_tau_lambda_out_of_range_names_the_quotient(what, quartet):
    z = 0.3 + 0.01j
    with pytest.raises(NearPole, match=f"^{what} leaves") as err:
        etaengine._tau_lambda(z, *quartet)
    assert err.value.z == z
    assert err.value.__cause__ is None
    assert err.value.__suppress_context__ or err.value.__context__ is None


def test_seed_walk_near_pole_carries_the_requested_point():
    # the walk's last segment point is 0.008000000000000007j; the error
    # names the point that was asked for
    with pytest.raises(NearPole) as err:
        z_eval_from_seed(0.008j)
    assert err.value.z == 0.008j
