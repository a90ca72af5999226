"""Acceptance suite: one test per shipping criterion, each with its
stated tolerance and wall-clock budget.  Every test prints a single
PASS line on success (visible under pytest -s); a failure shows up as
the usual pytest FAILED line with the assertion detail.

Traces are cached at module level so the stability criterion can reuse
the sweep instead of re-running forty traces.
"""

import cmath
import functools
import math
import random
import time

import pytest

from zetapath.cli import _build_parser
from zetapath.etaengine import (EtaContext, dedekind_eta, identity_residuals,
                                j_fricke, sigma, tau)
from zetapath.exactquad import exact_j_target, run_symbolic_suite
from zetapath.sl2z import GroupElem, coset_key, load_table, mobius
from zetapath.tracer import SHIFT_WORD, TraceOptions, run_experiment, trace
from zetapath.treepath import build_path, find_c, pole_scan
from zetapath.zetafn import find_zeros, reference_zeros, zeta

P41 = GroupElem(4, 1, -1, 0)
ALPHA_PRIME = (-1.0 + math.sqrt(5.0)) / 2.0


def eta_q_product(z, terms=2000):
    """Independent oracle: plain q-product, no reduction, no multiplier."""
    q = cmath.exp(2j * math.pi * z)
    prod = 1.0 + 0j
    qn = 1.0 + 0j
    for _ in range(terms):
        qn *= q
        prod *= 1.0 - qn
        if abs(qn) < 1e-19:
            break
    return cmath.exp(1j * math.pi * z / 12.0) * prod


def band_points(rng, count):
    pts = []
    while len(pts) < count:
        z = complex(rng.uniform(-0.5, 0.5), rng.uniform(0.88, 1.6))
        if abs(z) >= 1.0:
            pts.append(z)
    return pts


def random_element(rng, bound=50):
    while True:
        m = GroupElem(1, 0, 0, 1)
        for _ in range(rng.randrange(2, 10)):
            if rng.random() < 0.5:
                m = m * GroupElem(1, rng.randrange(-3, 4), 0, 1)
            else:
                m = m * GroupElem(0, -1, 1, 0)
        if max(abs(e) for e in m.entries()) <= bound and m.c != 0:
            return m


def sign_normalize(m):
    if m.c < 0 or (m.c == 0 and m.d < 0):
        return -m
    return m


@functools.lru_cache(maxsize=None)
def _sweep(samples):
    """Shared 20-trace sweep at the given path density."""
    path = build_path(SHIFT_WORD, samples=samples)
    zeros = find_zeros(25)
    start = time.perf_counter()
    summary = run_experiment(20, path=path, zeros=zeros)
    wall = time.perf_counter() - start
    return summary, wall, zeros


def test_symbolic_identities_verify_exactly():
    start = time.perf_counter()
    report = run_symbolic_suite()
    elapsed = time.perf_counter() - start
    assert report["ok"], [r for r in report["identities"] if not r["ok"]]
    assert len(report["identities"]) == 8
    assert elapsed < 1.0, f"symbolic suite took {elapsed:.3f}s"
    print(f"criterion 1 PASS: 8 exact identities in {elapsed:.3f}s")


def test_coset_table_and_conjugation_verify_exactly():
    start = time.perf_counter()
    table = load_table()
    report = table.verify()
    assert report["ok"], report
    assert report["rows"] == 96
    rep = table.rep(41)
    shift = GroupElem(-8, -21, 21, 55)
    conj = rep * shift * rep.inv()
    assert coset_key(conj) == (1, 0)
    elapsed = time.perf_counter() - start
    assert elapsed < 1.0, f"coset verification took {elapsed:.3f}s"
    print(f"criterion 2 PASS: 96 cosets + conjugation check in {elapsed:.3f}s")


def test_modular_functions_meet_tolerances():
    start = time.perf_counter()
    ctx = EtaContext()

    for z in (1j, 2j):
        mine = dedekind_eta(z, ctx)
        oracle = eta_q_product(z)
        assert abs(mine - oracle) < 1e-12, f"eta({z}) off by {abs(mine - oracle):.2e}"

    rng = random.Random(47)
    for _ in range(100):
        z = complex(rng.uniform(-1.5, 1.5), rng.uniform(0.2, 2.0))
        m = sign_normalize(random_element(rng))
        rhs = (ctx.multiplier(m) * cmath.sqrt(m.c * z + m.d)
               * dedekind_eta(z, ctx))
        lhs = dedekind_eta(mobius(m, z), ctx)
        assert abs(lhs - rhs) / abs(rhs) < 1e-10

    rng = random.Random(61)
    for z in band_points(rng, 50):
        res = identity_residuals(z, ctx)
        worst = max(res.values())
        assert worst < 1e-8, f"identity residual {worst:.2e} at {z}"

    tau_fixing = [GroupElem(1, 0, 1, 1), GroupElem(2, 15, 1, 8)]
    lam_fixing = [GroupElem(1, 0, 1, 1), GroupElem(1, 15, 0, 1)]
    from zetapath.etaengine import lambda_fn
    for z in band_points(rng, 4):
        for m in tau_fixing:
            ref = tau(z, ctx)
            assert abs(tau(mobius(m, z), ctx) - ref) / (1.0 + abs(ref)) < 1e-9
        for m in lam_fixing:
            ref = lambda_fn(z, ctx)
            assert abs(lambda_fn(mobius(m, z), ctx) - ref) / (1.0 + abs(ref)) < 1e-9

    ji = j_fricke(1j, ctx)
    assert abs(ji - 1728.0) / 1728.0 < 1e-8
    omega = complex(-0.5, math.sqrt(3.0) / 2.0)
    assert abs(j_fricke(omega, ctx)) < 1e-6

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"modular checks took {elapsed:.3f}s"
    print(f"criterion 3 PASS: eta oracle, 100 transformations, 50-point "
          f"identity panel, invariance, j special values in {elapsed:.3f}s")


def test_arc_point_and_tree_path_hit_targets():
    start = time.perf_counter()
    ctx = EtaContext()
    table = load_table()

    c = find_c()
    target = 135.0 * (637.0 * math.sqrt(5.0) - 1415.0) / 2.0
    assert abs(exact_j_target()["j_float"] - target) < 1e-10
    assert abs(j_fricke(c, ctx) - target) < 1e-8

    theta = cmath.phase(c)
    assert math.pi / 2.0 < theta < 2.0 * math.pi / 3.0

    from zetapath.etaengine import z_eval_from_seed
    zc = mobius(table.rep(41), c)
    assert abs(z_eval_from_seed(zc, ctx)) < 1e-6

    z0 = mobius(P41, c)
    assert abs(tau(z0, ctx) - ALPHA_PRIME) < 1e-8
    assert abs(sigma(z0, ctx)) < 1e-6

    path = build_path(SHIFT_WORD)
    assert len(path.edges) == 18
    assert path.max_vertex_mismatch < 1e-12

    pole_scan(path, 41, ctx=ctx, table=table)

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"geometry checks took {elapsed:.3f}s"
    print(f"criterion 4 PASS: arc point, avatar root, 18-edge path, "
          f"clean pole scan in {elapsed:.3f}s")


def test_zeta_evaluator_meets_tolerances():
    start = time.perf_counter()

    assert abs(zeta(2.0 + 0j) - math.pi ** 2 / 6.0) < 1e-12
    assert abs(zeta(0j) - (-0.5)) < 1e-12

    rng = random.Random(7)
    for _ in range(20):
        s = complex(rng.uniform(0.1, 5.0), rng.uniform(0.5, 60.0))
        assert abs(zeta(s.conjugate()) - zeta(s).conjugate()) < 1e-12

    zeros = find_zeros(30)
    ordinates = list(zeros.ordinates)
    assert all(b > a for a, b in zip(ordinates, ordinates[1:]))
    for g in ordinates:
        assert abs(zeta(complex(0.5, g))) < 1e-8

    ref = reference_zeros()
    for got, want in zip(ordinates, ref.ordinates):
        assert abs(got - want) < 1e-6

    elapsed = time.perf_counter() - start
    assert elapsed < 30.0, f"zeta checks took {elapsed:.3f}s"
    print(f"criterion 5 PASS: special values, symmetry, 30 verified zeros, "
          f"reference agreement in {elapsed:.3f}s")


def test_experiment_matches_next_zero_for_twenty_starts():
    summary, wall, zeros = _sweep(2000)

    assert not summary.errors, summary.errors
    assert summary.success_count == 20

    ordinates = list(zeros.ordinates)
    for rec in summary.records:
        assert rec.matched_index == rec.m + 1
        target = complex(0.5, ordinates[rec.m])
        dists = sorted(abs(rec.end_s - complex(0.5, g)) for g in ordinates)
        assert dists[0] < 1e-6, f"m={rec.m}: endpoint {dists[0]:.2e} from nearest zero"
        assert abs(rec.end_s - target) == dists[0]
        assert dists[1] >= 10.0 * max(dists[0], 1e-12), f"m={rec.m}: weak dominance"
        assert rec.wall_time < 10.0, f"m={rec.m} took {rec.wall_time:.2f}s"

    assert wall < 300.0, f"sweep took {wall:.1f}s"

    parser = _build_parser()
    args = parser.parse_args(["experiment", "--max-m", "300"])
    assert args.max_m == 300

    print(f"criterion 6 PASS: 20/20 endpoints on the next zero with 10x "
          f"dominance in {wall:.1f}s (deep sweeps accepted up to 300)")


@pytest.mark.slow
def test_deep_sweep_on_computed_zeros_lands_every_start():
    # opt-in (pytest -m slow): the whole deep sweep, m = 1..309, on the
    # certified computed zero list rather than the packaged table
    summary = run_experiment(309)
    assert not summary.errors, summary.errors
    assert summary.success_count == 309
    assert all(r.matched_index == r.m + 1 for r in summary.records)
    print(f"deep sweep: 309/309 in {summary.wall_time:.1f}s, "
          f"{summary.zeta_evals} zeta evaluations")


def test_results_stable_under_density_doubling_and_reruns():
    base, _, _ = _sweep(2000)
    dense, _, _ = _sweep(4000)

    assert dense.success_count == 20
    worst = 0.0
    for a, b in zip(base.records, dense.records):
        assert a.matched_index == b.matched_index
        shift = abs(a.end_s - b.end_s)
        worst = max(worst, shift)
        assert shift < 1e-7, f"m={a.m}: endpoint moved {shift:.2e} on doubling"

    zeros = find_zeros(5)
    first = trace(3, zeros=zeros)
    second = trace(3, zeros=zeros)
    assert first.end_s == second.end_s
    assert first.steps == second.steps
    assert first.max_residual == second.max_residual

    print(f"criterion 7 PASS: doubling moved endpoints at most {worst:.1e}; "
          f"re-runs bitwise identical")
