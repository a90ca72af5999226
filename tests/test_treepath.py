"""Tests for the base-arc geometry: the marked point c, edge paths built
from words, avatar pole scans along paths, and local intersection checks."""

import cmath
import math
import random

import pytest

from zetapath import etaengine, treepath
from zetapath.errors import Blocked, NotReduced
from zetapath.etaengine import (
    EtaContext, arc_root_pair, chordal, j_fricke, z_eval_from_seed,
    z_root_pair,
)
from zetapath.exactquad import exact_j_target
from zetapath.sl2z import (
    IDENTITY, R, S, SHIFT_AVATAR, SHIFT_ELEMENT, SHIFT_WORD,
    is_reduced_alternating, load_table, mobius, word_eval,
)
from zetapath.treepath import (
    OMEGA, THETA_I, THETA_OMEGA, avatar_trajectory, build_path, find_c,
    pole_scan, verify_local_intersections,
)

from oracles import BAD_WORD, mp_root_pair


# ---------------------------------------------------------------- marked point


def test_find_c_on_unit_circle_interior():
    c = find_c()
    assert abs(abs(c) - 1.0) < 1e-15
    theta = cmath.phase(c)
    assert THETA_I < theta < THETA_OMEGA


def test_find_c_hits_j_target():
    c = find_c()
    target = float(exact_j_target()["j_float"])
    assert abs(j_fricke(c).real - target) < 1e-8
    assert abs(j_fricke(c).imag) < 1e-8


def test_find_c_real_part_quarter():
    # the marked point is exactly -1/4 + (sqrt 15 / 4) i; bisection to
    # 1e-13 in angle should pin the real part well below that
    c = find_c()
    assert abs(c.real + 0.25) < 1e-9
    assert abs(c.imag - math.sqrt(15.0) / 4.0) < 1e-9


def test_find_c_deterministic():
    a = find_c()
    b = find_c.__wrapped__()  # force a genuine re-run past the cache
    assert a == b


# ---------------------------------------------------------------- path builder


def test_alternation_predicate():
    # build_path accepts exactly the words this predicate accepts
    assert is_reduced_alternating("RSrSR")
    assert is_reduced_alternating("S")
    assert not is_reduced_alternating("RR")
    assert not is_reduced_alternating("Rr")
    assert not is_reduced_alternating("SS")


@pytest.mark.parametrize("word", ["RR", "SS", "Rr", "SRRS", "RSrr"])
def test_not_reduced_rejected(word):
    with pytest.raises(NotReduced):
        build_path(word)


def test_invalid_letters_rejected():
    with pytest.raises(ValueError):
        build_path("RXS")


def test_single_letter_path():
    path = build_path("S")
    assert len(path.edges) == 2
    # the two edges share the square-rotation fixed point i
    assert abs(path.edges[0].end - 1j) < 1e-12
    assert abs(path.edges[1].start - 1j) < 1e-12
    c = find_c()
    assert path.start == c
    assert abs(path.endpoint - mobius(S, c)) < 1e-12


def test_rotation_letter_path_meets_at_omega():
    path = build_path("R")
    assert abs(path.edges[0].end - OMEGA) < 1e-12
    assert abs(mobius(R, OMEGA) - OMEGA) < 1e-15


def test_shift_word_path_shape():
    path = build_path(SHIFT_WORD)
    assert len(path.edges) == len(SHIFT_WORD) + 1 == 18
    assert path.max_vertex_mismatch < 1e-12


def test_shift_word_endpoint():
    path = build_path(SHIFT_WORD)
    c = find_c()
    end = mobius(SHIFT_ELEMENT, c)
    assert path.start == c
    assert abs(path.endpoint - end) < 1e-12
    g = word_eval(SHIFT_WORD)
    assert g == SHIFT_ELEMENT or -g == SHIFT_ELEMENT
    # the image hugs the real axis but stays strictly inside the upper
    # half plane
    assert 3.3e-4 < path.endpoint.imag < 3.5e-4


def test_point_parameterization():
    path = build_path(SHIFT_WORD)
    assert path.point(0.0) == path.start
    assert path.point(1.0) == path.endpoint
    k = len(path.edges)
    for j in (1, 5, 11):
        assert abs(path.point(j / k) - path.edges[j].start) < 1e-12
    with pytest.raises(ValueError):
        path.point(-0.01)
    with pytest.raises(ValueError):
        path.point(1.01)


def test_path_samples_attribute():
    assert build_path("S", samples=777).samples == 777


def test_path_samples_must_be_a_positive_integer():
    # a float count is refused when the path is built, not later by the
    # range() of a walk over it; an integral float is no exception
    for samples in (1.7, 2.0):
        with pytest.raises(TypeError):
            build_path("S", samples)
    with pytest.raises(ValueError):
        build_path("S", 0)


def _reduced_alternating_words(max_len):
    words = [""]
    for word in words:
        if len(word) < max_len:
            nexts = "Rr" if word[-1:] == "S" else "S" if word else "RrS"
            words += [word + ch for ch in nexts]
    return words


def test_prefixes_pairwise_distinct():
    # for every reduced alternating word, no two prefix matrices agree up
    # to sign, so build_path's edge list never revisits an edge of the tree
    letters = {"R": R, "r": R.inv(), "S": S}
    words = _reduced_alternating_words(12)
    # 2^floor(L/2) + 2^ceil(L/2) of each length L from 1, and the empty one
    assert len(words) == 442
    for word in words + [SHIFT_WORD]:
        assert is_reduced_alternating(word)
        prefixes = [IDENTITY]
        for ch in word:
            prefixes.append(prefixes[-1] * letters[ch])
        keys = {min(g.entries(), (-g).entries()) for g in prefixes}
        assert len(keys) == len(prefixes), word


# ------------------------------------------------------------------ pole scan


def test_avatar_41_small_at_marked_point():
    c = find_c()
    rep = load_table().rep(41)
    assert abs(z_eval_from_seed(mobius(rep, c))) < 1e-10


def test_the_shift_avatar_is_the_only_one_vanishing_at_c():
    # why the tracer takes no avatar index: a trace starts at zeta = 0,
    # and of the 96 avatars only SHIFT_AVATAR vanishes at c
    c = find_c()
    table = load_table()
    moduli = {n: abs(z_eval_from_seed(mobius(table.rep(n), c)))
              for n in range(1, 97)}
    assert moduli.pop(SHIFT_AVATAR) < 1e-12
    assert min(moduli.values()) >= 1e-2


def test_pole_scan_shift_path_clean():
    path = build_path(SHIFT_WORD)
    peak = pole_scan(path, 41)
    assert math.isfinite(peak)
    # the modulus genuinely leaves the unit annulus mid-path
    assert 40.0 < peak < 60.0


def test_pole_scan_density_stable():
    a = pole_scan(build_path(SHIFT_WORD, samples=2000), 41)
    b = pole_scan(build_path(SHIFT_WORD, samples=4000), 41)
    assert abs(a - b) / a < 0.01


def test_pole_scan_blocked_word():
    path = build_path(BAD_WORD)
    with pytest.raises(Blocked) as exc:
        pole_scan(path, 41)
    assert exc.value.t is not None
    assert 0.99 < exc.value.t <= 1.0


def test_pole_scan_cap_adjustable():
    # a generous cap lets the same walk finish and report its peak
    path = build_path(BAD_WORD)
    peak = pole_scan(path, 41, pole_cap=1e16)
    assert peak > 1e6


@pytest.mark.parametrize("cap", [math.nan, 0.0, -1.0])
def test_pole_scan_refuses_a_cap_before_walking(cap, monkeypatch):
    # a NaN cap fails every comparison and would switch the cap off
    monkeypatch.setattr(treepath, "avatar_trajectory", None)
    with pytest.raises(ValueError):
        pole_scan(build_path(SHIFT_WORD), 41, pole_cap=cap)


def test_pole_scan_infinite_cap_means_no_cap():
    path = build_path(BAD_WORD)
    assert pole_scan(path, 41, pole_cap=math.inf) == pole_scan(
        path, 41, pole_cap=1e300)


def test_pole_scan_same_peak_cold_and_warm():
    path = build_path(SHIFT_WORD)
    ctx = EtaContext()
    cold = pole_scan(path, 41, ctx=ctx)
    traj = ctx.trajectory
    warm = pole_scan(path, 41, ctx=ctx)
    assert ctx.trajectory is traj
    assert warm == cold


def test_pole_scan_blocked_at_the_same_t_on_a_filled_trajectory():
    path = build_path(BAD_WORD)
    with pytest.raises(Blocked) as cold:
        pole_scan(path, 41, pole_cap=100.0)
    ctx = EtaContext()
    pole_scan(path, 41, pole_cap=1e16, ctx=ctx)  # walks the whole grid
    with pytest.raises(Blocked) as warm:
        pole_scan(path, 41, pole_cap=100.0, ctx=ctx)
    assert warm.value.t == cold.value.t


# ------------------------------------------------------------------ trajectory


def test_trajectory_doubled_grid_contains_the_coarse_one():
    coarse = avatar_trajectory(build_path(SHIFT_WORD), 41, ctx=EtaContext())
    fine = avatar_trajectory(build_path(SHIFT_WORD, samples=4000), 41,
                             ctx=EtaContext())
    assert coarse.count == 2000 and fine.count == 4000
    assert all(fine[2 * k] == coarse[k] for k in range(2001))


def test_trajectory_keeps_one_entry_per_context():
    path = build_path(SHIFT_WORD)
    ctx = EtaContext()
    first = avatar_trajectory(path, 41, ctx=ctx)
    assert avatar_trajectory(path, 41, ctx=ctx) is first
    # an equal path built again shares the entry
    assert avatar_trajectory(build_path(SHIFT_WORD), 41, ctx=ctx) is first
    other = avatar_trajectory(build_path(SHIFT_WORD, samples=1000), 41,
                              ctx=ctx)
    assert other is not first and ctx.trajectory is other
    assert avatar_trajectory(path, 41, ctx=ctx) is not first


def test_trajectory_walks_lazily(monkeypatch):
    calls = []
    evaluate = treepath.AvatarTrajectory.at

    def counted(self, t, hint):
        calls.append(t)
        return evaluate(self, t, hint)
    monkeypatch.setattr(treepath.AvatarTrajectory, "at", counted)
    path = build_path(SHIFT_WORD)
    traj = avatar_trajectory(path, 41, ctx=EtaContext())
    assert abs(traj[0]) < 1e-10 and calls == []
    traj[10]
    traj[3]
    assert calls == [k / 2000 for k in range(1, 11)]


def _setwise_chordal(pair, ref):
    u, v = pair.first, pair.second
    return min(max(chordal(u, ref[0]), chordal(v, ref[1])),
               max(chordal(u, ref[1]), chordal(v, ref[0])))


@pytest.mark.parametrize("word", [SHIFT_WORD, BAD_WORD])
def test_each_edge_reads_the_coset_table_of_its_product(word):
    # avatar 41 at g x is coset m = coset_index(P_41 g) at x itself
    table = load_table()
    rep = table.rep(SHIFT_AVATAR)
    path = build_path(word)
    traj = avatar_trajectory(path, SHIFT_AVATAR, ctx=EtaContext())
    assert traj.cosets == tuple(table.coset_index(rep * e.g)
                                for e in path.edges)
    worst = 0.0
    for m, e in zip(traj.cosets, path.edges):
        for k in range(9):
            theta = e.theta_from + (e.theta_to - e.theta_from) * k / 8
            ref = z_root_pair(mobius(rep * e.g, cmath.exp(1j * theta)))
            worst = max(worst, _setwise_chordal(arc_root_pair(m, theta),
                                                (ref.first, ref.second)))
    assert worst <= 1e-11


def test_coset_tables_resolve_to_rounding():
    # the last two Chebyshev coefficients of a and b on every coset the
    # shift path visits; with 20 nodes they reach 3.8e-12 of the largest
    table = load_table()
    rep = table.rep(SHIFT_AVATAR)
    cosets = {table.coset_index(rep * e.g)
              for e in build_path(SHIFT_WORD).edges}
    assert len(cosets) == 17
    for m in cosets:
        a0, b0, tail = etaengine._arc_table(m)
        series = [(a0, b0), *reversed(tail)]
        assert len(series) == etaengine._ARC_NODES
        largest = max(max(abs(a), abs(b)) for a, b in series)
        for a, b in series[-2:]:
            assert max(abs(a), abs(b)) < 1e-13 * largest, m


def test_walk_matches_mpmath_eta_at_the_unreduced_points():
    # the direct eta quartet at these points was up to 1.3e-13 off (every
    # 25th point of the walk); the coset tables measured 1.6e-14 at these
    # twelve and 3.8e-14 at every 25th
    mpmath = pytest.importorskip("mpmath")
    path = build_path(SHIFT_WORD, samples=3000)
    traj = avatar_trajectory(path, SHIFT_AVATAR, ctx=EtaContext())
    rep = load_table().rep(SHIFT_AVATAR)
    worst = 0.0
    with mpmath.workdps(30):
        for k in sorted(random.Random(21).sample(range(1, 3001), 12)):
            ref = mp_root_pair(mpmath, mobius(rep, path.point(k / 3000)))
            worst = max(worst, min(chordal(traj[k], r) for r in ref))
    assert worst <= 5e-14


# ---------------------------------------------------------- local intersections


def test_local_intersections_report():
    report = verify_local_intersections()
    assert report["ok"] is True
    assert report["identity_same_set"] is True
    for name in ("R", "r", "-R", "S", "-S"):
        case = report["vertex_cases"][name]
        assert case["fixes_vertex"] is True
        assert case["separation_away_from_vertex"] > 1e-6
    panel = {entry["word"]: entry["min_distance"] for entry in report["panel"]}
    assert len(panel) == 50
    assert "RS" in panel and "SR" in panel
    assert min(panel.values()) > 1e-6


def test_local_intersections_fail_a_panel_word_near_the_arc(monkeypatch):
    # R's image shares the vertex omega with the base arc
    monkeypatch.setattr(treepath, "_panel_words", lambda count: ["R"])
    report = verify_local_intersections()
    assert report["panel"][0]["min_distance"] < 1e-3
    assert report["ok"] is False
