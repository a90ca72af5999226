"""Tests for the base-arc geometry: the marked point c, edge paths built
from words, avatar pole scans along paths, and local intersection checks."""

import cmath
import math

import pytest

from zetapath import treepath
from zetapath.errors import Blocked, NotReduced
from zetapath.etaengine import EtaContext, j_fricke, z_eval_from_seed
from zetapath.exactquad import exact_j_target
from zetapath.sl2z import (
    IDENTITY, R, S, SHIFT_ELEMENT, SHIFT_WORD, is_reduced_alternating,
    load_table, mobius, word_eval,
)
from zetapath.treepath import (
    OMEGA, THETA_I, THETA_OMEGA, avatar_trajectory, build_path, find_c,
    pole_scan, verify_local_intersections,
)

# Path whose endpoint lands in the index-41 pole fiber; found by scanning
# short alternating words.  One letter off the shift word's 9-th prefix.
BAD_WORD = "RSRSrSRSR"


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


def test_prefixes_pairwise_distinct():
    # no two prefix matrices agree up to sign, so the edge list never
    # revisits an edge of the tree
    prefixes = [IDENTITY]
    letters = {"R": R, "r": R.inv(), "S": S}
    for ch in SHIFT_WORD:
        prefixes.append(prefixes[-1] * letters[ch])
    for i in range(len(prefixes)):
        for j in range(i + 1, len(prefixes)):
            d = prefixes[i].inv() * prefixes[j]
            assert d != IDENTITY and -d != IDENTITY


# ------------------------------------------------------------------ pole scan


def test_avatar_41_small_at_marked_point():
    c = find_c()
    rep = load_table().rep(41)
    assert abs(z_eval_from_seed(mobius(rep, c))) < 1e-10


def test_pole_scan_shift_path_clean():
    path = build_path(SHIFT_WORD)
    peak = pole_scan(path, 41)
    assert math.isfinite(peak)
    # the modulus genuinely leaves the unit annulus mid-path
    assert 40.0 < peak < 60.0


def test_pole_scan_density_stable():
    path = build_path(SHIFT_WORD)
    a = pole_scan(path, 41, samples=2000)
    b = pole_scan(path, 41, samples=4000)
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
    path = build_path(SHIFT_WORD)
    coarse = avatar_trajectory(path, 41, ctx=EtaContext())
    fine = avatar_trajectory(path, 41, samples=4000, ctx=EtaContext())
    assert coarse.count == 2000 and fine.count == 4000
    assert all(fine[2 * k] == coarse[k] for k in range(2001))


def test_trajectory_keeps_one_entry_per_context():
    path = build_path(SHIFT_WORD)
    ctx = EtaContext()
    first = avatar_trajectory(path, 41, ctx=ctx)
    assert avatar_trajectory(path, 41, ctx=ctx) is first
    # an equal path built again shares the entry
    assert avatar_trajectory(build_path(SHIFT_WORD), 41, ctx=ctx) is first
    other = avatar_trajectory(path, 41, samples=1000, ctx=ctx)
    assert other is not first and ctx.trajectory is other
    assert avatar_trajectory(path, 41, ctx=ctx) is not first


def test_trajectory_walks_lazily(monkeypatch):
    calls = []
    evaluate = treepath.avatar_eval

    def counted(*args, **kwargs):
        calls.append(args[1])
        return evaluate(*args, **kwargs)
    monkeypatch.setattr(treepath, "avatar_eval", counted)
    path = build_path(SHIFT_WORD)
    traj = avatar_trajectory(path, 41, ctx=EtaContext())
    assert abs(traj[0]) < 1e-10 and calls == []
    traj[10]
    traj[3]
    assert calls == [path.point(k / 2000) for k in range(1, 11)]


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
