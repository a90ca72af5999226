"""Geometry of the base arc, its group translates, and edge paths.

The base arc runs along the unit circle between the square-rotation fixed
point i (angle pi/2) and the cube-rotation fixed point omega (angle
2pi/3).  Translates g(arc) are the edges of a tree; a reduced alternating
word determines the unique edge path from the marked point c on the base
arc to its image under the word, and avatars are evaluated along that
path with branch continuity.

Avatar n at g x, x on the base arc, is avatar m = coset_index(P_n g) at
x itself, so a walk names one coset per edge and reads every value
after its seed from that coset's table on the base arc
(etaengine.arc_eval): no point off the base arc is evaluated.
"""

from __future__ import annotations

import cmath
import math
import operator
from dataclasses import dataclass
from functools import lru_cache
from itertools import accumulate

from .errors import Blocked, NotReduced
from . import etaengine
from .etaengine import (
    THETA_I, THETA_OMEGA, EtaContext, arc_eval, j_fricke, z_eval_from_seed,
)
from .exactquad import exact_j_target
from .sl2z import (
    _LETTERS, IDENTITY, R, S, GroupElem, is_reduced_alternating, load_table,
    mobius, word_eval,
)

OMEGA = cmath.exp(2j * math.pi / 3.0)
# Nothing here calls it: perfbench's install_probes wraps it, as it wraps
# z_eval_from_seed, by name on this module.
avatar_eval = etaengine.avatar_eval

_BISECT_THETA_TOL = 1e-13
_ARC_POINTS = 160          # samples per arc in verify_local_intersections
_PANEL_SIZE = 50           # longer words it checks against the base arc
POLE_CAP = 1e6             # avatar modulus past which every walk is Blocked
# Where CosetTable.mirror_diamond gives <4>, the walk at 1 - t is the
# conjugate of the walk at t.  The coset test is exact; the rest rests on
# Z and is checked numerically: conj Z(w) = 1 / Z(-conj(w)), and <4>
# keeps the root pair {Z, 1/Z} and takes the walked root to the other.
# <1> = K mirrors the walk to 1 / conj Z instead; it is walked in full.
_CONJUGATE_DIAMOND = 4


@dataclass(frozen=True)
class Edge:
    """One tree edge: the image of the base arc under g, traversed from
    theta_from to theta_to (angles parameterize the base arc)."""

    g: GroupElem
    theta_from: float
    theta_to: float

    def point_at(self, theta: float) -> complex:
        return mobius(self.g, cmath.exp(1j * theta))

    @property
    def start(self) -> complex:
        return self.point_at(self.theta_from)

    @property
    def end(self) -> complex:
        return self.point_at(self.theta_to)


@dataclass(frozen=True)
class TreePath:
    """Edge path from c to word(c); immutable after construction."""

    word: str
    edges: tuple[Edge, ...]
    theta_c: float
    max_vertex_mismatch: float
    samples: int = 2000

    def locate(self, t: float) -> tuple[int, float]:
        """(j, theta): edge j holds global parameter t in [0, 1], at angle
        theta of the base arc; edge j covers [j/k, (j+1)/k] with theta
        affine inside it."""
        if not 0.0 <= t <= 1.0:
            raise ValueError(f"path parameter {t} outside [0, 1]")
        k = len(self.edges)
        u = t * k
        j = min(int(u), k - 1)
        e = self.edges[j]
        return j, e.theta_from + (e.theta_to - e.theta_from) * (u - j)

    def point(self, t: float) -> complex:
        """Path point for global parameter t in [0, 1] (see locate)."""
        j, theta = self.locate(t)
        return self.edges[j].point_at(theta)

    @property
    def start(self) -> complex:
        return self.edges[0].start

    @property
    def endpoint(self) -> complex:
        return self.edges[-1].end


@lru_cache(maxsize=1)
def find_c() -> complex:
    """The unique point on the open base arc where j equals the exact
    golden-quotient special value, located by bisection in the angle.

    j is real and strictly decreasing from 1728 to 0 along the arc, so the
    bracket is guaranteed; the angle is resolved to 1e-13."""
    target = float(exact_j_target()["j_float"])
    lo, hi = THETA_I, THETA_OMEGA
    f_lo = j_fricke(cmath.exp(1j * lo)).real - target
    while hi - lo > _BISECT_THETA_TOL:
        mid = 0.5 * (lo + hi)
        f_mid = j_fricke(cmath.exp(1j * mid)).real - target
        if (f_mid > 0.0) == (f_lo > 0.0):
            lo, f_lo = mid, f_mid
        else:
            hi = mid
    return cmath.exp(1j * 0.5 * (lo + hi))


def _vertex_theta(letter: str) -> float:
    # consecutive edges p_j(arc), p_j*letter(arc) meet at p_j(i) for an
    # S-letter (S fixes i) and at p_j(omega) for a rotation letter.
    return THETA_I if letter == "S" else THETA_OMEGA


def build_path(word: str, samples: int = 2000) -> TreePath:
    """Edge path from c to word(c): prefix images of the base arc.

    A k-letter word yields k+1 edges; traversal starts at c = find_c(),
    angle theta_c on the base arc, crosses one shared vertex per letter,
    and ends at theta_c on the final edge.  Raises NotReduced unless the
    word is reduced alternating (otherwise consecutive edges would meet at
    the same vertex twice and the path would backtrack), TypeError unless
    samples is an integer, and ValueError unless samples >= 1.  A reduced
    alternating word visits no edge twice: prefix_i^-1 prefix_j is then a
    non-empty reduced alternating word, never +-I in PSL(2,Z) = Z/2 * Z/3."""
    samples = operator.index(samples)
    if samples < 1:
        raise ValueError(f"samples must be at least 1, got {samples}")
    if not is_reduced_alternating(word):
        raise NotReduced(f"word must alternate rotation and S letters: {word!r}")
    theta_c = cmath.phase(find_c())
    letters = list(word)
    k = len(letters)
    prefixes = [IDENTITY]
    for ch in letters:
        prefixes.append(prefixes[-1] * _LETTERS[ch])
    edges = []
    for j, g in enumerate(prefixes):
        t_from = theta_c if j == 0 else _vertex_theta(letters[j - 1])
        t_to = theta_c if j == k else _vertex_theta(letters[j])
        edges.append(Edge(g, t_from, t_to))
    mismatch = 0.0
    for a, b in zip(edges, edges[1:]):
        mismatch = max(mismatch, abs(a.end - b.start))
    return TreePath(word=word, edges=tuple(edges), theta_c=theta_c,
                    max_vertex_mismatch=mismatch, samples=samples)


class AvatarTrajectory:
    """Avatar n at the grid points k/count of a path, count = path.samples,
    walked lazily.

    trajectory[k], k in 0..count, evaluates every grid point up to k not
    yet reached, each hinted by the value before it, and keeps them; the
    value at k = 0 is seeded by continuation from i.  A caller that stops
    at a pole has therefore evaluated nothing past the point it rejected.
    Any other k raises IndexError: a negative k does not count from the
    end, which would name whichever point was walked last.

    Every value after the seed comes from at(t, hint), which reads edge
    j's coset table at the edge's base-arc angle.  Edge j is g_j(arc),
    g_j the product of the word's first j letters, and cosets[j] is
    coset_index(P_n g_j): the table's permutations carry avatar n through
    those letters, one letter per edge.  n and cosets index the packaged
    table, whose representatives the coset tables are built from.

    A walk is mirrored when CosetTable.mirror_diamond(n, word) is
    _CONJUGATE_DIAMOND: its value at 1 - t is then the conjugate of its
    value at t, so it walks k <= count // 2 only and reads k past that as
    trajectory[count - k].conjugate().  Reaching the middle, it fills in
    the rest as those conjugates and walks one probe point past it:
    mirror_gap is the probe's gap to the value read there, relative to
    that value's modulus where it passes 1, and stays None on a walk
    that is not mirrored.  evals counts at calls, the probe's and those
    of callers off the grid included."""

    def __init__(self, path: TreePath, n: int, ctx: EtaContext) -> None:
        table = load_table()
        rep = table.rep(n)
        self.key = (path, n)
        self.count = path.samples
        self._path = path
        self.cosets = tuple(accumulate(path.word, table.avatar_apply,
                                       initial=n))
        self.mirrored = (table.mirror_diamond(n, path.word)
                         == _CONJUGATE_DIAMOND)
        self._middle = self.count // 2 if self.mirrored else self.count
        self.mirror_gap: float | None = None
        self.evals = 0
        self._values = [z_eval_from_seed(mobius(rep, path.point(0.0)),
                                         ctx=ctx)]

    def at(self, t: float, hint: complex) -> complex:
        """The avatar at path parameter t, the root nearest the hint."""
        self.evals += 1
        j, theta = self._path.locate(t)
        return arc_eval(self.cosets[j], theta, hint)

    def __getitem__(self, k: int) -> complex:
        if not 0 <= k <= self.count:
            raise IndexError(f"grid index {k} outside 0..{self.count}")
        values = self._values
        if k >= len(values):
            middle = self._middle
            if k > middle:
                return self[self.count - k].conjugate()
            while len(values) <= k:
                values.append(self.at(len(values) / self.count, values[-1]))
            if self.mirrored and k == middle:
                values += [v.conjugate()
                           for v in reversed(values[:self.count - middle])]
                probe = self.at((middle + 1) / self.count, values[middle])
                mirror = values[middle + 1]
                self.mirror_gap = abs(probe - mirror) / max(abs(mirror), 1.0)
        return values[k]


def avatar_trajectory(path: TreePath, n: int, ctx: EtaContext | None = None,
                      table=None) -> AvatarTrajectory:
    """Avatar n along the path grid k/path.samples, k = 0..path.samples.

    A table only names the coset: n becomes the packaged table's index
    of table.rep(n), so a table that numbers the cosets differently walks
    the same values.  The values do not depend on who reads them, so the
    context keeps the most recent trajectory and hands it to every later
    caller asking for the same path (its grid included) and coset."""
    ctx = ctx or EtaContext()
    if table is not None:
        n = load_table().coset_index(table.rep(n))
    traj = ctx.trajectory
    if traj is None or traj.key != (path, n):
        traj = ctx.trajectory = AvatarTrajectory(path, n, ctx)
    return traj


def pole_scan(path: TreePath, n: int, ctx: EtaContext | None = None,
              table=None) -> float:
    """Maximum |Z_n| along the path grid, walked with branch continuity.

    Reads avatar_trajectory(path, n); raises Blocked (with the offending
    parameter) at the first grid point after the start whose modulus
    exceeds POLE_CAP, read once when the scan starts."""
    pole_cap = POLE_CAP
    traj = avatar_trajectory(path, n, ctx=ctx, table=table)
    peak = abs(traj[0])
    for k in range(1, traj.count + 1):
        mag = abs(traj[k])
        if mag > peak:
            peak = mag
        if mag > pole_cap:
            t = k / traj.count
            raise Blocked(f"avatar {n} modulus {mag:.3e} exceeds the pole "
                          f"cap {pole_cap:.1e} at t={t:.6f}", t=t)
    return peak


def _arc_samples(g: GroupElem, count: int) -> list[complex]:
    return [mobius(g, cmath.exp(1j * (THETA_I + (THETA_OMEGA - THETA_I)
                                      * k / (count - 1))))
            for k in range(count)]


def _min_distance(aa: list[complex], bb: list[complex]) -> float:
    return min(abs(a - b) for a in aa for b in bb)


def _panel_words(count: int) -> list[str]:
    # reduced alternating words of increasing length; skip single letters
    # (those are the vertex-sharing special cases handled separately)
    words: list[str] = []
    frontier = ["R", "r", "S"]
    while len(words) < count:
        frontier = [w + ch for w in frontier
                    for ch in ("Rr" if w[-1] == "S" else "S")]
        words += frontier
    return words[:count]


def verify_local_intersections() -> dict:
    """How translates of the base arc meet the base arc itself.

    Checks the three local cases (identity: same set; the rotation letters
    meet only at omega; S meets only at i) and a panel of longer words
    whose edges must keep away from the base arc (minimum sample
    distance at least 1e-3).  Returns a report dict with an overall flag."""
    base = _arc_samples(IDENTITY, _ARC_POINTS)
    same = all(abs(mobius(IDENTITY, z) - z) <= 1e-15 for z in base)
    report: dict = {"identity_same_set": same, "vertex_cases": {},
                    "panel": [], "ok": same}
    # rotation letters fix omega, S fixes i; away from the shared vertex
    # the arcs must separate
    away = 0.05
    for name, g, vertex in (("R", R, OMEGA), ("r", R.inv(), OMEGA),
                            ("-R", -R, OMEGA), ("S", S, 1j), ("-S", -S, 1j)):
        fixes = abs(mobius(g, vertex) - vertex)
        base_far = [z for z in base if abs(z - vertex) > away]
        image_far = [mobius(g, z) for z in base
                     if abs(mobius(g, z) - vertex) > away]
        separated = _min_distance(base_far, image_far)
        entry = {"fixes_vertex": fixes < 1e-12,
                 "separation_away_from_vertex": separated}
        report["vertex_cases"][name] = entry
        if not entry["fixes_vertex"] or separated <= 1e-6:
            report["ok"] = False
    for w in _panel_words(_PANEL_SIZE):
        g = word_eval(w)
        image = _arc_samples(g, _ARC_POINTS)
        d = _min_distance(base, image)
        report["panel"].append({"word": w, "min_distance": d})
        if d < 1e-3:
            report["ok"] = False
    return report
