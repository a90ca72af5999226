"""Integer matrix group SL(2,Z), words in two generators, and the right
cosets of K = <-I, Gamma^1(15)> with their generator permutations.

Congruence conditions follow the upper-triangular convention throughout:
Gamma^1(15) requires b = 0 and a = d = 1 mod 15 (c unrestricted).

The 96 right cosets K g are tabulated in data/cosets.csv with columns
n,a,b,c,d,word,nR,nS: row n holds a representative matrix, a word in
R = [[0,-1],[1,1]] and S = [[0,-1],[1,0]] evaluating to that matrix up to
sign, and the indices of the cosets reached by right multiplication by R
and S.  Letters: 'R', 'r' (inverse of R), 'S'.
"""

from __future__ import annotations

import csv
from collections import Counter
from dataclasses import dataclass
from functools import lru_cache
from importlib import resources

from .errors import NonClosure

LEVEL = 15
MAX_COSETS = 512           # coset_enumerate gives up past this many


@dataclass(frozen=True)
class GroupElem:
    """An element of SL(2,Z), row-major entries a, b, c, d."""

    a: int
    b: int
    c: int
    d: int

    def __post_init__(self):
        if self.a * self.d - self.b * self.c != 1:
            raise ValueError(f"determinant is not 1: {self}")

    def __mul__(self, other: "GroupElem") -> "GroupElem":
        return GroupElem(
            self.a * other.a + self.b * other.c,
            self.a * other.b + self.b * other.d,
            self.c * other.a + self.d * other.c,
            self.c * other.b + self.d * other.d,
        )

    def inv(self) -> "GroupElem":
        return GroupElem(self.d, -self.b, -self.c, self.a)

    def __neg__(self) -> "GroupElem":
        return GroupElem(-self.a, -self.b, -self.c, -self.d)

    def __pow__(self, n: int) -> "GroupElem":
        if n < 0:
            return self.inv() ** (-n)
        out = IDENTITY
        base = self
        while n:
            if n & 1:
                out = out * base
            base = base * base
            n >>= 1
        return out

    def entries(self) -> tuple[int, int, int, int]:
        return (self.a, self.b, self.c, self.d)

    def __str__(self) -> str:
        return f"[[{self.a},{self.b}],[{self.c},{self.d}]]"


IDENTITY = GroupElem(1, 0, 0, 1)
R = GroupElem(0, -1, 1, 1)
S = GroupElem(0, -1, 1, 0)
T = GroupElem(1, 1, 0, 1)

# Order-4 hyperbolic element whose conjugate by the coset representative
# of avatar SHIFT_AVATAR, the one of the 96 that vanishes at c, lands in
# K; its tree path transports that avatar's value from one zeta zero to
# the next.  SHIFT_WORD evaluates to -SHIFT_ELEMENT, a sign K absorbs.
SHIFT_ELEMENT = (R * S * R * S * R) ** 4
SHIFT_WORD = "RSRSrSRSrSRSrSRSR"
SHIFT_AVATAR = 41

_LETTERS = {"R": R, "r": R.inv(), "S": S}
_LETTER_ENTRIES = {ch: g.entries() for ch, g in _LETTERS.items()}


def mobius(g: GroupElem, z: complex) -> complex:
    """Fractional linear action (az+b)/(cz+d); preserves the upper half-plane."""
    return (g.a * z + g.b) / (g.c * z + g.d)


def validate_word(word: str) -> None:
    bad = set(word) - set("RrS")
    if bad:
        raise ValueError(f"invalid word letters: {sorted(bad)}")


def word_eval(word: str) -> GroupElem:
    """Left-to-right product of the letter matrices, multiplied as four
    integers; one GroupElem is built, at the end."""
    validate_word(word)
    a, b, c, d = IDENTITY.entries()
    for ch in word:
        e, f, g, h = _LETTER_ENTRIES[ch]
        a, b, c, d = a * e + b * g, a * f + b * h, c * e + d * g, c * f + d * h
    return GroupElem(a, b, c, d)


def word_inverse(word: str) -> str:
    """Word evaluating to the inverse up to sign (S^-1 = -S; the sign is
    central, acts trivially on the upper half-plane, and lies in K)."""
    validate_word(word)
    swap = {"R": "r", "r": "R", "S": "S"}
    return "".join(swap[ch] for ch in reversed(word))


def is_reduced_alternating(word: str) -> bool:
    """No SS, RR, rr, Rr or rR adjacencies: letters alternate between the
    S letter and one of the R letters."""
    validate_word(word)
    for x, y in zip(word, word[1:]):
        if x == "S" and y == "S":
            return False
        if x in "Rr" and y in "Rr":
            return False
    return True


def word_normalize(word: str) -> str:
    """Rewrite to reduced alternating form using S^2 = R^3 = -I (signs are
    dropped: only the coset/path image matters to callers), in one pass:
    the output stays reduced, so each letter meets only the last one
    (SS, Rr and rR cancel; RR becomes r, rr becomes R)."""
    validate_word(word)
    out: list[str] = []
    for ch in word:
        pair = out[-1] + ch if out else ch
        if pair in ("SS", "Rr", "rR"):
            out.pop()
        elif pair in ("RR", "rr"):
            out[-1] = "r" if ch == "R" else "R"
        else:
            out.append(ch)
    return "".join(out)


def coset_key(g: GroupElem) -> tuple[int, int]:
    """Name of the right coset K g: the first row (a, b) mod 15 up to sign,
    the smaller of the two residue pairs.

    Mod 15, K is the lower unitriangular matrices up to sign, and left
    multiplication by those keeps the first row; two elements with the
    same first row up to sign differ by such a matrix on the left (the
    determinant fixes the rest).  There are 96 keys."""
    return _product_key(IDENTITY, g)


def _product_key(p: GroupElem, g: GroupElem) -> tuple[int, int]:
    """coset_key(p * g) from the first row of p g, multiplied out in
    integers: no GroupElem is built."""
    a = (p.a * g.a + p.b * g.c) % LEVEL
    b = (p.a * g.b + p.b * g.d) % LEVEL
    return min((a, b), (-a % LEVEL, -b % LEVEL))


def coset_enumerate() -> list[GroupElem]:
    """Breadth-first enumeration of the right cosets K g under right
    multiplication by R and S, starting from K itself.

    Returns one representative per coset, built as a matrix only once it
    is new.  Raises NonClosure if the walk fails to close within
    MAX_COSETS."""
    reps = [IDENTITY]
    seen = {coset_key(IDENTITY)}
    for p in reps:                  # reps is the breadth-first queue
        for g in (R, S):
            key = _product_key(p, g)
            if key not in seen:
                seen.add(key)
                reps.append(p * g)
                if len(reps) > MAX_COSETS:
                    raise NonClosure(
                        f"coset enumeration exceeded {MAX_COSETS} cosets")
    return reps


@dataclass(frozen=True)
class CosetRow:
    n: int
    rep: GroupElem
    word: str
    n_r: int
    n_s: int


class CosetTable:
    """The tabulated right cosets of K with generator permutations."""

    def __init__(self, rows: list[CosetRow]):
        self.rows = rows
        self.by_index = {row.n: row for row in rows}
        # letter -> the permutation it applies to row indices
        self._perms = {"R": {row.n: row.n_r for row in rows},
                       "r": {row.n_r: row.n for row in rows},
                       "S": {row.n: row.n_s for row in rows}}
        # key -> index of the first row with that key
        self._by_key = {coset_key(row.rep): row.n for row in reversed(rows)}

    def __len__(self) -> int:
        return len(self.rows)

    def rep(self, n: int) -> GroupElem:
        """P_n; IndexError for an n that names no row."""
        if n not in self.by_index:
            raise IndexError(f"avatar index {n} outside 1..{len(self.rows)}")
        return self.by_index[n].rep

    def coset_index(self, g: GroupElem) -> int:
        """Index n with K g = K P_n; raises NonClosure if g matches no row."""
        n = self._by_key.get(coset_key(g))
        if n is None:
            raise NonClosure(f"no coset row matches first row ({g.a}, {g.b})")
        return n

    def avatar_apply(self, n: int, word: str) -> int:
        """Index of K P_n word_eval(word), computed purely by the stored
        permutations, letters applied left to right; IndexError as `rep`
        for an n that names no row."""
        validate_word(word)
        self.rep(n)
        for ch in word:
            n = self._perms[ch][n]
        return n

    def verify_stabilizer(self, n: int, g: GroupElem) -> bool:
        """True iff P_n g P_n^{-1} lies in K, i.e. K P_n g = K P_n: the
        avatar with index n is invariant under the action of g."""
        p = self.rep(n)
        return _product_key(p, g) == coset_key(p)

    def verify(self) -> dict:
        """Cross-check every redundancy in the table; see the report keys."""
        sign_flipped: list[int] = []
        words_ok = True
        for row in self.rows:
            m = word_eval(row.word)
            if m != row.rep:
                if -m == row.rep:
                    sign_flipped.append(row.n)
                else:
                    words_ok = False
        columns_ok = all(self._by_key.get(_product_key(row.rep, g)) == n
                         for row in self.rows
                         for g, n in ((R, row.n_r), (S, row.n_s)))

        n_all = sorted(self.by_index)
        r_perm_ok = sorted(row.n_r for row in self.rows) == n_all
        s_perm_ok = sorted(row.n_s for row in self.rows) == n_all
        # R^3 = S^2 = -I, and K contains -I; chase a column only if it permutes
        r_order_ok = r_perm_ok and all(
            self.avatar_apply(n, "RRR") == n for n in n_all)
        s_involution_ok = s_perm_ok and all(
            self.avatar_apply(n, "SS") == n for n in n_all)

        keys = Counter(coset_key(row.rep) for row in self.rows)
        distinct_ok = len(keys) == len(self.rows)

        word_chase_ok = r_perm_ok and s_perm_ok and all(
            self.avatar_apply(1, row.word) == row.n for row in self.rows)

        reps = coset_enumerate()
        enum_match = (len(reps) == len(self.rows)
                      and all(keys[coset_key(g)] == 1 for g in reps))

        report = {
            "rows": len(self.rows),
            "words_match_reps": words_ok,
            "sign_flipped_rows": sign_flipped,
            "generator_columns_ok": columns_ok,
            "r_permutation_ok": r_perm_ok,
            "s_permutation_ok": s_perm_ok,
            "r_permutation_order3": r_order_ok,
            "s_permutation_involution": s_involution_ok,
            "rows_pairwise_distinct": distinct_ok,
            "word_chase_from_identity_ok": word_chase_ok,
            "enumeration_count": len(reps),
            "enumeration_matches_table": enum_match,
        }
        # every check above passed, and both ways count 96 cosets
        report["ok"] = (all(v for v in report.values() if isinstance(v, bool))
                        and report["rows"] == report["enumeration_count"] == 96)
        return report


@lru_cache(maxsize=1)
def load_table() -> CosetTable:
    """Load the packaged 96-row coset table."""
    text = resources.files("zetapath").joinpath("data/cosets.csv").read_text()
    return CosetTable([
        CosetRow(int(rec["n"]), GroupElem(*(int(rec[k]) for k in "abcd")),
                 rec["word"], int(rec["nR"]), int(rec["nS"]))
        for rec in csv.DictReader(text.splitlines())])
