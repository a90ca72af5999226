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


def mobius(g: GroupElem, z: complex) -> complex:
    """Fractional linear action (az+b)/(cz+d); preserves the upper half-plane."""
    return (g.a * z + g.b) / (g.c * z + g.d)


def validate_word(word: str) -> None:
    bad = set(word) - set("RrS")
    if bad:
        raise ValueError(f"invalid word letters: {sorted(bad)}")


def word_eval(word: str) -> GroupElem:
    """Left-to-right product of the letter matrices."""
    validate_word(word)
    out = IDENTITY
    for ch in word:
        out = out * _LETTERS[ch]
    return out


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
    return _row_key(g.a, g.b)


def _row_key(a: int, b: int) -> tuple[int, int]:
    a, b = a % LEVEL, b % LEVEL
    return min((a, b), (-a % LEVEL, -b % LEVEL))


def coset_enumerate(max_cosets: int = 512) -> list[GroupElem]:
    """Breadth-first enumeration of the right cosets K g under right
    multiplication by R and S, starting from K itself.

    Returns one representative per coset.  Raises NonClosure if the walk
    fails to close before max_cosets."""
    reps: list[GroupElem] = [IDENTITY]
    seen = {coset_key(IDENTITY)}
    frontier = [IDENTITY]
    while frontier:
        nxt: list[GroupElem] = []
        for p in frontier:
            for g in (R, S):
                cand = p * g
                key = coset_key(cand)
                if key not in seen:
                    seen.add(key)
                    reps.append(cand)
                    nxt.append(cand)
                    if len(reps) > max_cosets:
                        raise NonClosure(
                            f"coset enumeration exceeded {max_cosets} cosets")
        frontier = nxt
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
        self._perm_r_inv = {row.n_r: row.n for row in rows}
        self._by_key: dict[tuple[int, int], int] = {}
        for row in rows:
            self._by_key.setdefault(coset_key(row.rep), row.n)

    def __len__(self) -> int:
        return len(self.rows)

    def rep(self, n: int) -> GroupElem:
        return self.by_index[n].rep

    def coset_index(self, g: GroupElem) -> int:
        """Index n with K g = K P_n; raises NonClosure if g matches no row."""
        return self.row_index(g.a, g.b)

    def row_index(self, a: int, b: int) -> int:
        """coset_index of the elements whose first row is (a, b), read
        from the two integers alone."""
        n = self._by_key.get(_row_key(a, b))
        if n is None:
            raise NonClosure(f"no coset row matches first row ({a}, {b})")
        return n

    def avatar_apply(self, n: int, word: str) -> int:
        """Index of K P_n word_eval(word), computed purely by the stored
        permutations, letters applied left to right."""
        validate_word(word)
        for ch in word:
            if ch == "R":
                n = self.by_index[n].n_r
            elif ch == "r":
                n = self._perm_r_inv[n]
            else:
                n = self.by_index[n].n_s
        return n

    def verify_stabilizer(self, n: int, g: GroupElem) -> bool:
        """True iff P_n g P_n^{-1} lies in K, i.e. K P_n g = K P_n: the
        avatar with index n is invariant under the action of g."""
        p = self.rep(n)
        return coset_key(p * g) == coset_key(p)

    def verify(self) -> dict:
        """Cross-check every redundancy in the table; see the report keys."""
        sign_flipped: list[int] = []
        words_ok = True
        columns_ok = True
        for row in self.rows:
            m = word_eval(row.word)
            if m != row.rep:
                if -m == row.rep:
                    sign_flipped.append(row.n)
                else:
                    words_ok = False
            if (self.coset_index(row.rep * R) != row.n_r
                    or self.coset_index(row.rep * S) != row.n_s):
                columns_ok = False

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
        report["ok"] = all(
            report[k] for k in (
                "words_match_reps", "generator_columns_ok",
                "r_permutation_ok", "s_permutation_ok",
                "r_permutation_order3", "s_permutation_involution",
                "rows_pairwise_distinct", "word_chase_from_identity_ok",
                "enumeration_matches_table")
        ) and report["rows"] == 96 and report["enumeration_count"] == 96
        return report


@lru_cache(maxsize=1)
def load_table() -> CosetTable:
    """Load the packaged 96-row coset table."""
    text = resources.files("zetapath").joinpath("data/cosets.csv").read_text()
    rows: list[CosetRow] = []
    for rec in csv.DictReader(text.splitlines()):
        rows.append(CosetRow(
            n=int(rec["n"]),
            rep=GroupElem(int(rec["a"]), int(rec["b"]),
                          int(rec["c"]), int(rec["d"])),
            word=rec["word"],
            n_r=int(rec["nR"]),
            n_s=int(rec["nS"]),
        ))
    return CosetTable(rows)
