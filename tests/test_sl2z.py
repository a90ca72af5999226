"""Group arithmetic, words, K-membership, and the 96-row coset table."""

from __future__ import annotations

import itertools
import random
from dataclasses import replace

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from zetapath import sl2z
from zetapath.errors import NonClosure
from zetapath.sl2z import (
    IDENTITY, R, S, SHIFT_ELEMENT, SHIFT_WORD, T, CosetTable, GroupElem,
    coset_enumerate, coset_key, is_reduced_alternating, load_table,
    mobius, word_eval, word_inverse, word_normalize,
)


def test_group_elem_basics():
    with pytest.raises(ValueError):
        GroupElem(1, 0, 0, 2)
    assert R == S * T
    assert S * S == -IDENTITY
    assert R ** 3 == -IDENTITY
    assert R * R.inv() == IDENTITY
    assert (R * S).inv() == S.inv() * R.inv()
    assert R ** -2 == R.inv() * R.inv()


def test_shift_element():
    assert SHIFT_ELEMENT == (R * S * R * S * R) ** 4
    assert SHIFT_ELEMENT.entries() == (-8, -21, 21, 55)
    # the tabulated word picks up a sign, which K absorbs
    assert word_eval(SHIFT_WORD) == -SHIFT_ELEMENT
    assert len(SHIFT_WORD) == 17
    assert is_reduced_alternating(SHIFT_WORD)


def test_mobius():
    assert mobius(T, 1j) == pytest.approx(1 + 1j)
    assert mobius(S, 2j) == pytest.approx(0.5j)
    # -g acts identically
    z = 0.3 + 1.7j
    assert mobius(-R, z) == pytest.approx(mobius(R, z))
    # composition is compatible with matrix product
    g = GroupElem(2, 15, 1, 8)
    assert mobius(g, mobius(S, z)) == pytest.approx(mobius(g * S, z))


def test_k_is_the_coset_keyed_1_0():
    # K itself is the coset keyed (1, 0), the first row of the identity
    assert coset_key(IDENTITY) == (1, 0)
    assert coset_key(-IDENTITY) == (1, 0)
    assert coset_key(GroupElem(1, 0, 1, 1)) == (1, 0)   # lower unipotent
    assert coset_key(GroupElem(1, 15, 0, 1)) == (1, 0)
    assert coset_key(GroupElem(16, 15, 1, 1)) == (1, 0)
    assert coset_key(T) != (1, 0)                        # b = 1
    assert coset_key(GroupElem(4, 1, -1, 0)) != (1, 0)
    assert coset_key(SHIFT_ELEMENT) != (1, 0)
    # b = 0 mod 15 but a, d != 1
    assert coset_key(GroupElem(2, 15, 1, 8)) != (1, 0)


words = st.text(alphabet="RrS", max_size=12)


@given(words)
@settings(max_examples=150)
def test_word_inverse(w):
    prod = word_eval(w) * word_eval(word_inverse(w))
    assert prod == IDENTITY or prod == -IDENTITY


def test_word_normalize():
    # every word of at most 8 letters; a normal form is its own
    for length in range(9):
        for letters in itertools.product("RrS", repeat=length):
            w = "".join(letters)
            norm = word_normalize(w)
            assert is_reduced_alternating(norm), w
            assert word_normalize(norm) == norm, w
            m, n = word_eval(w), word_eval(norm)
            assert m == n or m == -n, w


def test_word_eval_examples():
    assert word_eval("R") == R
    assert word_eval("rS") == R.inv() * S
    assert word_eval("") == IDENTITY
    with pytest.raises(ValueError):
        word_eval("RXS")


def _count_builds(monkeypatch) -> list:
    """Record every GroupElem built from here on."""
    built = []
    post_init = GroupElem.__post_init__

    def counting(self):
        built.append(self)
        post_init(self)
    monkeypatch.setattr(GroupElem, "__post_init__", counting)
    return built


@given(st.text(alphabet="RrS", max_size=30))
@settings(max_examples=100)
def test_word_eval_matches_the_group_product(w):
    expected = IDENTITY
    for ch in w:
        expected = expected * {"R": R, "r": R.inv(), "S": S}[ch]
    assert word_eval(w) == expected


def test_word_eval_builds_one_group_element_per_call(monkeypatch):
    words = ["", "R", "rS", SHIFT_WORD, SHIFT_WORD * 3]
    built = _count_builds(monkeypatch)
    for i, w in enumerate(words, start=1):
        m = word_eval(w)
        assert len(built) == i and built[-1] is m


def test_coset_enumerate_closes_at_96(monkeypatch):
    built = _count_builds(monkeypatch)
    reps = coset_enumerate()
    assert len(reps) == 96
    # candidates are keyed from first rows in ints: a matrix is built only
    # for each new representative past the identity
    assert built == reps[1:]
    monkeypatch.setattr(sl2z, "MAX_COSETS", 50)
    with pytest.raises(NonClosure):
        coset_enumerate()


@pytest.fixture(scope="module")
def table() -> CosetTable:
    return load_table()


def _in_k_by_negation(g):
    # the definition the residue test replaces: build -g and test both
    return any(m.b % 15 == 0 and m.a % 15 == 1 and m.d % 15 == 1
               for m in (g, -g))


def test_k_key_matches_the_negation_definition():
    rng = random.Random(11)
    k_gens = [GroupElem(1, 15, 0, 1), GroupElem(1, 0, 1, 1)]
    gens = [R, S, T, R.inv(), T.inv()]
    for _ in range(300):
        g = IDENTITY
        for _ in range(rng.randint(0, 8)):
            g = g * rng.choice(gens)
        k = IDENTITY
        for _ in range(rng.randint(1, 5)):
            k = k * rng.choice(k_gens)
        minus_k = -k
        # -k lies in K only through its negation
        assert minus_k.a % 15 == minus_k.d % 15 == 14
        for h in (g, -g, k, minus_k, minus_k * g):
            assert (coset_key(h) == (1, 0)) == _in_k_by_negation(h)


def test_coset_key_builds_no_group_element(monkeypatch):
    # b = 0 mod 15 with a = d = -1, and with a = d = 4
    elems = [IDENTITY, -IDENTITY, GroupElem(14, 15, -1, -1),
             GroupElem(4, 15, 1, 4), T, SHIFT_ELEMENT]
    built = _count_builds(monkeypatch)
    assert [coset_key(g) == (1, 0) for g in elems] == [True, True, True,
                                                       False, False, False]
    assert built == []


def _random_word_elem(rng, max_len):
    g = IDENTITY
    for _ in range(rng.randint(0, max_len)):
        g = g * rng.choice([R, S, T, R.inv(), T.inv()])
    return g


def test_coset_key_equality_matches_the_negation_definition(table):
    # K g = K h iff g h^-1 lies in K, the definition the keys replace
    reps = [row.rep for row in table.rows]
    keys = [coset_key(g) for g in reps]
    assert len(set(keys)) == 96
    for g, key_g in zip(reps, keys):
        for h, key_h in zip(reps, keys):
            assert (key_g == key_h) == _in_k_by_negation(g * h.inv())
    rng = random.Random(15)
    for _ in range(500):
        g = _random_word_elem(rng, 12)
        h = rng.choice([_random_word_elem(rng, 12), rng.choice(reps)])
        assert (coset_key(g) == coset_key(h)) == _in_k_by_negation(g * h.inv())


def test_verify_builds_few_group_elements(table, monkeypatch):
    built = _count_builds(monkeypatch)
    assert table.verify()["ok"]
    # one per word evaluation (96) and one per new coset of the
    # enumeration (95); the generator columns and the enumeration's other
    # products are keyed from first rows in ints
    assert len(built) == 191


def test_table_shape(table):
    assert len(table) == 96
    assert table.rep(1) == IDENTITY
    assert table.rep(24) == R
    assert table.rep(41).entries() == (4, 1, -1, 0)
    assert table.by_index[2].word == "rSRSR"


def test_table_verification_report(table):
    rep = table.verify()
    assert rep["ok"]
    assert rep["rows"] == 96
    assert rep["enumeration_count"] == 96
    assert rep["sign_flipped_rows"] == []


def _altered(table, n, **changes):
    return CosetTable([replace(row, **changes) if row.n == n else row
                       for row in table.rows])


def test_verify_reports_broken_rows(table):
    # a negated rep names the same coset: flagged, still ok
    flipped = _altered(table, 2, rep=-table.rep(2)).verify()
    assert flipped["sign_flipped_rows"] == [2]
    assert flipped["ok"]
    # swapped words evaluate to neither rep nor its negative
    two, three = table.by_index[2], table.by_index[3]
    swapped = _altered(_altered(table, 2, word=three.word), 3,
                       word=two.word).verify()
    assert not swapped["words_match_reps"]
    assert not swapped["ok"]
    # an R column pointing at the wrong coset
    wrong = table.by_index[2].n_s
    assert wrong != table.by_index[2].n_r
    broken = _altered(table, 2, n_r=wrong).verify()
    assert not broken["generator_columns_ok"]
    assert not broken["ok"]


@pytest.mark.parametrize("column", ["n_r", "n_s"])
def test_verify_reports_a_column_naming_no_row(table, column):
    report = _altered(table, 2, **{column: 999}).verify()
    assert not report["generator_columns_ok"]
    assert not report[f"{column[-1]}_permutation_ok"]
    assert not report["word_chase_from_identity_ok"]
    assert not report["ok"]
    # the other generator's check still runs on its intact column
    other = {"n_r": "s_permutation_involution", "n_s": "r_permutation_order3"}
    assert report[other[column]]


def test_coset_index(table):
    assert table.coset_index(IDENTITY) == 1
    assert table.coset_index(R) == 24
    assert table.coset_index(S) == 24  # S R^{-1} is lower unipotent, in K
    assert table.coset_index(-R) == 24
    # left multiplication by K members never changes the coset
    rng = random.Random(7)
    k_gens = [GroupElem(1, 15, 0, 1), GroupElem(1, 0, 1, 1), -IDENTITY]
    for _ in range(25):
        k = IDENTITY
        for _ in range(rng.randint(1, 6)):
            k = k * rng.choice(k_gens)
        n = rng.randint(1, 96)
        assert table.coset_index(k * table.rep(n)) == n


def test_avatar_apply_single_letters(table):
    # stepping by one letter matches the table columns
    for row in table.rows:
        assert table.avatar_apply(row.n, "R") == row.n_r
        assert table.avatar_apply(row.n, "S") == row.n_s
        assert table.avatar_apply(row.n_r, "r") == row.n
    # chase of a tabulated word from the identity coset
    assert table.avatar_apply(1, "r") == 15
    assert table.avatar_apply(15, "S") == 11
    assert table.avatar_apply(1, "rSRSR") == 2


@pytest.mark.parametrize("n", [0, 97, -1])
def test_an_index_outside_the_table_is_an_index_error(table, n):
    # an empty word too: it would otherwise return n unchecked
    for call in (lambda: table.rep(n), lambda: table.avatar_apply(n, ""),
                 lambda: table.avatar_apply(n, "RS")):
        with pytest.raises(IndexError, match=rf"^avatar index {n} outside "
                                             rf"1\.\.96$"):
            call()


def test_avatar_apply_matches_matrix_route(table):
    rng = random.Random(11)
    for _ in range(30):
        w = "".join(rng.choice("RrS") for _ in range(rng.randint(0, 10)))
        n = rng.randint(1, 96)
        assert (table.avatar_apply(n, w)
                == table.coset_index(table.rep(n) * word_eval(w)))


def test_verify_stabilizer(table):
    assert table.verify_stabilizer(41, SHIFT_ELEMENT)
    assert not table.verify_stabilizer(1, SHIFT_ELEMENT)
    # conjugate explicitly, as an independent check
    p = table.rep(41)
    assert coset_key(p * SHIFT_ELEMENT * p.inv()) == (1, 0)
    assert (p * SHIFT_ELEMENT * p.inv()).entries() == (-29, -105, 21, 76)


def test_shift_word_lands_on_shift_coset(table):
    n = table.avatar_apply(41, SHIFT_WORD)
    assert n == 41  # the index-41 avatar is fixed by the shift element
    assert table.avatar_apply(1, SHIFT_WORD) != 1
