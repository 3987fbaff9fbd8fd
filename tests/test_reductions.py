"""Expansion, witness factorization, wired monoid words, annotation."""

import pytest

from oracles import build_x_i, build_y, delete_x_letters, t_bad, t_good
from sigma2lab.blockwords import enumerate_bad, enumerate_good, pack
from sigma2lab.errors import NonSquareLengthError, PackError, PreconditionError
from sigma2lab.languages import accepts, compile_pattern
from sigma2lab.monoids import subword_witness
from sigma2lab.reductions import (
    Factorization,
    expansion,
    factorize_subword_witness,
    p_annotate,
    wiring,
)

K_PATTERN = "(ac*b+c)*"


@pytest.fixture(scope="module")
def k_lang():
    return compile_pattern(K_PATTERN, ("a", "b", "c"))


# ---------------------------------------------------------------------------
# expansion


def test_expansion_example():
    assert expansion("abbbabbba") == "accbcacbccab"


def test_expansion_of_all_b_word():
    assert expansion("bbbb") == "ccbccb"


def test_expansion_errors():
    with pytest.raises(PackError):
        expansion("abxb")
    with pytest.raises(NonSquareLengthError):
        expansion("abbbabbb")


def test_expansion_characterizes_good(k_lang):
    from itertools import product

    from sigma2lab.blockwords import is_good

    for letters in product("ab", repeat=9):
        w = "".join(letters)
        assert accepts(k_lang, expansion(w)) == is_good(w)


def test_expansion_of_bad_word_leaves_language(k_lang):
    assert not accepts(k_lang, expansion("abbbbbbab"))


# ---------------------------------------------------------------------------
# factorization


def test_factorize_interior_positions(k_rec):
    h = k_rec.monoid
    fact = factorize_subword_witness(h, "abab", (2, 3))
    assert fact == Factorization(xs=(1, 0, 2), ys=(2, 1, 0))
    m = k_rec.monoid
    prod = m.identity
    for x, y in zip(fact.xs, fact.ys):
        prod = m.mul(m.mul(prod, x), y)
    assert prod == h.eval("abab")
    ys_only = m.product(fact.ys)
    assert ys_only == h.eval("ba")


def test_factorize_single_position(k_rec):
    fact = factorize_subword_witness(k_rec.monoid, "ab", (1,))
    assert fact == Factorization(xs=(0, 2), ys=(1, 0))


def test_factorize_empty_positions(k_rec):
    fact = factorize_subword_witness(k_rec.monoid, "ab", ())
    assert fact == Factorization(xs=(4,), ys=(0,))


def test_factorize_all_positions(k_rec):
    fact = factorize_subword_witness(k_rec.monoid, "ab", (1, 2))
    assert fact == Factorization(xs=(0, 0), ys=(1, 2))


def test_factorize_position_guards(k_rec):
    h = k_rec.monoid
    for bad in [(2, 1), (0,), (3,), (1, 1)]:
        with pytest.raises(PreconditionError):
            factorize_subword_witness(h, "ab", bad)


def test_factorize_matches_subword_relation(k_rec, k_sw):
    # every recorded witness factorizes back to its own pair
    h = k_rec.monoid
    m = k_rec.monoid
    for x, y in sorted(k_sw.pairs):
        wit = subword_witness(h, (x, y))
        fact = factorize_subword_witness(h, wit.word, wit.positions)
        prod = m.identity
        for xj, yj in zip(fact.xs, fact.ys):
            prod = m.mul(m.mul(prod, xj), yj)
        assert prod == x
        assert m.product(fact.ys) == y


# ---------------------------------------------------------------------------
# the wired words


@pytest.fixture(scope="module")
def fact_ab(k_rec):
    # x = h(ab), y = h(a); the equation x <= x y x fails for K on this pair
    return factorize_subword_witness(k_rec.monoid, "ab", (1,))


def test_build_x_i_layout(fact_ab):
    w = build_x_i(fact_ab, 3, 2)
    assert w == (0, 0, 0, 1, 0, 2, 0, 0)
    assert len(w) == len(fact_ab.xs) * 4


def test_build_x_i_slot_guard(fact_ab):
    with pytest.raises(PreconditionError):
        build_x_i(fact_ab, 3, 0)
    with pytest.raises(PreconditionError):
        build_x_i(fact_ab, 3, 4)


def test_every_slot_evaluates_to_x(k_rec, fact_ab):
    m = k_rec.monoid
    x = k_rec.monoid.eval("ab")
    for r in (2, 3, 4):
        for i in range(1, r + 1):
            assert m.product(build_x_i(fact_ab, r, i)) == x


def test_build_y_evaluates_to_y(k_rec, fact_ab):
    m = k_rec.monoid
    y = k_rec.monoid.eval("a")
    for r in (2, 3):
        w = build_y(fact_ab, r)
        assert len(w) == len(fact_ab.xs) * (r + 1)
        assert m.product(w) == y


def test_delete_x_letters_reaches_build_y(fact_ab):
    for r in (2, 3):
        for i in range(1, r + 1):
            assert delete_x_letters(build_x_i(fact_ab, r, i), r, i) == build_y(fact_ab, r)


def test_t_good_evaluates_to_x(k_rec, fact_ab):
    m = k_rec.monoid
    x = k_rec.monoid.eval("ab")
    for packed in [pack(w) for w in enumerate_good(9)]:
        word = t_good(fact_ab, 3, packed)
        assert len(word) == 5 * len(fact_ab.xs) * 4
        assert m.product(word) == x


def test_t_bad_evaluates_to_xyx(k_rec, fact_ab):
    m = k_rec.monoid
    x = k_rec.monoid.eval("ab")
    y = k_rec.monoid.eval("a")
    xyx = m.mul(m.mul(x, y), x)
    assert xyx != x  # this is what makes the pair worth wiring
    for packed in [pack(w) for w in enumerate_bad(9)]:
        j = packed.index(None) + 1
        indices = [c if c is not None else 1 for c in packed]
        word = t_bad(fact_ab, 3, indices, j)
        assert m.product(word) == xyx


def test_t_good_shape_guards(fact_ab):
    with pytest.raises(PreconditionError):
        t_good(fact_ab, 3, (1, 2))
    with pytest.raises(PreconditionError):
        t_good(fact_ab, 3, (1, 2, 4))
    with pytest.raises(PreconditionError):
        t_bad(fact_ab, 3, (1, 2, 3), 4)
    with pytest.raises(PreconditionError):
        t_bad(fact_ab, 3, (1, None, 3), 3)  # None only allowed at the y block


def test_wiring_matches_builders_on_good_words(fact_ab):
    for w in enumerate_good(9):
        assert wiring(fact_ab, w) == t_good(fact_ab, 3, pack(w))


def test_wiring_matches_builders_on_bad_words(fact_ab):
    for w in enumerate_bad(9):
        packed = pack(w)
        j = packed.index(None) + 1
        indices = [c if c is not None else 1 for c in packed]
        assert wiring(fact_ab, w) == t_bad(fact_ab, 3, indices, j)


def test_wiring_rejects_foreign_letters(fact_ab):
    with pytest.raises(PackError):
        wiring(fact_ab, "abcb")


def test_wiring_two_block_words(k_rec, fact_ab):
    m = k_rec.monoid
    x = k_rec.monoid.eval("ab")
    y = k_rec.monoid.eval("a")
    assert m.product(wiring(fact_ab, "abba")) == x
    assert m.product(wiring(fact_ab, "abbb")) == m.mul(m.mul(x, y), x)


# ---------------------------------------------------------------------------
# annotation


def test_annotate_example():
    assert p_annotate("abcabc", (2, 3)) == (
        ("a", ()),
        ("b", (2,)),
        ("c", (3,)),
        ("a", (2,)),
        ("b", ()),
        ("c", (2, 3)),
    )


def test_annotate_dedupes_and_sorts_moduli():
    assert p_annotate("ab", (3, 2, 2)) == (("a", ()), ("b", (2,)))


def test_annotate_guards():
    with pytest.raises(PreconditionError):
        p_annotate("ab", ())
    with pytest.raises(PreconditionError):
        p_annotate("ab", (0, 2))
