"""Block words: good/bad, packing, the position map, and k-limits.

A word of square length n = r*r is read as r blocks of r letters; good
words carry exactly one a per block, bad words exactly one all-b block.
The limit check is compared against an oracle quantifying over every
position set of size at most k.
"""

import random
from itertools import product

import pytest
from hypothesis import given, strategies as st

from oracles import brute_is_k_limit
from sigma2lab import blockwords
from sigma2lab.blockwords import (
    agree_on,
    block_count,
    blocks,
    check_block_word,
    enumerate_bad,
    enumerate_good,
    is_bad,
    is_good,
    is_k_limit,
    k_limit_counterexample,
    pack,
    pack_family,
    packed_from_str,
    packed_to_str,
    tau,
    unpack,
    word_from_positions,
)
from sigma2lab.errors import NonSquareLengthError, PackError, PreconditionError, SearchBudgetError


# ---------------------------------------------------------------------------
# blocks and membership


def test_block_count():
    assert block_count(1) == 1
    assert block_count(4) == 2
    assert block_count(9) == 3
    assert block_count(16) == 4


@pytest.mark.parametrize("n", [2, 3, 5, 8, 12, 15])
def test_block_count_rejects_non_squares(n):
    with pytest.raises(NonSquareLengthError):
        block_count(n)


def test_blocks_splits_in_order():
    assert blocks("abbbabbba") == ["abb", "bab", "bba"]


def test_check_block_word_names_the_offender():
    with pytest.raises(PackError, match="x"):
        check_block_word("abxb")
    with pytest.raises(NonSquareLengthError):
        check_block_word("abb")


def test_block_word_errors_name_the_first_offender():
    with pytest.raises(PackError) as err:
        check_block_word("abxcbbbba")
    assert str(err.value) == "letter 'x' at position 3 is not a or b"
    with pytest.raises(PackError) as err:
        pack("abbaabaaa")
    assert str(err.value) == "block 2 has 2 a's; at most one allowed"
    assert pack("abbbbbbba") == (1, None, 3)


def test_good_words_of_length_four():
    assert enumerate_good(4) == ["abab", "abba", "baab", "baba"]
    assert all(is_good(w) for w in enumerate_good(4))


def test_good_word_counts():
    assert len(enumerate_good(1)) == 1
    assert len(enumerate_good(9)) == 27
    assert len(enumerate_good(16)) == 256


def test_a_good_family_beyond_the_work_limit_is_refused_unbuilt(monkeypatch):
    monkeypatch.setattr(blockwords, "K_LIMIT_WORK_LIMIT", 27)
    assert len(enumerate_good(9)) == 27
    monkeypatch.setattr(blockwords, "K_LIMIT_WORK_LIMIT", 100)
    with pytest.raises(SearchBudgetError, match=r"length 16 has 4\*\*4 words"):
        enumerate_good(16)
    with pytest.raises(SearchBudgetError):
        enumerate_good(10**40)  # r = 10**20, refused without taking r**r


def test_bad_words_of_length_nine():
    bad = enumerate_bad(9)
    assert len(bad) == 27
    assert bad == sorted(bad)
    assert all(is_bad(w) for w in bad)
    assert "bbbabbabb" in bad


def test_good_and_bad_are_disjoint():
    for w in enumerate_good(9):
        assert not is_bad(w)
    assert not is_good("bbbbbbbbb")
    assert not is_bad("bbbbbbbbb")  # two or more empty blocks is merely ugly
    assert not is_bad("bbbbbbbba")  # a block with one a next to two empty ones


def test_two_a_block_is_neither():
    w = "aabbabbab"
    assert not is_good(w)
    assert not is_bad(w)


# ---------------------------------------------------------------------------
# packing


def test_pack_word_with_empty_block():
    assert pack("abbbbbbab") == (1, None, 2)


def test_unpack_mixed_entries():
    assert unpack((3, 1, None)) == "bbaabbbbb"


def test_pack_unpack_roundtrip_all_length_nine():
    in_domain = 0
    for letters in product("ab", repeat=9):
        w = "".join(letters)
        try:
            packed = pack(w)
        except PackError:
            continue
        in_domain += 1
        assert unpack(packed) == w
    assert in_domain == 64  # each block is one of three a-slots or empty


def test_pack_rejects_two_a_block():
    with pytest.raises(PackError, match="block 1"):
        pack("aabbabbab")


def test_unpack_rejects_out_of_range_entry():
    with pytest.raises(PackError):
        unpack((4, 1, 1))
    with pytest.raises(PackError):
        unpack((0, 1, 1))


def test_packed_serialization():
    assert packed_to_str((1, None, 2)) == "1,_,2"
    assert packed_from_str("1,_,2") == (1, None, 2)
    assert packed_from_str("1") == (1,)
    assert packed_from_str("") == ()
    for bad in ["0,1", "x,1", "1,,2"]:
        with pytest.raises(PackError):
            packed_from_str(bad)


@given(
    st.integers(min_value=1, max_value=4).flatmap(
        lambda r: st.tuples(
            *[st.one_of(st.none(), st.integers(min_value=1, max_value=r))] * r
        )
    )
)
def test_pack_roundtrip_property(packed):
    w = unpack(packed)
    assert pack(w) == packed
    assert packed_from_str(packed_to_str(packed)) == packed


def test_pack_family_sorts_and_dedupes():
    phi, r = pack_family(["abba", "abab", "abab"])
    assert phi == [(1, 1), (1, 2)]
    assert r == 2


def test_pack_family_guards():
    with pytest.raises(PreconditionError):
        pack_family([])
    with pytest.raises(PreconditionError):
        pack_family(["abab", "abbbabbba"])
    with pytest.raises(PreconditionError):
        pack_family(["aabb"])  # two a's in a block
    with pytest.raises(PreconditionError):
        pack_family(["abab", "bbab"])  # an empty block
    with pytest.raises(PackError):
        pack_family(["abab", "acab"])  # a letter outside {a, b}


# ---------------------------------------------------------------------------
# the position map


def test_tau_of_mixed_word():
    assert tau("bbaabbbab") == frozenset({3, 4, 8})


def test_tau_of_all_b_word():
    assert tau("bbbbbbbbb") == frozenset()


def test_tau_and_word_from_positions_inverse():
    for w in enumerate_good(9):
        assert len(tau(w)) == 3
        assert word_from_positions(9, tau(w)) == w


def test_word_from_positions_plain():
    assert word_from_positions(4, {2}) == "babb"
    assert word_from_positions(4, set()) == "bbbb"


# ---------------------------------------------------------------------------
# limits


def test_member_is_limit_for_every_k():
    fam = enumerate_good(4)
    for k in range(5):
        assert is_k_limit("abab", fam, k)


def test_near_member_is_one_limit():
    assert is_k_limit("abbb", enumerate_good(4), 1)


def test_single_word_family_counterexample():
    assert not is_k_limit("baba", ["abab"], 1)
    assert k_limit_counterexample("baba", ["abab"], 1) == (1,)


def test_counterexample_is_lex_first():
    # u empty on block 2; two b-positions there still leave room for an a,
    # so u survives k=2 and the first dead set is the whole block
    u = "abbbbbbab"
    fam = enumerate_good(9)
    assert is_k_limit(u, fam, 2)
    ce = k_limit_counterexample(u, fam, 3)
    assert ce == (4, 5, 6)


def test_empty_family_has_no_limits():
    assert not is_k_limit("abab", [], 0)
    assert k_limit_counterexample("abab", [], 0) == ()


def test_limit_guards():
    with pytest.raises(PackError):
        k_limit_counterexample("abab", ["abab"], -1)
    with pytest.raises(PackError):
        k_limit_counterexample("abab", ["abbba"], 1)
    with pytest.raises(SearchBudgetError):
        k_limit_counterexample("b" * 100, ["b" * 100], 50)


def test_limits_against_brute_oracle():
    rng = random.Random(11)
    fam9 = enumerate_good(9)
    for _ in range(40):
        family = rng.sample(fam9, rng.randint(1, 10))
        u = "".join(rng.choice("ab") for _ in range(9))
        for k in range(3):
            assert is_k_limit(u, family, k) == brute_is_k_limit(u, family, k)


def test_limits_against_brute_oracle_small():
    fam4 = enumerate_good(4)
    for bits in product("ab", repeat=4):
        u = "".join(bits)
        for k in range(3):
            assert is_k_limit(u, fam4, k) == brute_is_k_limit(u, fam4, k)


def test_agree_on_positions_are_one_indexed():
    assert agree_on("ab", "ac", {1})
    assert not agree_on("ab", "ac", {2})
