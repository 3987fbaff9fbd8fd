"""Greedy flower search, the brute-force property check, and flower limits."""

import random

import pytest

from oracles import brute_flower_property, brute_is_k_limit
from sigma2lab.blockwords import enumerate_good, is_good, tau
from sigma2lab.errors import DegeneracyError, PreconditionError
from sigma2lab.flowers import Flower, bad_limit_via_flower, find_flower, verify_flower

GOOD9 = enumerate_good(9)
TAUS9 = [tau(w) for w in GOOD9]
DIAGONAL = [frozenset({1, 4, 7}), frozenset({2, 5, 8}), frozenset({3, 6, 9})]


# ---------------------------------------------------------------------------
# find_flower


def test_two_petals_over_all_good_words():
    fl = find_flower(TAUS9, 2)
    assert fl == Flower(core=frozenset(), petals=(frozenset({1, 4, 7}), frozenset({2, 5, 8})))


def test_three_petals_over_all_good_words():
    fl = find_flower(TAUS9, 3)
    assert fl.core == frozenset()
    assert fl.petals == tuple(DIAGONAL)


def test_four_petals_fail_over_all_good_words():
    # four pairwise disjoint outside parts never fit: each block offers
    # three positions, so after restriction at most three petals remain
    assert find_flower(TAUS9, 4) is None


def test_restriction_builds_a_core():
    shared = [s for s in TAUS9 if 1 in s]
    fl = find_flower(shared, 3)
    assert fl.core == frozenset({1})
    assert fl.petals == (
        frozenset({1, 4, 7}),
        frozenset({1, 5, 8}),
        frozenset({1, 6, 9}),
    )


def test_single_petal_is_first_member():
    fl = find_flower(TAUS9, 1)
    assert fl == Flower(core=frozenset(), petals=(frozenset({1, 4, 7}),))


def test_two_triangles_defeat_three_petals():
    # every three of these six sets include two from one triangle, and
    # those two already fall to a two-element blocker
    triangles = [{1, 2}, {1, 3}, {2, 3}, {4, 5}, {4, 6}, {5, 6}]
    assert find_flower(triangles, 3) is None
    assert find_flower(triangles, 2) is not None


def test_disjoint_family_is_its_own_sunflower():
    fl = find_flower(DIAGONAL, 3)
    assert fl == Flower(core=frozenset(), petals=tuple(DIAGONAL))


def test_sampled_large_families_of_four_sets():
    # 3-petal flowers among 4-element position sets; comfortably many
    # members, so the greedy is expected to land every time here
    good16 = enumerate_good(16)
    for seed in (0, 1, 2):
        rng = random.Random(seed)
        fam = rng.sample(good16, 60)
        taus = [tau(w) for w in fam]
        fl = find_flower(taus, 3)
        assert fl is not None
        assert verify_flower(fl, taus, 3)


def test_find_flower_dedupes_input():
    assert find_flower([{1, 2}, {1, 2}, {1, 2}], 2) is None


def test_petal_count_guard():
    with pytest.raises(DegeneracyError):
        find_flower(TAUS9, 0)


# ---------------------------------------------------------------------------
# verify_flower


def test_verify_accepts_greedy_output():
    for p in (1, 2, 3):
        fl = find_flower(TAUS9, p)
        assert verify_flower(fl, TAUS9, p)
        assert brute_flower_property(fl.petals, p)


def test_verify_rejects_wrong_petal_count():
    fl = find_flower(TAUS9, 2)
    assert not verify_flower(fl, TAUS9, 3)


def test_verify_rejects_duplicate_petals():
    pt = frozenset({1, 4, 7})
    fl = Flower(core=frozenset(), petals=(pt, pt))
    assert not verify_flower(fl, TAUS9, 2)
    assert not brute_flower_property((pt, pt), 2)


def test_verify_rejects_foreign_petal():
    fl = Flower(core=frozenset(), petals=(frozenset({1, 4, 7}), frozenset({2, 5})))
    assert not verify_flower(fl, TAUS9, 2)


def test_verify_rejects_core_not_contained():
    fl = Flower(core=frozenset({2}), petals=(frozenset({1, 4, 7}), frozenset({2, 5, 8})))
    assert not verify_flower(fl, TAUS9, 2)


def test_verify_rejects_blocked_petals():
    # with the declared empty core both petals keep 1 outside, so the
    # singleton {1} blocks them; moving 1 into the core rescues the pair,
    # which is what the oracle does by always taking the intersection
    fl = Flower(core=frozenset(), petals=(frozenset({1, 4, 7}), frozenset({1, 5, 8})))
    assert not verify_flower(fl, TAUS9, 2)
    assert brute_flower_property(fl.petals, 2)
    assert verify_flower(Flower(core=frozenset({1}), petals=fl.petals), TAUS9, 2)


def test_verify_rejects_unsalvageable_petals():
    # distinct petals sharing an element beyond their intersection fall
    # to a two-element blocker under any declared core
    petals = (frozenset({1, 4, 7}), frozenset({1, 4, 8}), frozenset({2, 4, 9}))
    assert not brute_flower_property(petals, 3)
    assert not verify_flower(Flower(core=frozenset(), petals=petals), TAUS9, 3)


def test_verify_agrees_with_oracle_on_sampled_petals():
    rng = random.Random(5)
    for _ in range(60):
        p = rng.choice([2, 3])
        petals = tuple(frozenset(s) for s in rng.sample(TAUS9, p))
        core = frozenset.intersection(*petals)
        fl = Flower(core=core, petals=petals)
        assert verify_flower(fl, TAUS9, p) == brute_flower_property(petals, p)


# ---------------------------------------------------------------------------
# limits from flowers


def test_limit_over_all_good_words():
    lim = bad_limit_via_flower(GOOD9, 1)
    assert lim.word == "bbbbbbbbb"
    assert lim.flower.core == frozenset()
    assert not is_good(lim.word)
    assert brute_is_k_limit(lim.word, GOOD9, 1)


def test_limit_over_shared_first_position():
    fam = [w for w in GOOD9 if w[0] == "a"]
    lim = bad_limit_via_flower(fam, 1)
    assert lim.word == "abbbbbbbb"
    assert lim.flower.core == frozenset({1})
    assert brute_is_k_limit(lim.word, fam, 1)


def test_zero_limit_is_the_empty_core_word():
    lim = bad_limit_via_flower(GOOD9, 0)
    assert lim.word == "bbbbbbbbb"


def test_limit_inconclusive_on_tiny_family():
    assert bad_limit_via_flower(["abab"], 1) is None


def test_limit_guards():
    with pytest.raises(PreconditionError):
        bad_limit_via_flower([], 1)
    with pytest.raises(PreconditionError):
        bad_limit_via_flower(["abab", "aabb"], 1)
    with pytest.raises(PreconditionError, match="mismatched length"):
        bad_limit_via_flower(["abab", "abbbabbba"], 1)
    # a negative k is refused before the family is packed, faulty or not
    for family in (["abab"], [], ["abab", "aabb"], ["abab", "abbbabbba"], ["abab", "acab"]):
        with pytest.raises(DegeneracyError, match="k must be nonnegative"):
            bad_limit_via_flower(family, -1)


def test_limits_verified_on_random_subfamilies():
    rng = random.Random(23)
    found = 0
    for _ in range(30):
        fam = sorted(rng.sample(GOOD9, rng.randint(4, 27)))
        k = rng.choice([1, 2])
        lim = bad_limit_via_flower(fam, k)
        if lim is None:
            continue
        found += 1
        assert not is_good(lim.word)
        assert verify_flower(lim.flower, [tau(w) for w in fam], k + 1)
        assert brute_is_k_limit(lim.word, fam, k)
    assert found >= 15  # the greedy succeeds on most samples this size
