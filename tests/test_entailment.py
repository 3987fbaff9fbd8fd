"""Entailment, tangledness, encodings, thresholds, and the dichotomy.

Packed members are tuples over 1..r; pairs are (position, content). The
frozen values below were produced by hand-running the definitions on
two- and three-block families.
"""

import random

import pytest

from oracles import brute_is_k_limit
from sigma2lab import entailment
from sigma2lab.blockwords import enumerate_good, is_bad, pack, unpack
from sigma2lab.entailment import (
    MemberCode,
    bad_limit_via_entailment,
    check_packed_limit_conditions,
    counting_bound,
    decode_member,
    dichotomy_suite,
    encode_member,
    entails,
    find_entailment,
    index_family,
    is_tangled,
    pack_family,
    tangled_encoding,
)
from sigma2lab.errors import (
    DegeneracyError,
    MalformedPairSetError,
    NotTangledError,
    PackError,
    PreconditionError,
    SearchBudgetError,
)

GOOD4 = enumerate_good(4)
GOOD9 = enumerate_good(9)
PHI4 = [pack(w) for w in GOOD4]
DIAG9 = ["abbbabbba"[:0] + unpack((c, c, c)) for c in (1, 2, 3)]


# ---------------------------------------------------------------------------
# pack_family


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
# entails


def test_entails_two_member_family():
    assert entails({(2, 1)}, {(1, 1)}, [(1, 1), (2, 2)])


def test_entails_fails_over_all_good_pairs():
    assert not entails({(2, 1)}, {(1, 1)}, PHI4)


def test_entails_vacuous_when_nothing_agrees():
    # no member of the diagonal mixes contents across its two positions
    phi = [(1, 1), (2, 2)]
    assert entails({(1, 2), (2, 1)}, {(1, 1)}, phi)


def test_entails_rejects_malformed_sets():
    phi = PHI4
    with pytest.raises(MalformedPairSetError):
        entails({(1, 1), (1, 2)}, {(2, 1)}, phi)  # S repeats a position
    with pytest.raises(MalformedPairSetError):
        entails({(2, 1)}, set(), phi)  # empty i-set
    with pytest.raises(MalformedPairSetError):
        entails({(2, 1)}, {(1, 1), (2, 1)}, phi)  # i-set spans positions
    with pytest.raises(MalformedPairSetError):
        entails({(2, 1)}, {(3, 1)}, phi)  # position out of range for r=2
    with pytest.raises(MalformedPairSetError):
        entails({(2, 0)}, {(1, 1)}, phi)  # content must be positive


def test_entails_i_set_content_clash():
    with pytest.raises(MalformedPairSetError):
        entails({(2, 1)}, [(1, 1), (1, 1)], PHI4)


# ---------------------------------------------------------------------------
# find_entailment is shared by encoder and decoder


def test_find_entailment_lex_first():
    phi = [(1, 1), (2, 2)]
    found = find_entailment(index_family(phi, 2), 1, [(1, 1), (2, 1)], 2)
    assert found == (((1, 1),), ((2, 1),))


def test_find_entailment_none_on_good_family():
    mu = PHI4[0]
    pairs = [(1, mu[0]), (2, mu[1])]
    assert find_entailment(index_family(PHI4, 2), 1, pairs, 1) is None


# ---------------------------------------------------------------------------
# is_tangled


def test_good4_not_tangled():
    report = is_tangled(GOOD4, 1)
    assert report.witness == ((1, 1), 1)
    assert len(report.members) == 4
    assert report.index.r == 2


def test_two_member_diagonal_tangled():
    report = is_tangled(["abab", "baba"], 1)
    assert report.witness is None
    assert set(report.certificates) == {((1, 1), 1), ((1, 1), 2), ((2, 2), 1), ((2, 2), 2)}
    phi = [(1, 1), (2, 2)]
    for (mu, i), (S, D) in report.certificates.items():
        assert entails(S, D, phi)
        assert (i, mu[i - 1]) in D
        assert all(p != i for p, _ in S)
        assert len(S) == 1 and len(D) <= 1


def test_singleton_family_tangled():
    for k in (1, 2):
        report = is_tangled(["abbbabbba"], k)
        assert report.witness is None


def test_diagonal9_tangled():
    report = is_tangled(DIAG9, 1)
    assert report.witness is None
    assert len(report.members) == 3


def test_tangled_guards(monkeypatch):
    with pytest.raises(DegeneracyError):
        is_tangled(GOOD4, 0)
    with pytest.raises(DegeneracyError, match="needs k constrained positions"):
        is_tangled(GOOD4, 5)
    wide = unpack((1, 1, 1, 1, 1, 1))
    with pytest.raises(SearchBudgetError):
        is_tangled([wide], 2)
    monkeypatch.setattr(entailment, "MAX_R", 6)
    report = is_tangled([wide], 2)
    assert report.witness is None


# ---------------------------------------------------------------------------
# bad limits out of non-tangled families


def test_limit_over_all_good9():
    lim = bad_limit_via_entailment(GOOD9, 1)
    assert lim.word == "bbbabbabb"
    assert lim.source == (1, 1, 1)
    assert lim.block == 1
    assert lim.packed == (None, 1, 1)
    assert is_bad(lim.word)
    assert brute_is_k_limit(lim.word, GOOD9, 1)


def test_limit_over_pinned_first_block():
    fam = [w for w in GOOD9 if w[0] == "a"]
    lim = bad_limit_via_entailment(fam, 1)
    assert lim.source == (1, 1, 1)
    assert lim.block == 2
    assert lim.word == "abbbbbabb"
    assert brute_is_k_limit(lim.word, fam, 1)


def test_limit_none_when_tangled():
    assert bad_limit_via_entailment(["abab", "baba"], 1) is None


@pytest.mark.parametrize("run", [bad_limit_via_entailment, dichotomy_suite])
def test_a_one_shot_family_gives_what_its_list_gives(run):
    # the family is read once to pack it and again to probe the limit
    assert run(iter(GOOD9), 1) == run(GOOD9, 1)


# ---------------------------------------------------------------------------
# packed-level limit conditions


def test_conditions_hold_on_constructed_limit():
    phi, r = pack_family(GOOD9)
    assert check_packed_limit_conditions((None, 1, 1), (1, 1, 1), index_family(phi, r), 1) is None


def test_conditions_reject_two_empty_blocks():
    phi, r = pack_family(GOOD9)
    report = check_packed_limit_conditions((None, None, 1), (1, 1, 1), index_family(phi, r), 1)
    assert report is not None
    assert report.failed == "P1"


def test_conditions_reject_foreign_source():
    report = check_packed_limit_conditions((None, 1, 1), (1, 1, 1), index_family([(2, 2, 2)], 3), 1)
    assert report is not None
    assert report.failed == "P1"


def test_conditions_reject_singleton_family():
    report = check_packed_limit_conditions((None, 1, 1), (1, 1, 1), index_family([(1, 1, 1)], 3), 1)
    assert report is not None
    assert report.failed == "P2"
    assert "contents [1] at position 1" in report.detail
    assert "on []" in report.detail


def test_conditions_reject_unemptied_difference():
    phi, r = pack_family(GOOD9)
    report = check_packed_limit_conditions((2, 1, 1), (1, 1, 1), index_family(phi, r), 1)
    assert report is not None
    assert report.failed == "P1"


def test_conditions_imply_limit_on_random_triples():
    rng = random.Random(31)
    phi, r = pack_family(GOOD9)
    words = list(GOOD9)
    for _ in range(60):
        members = sorted(set(rng.sample(phi, rng.randint(2, 27))))
        nu = rng.choice(members)
        i = rng.randint(1, r)
        mu = nu[: i - 1] + (None,) + nu[i:]
        if check_packed_limit_conditions(mu, nu, index_family(members, r), 1) is None:
            u = unpack(mu)
            fam = [unpack(m) for m in members]
            assert is_bad(u)
            assert brute_is_k_limit(u, fam, 1)


# ---------------------------------------------------------------------------
# encoding tangled families


def test_encode_diagonal_member():
    phi, r = pack_family(DIAG9)
    code = encode_member(index_family(phi, r), 1, (1, 1, 1))
    assert code == MemberCode(free_positions=(2,), free_contents=(1,), digits=(0, 0))
    assert decode_member(index_family(phi, r), 1, code) == (1, 1, 1)


def test_encoding_free_share_bound():
    phi, r = pack_family(DIAG9)
    for mu in phi:
        code = encode_member(index_family(phi, r), 1, mu)
        assert len(code.free_positions) * 2 <= r  # k/(k+1) of r at k=1


def test_encode_requires_tangled():
    phi, r = pack_family(GOOD4)
    with pytest.raises(NotTangledError):
        encode_member(index_family(phi, r), 1, (1, 1))


def test_tangled_encoding_two_members():
    report = tangled_encoding(["abab", "baba"], 1)
    assert len(report.codes) == 2
    assert report.bound == counting_bound(2, 1)
    assert len(set(report.codes.values())) == 2
    for mu, code in report.codes.items():
        assert len(code.free_positions) <= 1
        assert decode_member(index_family([(1, 1), (2, 2)], 2), 1, code) == mu


def test_tangled_encoding_rejects_untangled():
    with pytest.raises(NotTangledError):
        tangled_encoding(GOOD4, 1)


def test_decode_rejects_malformed_codes():
    index = index_family(*pack_family(DIAG9))
    good = encode_member(index, 1, (2, 2, 2))
    with pytest.raises(PackError):
        decode_member(index, 1, MemberCode((2, 1), good.free_contents + (1,), (0, 0)))
    with pytest.raises(PackError):
        decode_member(index, 1, MemberCode((9,), (1,), (0, 0)))
    with pytest.raises(PackError):
        decode_member(index, 1, MemberCode(good.free_positions, good.free_contents, (0,)))
    with pytest.raises(PackError):
        decode_member(index, 1, MemberCode(good.free_positions, good.free_contents, (0, 5)))
    with pytest.raises(PackError):
        decode_member(index, 1, MemberCode(good.free_positions, good.free_contents, (0, 0, 0)))


def test_counting_bound_values():
    assert counting_bound(3, 1) == 9
    assert counting_bound(4, 1) == 96
    assert counting_bound(3, 2) == 54
    assert counting_bound(2, 1) == 4


def test_random_tangled_families_respect_bound():
    rng = random.Random(13)
    found = 0
    for _ in range(80):
        fam = sorted(rng.sample(GOOD9, rng.randint(1, 9)))
        if is_tangled(fam, 1).witness is None:
            found += 1
            enc = tangled_encoding(fam, 1)
            assert len(enc.codes) <= enc.bound == 9
    assert found >= 5


# ---------------------------------------------------------------------------
# the dichotomy


def test_dichotomy_tangled_side():
    result = dichotomy_suite(["abab", "baba"], 1)
    assert result.tangled
    assert result.encoding is not None
    assert result.limit is None


def test_dichotomy_limit_side():
    result = dichotomy_suite(GOOD9, 1)
    assert not result.tangled
    assert result.limit is not None
    assert result.limit.word == "bbbabbabb"
    assert result.encoding is None


def test_dichotomy_random_sample():
    rng = random.Random(47)
    for _ in range(25):
        fam = sorted(rng.sample(GOOD9, rng.randint(1, 27)))
        result = dichotomy_suite(fam, 1)
        if result.tangled:
            assert len(result.encoding.codes) <= result.encoding.bound
        else:
            assert is_bad(result.limit.word)
            assert brute_is_k_limit(result.limit.word, fam, 1)


@pytest.mark.parametrize(
    "run, family",
    [
        (dichotomy_suite, ["abab", "baba"]),
        (dichotomy_suite, GOOD9),
        (tangled_encoding, ["abab", "baba"]),
        (bad_limit_via_entailment, GOOD9),
    ],
)
def test_each_entry_point_packs_and_searches_once(monkeypatch, run, family):
    calls = {"pack_family": 0, "is_tangled": 0}
    for name in calls:
        original = getattr(entailment, name)

        def counted(*args, name=name, original=original):
            calls[name] += 1
            return original(*args)

        monkeypatch.setattr(entailment, name, counted)
    assert run(family, 1) is not None
    assert calls == {"pack_family": 1, "is_tangled": 1}
