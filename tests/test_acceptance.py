"""End-to-end acceptance runs, one test and one summary line per criterion.

Each test records PASS or FAIL into the table printed at the end of the
session. Runtime bounds are asserted where the criterion carries one.
Criterion 3 contains a language identity that does not hold as stated;
the test asserts it anyway and fails, and the diagnostic test next to
it pins down what is true instead (the union equals the complement).
"""

import functools
import random
import time
from itertools import product

from conftest import ACCEPTANCE_RESULTS, K_PATTERN
from oracles import (
    brute_is_k_limit,
    brute_subword_pairs,
    complement,
    confirm_failing_pair,
    equivalent,
    t_bad,
    t_good,
)
from sigma2lab.blockwords import (
    enumerate_bad,
    enumerate_good,
    is_bad,
    is_good,
    is_k_limit,
    pack,
    unpack,
)
from sigma2lab.circuits import (
    adversary,
    demo_block_selector,
    demo_exact_good,
    eval_and,
    eval_circuit,
)
from sigma2lab.entailment import (
    bad_limit_via_entailment,
    check_packed_limit_conditions,
    dichotomy_suite,
    index_family,
)
from sigma2lab.errors import PackError
from sigma2lab.flowers import bad_limit_via_flower, verify_flower
from sigma2lab.languages import accepts, compile_pattern
from sigma2lab.monoids import (
    classify,
    neutral_letters,
    recognize,
    subword_relation,
    up_word_accepts,
)
from sigma2lab.reductions import (
    expansion,
    factorize_subword_witness,
    wiring,
)
from sigma2lab.reports import replay_equation_witness

ABC = ("a", "b", "c")
AB = ("a", "b")
GOOD9 = enumerate_good(9)


def criterion(number: int, description: str):
    def deco(fn):
        @functools.wraps(fn)
        def wrapper():
            try:
                fn()
            except BaseException:
                ACCEPTANCE_RESULTS.append((number, description, "FAIL"))
                raise
            ACCEPTANCE_RESULTS.append((number, description, "PASS"))

        return wrapper

    return deco


@criterion(1, "classify K: sigma2 no with replayed witness, neutral {c}")
def test_criterion_1():
    t0 = time.perf_counter()
    d = compile_pattern(K_PATTERN, ABC)
    rec = recognize(d)
    report = classify(d, description=K_PATTERN)
    w = report.sigma2
    assert w is not None
    replay = replay_equation_witness(rec, w)
    assert replay["passed"], replay
    assert neutral_letters(rec) == {"c"}
    assert time.perf_counter() - t0 < 5.0


@criterion(2, "classify K': sigma2 no, pi2 no, both quoted pairs replay")
def test_criterion_2():
    t0 = time.perf_counter()
    d = compile_pattern(K_PATTERN + "bc*b(a+b+c)*", ABC)
    rec = recognize(d)
    report = classify(d, description="K'")
    assert report.sigma2 is not None
    assert report.pi2 is not None
    sw = subword_relation(rec.morphism)
    direct = confirm_failing_pair(rec, sw, ("a", "b", "a", "b"), ("b", "a"))
    assert direct["valid_failing_pair"], direct
    crec = rec.complemented()
    csw = subword_relation(crec.morphism)
    comp = confirm_failing_pair(
        crec, csw, ("a", "b", "a", "b", "a", "b"), ("b", "b", "a")
    )
    assert comp["valid_failing_pair"], comp
    assert time.perf_counter() - t0 < 10.0


UNION_OF_FOUR = (
    K_PATTERN + "b(a+b+c)*"
    " + (a+b+c)*bc*b" + K_PATTERN + "b(a+b+c)*"
    " + (a+b+c)*a" + K_PATTERN +
    " + (a+b+c)*a" + K_PATTERN + "ac*a(a+b+c)*"
)


@criterion(3, "classify nested block language; union-of-four identity")
def test_criterion_3():
    t0 = time.perf_counter()
    d = compile_pattern("(a" + K_PATTERN + "b+c)*", ABC)
    report = classify(d, description="nested")
    assert not report.sigma2.holds
    assert not report.pi2.holds
    u = compile_pattern(UNION_OF_FOUR, ABC)
    assert time.perf_counter() - t0 < 10.0
    # the quoted identity: the starred language equals the four-way union.
    # It does not: the left side contains the empty word, the union does
    # not. See the diagnostic below for the identity that does hold.
    assert equivalent(d, u), "the union describes the complement, not the language"


def test_criterion_3_nested_language_fails_both_equations():
    # criterion 3's first claim and its time bound on their own:
    # test_criterion_3 stays as written, and its .holds read fails before
    # it reaches the time bound and the identity
    t0 = time.perf_counter()
    report = classify(compile_pattern("(a" + K_PATTERN + "b+c)*", ABC), description="nested")
    assert report.sigma2 is not None
    assert report.pi2 is not None
    compile_pattern(UNION_OF_FOUR, ABC)
    assert time.perf_counter() - t0 < 10.0


def test_criterion_3_diagnostic_union_is_the_complement():
    d = compile_pattern("(a" + K_PATTERN + "b+c)*", ABC)
    u = compile_pattern(UNION_OF_FOUR, ABC)
    assert equivalent(complement(d), u)
    assert accepts(d, "") and not accepts(u, "")
    assert accepts(d, "ab") and not accepts(u, "ab")
    assert accepts(u, "ba") and not accepts(d, "ba")


@criterion(4, "positive controls classify yes; subword relation vs oracle")
def test_criterion_4():
    marked = compile_pattern("(a+b)*a(a+b)*", AB)
    assert classify(marked, description="marked").sigma2 is None
    assert classify(compile_pattern("(a+b)*", AB), description="full").sigma2 is None
    rec = recognize(marked)
    sw = subword_relation(rec.morphism)
    ident = rec.monoid.identity
    z = rec.morphism.image("a")
    assert sw.pairs == {(ident, ident), (z, ident), (z, z)}
    assert sw.pairs == brute_subword_pairs(rec.morphism, 6)


@criterion(5, "pack and unpack examples bit-exact; 64-word domain roundtrip")
def test_criterion_5():
    assert pack("abbbbbbab") == (1, None, 2)
    assert unpack((3, 1, None)) == "bbaabbbbb"
    in_domain = 0
    for letters in product("ab", repeat=9):
        w = "".join(letters)
        try:
            packed = pack(w)
        except PackError:
            continue
        in_domain += 1
        assert unpack(packed) == w
    assert in_domain == 64


@criterion(6, "expansion characterizes good words over all 512 length-9 words")
def test_criterion_6():
    t0 = time.perf_counter()
    assert expansion("abbbabbba") == "accbcacbccab"
    d = compile_pattern(K_PATTERN, ABC)
    for letters in product("ab", repeat=9):
        w = "".join(letters)
        assert accepts(d, expansion(w)) == is_good(w)
    assert time.perf_counter() - t0 < 1.0


@criterion(7, "wired words evaluate to x / xyx; wiring matches the builders")
def test_criterion_7():
    t0 = time.perf_counter()
    rec = recognize(compile_pattern(K_PATTERN, ABC))
    fact = factorize_subword_witness(rec.morphism, "ab", (1,))
    m = rec.monoid
    x = rec.morphism.eval("ab")
    y = rec.morphism.eval("a")
    xyx = m.mul(m.mul(x, y), x)
    rng = random.Random(70)
    sampled = 0
    for r in (2, 3):
        for _ in range(60):
            indices = tuple(rng.randint(1, r) for _ in range(r))
            good_word = t_good(fact, r, indices)
            assert m.product(good_word) == x
            assert up_word_accepts(rec, x, good_word)
            j = rng.randint(1, r)
            bad_word = t_bad(fact, r, indices, j)
            assert m.product(bad_word) == xyx
            assert not up_word_accepts(rec, x, bad_word)
            sampled += 1
    assert sampled >= 100
    for w in GOOD9:
        assert wiring(fact, w) == t_good(fact, 3, pack(w))
    for w in enumerate_bad(9):
        packed = pack(w)
        j = packed.index(None) + 1
        indices = [c if c is not None else 1 for c in packed]
        assert wiring(fact, w) == t_bad(fact, 3, indices, j)
    assert time.perf_counter() - t0 < 30.0


@criterion(8, "flower pipeline: good9 at k=1; 20 seeded good16 runs at k=2")
def test_criterion_8():
    lim = bad_limit_via_flower(GOOD9, 1)
    assert lim is not None
    assert not is_good(lim.word)
    assert is_k_limit(lim.word, GOOD9, 1)
    good16 = enumerate_good(16)
    from sigma2lab.blockwords import tau

    for seed in range(20):
        rng = random.Random(seed)
        fam = sorted(rng.sample(good16, rng.randint(17, 256)))
        lim = bad_limit_via_flower(fam, 2)
        assert lim is not None, f"greedy found no flower at seed {seed}"
        assert not is_good(lim.word)
        assert is_k_limit(lim.word, fam, 2)
        assert verify_flower(lim.flower, [tau(w) for w in fam], 3)


@criterion(9, "dichotomy over 200 seeded families at k=1, zero failures")
def test_criterion_9():
    t0 = time.perf_counter()
    rng = random.Random(7)
    tangled_seen = 0
    for _ in range(200):
        fam = sorted(rng.sample(GOOD9, rng.randint(1, 27)))
        result = dichotomy_suite(fam, 1)
        if result.tangled:
            tangled_seen += 1
            enc = result.encoding
            assert len(enc.codes) <= enc.bound == 9
            assert len(set(enc.codes.values())) == len(enc.codes)
            for code in enc.codes.values():
                assert len(code.free_positions) * 2 <= 3  # |K| <= kr/(k+1)
        else:
            assert is_bad(result.limit.word)
            assert is_k_limit(result.limit.word, fam, 1)
    assert tangled_seen > 0  # the sample exercises both sides
    assert time.perf_counter() - t0 < 60.0


@criterion(10, "packed limit conditions: 200 holding and 200 mutated triples")
def test_criterion_10():
    rng = random.Random(100)
    phi_pool = [pack(w) for w in GOOD9]
    holding = 0
    attempts = 0
    while holding < 200:
        attempts += 1
        assert attempts < 3000, "sampling starved; holding triples too rare"
        members = sorted(rng.sample(phi_pool, rng.randint(2, 27)))
        nu = rng.choice(members)
        i = rng.randint(1, 3)
        mu = nu[: i - 1] + (None,) + nu[i:]
        if check_packed_limit_conditions(mu, nu, index_family(members, 3), 1) is not None:
            continue
        holding += 1
        u = unpack(mu)
        fam = [unpack(m) for m in members]
        assert is_bad(u)
        assert brute_is_k_limit(u, fam, 1)

    rejected = 0
    while rejected < 200:
        members = sorted(rng.sample(phi_pool, rng.randint(2, 27)))
        nu = rng.choice(members)
        i = rng.randint(1, 3)
        mu = nu[: i - 1] + (None,) + nu[i:]
        kind = rejected % 4
        if kind == 0:  # source member removed from the family
            broken = [m for m in members if m != nu] or [nu]
            if broken == [nu]:
                continue
            report = check_packed_limit_conditions(mu, nu, index_family(broken, 3), 1)
            expected = "P1"
        elif kind == 1:  # two emptied blocks
            j = i % 3 + 1
            mu2 = tuple(
                None if p in (i, j) else nu[p - 1] for p in range(1, 4)
            )
            report = check_packed_limit_conditions(mu2, nu, index_family(members, 3), 1)
            expected = "P1"
        elif kind == 2:  # difference without emptying
            other = nu[i - 1] % 3 + 1
            mu2 = nu[: i - 1] + (other,) + nu[i:]
            report = check_packed_limit_conditions(mu2, nu, index_family(members, 3), 1)
            expected = "P1"
        else:  # family starved of variety at the emptied position
            starved = [m for m in members if m[i - 1] == nu[i - 1]]
            report = check_packed_limit_conditions(mu, nu, index_family(starved, 3), 1)
            expected = "P2"
        assert report is not None
        assert report.failed == expected, (kind, report)
        rejected += 1


@criterion(11, "adversary refutes the block selector and reports the singleton")
def test_criterion_11():
    c = demo_block_selector(9)
    result = adversary(
        c, GOOD9, 1, bad_limit_via_entailment, lambda w: not is_good(w)
    )
    assert result.status == "refuted"
    assert result.word in enumerate_bad(9)
    assert eval_circuit(c, result.word)
    gate_family = [w for w in GOOD9 if eval_and(c, result.gate, w)]
    assert is_k_limit(result.word, gate_family, 1)

    singleton = demo_exact_good(9)
    result = adversary(
        singleton, GOOD9, 1, bad_limit_via_entailment, lambda w: not is_good(w)
    )
    assert result.status == "hypothesis_not_met"
    assert result.word is None
