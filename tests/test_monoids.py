"""Ordered syntactic monoids, the subword relation, and the equation check.

Frozen numbers for the block language K = (ac*b+c)* come from direct
enumeration of its three-state minimal DFA's transformations; orders
and relations are compared against definitional brute force.
"""

import random
import time
import tracemalloc
from dataclasses import fields

import pytest

from oracles import (
    accepted_elements,
    bfs_subword_relation,
    bfs_transition_monoid,
    brute_subword_pairs,
    complement,
    composition_table,
    confirm_failing_pair,
    content_sigma2,
    definitional_neutral,
    definitional_order,
    in_da,
    monoid_law_failure,
    moore_state_count,
    order_law_failure,
    scan_check_sigma2,
    two_sided_ideals,
    words_up_to_oracle,
    worklist_subword_relation,
)
from sigma2lab import monoids
from sigma2lab.errors import (
    MonoidSizeError,
    NotMinimalError,
    PreconditionError,
    UnknownSymbolError,
)
from sigma2lab.languages import Dfa, accepts, compile_pattern, minimize
from sigma2lab.monoids import (
    SubwordRelation,
    TransitionMonoid,
    check_sigma2,
    classify,
    classify_recognition,
    neutral_letters,
    recognize,
    subword_relation,
    subword_witness,
    syntactic_order,
    transition_monoid,
    up_word_accepts,
)
from sigma2lab.reports import class_report_to_dict, verify_subword_witness

AB = ("a", "b")
ABC = ("a", "b", "c")

# two redundant states recognizing (a+b)*
BLOATED = Dfa(
    alphabet=AB,
    n_states=2,
    initial=0,
    accepting=frozenset({0, 1}),
    delta=((1, 1), (0, 0)),
)
# minimal but for state 1, which nothing reaches
UNREACHED = Dfa(
    alphabet=AB,
    n_states=2,
    initial=0,
    accepting=frozenset({0}),
    delta=((0, 0), (1, 0)),
)


def _rec(pattern, alphabet):
    return recognize(compile_pattern(pattern, alphabet))


def _random_minimal_recognitions(seed, count, max_states, max_size):
    """Seeded random minimal DFAs over 2-3 letters with their recognitions.

    DFAs whose monoid exceeds max_size elements are skipped.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(2, max_states)
        alphabet = ABC[: rng.randint(2, 3)]
        delta = tuple(tuple(rng.randrange(n) for _ in alphabet) for _ in range(n))
        accepting = frozenset(q for q in range(n) if rng.random() < 0.5)
        d = Dfa(alphabet, n, 0, accepting, delta)
        if moore_state_count(d) != n:
            continue
        try:
            out.append((d, recognize(d, max_size=max_size)))
        except MonoidSizeError:
            continue
    return out


# ---------------------------------------------------------------------------
# transition monoids


def test_full_language_monoid_is_trivial():
    rec = _rec("(a+b)*", AB)
    assert rec.monoid.size == 1
    assert accepted_elements(rec) == frozenset({0})


def test_even_length_a_monoid():
    rec = _rec("(aa)*", ("a",))
    m = rec.monoid
    assert m.size == 2
    assert m.mul(m.image("a"), m.image("a")) == m.identity


def test_contains_a_monoid():
    rec = _rec("(a+b)*a(a+b)*", AB)
    m = rec.monoid
    z = m.image("a")
    assert m.size == 2
    assert m.image("b") == m.identity
    assert z != m.identity
    # z is absorbing
    assert m.mul(z, m.identity) == z
    assert m.mul(z, z) == z


def test_block_language_monoid_frozen(k_rec):
    m = k_rec.monoid
    assert m.size == 6
    words = tuple(map(m.word, range(m.size)))
    assert words == ((), ("a",), ("b",), ("a", "a"), ("a", "b"), ("b", "a"))
    assert accepted_elements(k_rec) == frozenset({0, 4})
    assert sorted(m.idempotents()) == [0, 3, 4, 5]
    assert m.image("c") == m.identity
    # aa is a zero: no continuation ever accepts
    zero = m.eval("aa")
    assert all(m.mul(zero, e) == zero and m.mul(e, zero) == zero for e in range(6))


def test_monoid_laws_validate(k_rec):
    m = k_rec.monoid
    products = [[m.mul(s, t) for t in range(m.size)] for s in range(m.size)]
    assert monoid_law_failure(products, m.identity) is None
    assert order_law_failure(k_rec) is None


@pytest.mark.parametrize("d", [BLOATED, UNREACHED], ids=["equal-residuals", "unreached"])
def test_transition_monoid_requires_minimal_dfa(d):
    with pytest.raises(NotMinimalError):
        transition_monoid(d)
    with pytest.raises(NotMinimalError):  # ahead of the size guard
        transition_monoid(d, max_size=1)


def test_monoid_size_guard(k_dfa):
    with pytest.raises(MonoidSizeError):
        recognize(k_dfa, max_size=3)


def test_monoid_size_guard_bounds_the_work_on_a_small_dfa():
    # 23 states whose monoid and co-states far outgrow the default limit
    d = compile_pattern("(a+b)" * 20 + "a(a+b)*", AB)
    t0 = time.perf_counter()
    with pytest.raises(MonoidSizeError):
        recognize(d)
    assert time.perf_counter() - t0 < 5.0


def test_a_minimal_dfa_with_more_states_than_the_limit_is_refused_unbuilt():
    # 8192 states: every state is some element's image of the initial
    # state, so M >= 8192 > 4096 is known before the closure, whose maps
    # alone would take hundreds of MB
    d = compile_pattern("(a+b)*a" + "(a+b)" * 12, AB)
    tracemalloc.start()
    try:
        with pytest.raises(MonoidSizeError, match="exceeds 4096 elements"):
            recognize(d)
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert d.n_states == 8192
    assert peak < 16 * 2**20


def test_large_monoid_is_classified_in_little_memory():
    # the reversal: 13 states and M=4095, so a table of all M^2 products
    # would hold 16.8 million entries, well over 100 MB
    d = compile_pattern("(a+b)" * 10 + "a(a+b)*", AB)
    tracemalloc.start()
    try:
        rec = recognize(d)
        class_report_to_dict(rec, classify_recognition(rec))
        peak = tracemalloc.get_traced_memory()[1]
    finally:
        tracemalloc.stop()
    assert rec.monoid.size == 4095
    assert peak < 16 * 2**20


def test_ladder_k10_is_classified_in_little_time():
    # n=2048 states and M=4095: the closure composes 8190 state maps, and
    # each order query of the equation check reads only the image of x
    d = compile_pattern("(a+b)*a" + "(a+b)" * 10, AB)
    t0 = time.perf_counter()
    rec = recognize(d)
    classify_recognition(rec)
    assert time.perf_counter() - t0 < 3.0
    assert (rec.dfa.n_states, rec.monoid.size) == (2048, 4095)


def test_monoid_size_guard_counts_the_identity():
    trivial = compile_pattern("(a+b)*", AB)
    assert transition_monoid(trivial, max_size=1).size == 1
    for limit in (0, -3):
        with pytest.raises(MonoidSizeError, match=f"exceeds {limit} elements"):
            transition_monoid(trivial, max_size=limit)
        with pytest.raises(NotMinimalError):
            transition_monoid(BLOATED, max_size=limit)


def test_morphism_eval_and_unknown_symbol(k_rec):
    h = k_rec.monoid
    assert h.eval("abab") == h.eval("ab")
    assert h.eval("") == k_rec.monoid.identity
    with pytest.raises(UnknownSymbolError, match="symbol 'x' not in alphabet"):
        h.eval("xy")


def _read_off(d, max_size):
    """The package's monoid, with the words and images it reads off its graph."""
    m = transition_monoid(d, max_size)
    return m, tuple(map(m.word, range(m.size))), {sym: m.image(sym) for sym in m.alphabet}


def _monoid_or_error(build, d, max_size):
    """The builder's result as comparable fields, or its error's class.

    build returns the record, each element's word and each letter's image.
    """
    try:
        h, words, images = build(d, max_size)
    except (MonoidSizeError, NotMinimalError) as err:
        return type(err)
    return {
        "right": h.right,
        "first": h.first,
        "suffix": h.suffix,
        "table": composition_table(h.action),
        "images": images,
        "words": words,
        "action": h.action,
        "state_order": h.state_order,
    }


def test_table_matches_composition_oracle():
    # the one-state DFAs of the empty and the full language, where every
    # map is (0,) and itemgetter over one index would give a scalar; the
    # ladder, then seeded random DFAs as drawn (often not minimal, with
    # any initial state) and minimized; both refuse monoids above 120, and
    # every product the Cayley graph gives is the composed state maps' one
    dfas = [
        Dfa(AB, 1, 0, frozenset(), ((0, 0),)),
        compile_pattern("(a+b)*", AB),
        compile_pattern("(ac*b+c)*", ABC),
        compile_pattern("(a(ac*b+c)*b+c)*", ABC),
        compile_pattern("(a+b)*a(a+b)(a+b)(a+b)", AB),
        _full_transformation_dfa(3),
    ]
    rng = random.Random(17)
    for _ in range(150):
        n = rng.randint(1, 6)
        alphabet = ABC[: rng.randint(1, 3)]
        delta = tuple(tuple(rng.randrange(n) for _ in alphabet) for _ in range(n))
        accepting = frozenset(q for q in range(n) if rng.random() < 0.5)
        d = Dfa(alphabet, n, rng.randrange(n), accepting, delta)
        dfas += [d, minimize(d)]
    kinds = set()
    for d in dfas:
        got = _monoid_or_error(_read_off, d, 120)
        assert got == _monoid_or_error(bfs_transition_monoid, d, 120), d
        kinds.add(got if isinstance(got, type) else "monoid")
        if isinstance(got, dict):
            m, table = transition_monoid(d, 120), got["table"]
            assert all(m.mul(s, t) == table[s][t] for s in range(m.size) for t in range(m.size))
            size = m.size
            for build in (_read_off, bfs_transition_monoid):
                assert _monoid_or_error(build, d, size) == got
                assert _monoid_or_error(build, d, size - 1) is MonoidSizeError
    assert kinds == {"monoid", NotMinimalError, MonoidSizeError}


# ---------------------------------------------------------------------------
# syntactic order


@pytest.mark.parametrize(
    "pattern,alphabet",
    [
        ("(ac*b+c)*", ABC),
        ("(a(ac*b+c)*b+c)*", ABC),
        ("(a+b)*a(a+b)*", AB),
        ("(aa)*", ("a",)),
        ("(ab)*", AB),
        # the (k+1)-th letter from the end is a: 2**(k+1) states
        *[("(a+b)*a" + "(a+b)" * k, AB) for k in range(1, 6)],
        # the reversal: k+3 states, 2**(k+1) co-states
        *[("(a+b)" * k + "a(a+b)*", AB) for k in range(1, 6)],
    ],
)
def test_order_matches_definitional_oracle(pattern, alphabet):
    rec = _rec(pattern, alphabet)
    # the complement's order is the language's order reversed
    for side in (rec, rec.complemented()):
        brute = definitional_order(composition_table(side.monoid.action), accepted_elements(side))
        computed = {
            (s, t)
            for s in range(side.monoid.size)
            for t in range(side.monoid.size)
            if side.leq(s, t)
        }
        assert computed == brute


def test_order_upper_set(k_rec):
    m, accepted = k_rec.monoid, accepted_elements(k_rec)
    for s in accepted:
        for t in range(m.size):
            if k_rec.leq(s, t):
                assert t in accepted


def test_contains_a_order():
    rec = _rec("(a+b)*a(a+b)*", AB)
    one, z = rec.monoid.identity, rec.monoid.image("a")
    assert rec.leq(one, z)
    assert not rec.leq(z, one)


def test_block_language_order_refuses_xyx(k_rec):
    h = k_rec.monoid
    x = h.eval("abab")
    xyx = h.eval("ababbaabab")
    assert not k_rec.leq(x, xyx)
    # the separating context is empty on both sides
    assert accepts(k_rec.dfa, "abab")
    assert not accepts(k_rec.dfa, "ababbaabab")


def test_random_orders_match_definitional_oracle():
    for _, rec in _random_minimal_recognitions(3, 40, 4, 20):
        for side in (rec, rec.complemented()):
            brute = definitional_order(composition_table(side.monoid.action), accepted_elements(side))
            m = side.monoid.size
            computed = {
                (s, t) for s in range(m) for t in range(m) if side.leq(s, t)
            }
            assert computed == brute


def test_recognition_membership_sampled(k_rec):
    rng, accepted = random.Random(4), accepted_elements(k_rec)
    for _ in range(1000):
        w = "".join(rng.choice(ABC) for _ in range(rng.randint(0, 8)))
        assert (k_rec.monoid.eval(w) in accepted) == accepts(k_rec.dfa, w)


def test_complemented_recognition(k_rec):
    co = k_rec.complemented()
    assert co.dfa == complement(k_rec.dfa)
    assert co.monoid is k_rec.monoid
    accepted, co_accepted = accepted_elements(k_rec), accepted_elements(co)
    assert co_accepted == frozenset(range(6)) - accepted
    for w in ["", "ab", "ba", "acb", "abc"]:
        assert (co.monoid.eval(w) in co_accepted) == (k_rec.monoid.eval(w) not in accepted)
    # the flipped order still leaves the flipped accepting set upward closed
    for s in co_accepted:
        for t in range(6):
            if co.leq(s, t):
                assert t in co_accepted
    # complementing twice gives back the language's order
    assert co.complemented() == k_rec


def test_the_complement_asks_the_order_with_s_and_t_swapped(monkeypatch, k_rec):
    calls = []

    def recorded(monoid, s, t):
        calls.append((monoid, s, t))
        return syntactic_order(monoid, s, t)

    monkeypatch.setattr(monoids, "syntactic_order", recorded)
    k_rec.leq(1, 4)
    k_rec.complemented().leq(1, 4)
    assert calls == [(k_rec.monoid, 1, 4), (k_rec.monoid, 4, 1)]
    assert all(monoid is k_rec.monoid for monoid, _, _ in calls)


# ---------------------------------------------------------------------------
# subword relation


def test_subword_relation_identity_pair(k_rec, k_sw):
    one = k_rec.monoid.identity
    assert (one, one) in k_sw.pairs


def test_block_language_subword_relation_frozen(k_rec, k_sw):
    assert len(k_sw.pairs) == 31
    h = k_rec.monoid
    pair = (h.eval("abab"), h.eval("ba"))
    assert pair in k_sw.pairs
    wit = subword_witness(h, pair)
    assert wit.word == ("a", "b", "a", "b")
    assert wit.positions == (2, 3)


def test_subword_relation_against_brute_force(k_rec, k_sw):
    assert k_sw.pairs == brute_subword_pairs(k_rec.monoid, 6)


def test_contains_a_subword_relation():
    rec = _rec("(a+b)*a(a+b)*", AB)
    sw = subword_relation(rec.monoid)
    one, z = rec.monoid.identity, rec.monoid.image("a")
    assert sw.pairs == {(one, one), (z, one), (z, z)}
    assert (one, z) not in sw.pairs
    assert sw.pairs == brute_subword_pairs(rec.monoid, 6)


def test_even_length_subword_relation_brute():
    rec = _rec("(aa)*", ("a",))
    sw = subword_relation(rec.monoid)
    assert sw.pairs == brute_subword_pairs(rec.monoid, 6)


def test_every_witness_verifies(k_rec, k_sw):
    for pair in k_sw.pairs:
        wit = subword_witness(k_rec.monoid, pair)
        assert verify_subword_witness(k_rec.monoid, pair, wit)


def test_witness_verification_rejects_wrong_claims(k_rec, k_sw):
    h = k_rec.monoid
    pair = (h.eval("abab"), h.eval("ba"))
    wit = subword_witness(h, pair)
    assert not verify_subword_witness(h, (pair[0], h.eval("ab")), wit)


def test_relation_closed_under_product(k_rec, k_sw):
    m = k_rec.monoid
    for x1, y1 in k_sw.pairs:
        for x2, y2 in k_sw.pairs:
            assert (m.mul(x1, x2), m.mul(y1, y2)) in k_sw.pairs


def test_subwords_of_is_sorted(k_sw):
    for x in range(6):
        ys = k_sw.subwords_of(x)
        assert ys == sorted(ys)


def test_monoid_stores_only_its_closure():
    assert [f.name for f in fields(TransitionMonoid)] == [
        "alphabet",
        "right",
        "first",
        "suffix",
        "action",
        "j_class",
        "state_order",
        "_idempotents",
        "_witnesses",
    ]


def test_relation_stores_only_companions(k_sw):
    assert [f.name for f in fields(SubwordRelation)] == ["companions"]
    assert sum(bits.bit_count() for bits in k_sw.companions) == len(k_sw.pairs)


def test_witness_refused_outside_the_relation():
    rec = _rec("(a+b)*a(a+b)*", AB)
    with pytest.raises(PreconditionError):
        subword_witness(rec.monoid, (rec.monoid.identity, rec.monoid.image("a")))


def _full_transformation_dfa(n):
    """A cycle, a transposition and a merge on n states generate T_n."""
    cycle = [(q + 1) % n for q in range(n)]
    swap = [1, 0] + list(range(2, n))
    merge = [0, 0] + list(range(2, n))
    delta = tuple((cycle[q], swap[q], merge[q]) for q in range(n))
    return Dfa(ABC, n, 0, frozenset({0}), delta)


def test_relation_and_witnesses_match_the_bfs_oracle():
    # Every pair is checked on the three small named languages (803 pairs);
    # on T3 and the random DFAs, a seeded sample of 15 plus the last pair
    # claimed, which takes the longest search (554 of their 40,436 pairs).
    named = [
        _rec("(ac*b+c)*", ABC),
        _rec("(a(ac*b+c)*b+c)*", ABC),
        _rec("(a+b)*a(a+b)(a+b)(a+b)", AB),
    ]
    sampled = [recognize(_full_transformation_dfa(3))] + [
        rec for _, rec in _random_minimal_recognitions(6, 40, 5, 100)
    ]
    rng = random.Random(6)
    cases = [(rec, False) for rec in named] + [(rec, True) for rec in sampled]
    for rec, sample in cases:
        pairs, witness = bfs_subword_relation(rec.monoid)
        assert subword_relation(rec.monoid).pairs == pairs
        claimed = list(witness)
        if sample:
            claimed = rng.sample(claimed, min(15, len(claimed))) + claimed[-1:]
        for pair in claimed:
            wit = subword_witness(rec.monoid, pair)
            assert (wit.word, wit.positions) == witness[pair]


def test_a_pair_failing_on_both_sides_is_searched_for_once(monkeypatch):
    # the language and its complement both fail on the pair (4, 1)
    searched = []
    search = monoids._least_witness

    def counted(monoid, pair):
        searched.append(pair)
        return search(monoid, pair)

    monkeypatch.setattr(monoids, "_least_witness", counted)
    rec = _rec("(a(ac*b+c)*b+c)*", ABC)
    report = classify_recognition(rec)
    # both sides read one record, and with it one witness cache
    assert rec.complemented().monoid is rec.monoid
    sigma2, pi2 = report.sigma2, report.pi2
    assert (sigma2.x, sigma2.y) == (pi2.x, pi2.y) == (4, 1)
    assert searched == [(4, 1)]
    assert sigma2.pair_witness is pi2.pair_witness


def _minimized_random_recognitions(seed, count, max_size):
    """Seeded random DFAs, 1-5 states, 1-4 letters, any initial state, minimized.

    Minimizing gives every kind of minimal DFA, the one-state ones too;
    DFAs whose monoid exceeds max_size elements are skipped.
    """
    rng = random.Random(seed)
    out = []
    while len(out) < count:
        n = rng.randint(1, 5)
        alphabet = ("a", "b", "c", "d")[: rng.randint(1, 4)]
        delta = tuple(tuple(rng.randrange(n) for _ in alphabet) for _ in range(n))
        accepting = frozenset(q for q in range(n) if rng.random() < 0.5)
        d = Dfa(alphabet, n, rng.randrange(n), accepting, delta)
        try:
            out.append(recognize(d, max_size=max_size))
        except MonoidSizeError:
            continue
    return out


def test_j_classes_are_the_equal_ideals_numbered_top_down():
    recs = [_rec("(ac*b+c)*", ABC), recognize(_full_transformation_dfa(3))]
    for rec in recs + _minimized_random_recognitions(21, 150, 80):
        m = rec.monoid
        j_class = rec.monoid.j_class
        ideals = two_sided_ideals(composition_table(rec.monoid.action))
        assert j_class[m.identity] == 0
        for s in range(m.size):
            for t in ideals[s]:
                # t in M s M: the same class iff the ideals agree, else below
                if ideals[t] == ideals[s]:
                    assert j_class[t] == j_class[s]
                else:
                    assert j_class[t] > j_class[s]
        assert sorted(set(j_class)) == list(range(len(set(ideals))))


def test_class_level_relation_and_check_match_the_element_scans():
    # companions from the per-element worklist; verdicts and witnesses
    # from the scan of every idempotent, on both sides of each language
    shared = {True: 0, False: 0}  # sides with two idempotents in one J-class, by verdict
    for rec in _minimized_random_recognitions(14, 400, 200):
        sw = subword_relation(rec.monoid)
        assert sw == worklist_subword_relation(rec.monoid)
        j_class = rec.monoid.j_class
        idempotent_classes = [j_class[e] for e in rec.monoid.idempotents()]
        two_in_one = len(set(idempotent_classes)) < len(idempotent_classes)
        for side in (rec, rec.complemented()):
            witness = check_sigma2(side, sw)
            assert witness == scan_check_sigma2(side, sw)
            shared[witness is None] += two_in_one
    # the check skips an idempotent on both kinds of verdict
    assert shared[True] >= 10 and shared[False] >= 10


def test_the_order_on_the_image_of_an_idempotent_matches_the_definitional_query():
    # x <= x y x read at the states x fixes, against rec.leq at every state,
    # for every idempotent x and every element y, companion or not
    ladder = [_rec("(a+b)*a" + "(a+b)" * k, AB) for k in range(3, 7)]
    randoms = [rec for _, rec in _random_minimal_recognitions(6, 40, 5, 100)]
    verdicts = set()
    for rec in ladder + randoms:
        m, action = rec.monoid, rec.monoid.action
        for side in (rec, rec.complemented()):
            for x in m.idempotents():
                fixed = set(action[x])
                for y in range(m.size):
                    xyx = m.mul(m.mul(x, y), x)
                    holds = monoids._leq_on_image(side, fixed, xyx)
                    assert holds == side.leq(x, xyx), (side.converse, x, y)
                    verdicts.add(holds)
    assert verdicts == {True, False}


# ---------------------------------------------------------------------------
# the equation check


def test_trivial_monoid_passes():
    rec = _rec("(a+b)*", AB)
    assert check_sigma2(rec, subword_relation(rec.monoid)) is None


def test_contains_a_passes():
    rec = _rec("(a+b)*a(a+b)*", AB)
    assert check_sigma2(rec, subword_relation(rec.monoid)) is None


def test_block_language_fails_with_frozen_witness(k_rec, k_sw):
    w = check_sigma2(k_rec, k_sw)
    assert w is not None
    h = k_rec.monoid
    assert w.x == h.eval("ab")
    assert w.y == h.eval("a")
    assert w.context == (0, 0)
    assert w.x_word == ("a", "b")
    assert w.y_word == ("a",)
    assert w.pair_witness.word == ("a", "b")
    assert w.pair_witness.positions == (1,)
    # the claimed separation replays on the DFA
    assert accepts(k_rec.dfa, w.p_word + w.x_word + w.q_word)
    assert not accepts(
        k_rec.dfa, w.p_word + w.x_word + w.y_word + w.x_word + w.q_word
    )


def test_block_language_complement_side_passes(k_rec, k_sw):
    assert check_sigma2(k_rec.complemented(), k_sw) is None


def test_confirm_failing_pair(k_rec, k_sw):
    report = confirm_failing_pair(k_rec, k_sw, "abab", "ba")
    assert report["valid_failing_pair"]
    assert report["in_subword_relation"]
    assert report["equation_fails"]
    # a pair that satisfies the equation is reported invalid
    benign = confirm_failing_pair(k_rec, k_sw, "abab", "ab")
    assert not benign["equation_fails"]
    assert not benign["valid_failing_pair"]


# ---------------------------------------------------------------------------
# classification


def test_classify_block_language(k_dfa):
    report = classify(k_dfa, description="block language")
    assert report.sigma2 is not None
    assert report.pi2 is None
    assert not report.delta2
    assert report.subword_pair_count == 31


def test_classify_full_language():
    report = classify(compile_pattern("(a+b)*", AB))
    assert report.sigma2 is None and report.pi2 is None and report.delta2


def test_classify_contains_a():
    report = classify(compile_pattern("(a+b)*a(a+b)*", AB))
    assert report.sigma2 is None and report.pi2 is None and report.delta2


def test_classify_delta2_is_conjunction():
    rng = random.Random(9)
    words = words_up_to_oracle(AB, 3)
    for _ in range(20):
        # random union of short words; classification must be coherent
        chosen = [w for w in words if rng.random() < 0.3]
        pattern = "+".join("".join(w) or "()" for w in chosen) or "a a"
        try:
            d = compile_pattern(pattern, AB)
        except Exception:
            continue
        report = classify(d)
        assert report.delta2 == (report.sigma2 is None and report.pi2 is None)


def test_delta2_is_membership_in_da(k_dfa):
    # Delta2 = DA, checked without the sigma2 equation. Random DFAs are
    # rarely in exactly one of sigma2 and pi2; K and its complement are.
    fixed = [(d, recognize(d)) for d in (k_dfa, complement(k_dfa))]
    verdicts = set()
    for d, rec in fixed + _random_minimal_recognitions(5, 60, 6, 100):
        report = classify_recognition(rec)
        assert report.delta2 == in_da(d), d
        verdicts.add((report.sigma2 is None, report.pi2 is None))
    assert len(verdicts) == 4


def test_classify_pi2_is_sigma2_of_complement(k_dfa):
    report = classify(k_dfa)
    co = recognize(complement(k_dfa))
    assert (report.pi2 is None) == (check_sigma2(co, subword_relation(co.monoid)) is None)


# ---------------------------------------------------------------------------
# sigma2 verdicts against oracles that do not use the subword relation


def test_content_form_oracle_agrees_with_the_equation_check():
    fixed = [
        compile_pattern(pattern, ABC)
        for pattern in ["(ac*b+c)*", "(ab)*", "a*b*", "(a+b)*a(a+b)(a+b)(a+b)"]
    ]
    recs = [recognize(d) for d in fixed] + [
        rec for _, rec in _random_minimal_recognitions(12, 40, 5, 100)
    ]
    for rec in recs:
        sw = subword_relation(rec.monoid)
        for side in (rec, rec.complemented()):
            assert content_sigma2(side.dfa) == (check_sigma2(side, sw) is None), side.dfa


def _piecewise_union(rng):
    """A regex for a union of products A0* a1 A1* ... ak Ak* over {a, b, c}."""
    terms = []
    for _ in range(rng.randint(1, 3)):
        factors = []
        for i in range(2 * rng.randint(0, 3) + 1):
            if i % 2:
                factors.append(rng.choice(ABC))
            else:
                subset = [sym for sym in ABC if rng.random() < 0.5]
                factors.append("(" + "+".join(subset) + ")*" if subset else "")
        terms.append("".join(factors) or "()")
    return "+".join(terms)


def test_piecewise_unions_are_sigma2_and_their_complements_pi2():
    # a finite union of A0* a1 A1* ... ak Ak* is in sigma2 (Arfi; Pin &
    # Weil 1997), so its complement is in pi2
    rng = random.Random(2)
    verdicts = set()
    for _ in range(60):
        d = compile_pattern(_piecewise_union(rng), ABC)
        report = classify(d)
        assert report.sigma2 is None, d
        assert classify(complement(d)).pi2 is None, d
        verdicts.add(report.pi2 is None)
    assert False in verdicts  # some union is sigma2 but not pi2


# ---------------------------------------------------------------------------
# neutral letters


def test_neutral_letters_block_language(k_dfa):
    assert neutral_letters(recognize(k_dfa)) == frozenset({"c"})
    assert definitional_neutral(k_dfa, 6) == {"c"}


def test_neutral_letters_full_language():
    d = compile_pattern("(a+b)*", AB)
    assert neutral_letters(recognize(d)) == frozenset(AB)


def test_neutral_letters_even_length():
    d = compile_pattern("(aa)*", ("a",))
    assert neutral_letters(recognize(d)) == frozenset()
    assert definitional_neutral(d, 6) == set()


# ---------------------------------------------------------------------------
# up-words


def test_up_word_reflexive(k_rec):
    h = k_rec.monoid
    x = h.eval("ab")
    assert up_word_accepts(k_rec, x, (x,))


def test_up_word_empty_word_identity(k_rec):
    assert up_word_accepts(k_rec, k_rec.monoid.identity, ())


def test_up_word_contains_a_examples():
    rec = _rec("(a+b)*a(a+b)*", AB)
    one, z = rec.monoid.identity, rec.monoid.image("a")
    assert not up_word_accepts(rec, z, (one, one))
    assert up_word_accepts(rec, z, (one, z, one))


# ---------------------------------------------------------------------------
# validation


def test_monoid_json_rejects_broken_table(k_rec):
    broken = [list(row) for row in composition_table(k_rec.monoid.action)]
    broken[0][0] = 5  # identity law now fails
    assert monoid_law_failure(broken, k_rec.monoid.identity) == "identity law fails"
