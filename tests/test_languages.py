"""Pattern compilation, minimization, complement and equivalence.

The ground truth throughout is a Brzozowski-derivative matcher plus a
Moore minimizer and a product-BFS equivalence check, all in oracles.py
and none sharing code with the package. Regex trees are drawn here and
written as pattern text by to_pattern, since compile_pattern is the
package's one road from a pattern to a DFA.
"""

import itertools
import random

import pytest
from hypothesis import given, strategies as st

from oracles import (
    Concat,
    Epsilon,
    Letter,
    Star,
    Union,
    complement,
    equivalent,
    equivalent_bfs,
    moore_state_count,
    parse_regex_recursive,
    re_matches,
    to_pattern,
    words_up_to_oracle,
)
from sigma2lab.errors import (
    AlphabetMismatchError,
    PreconditionError,
    RegexSyntaxError,
    UnknownSymbolError,
)
from sigma2lab.languages import Dfa, accepts, compile_pattern, minimize

AB = ("a", "b")
ABC = ("a", "b", "c")


def _compile_tree(r, alphabet=AB):
    return compile_pattern(to_pattern(r), alphabet)


# ---------------------------------------------------------------------------
# pattern syntax: each pattern compiles as its fully parenthesized tree


def test_parse_block_language_shape():
    tree = Star(
        Union(Concat(Letter("a"), Concat(Star(Letter("c")), Letter("b"))), Letter("c"))
    )
    assert compile_pattern("(ac*b+c)*", ABC) == _compile_tree(tree, ABC)


def test_parse_empty_text_is_epsilon():
    d = compile_pattern("", AB)
    assert d == compile_pattern("()", AB) == _compile_tree(Epsilon())
    assert [w for w in words_up_to_oracle(AB, 3) if accepts(d, w)] == [()]


def test_parse_star_binds_tighter_than_concat():
    d = compile_pattern("ab*", AB)
    assert d == compile_pattern("a(b*)", AB)
    assert d != compile_pattern("(ab)*", AB)


def test_parse_double_star():
    d = compile_pattern("a**", AB)
    assert d == _compile_tree(Star(Star(Letter("a")))) == compile_pattern("a*", AB)


def test_parse_bracketed_symbols():
    e01 = ("e0", "e1")
    d = compile_pattern("[e0][e1]*", e01)
    assert d == _compile_tree(Concat(Letter("e0"), Star(Letter("e1"))), e01)
    assert accepts(d, ("e0", "e1", "e1"))
    assert not accepts(d, ("e1",))


def test_parse_whitespace_ignored():
    assert compile_pattern(" a ( b + c ) ", ABC) == compile_pattern("a(b+c)", ABC)


def test_parse_error_carries_position():
    with pytest.raises(RegexSyntaxError) as info:
        compile_pattern("(ac*b", ABC)
    assert info.value.position == 5

    with pytest.raises(RegexSyntaxError) as info:
        compile_pattern("a+)b", ABC)
    assert info.value.position == 2


def test_parse_unknown_symbol():
    with pytest.raises(UnknownSymbolError):
        compile_pattern("ad", ABC)
    with pytest.raises(UnknownSymbolError):
        compile_pattern("[e9]", ("e0",))


def test_parse_nested_dyck_language():
    # two-level nesting of the block pattern
    inner = Union(Concat(Letter("a"), Concat(Star(Letter("c")), Letter("b"))), Letter("c"))
    tree = Star(
        Union(
            Concat(Letter("a"), Concat(Star(inner), Letter("b"))),
            Letter("c"),
        )
    )
    assert compile_pattern("(a(ac*b+c)*b+c)*", ABC) == _compile_tree(tree, ABC)


def _outcome(load, text, alphabet):
    """What load returns, or the error's class, message and position."""
    try:
        return load(text, alphabet)
    except (RegexSyntaxError, UnknownSymbolError) as exc:
        return type(exc), str(exc), getattr(exc, "position", None)


def test_parse_matches_recursive_descent_on_random_strings():
    rng = random.Random(10)
    alphabets = [AB, ("a", "b", "ab", " ")]
    words = {alphabet: words_up_to_oracle(alphabet, 4) for alphabet in alphabets}
    seen = set()
    for _ in range(10_000):
        text = "".join(rng.choice("ab()+*[] c") for _ in range(rng.randint(0, 12)))
        alphabet = rng.choice(alphabets)
        got = _outcome(compile_pattern, text, alphabet)
        tree = _outcome(parse_regex_recursive, text, alphabet)
        if isinstance(tree, tuple):
            assert got == tree, text
        else:
            for w in words[alphabet]:
                assert accepts(got, w) == re_matches(tree, w), (text, w)
        seen.add(got[1].split(" (at")[0] if isinstance(got, tuple) else "dfa")
    # every outcome kind turned up, so none of them went untested
    assert {
        "dfa",
        "expected ')'",
        "unexpected ')'",
        "unexpected ']'",
        "'*' needs something to repeat",
        "unterminated '['",
        "empty symbol name",
        "symbol 'c' not in alphabet",
    } <= seen


def test_parse_and_compile_have_no_depth_limit():
    nested = "(" * 400 + "a" + ")" * 400
    assert compile_pattern(nested, AB) == compile_pattern("a", AB)
    assert compile_pattern("a" * 3000, AB).n_states == 3002
    starred = "(" * 10_000 + "a" + ")*" * 10_000  # 10,000 groups deep
    assert compile_pattern(starred, AB) == compile_pattern("a*", AB)


# ---------------------------------------------------------------------------
# compile: frozen state counts and spot memberships


@pytest.mark.parametrize(
    "pattern,alphabet,states",
    [
        ("", ("a",), 2),
        ("a*", AB, 2),
        ("(a+b)*", AB, 1),
        ("(a+b)*a(a+b)*", AB, 2),
        ("(ac*b+c)*", ABC, 3),
        ("(a(ac*b+c)*b+c)*", ABC, 4),
        ("(aa)*", ("a",), 2),
    ],
)
def test_minimal_state_counts(pattern, alphabet, states):
    d = compile_pattern(pattern, alphabet)
    assert d.n_states == states
    assert moore_state_count(d) == states


def test_accepts_block_language(k_dfa):
    assert accepts(k_dfa, "acb")
    assert accepts(k_dfa, "")
    assert not accepts(k_dfa, "ba")
    assert accepts(k_dfa, "accbcacb")
    assert not accepts(k_dfa, "ab" * 3 + "b")


def test_accepts_rejects_foreign_symbol(k_dfa):
    with pytest.raises(UnknownSymbolError):
        accepts(k_dfa, "xyz")


def test_compile_checks_symbols():
    with pytest.raises(UnknownSymbolError, match="non-empty"):
        compile_pattern("a", ("a", ""))
    with pytest.raises(AlphabetMismatchError, match="duplicate"):
        compile_pattern("a", ("a", "a"))
    # before the pattern is read, so ahead of its syntax errors
    with pytest.raises(AlphabetMismatchError, match="duplicate"):
        compile_pattern("(a+b", "aba")


# ---------------------------------------------------------------------------
# compile agrees with derivative semantics


def _all_asts(size, alphabet):
    """Every regex AST of exactly the given node count."""
    if size == 1:
        return [Epsilon()] + [Letter(s) for s in alphabet]
    out = []
    for inner in _all_asts(size - 1, alphabet):
        out.append(Star(inner))
    for left_size in range(1, size - 1):
        for left in _all_asts(left_size, alphabet):
            for right in _all_asts(size - 1 - left_size, alphabet):
                out.append(Union(left, right))
                out.append(Concat(left, right))
    return out


def test_compile_matches_derivatives_exhaustively():
    words = words_up_to_oracle(AB, 4)
    for size in range(1, 5):
        for r in _all_asts(size, AB):
            d = _compile_tree(r)
            for w in words:
                assert accepts(d, w) == re_matches(r, w), (r, w)


def _random_ast(rng, size, alphabet):
    if size <= 1:
        return rng.choice([Epsilon(), Letter(rng.choice(alphabet))])
    shape = rng.choice(["star", "union", "concat"])
    if shape == "star":
        return Star(_random_ast(rng, size - 1, alphabet))
    split = rng.randint(1, size - 2) if size > 2 else 1
    left = _random_ast(rng, split, alphabet)
    right = _random_ast(rng, size - 1 - split, alphabet)
    return Union(left, right) if shape == "union" else Concat(left, right)


def test_compile_matches_derivatives_sampled():
    rng = random.Random(0)
    words = words_up_to_oracle(AB, 5)
    for _ in range(300):
        r = _random_ast(rng, rng.randint(5, 9), AB)
        d = _compile_tree(r)
        for w in words:
            assert accepts(d, w) == re_matches(r, w), (r, w)


@given(st.integers(min_value=0, max_value=2**20))
def test_compile_matches_derivatives_property(seed):
    rng = random.Random(seed)
    r = _random_ast(rng, rng.randint(1, 8), AB)
    d = _compile_tree(r)
    for w in words_up_to_oracle(AB, 4):
        assert accepts(d, w) == re_matches(r, w)


# ---------------------------------------------------------------------------
# minimization and equivalence


@pytest.mark.parametrize(
    "n_states,initial,accepting,delta",
    [
        (2, 5, {1}, ((0, 1), (1, 1))),  # initial state out of range
        (2, 0, {1}, ((0,), (1,))),  # rows shorter than the alphabet
        (0, 0, set(), ()),  # no states
        (1, 0, {7}, ((0, 0),)),  # accepting state out of range
        (1, 0, {0}, ((0, 0), (0, 0))),  # an extra row
        (2, 0, {1}, ((0, 2), (1, 1))),  # transition target out of range
    ],
)
def test_malformed_dfa_rejected(n_states, initial, accepting, delta):
    with pytest.raises(PreconditionError):
        Dfa(AB, n_states, initial, frozenset(accepting), delta)


def _corpus(count=60, seed=1):
    rng = random.Random(seed)
    return [_random_ast(rng, rng.randint(2, 9), AB) for _ in range(count)]


def test_minimize_idempotent():
    for r in _corpus():
        d = _compile_tree(r)
        assert minimize(d) == d


def test_minimality_against_moore():
    for r in _corpus(seed=2):
        d = _compile_tree(r)
        assert d.n_states == moore_state_count(d)


def _random_dfa(rng, states=(1, 9)):
    """A random complete DFA over 1-3 letters, any initial state; its state
    count is drawn from the range states."""
    n = rng.randint(*states)
    alphabet = ABC[: rng.randint(1, 3)]
    delta = tuple(tuple(rng.randrange(n) for _ in alphabet) for _ in range(n))
    accepting = frozenset(q for q in range(n) if rng.random() < 0.4)
    return Dfa(alphabet, n, rng.randrange(n), accepting, delta)


def _reachable(d):
    seen = {d.initial}
    frontier = [d.initial]
    while frontier:
        for t in d.delta[frontier.pop()]:
            if t not in seen:
                seen.add(t)
                frontier.append(t)
    return seen


def test_minimize_random_dfas_with_unreachable_states():
    rng = random.Random(5)
    dfas = [_random_dfa(rng) for _ in range(600)]
    # Hopcroft splits a block in place or builds its rest from the block;
    # a long chain and many-state DFAs take both branches many times over
    dfas += [_random_dfa(rng, states=(6, 14)) for _ in range(2500)]
    chain = tuple((min(q + 1, 39),) for q in range(40))
    dfas.append(Dfa(("a",), 40, 0, frozenset({39}), chain))
    unreachable = nonzero_initial = 0
    for d in dfas:
        unreachable += len(_reachable(d)) < d.n_states
        nonzero_initial += d.initial != 0
        m = minimize(d)
        assert m.initial == 0
        assert m.n_states == moore_state_count(d)
        assert equivalent_bfs(m, d)
        assert minimize(m) == m
    assert unreachable > 100 and nonzero_initial > 100


def test_equivalent_matches_pair_bfs():
    dfas = [_compile_tree(r) for r in _corpus(count=30, seed=3)]
    for d1, d2 in itertools.combinations(dfas, 2):
        assert equivalent(d1, d2) == equivalent_bfs(d1, d2)


def test_equivalent_is_reflexive(k_dfa):
    assert equivalent(k_dfa, k_dfa)


def test_equivalent_same_language_different_regex():
    d1 = compile_pattern("(a+b)*", AB)
    d2 = compile_pattern("(a*b*)*", AB)
    assert equivalent(d1, d2)
    assert d1 == d2  # canonical numbering makes them structurally equal


# ---------------------------------------------------------------------------
# complement and alphabet checks


def test_complement_membership(k_dfa):
    co = complement(k_dfa)
    for w in words_up_to_oracle(ABC, 5):
        assert accepts(co, w) == (not accepts(k_dfa, w))


def test_alphabet_mismatch_rejected(k_dfa):
    other = compile_pattern("a*", AB)
    with pytest.raises(AlphabetMismatchError):
        equivalent(k_dfa, other)

