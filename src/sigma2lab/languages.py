"""Regular languages: regex parsing, minimal DFAs, boolean operations.

Words are tuples of symbols. Symbols are arbitrary non-empty strings, so
alphabets made of generated names ("e0", "e1", ...) work the same way as
single-letter ones. Every constructor in this module returns a DFA that
is already minimal and canonically numbered (breadth-first from the
initial state, columns in alphabet order), which makes equivalence a
structural comparison.

All functions are pure; DFAs and regex nodes are immutable.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Iterable, Iterator, Sequence

from .errors import (
    AlphabetMismatchError,
    PreconditionError,
    RegexSyntaxError,
    SizeGuardError,
    UnknownSymbolError,
)

Word = tuple[str, ...]


# ---------------------------------------------------------------------------
# regex abstract syntax


@dataclass(frozen=True)
class Empty:
    """The empty language."""


@dataclass(frozen=True)
class Epsilon:
    """The language containing only the empty word."""


@dataclass(frozen=True)
class Letter:
    symbol: str


@dataclass(frozen=True)
class Union:
    left: "Regex"
    right: "Regex"


@dataclass(frozen=True)
class Concat:
    left: "Regex"
    right: "Regex"


@dataclass(frozen=True)
class Star:
    inner: "Regex"


Regex = Empty | Epsilon | Letter | Union | Concat | Star

EMPTY = Empty()
EPSILON = Epsilon()


# ---------------------------------------------------------------------------
# parser
#
# regex  := term ('+' term)*
# term   := factor*           (empty concatenation denotes epsilon)
# factor := base '*'*
# base   := '(' regex ')' | '[' name ']' | symbol character
#
# '+' is union, juxtaposition is concatenation, '*' is star. Multi-char
# symbols are written in brackets. Whitespace is ignored. The empty
# string parses to epsilon. Union and concatenation associate to the
# right.

_SPECIAL = set("()+*[]")


class _Parser:
    def __init__(self, text: str, alphabet: frozenset[str]):
        self.text = text
        self.alphabet = alphabet
        self.pos = 0

    def error(self, message: str) -> RegexSyntaxError:
        return RegexSyntaxError(message, self.pos)

    def peek(self) -> str | None:
        while self.pos < len(self.text) and self.text[self.pos].isspace():
            self.pos += 1
        return self.text[self.pos] if self.pos < len(self.text) else None

    def parse(self) -> Regex:
        node = self.parse_regex()
        if self.peek() is not None:
            raise self.error(f"unexpected {self.text[self.pos]!r}")
        return node

    def parse_regex(self) -> Regex:
        terms = [self.parse_term()]
        while self.peek() == "+":
            self.pos += 1
            terms.append(self.parse_term())
        node = terms[-1]
        for t in reversed(terms[:-1]):
            node = Union(t, node)
        return node

    def parse_term(self) -> Regex:
        factors = []
        while True:
            c = self.peek()
            if c is None or c in ")+":
                break
            factors.append(self.parse_factor())
        if not factors:
            return EPSILON
        node = factors[-1]
        for f in reversed(factors[:-1]):
            node = Concat(f, node)
        return node

    def parse_factor(self) -> Regex:
        node = self.parse_base()
        while self.peek() == "*":
            self.pos += 1
            node = Star(node)
        return node

    def parse_base(self) -> Regex:
        c = self.peek()
        if c is None:
            raise self.error("unexpected end of pattern")
        if c == "(":
            self.pos += 1
            node = self.parse_regex()
            if self.peek() != ")":
                raise self.error("expected ')'")
            self.pos += 1
            return node
        if c == "[":
            start = self.pos
            end = self.text.find("]", self.pos)
            if end < 0:
                raise self.error("unterminated '['")
            name = self.text[self.pos + 1 : end]
            if not name:
                raise self.error("empty symbol name")
            if name not in self.alphabet:
                raise UnknownSymbolError(
                    f"symbol {name!r} not in alphabet (at position {start})"
                )
            self.pos = end + 1
            return Letter(name)
        if c == "*":
            raise self.error("'*' needs something to repeat")
        if c in _SPECIAL:
            raise self.error(f"unexpected {c!r}")
        if c not in self.alphabet:
            raise UnknownSymbolError(
                f"symbol {c!r} not in alphabet (at position {self.pos})"
            )
        self.pos += 1
        return Letter(c)


def parse_regex(text: str, alphabet: Iterable[str]) -> Regex:
    """Parse a pattern over the given alphabet into a regex tree.

    The empty string yields epsilon. Raises RegexSyntaxError with a
    position for malformed input, including symbols outside the alphabet.
    """
    alpha = frozenset(alphabet)
    for sym in alpha:
        if not sym:
            raise UnknownSymbolError("alphabet symbols must be non-empty")
    try:
        return _Parser(text, alpha).parse()
    except RecursionError:
        raise SizeGuardError("pattern nests too deeply to parse") from None


# ---------------------------------------------------------------------------
# DFA


@dataclass(frozen=True)
class Dfa:
    """Complete deterministic automaton over an ordered alphabet.

    delta[q][i] is the successor of state q on alphabet[i]. Instances
    produced by this module are minimal with states numbered in
    breadth-first order from state 0 (the initial state). A state, row
    count or row length that does not fit n_states and the alphabet
    raises PreconditionError.
    """

    alphabet: tuple[str, ...]
    n_states: int
    initial: int
    accepting: frozenset[int]
    delta: tuple[tuple[int, ...], ...]

    def __post_init__(self):
        if len(set(self.alphabet)) != len(self.alphabet):
            raise AlphabetMismatchError("alphabet has duplicate symbols")
        n = self.n_states
        if n < 1:
            raise PreconditionError("a DFA needs at least one state")
        if not 0 <= self.initial < n:
            raise PreconditionError(f"initial state {self.initial} out of range")
        if not all(0 <= q < n for q in self.accepting):
            raise PreconditionError("accepting state out of range")
        if not isinstance(self.delta, Sequence) or len(self.delta) != n:
            raise PreconditionError(f"the transition rows do not fit {n} states")
        for row in self.delta:
            if not isinstance(row, Sequence) or len(row) != len(self.alphabet):
                raise PreconditionError("a transition row does not fit the alphabet")
            if not all(0 <= q < n for q in row):
                raise PreconditionError("transition target out of range")

    def symbol_index(self, sym: str) -> int:
        try:
            return self.alphabet.index(sym)
        except ValueError:
            raise UnknownSymbolError(f"symbol {sym!r} not in alphabet") from None

    def step(self, state: int, sym: str) -> int:
        return self.delta[state][self.symbol_index(sym)]


def as_word(w: str | Sequence[str], alphabet: Sequence[str]) -> Word:
    """Coerce a word given as a string or symbol sequence to a symbol tuple.

    A plain string is split into characters, which requires every
    alphabet symbol to be a single character.
    """
    if isinstance(w, str):
        if any(len(s) != 1 for s in alphabet):
            raise UnknownSymbolError(
                "string words need a single-character alphabet; pass a symbol list"
            )
        return tuple(w)
    return tuple(w)


def accepts(d: Dfa, w: str | Sequence[str]) -> bool:
    """Membership of w in the language of d."""
    state = d.initial
    for sym in as_word(w, d.alphabet):
        state = d.step(state, sym)
    return state in d.accepting


# ---------------------------------------------------------------------------
# compilation: Thompson construction, subset construction, minimization


def _thompson(r: Regex, alphabet: tuple[str, ...]):
    # eps[q] -> set of states, trans[q] -> list of (symbol index, state)
    eps: list[set[int]] = []
    trans: list[list[tuple[int, int]]] = []

    def new_state() -> int:
        eps.append(set())
        trans.append([])
        return len(eps) - 1

    def build(node: Regex) -> tuple[int, int]:
        start, end = new_state(), new_state()
        if isinstance(node, Empty):
            pass
        elif isinstance(node, Epsilon):
            eps[start].add(end)
        elif isinstance(node, Letter):
            trans[start].append((alphabet.index(node.symbol), end))
        elif isinstance(node, Union):
            ls, le = build(node.left)
            rs, re = build(node.right)
            eps[start].update((ls, rs))
            eps[le].add(end)
            eps[re].add(end)
        elif isinstance(node, Concat):
            ls, le = build(node.left)
            rs, re = build(node.right)
            eps[start].add(ls)
            eps[le].add(rs)
            eps[re].add(end)
        elif isinstance(node, Star):
            ms, me = build(node.inner)
            eps[start].update((ms, end))
            eps[me].update((ms, end))
        else:
            raise TypeError(f"not a regex node: {node!r}")
        return start, end

    start, end = build(r)
    return eps, trans, start, end


def _eps_closure(eps: list[set[int]], states: Iterable[int]) -> frozenset[int]:
    seen = set(states)
    stack = list(seen)
    while stack:
        q = stack.pop()
        for nxt in eps[q]:
            if nxt not in seen:
                seen.add(nxt)
                stack.append(nxt)
    return frozenset(seen)


def _subset_construction(alphabet, eps, trans, start, end):
    initial = _eps_closure(eps, [start])
    index = {initial: 0}
    order = [initial]
    delta_rows: list[list[int]] = []
    i = 0
    while i < len(order):
        current = order[i]
        row = []
        for a in range(len(alphabet)):
            moved = [t for q in current for (sym, t) in trans[q] if sym == a]
            nxt = _eps_closure(eps, moved)
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            row.append(index[nxt])
        delta_rows.append(row)
        i += 1
    accepting = frozenset(i for i, s in enumerate(order) if end in s)
    return len(order), 0, accepting, delta_rows


def _hopcroft(n, alphabet_size, delta, accepting):
    """Hopcroft partition refinement; returns (state -> block, block count).

    Splitting reuses the split block's id for the larger half and always
    queues the smaller half, which subsumes the textbook case analysis.
    """
    preimage = [[[] for _ in range(n)] for _ in range(alphabet_size)]
    for q in range(n):
        for a in range(alphabet_size):
            preimage[a][delta[q][a]].append(q)

    acc = set(accepting)
    rest = set(range(n)) - acc
    partition: list[set[int]] = [blk for blk in (acc, rest) if blk]
    block_of = {}
    for b, blk in enumerate(partition):
        for q in blk:
            block_of[q] = b
    work = {(b, a) for b in range(len(partition)) for a in range(alphabet_size)}

    while work:
        b, a = work.pop()
        x = {q for t in partition[b] for q in preimage[a][t]}
        if not x:
            continue
        touched = {}
        for q in x:
            touched.setdefault(block_of[q], set()).add(q)
        for blk_id, inside in touched.items():
            blk = partition[blk_id]
            if len(inside) == len(blk):
                continue
            outside = blk - inside
            small = inside if len(inside) <= len(outside) else outside
            large = blk - small
            partition[blk_id] = large
            partition.append(small)
            new_id = len(partition) - 1
            for q in small:
                block_of[q] = new_id
            for c in range(alphabet_size):
                work.add((new_id, c))
    return block_of, len(partition)


def _minimize_tables(alphabet, n, initial, accepting, delta):
    # drop unreachable states first
    reach = [initial]
    seen = {initial}
    for q in reach:
        for t in delta[q]:
            if t not in seen:
                seen.add(t)
                reach.append(t)
    remap = {q: i for i, q in enumerate(reach)}
    n2 = len(reach)
    delta2 = [[remap[delta[q][a]] for a in range(len(alphabet))] for q in reach]
    acc2 = {remap[q] for q in accepting if q in remap}

    block_of, _ = _hopcroft(n2, len(alphabet), delta2, acc2)

    # canonical numbering: breadth-first over blocks from the initial block
    rep = {}
    for q in range(n2):
        rep.setdefault(block_of[q], q)
    start_block = block_of[0]
    order = [start_block]
    numbering = {start_block: 0}
    for blk in order:
        q = rep[blk]
        for a in range(len(alphabet)):
            nxt = block_of[delta2[q][a]]
            if nxt not in numbering:
                numbering[nxt] = len(order)
                order.append(nxt)
    table = []
    for blk in order:
        q = rep[blk]
        table.append(tuple(numbering[block_of[delta2[q][a]]] for a in range(len(alphabet))))
    accepting_final = frozenset(numbering[block_of[q]] for q in acc2)
    return Dfa(
        alphabet=tuple(alphabet),
        n_states=len(order),
        initial=0,
        accepting=accepting_final,
        delta=tuple(table),
    )


def minimize(d: Dfa) -> Dfa:
    """Minimal, canonically numbered DFA for the same language."""
    return _minimize_tables(d.alphabet, d.n_states, d.initial, d.accepting, d.delta)


def compile(expr: Regex, alphabet: Iterable[str]) -> Dfa:
    """Compile a regex tree to its minimal DFA over the given alphabet.

    The empty language and the empty word are ordinary cases; only a
    tree too deep for the recursive Thompson construction is refused.
    """
    alpha = tuple(alphabet)
    try:
        _check_symbols(expr, frozenset(alpha))
        eps, trans, start, end = _thompson(expr, alpha)
    except RecursionError:
        raise SizeGuardError("regex tree too deep to compile") from None
    n, initial, accepting, delta = _subset_construction(alpha, eps, trans, start, end)
    return _minimize_tables(alpha, n, initial, accepting, delta)


def _check_symbols(r: Regex, alpha: frozenset[str]) -> None:
    if isinstance(r, Letter):
        if r.symbol not in alpha:
            raise UnknownSymbolError(f"symbol {r.symbol!r} not in alphabet")
    elif isinstance(r, (Union, Concat)):
        _check_symbols(r.left, alpha)
        _check_symbols(r.right, alpha)
    elif isinstance(r, Star):
        _check_symbols(r.inner, alpha)


def compile_pattern(text: str, alphabet: Iterable[str]) -> Dfa:
    """parse_regex followed by compile."""
    alpha = tuple(alphabet)
    return compile(parse_regex(text, alpha), alpha)


# ---------------------------------------------------------------------------
# boolean operations and comparisons


def complement(d: Dfa) -> Dfa:
    out = Dfa(
        alphabet=d.alphabet,
        n_states=d.n_states,
        initial=d.initial,
        accepting=frozenset(range(d.n_states)) - d.accepting,
        delta=d.delta,
    )
    return minimize(out)


def intersect(d1: Dfa, d2: Dfa) -> Dfa:
    if d1.alphabet != d2.alphabet:
        raise AlphabetMismatchError(
            f"alphabets differ: {d1.alphabet} vs {d2.alphabet}"
        )
    start = (d1.initial, d2.initial)
    index = {start: 0}
    order = [start]
    rows = []
    for q1, q2 in order:
        row = []
        for a in range(len(d1.alphabet)):
            nxt = (d1.delta[q1][a], d2.delta[q2][a])
            if nxt not in index:
                index[nxt] = len(order)
                order.append(nxt)
            row.append(index[nxt])
        rows.append(row)
    accepting = frozenset(
        i for i, (q1, q2) in enumerate(order)
        if q1 in d1.accepting and q2 in d2.accepting
    )
    return _minimize_tables(d1.alphabet, len(order), 0, accepting, rows)


def equivalent(d1: Dfa, d2: Dfa) -> bool:
    """Language equality, via minimal canonical forms."""
    if d1.alphabet != d2.alphabet:
        raise AlphabetMismatchError(
            f"alphabets differ: {d1.alphabet} vs {d2.alphabet}"
        )
    m1, m2 = minimize(d1), minimize(d2)
    return (
        m1.n_states == m2.n_states
        and m1.accepting == m2.accepting
        and m1.delta == m2.delta
    )


def words_up_to(alphabet: Sequence[str], max_len: int) -> Iterator[Word]:
    """All words over the alphabet of length at most max_len, shortlex."""
    for length in range(max_len + 1):
        for w in itertools.product(tuple(alphabet), repeat=length):
            yield w
