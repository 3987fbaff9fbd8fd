"""Regular languages: regex parsing, minimal DFAs, complement, equivalence.

Words are tuples of symbols. Symbols are arbitrary non-empty strings, so
alphabets made of generated names ("e0", "e1", ...) work the same way as
single-letter ones. A pattern compiles through its Glushkov position
automaton (one state per letter occurrence, no epsilon-moves; Berry &
Sethi 1986), a subset construction over sets of positions, and Hopcroft
minimization. Every constructor in this module returns a DFA that is
already minimal and canonically numbered (breadth-first from the initial
state, columns in alphabet order), which makes equivalence a structural
comparison.

All functions are pure; DFAs and regex nodes are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

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
# compilation: Glushkov positions, subset construction, minimization


def _hopcroft(n, alphabet_size, delta, accepting):
    """Hopcroft partition refinement; returns the map state -> block.

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
    return block_of


def minimize(d: Dfa) -> Dfa:
    """Minimal, canonically numbered DFA for the same language.

    Hopcroft refines all states; the breadth-first numbering from the
    initial block, through one representative per block, then reaches
    exactly the blocks some word leads to, so unreachable states drop out.
    """
    block_of = _hopcroft(d.n_states, len(d.alphabet), d.delta, d.accepting)
    rep = {}
    for q in range(d.n_states):
        rep.setdefault(block_of[q], q)
    start_block = block_of[d.initial]
    order = [start_block]
    numbering = {start_block: 0}
    for blk in order:
        for t in d.delta[rep[blk]]:
            if block_of[t] not in numbering:
                numbering[block_of[t]] = len(order)
                order.append(block_of[t])
    return Dfa(
        alphabet=d.alphabet,
        n_states=len(order),
        initial=0,
        accepting=frozenset(i for i, blk in enumerate(order) if rep[blk] in d.accepting),
        delta=tuple(
            tuple(numbering[block_of[t]] for t in d.delta[rep[blk]]) for blk in order
        ),
    )


def compile(expr: Regex, alphabet: Iterable[str]) -> Dfa:
    """Compile a regex tree to its minimal DFA over the given alphabet.

    Each letter occurrence is a position; one walk over the tree gives
    every node's (nullable, first, last) and fills follow[p], the
    positions that may come right after p. Position 0 stands before the
    word, so follow[0] = first(expr). The subset construction then runs
    over sets of positions, with no epsilon-moves: a set accepts when it
    meets last(expr), or holds 0 if expr is nullable. The empty language
    and the empty word are ordinary cases; only a tree too deep for the
    recursive walk is refused.
    """
    alpha = tuple(alphabet)
    index = {sym: a for a, sym in enumerate(alpha)}
    letter_of = [-1]
    follow: list[set[int]] = [set()]

    def walk(node: Regex) -> tuple[bool, set[int], set[int]]:
        if isinstance(node, Letter):
            if node.symbol not in index:
                raise UnknownSymbolError(f"symbol {node.symbol!r} not in alphabet")
            p = len(letter_of)
            letter_of.append(index[node.symbol])
            follow.append(set())
            return False, {p}, {p}
        if isinstance(node, (Empty, Epsilon)):
            return isinstance(node, Epsilon), set(), set()
        if isinstance(node, Union):
            n1, f1, l1 = walk(node.left)
            n2, f2, l2 = walk(node.right)
            return n1 or n2, f1 | f2, l1 | l2
        if isinstance(node, Concat):
            n1, f1, l1 = walk(node.left)
            n2, f2, l2 = walk(node.right)
            for p in l1:
                follow[p] |= f2
            return n1 and n2, f1 | f2 if n1 else f1, l1 | l2 if n2 else l2
        if isinstance(node, Star):
            _, first, last = walk(node.inner)
            for p in last:
                follow[p] |= first
            return True, first, last
        raise TypeError(f"not a regex node: {node!r}")

    try:
        nullable, follow[0], last = walk(expr)
    except RecursionError:
        raise SizeGuardError("regex tree too deep to compile") from None
    # moves[p][a]: the positions after p that carry alphabet[a]
    moves = [[set() for _ in alpha] for _ in follow]
    for p, after in enumerate(follow):
        for q in after:
            moves[p][letter_of[q]].add(q)
    start = frozenset({0})
    numbering = {start: 0}
    order = [start]
    rows = []
    for current in order:
        row = []
        for a in range(len(alpha)):
            nxt = frozenset().union(*(moves[p][a] for p in current))
            if nxt not in numbering:
                numbering[nxt] = len(order)
                order.append(nxt)
            row.append(numbering[nxt])
        rows.append(tuple(row))
    final = last | {0} if nullable else last
    accepting = frozenset(i for i, s in enumerate(order) if not s.isdisjoint(final))
    return minimize(Dfa(alpha, len(order), 0, accepting, tuple(rows)))


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

