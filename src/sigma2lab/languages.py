"""Regular languages: regex parsing and minimal DFAs.

Words are tuples of symbols. Symbols are arbitrary non-empty strings, so
alphabets made of generated names ("e0", "e1", ...) work the same way as
single-letter ones. A pattern compiles through its Glushkov position
automaton (one state per letter occurrence, no epsilon-moves; Berry &
Sethi 1986), a subset construction over sets of positions, and Hopcroft
minimization. Every constructor in this module returns a DFA that is
already minimal and canonically numbered (breadth-first from the initial
state, columns in alphabet order), which makes equivalence a structural
comparison. Parsing and compiling each run as one loop over an explicit
stack, never recursing, so no nesting depth or pattern length is refused.

All functions are pure; DFAs and regex nodes are immutable.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import Iterable, Sequence

from .errors import (
    AlphabetMismatchError,
    PreconditionError,
    RegexSyntaxError,
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


def _nest_right(make, items: list) -> Regex:
    """make(items[0], make(items[1], ... items[-1])), for a nonempty list."""
    node = items[-1]
    for item in reversed(items[:-1]):
        node = make(item, node)
    return node


def parse_regex(text: str, alphabet: Iterable[str]) -> Regex:
    """Parse a pattern over the given alphabet into a regex tree.

    The empty string yields epsilon. Raises RegexSyntaxError with a
    position for malformed input, and UnknownSymbolError for symbols
    outside the alphabet. One left-to-right loop reads the pattern; each
    open group on its stack holds its finished terms and the factors of
    the term being read, so nesting depth costs list entries, not Python
    frames, and no pattern is too deep to parse.
    """
    alpha = frozenset(alphabet)
    for sym in alpha:
        if not sym:
            raise UnknownSymbolError("alphabet symbols must be non-empty")
    groups: list[tuple[list[Regex], list[Regex]]] = [([], [])]
    pos = 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        c = text[pos] if pos < len(text) else None
        terms, factors = groups[-1]
        if c is None or c in ")+":
            terms.append(_nest_right(Concat, factors) if factors else EPSILON)
            factors.clear()
            if c == "+":
                pos += 1
                continue
            if c is None and len(groups) > 1:
                raise RegexSyntaxError("expected ')'", pos)
            if c == ")" and len(groups) == 1:
                raise RegexSyntaxError("unexpected ')'", pos)
            node = _nest_right(Union, terms)
            if c is None:
                return node
            groups.pop()
            groups[-1][1].append(node)
        elif c == "*":
            if not factors:
                raise RegexSyntaxError("'*' needs something to repeat", pos)
            factors[-1] = Star(factors[-1])
        elif c == "(":
            groups.append(([], []))
        elif c == "[":
            end = text.find("]", pos)
            if end < 0:
                raise RegexSyntaxError("unterminated '['", pos)
            name = text[pos + 1 : end]
            if not name:
                raise RegexSyntaxError("empty symbol name", pos)
            if name not in alpha:
                raise UnknownSymbolError(
                    f"symbol {name!r} not in alphabet (at position {pos})"
                )
            factors.append(Letter(name))
            pos = end
        elif c == "]":
            raise RegexSyntaxError("unexpected ']'", pos)
        elif c not in alpha:
            raise UnknownSymbolError(f"symbol {c!r} not in alphabet (at position {pos})")
        else:
            factors.append(Letter(c))
        pos += 1


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
    A split costs O(|inside|), not the size of the block: a small inside
    leaves the block's set in place, and otherwise the block is less
    than twice inside, so building its rest costs as little. That makes
    the refinement O(n log n) per letter.
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
            if 2 * len(inside) <= len(blk):
                blk -= inside
                small = inside
            else:
                small = blk - inside
                partition[blk_id] = inside
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
    and the empty word are ordinary cases.

    The walk is a post-order loop over an explicit stack, left child
    first, so positions are numbered left to right and a tree of any
    depth compiles: an inner node is popped once to push its children
    and once more to combine the triples they left on the results stack.
    """
    alpha = tuple(alphabet)
    index = {sym: a for a, sym in enumerate(alpha)}
    letter_of = [-1]
    follow: list[set[int]] = [set()]
    results: list[tuple[bool, set[int], set[int]]] = []
    stack: list[tuple[Regex, bool]] = [(expr, False)]
    while stack:
        node, combine = stack.pop()
        if combine and isinstance(node, Star):
            _, first, last = results[-1]
            for p in last:
                follow[p] |= first
            results[-1] = True, first, last
        elif combine:
            n2, f2, l2 = results.pop()
            n1, f1, l1 = results.pop()
            if isinstance(node, Union):
                results.append((n1 or n2, f1 | f2, l1 | l2))
            else:
                for p in l1:
                    follow[p] |= f2
                results.append((n1 and n2, f1 | f2 if n1 else f1, l1 | l2 if n2 else l2))
        elif isinstance(node, Letter):
            if node.symbol not in index:
                raise UnknownSymbolError(f"symbol {node.symbol!r} not in alphabet")
            p = len(letter_of)
            letter_of.append(index[node.symbol])
            follow.append(set())
            results.append((False, {p}, {p}))
        elif isinstance(node, (Empty, Epsilon)):
            results.append((isinstance(node, Epsilon), set(), set()))
        elif isinstance(node, (Union, Concat)):
            stack += [(node, True), (node.right, False), (node.left, False)]
        elif isinstance(node, Star):
            stack += [(node, True), (node.inner, False)]
        else:
            raise TypeError(f"not a regex node: {node!r}")
    nullable, follow[0], last = results.pop()
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
