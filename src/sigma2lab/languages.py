"""Regular languages: patterns compiled to minimal DFAs.

Words are tuples of symbols. Symbols are arbitrary non-empty strings, so
alphabets made of generated names ("e0", "e1", ...) work the same way as
single-letter ones. A pattern compiles in one left-to-right loop that
parses it and builds its Glushkov position automaton at once (one state
per letter occurrence, no epsilon-moves; Berry & Sethi 1986), then a
subset construction over sets of positions and Hopcroft minimization.
Every constructor in this module returns a DFA that is already minimal
and canonically numbered (breadth-first from the initial state, columns
in alphabet order), which makes equivalence a structural comparison.
The loop keeps its open groups on an explicit stack, never recursing,
so no nesting depth or pattern length is refused.

All functions are pure; DFAs are immutable.
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
# minimization, and compilation through Glushkov positions


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




def compile_pattern(text: str, alphabet: Iterable[str]) -> Dfa:
    """Compile a pattern over the given alphabet to its minimal DFA.

        regex  := term ('+' term)*
        term   := factor*           (empty concatenation denotes epsilon)
        factor := base '*'*
        base   := '(' regex ')' | '[' name ']' | symbol character

    '+' is union, juxtaposition is concatenation, '*' is star; multi-char
    symbols go in brackets and whitespace is ignored. Malformed input
    raises RegexSyntaxError with a position, a symbol outside the
    alphabet UnknownSymbolError. An empty or repeated alphabet symbol is
    refused before the pattern is read.

    One loop reads the pattern left to right and builds its Glushkov
    automaton as it goes: each letter occurrence is a position, numbered
    as it is read, each finished piece is kept only as its (nullable,
    first, last), and follow[p], the positions that may come right after
    p, fills in as pieces are concatenated or starred. Each open group on
    the stack holds its union, its term and the term's last factor, left
    open for a '*' until the next factor, '+', ')' or the end. Position 0
    stands before the word, so follow[0] = first(pattern); the subset
    construction runs over sets of positions, and a set accepts when it
    meets last(pattern), or holds 0 if the pattern is nullable.
    """
    alpha = tuple(alphabet)
    for sym in alpha:
        if not sym:
            raise UnknownSymbolError("alphabet symbols must be non-empty")
    index = {sym: a for a, sym in enumerate(alpha)}
    if len(index) != len(alpha):
        raise AlphabetMismatchError("alphabet has duplicate symbols")
    letter_of = [-1]
    follow: list[set[int]] = [set()]
    empty_word = (True, frozenset(), frozenset())
    groups = [[None, empty_word, None]]  # union, term, the term's last factor
    pos = 0
    while True:
        while pos < len(text) and text[pos].isspace():
            pos += 1
        c = text[pos] if pos < len(text) else None
        group = groups[-1]
        if c == "*":
            if group[2] is None:
                raise RegexSyntaxError("'*' needs something to repeat", pos)
            _, first, last = group[2]
            for p in last:
                follow[p] |= first
            group[2] = True, first, last
            pos += 1
            continue
        if group[2] is not None:  # concatenate the open factor to the term
            (n1, f1, l1), (n2, f2, l2) = group[1:]
            for p in l1:
                follow[p] |= f2
            group[1:] = (n1 and n2, f1 | f2 if n1 else f1, l1 | l2 if n2 else l2), None
        if c is None or c in ")+":
            union, term, _ = group
            if union is not None:
                term = union[0] or term[0], union[1] | term[1], union[2] | term[2]
            if c == "+":
                group[:2] = term, empty_word
                pos += 1
                continue
            if c is None and len(groups) > 1:
                raise RegexSyntaxError("expected ')'", pos)
            if c == ")" and len(groups) == 1:
                raise RegexSyntaxError("unexpected ')'", pos)
            if c is None:
                break
            groups.pop()
            groups[-1][2] = term
        elif c == "(":
            groups.append([None, empty_word, None])
        else:
            sym, end = c, pos
            if c == "[":
                end = text.find("]", pos)
                if end < 0:
                    raise RegexSyntaxError("unterminated '['", pos)
                sym = text[pos + 1 : end]
                if not sym:
                    raise RegexSyntaxError("empty symbol name", pos)
            elif c == "]":
                raise RegexSyntaxError("unexpected ']'", pos)
            if sym not in index:
                raise UnknownSymbolError(f"symbol {sym!r} not in alphabet (at position {pos})")
            p = len(letter_of)
            letter_of.append(index[sym])
            follow.append(set())
            group[2] = False, {p}, {p}
            pos = end
        pos += 1
    nullable, follow[0], last = term
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
