"""Independent reference implementations the tests compare against.

Everything here is deliberately written with different algorithms than
the package: regex matching by derivatives instead of automata, order
and subword relations by brute force over words and contexts, Moore
refinement instead of Hopcroft, limits by scanning every position set.
The lab's k-limit probes, entailment search, packed limit conditions
and densest gate are also kept as the member-by-member scans their
bitset indexes replaced, and a family is also packed word by word with
pack and indexed member by member, not column by column.
Patterns are also parsed into regex trees by recursive descent, and
to_pattern writes a tree back as pattern text, so trees drawn by the
tests reach the package through its one entry, compile_pattern.
Every product of the transition monoid is also composed from two
state maps and looked up (composition_table), so no oracle multiplies
through the package's Cayley graph; its J-classes are the elements
with equal two-sided ideals, and the residual inclusion of its states
is the greatest simulation, which needs no co-states. The subword
relation is also found by the breadth-first search that keeps a
witness for every pair, and by a worklist over elements that knows no
J-classes; the sigma2 check also scans every idempotent and every
context, and sigma2 is also decided by the content form of its
identity, which needs no subword relation.
Some helpers live here because only tests use them:
accepted_elements lists the elements a recognition accepts; complement
and equivalent build the complement and compare languages by minimal
canonical forms, independently of Recognition.complemented;
confirm_failing_pair checks an externally supplied failing equation
pair, circuit_to_json writes the payload circuit_from_json reads, and
delete_x_letters blanks the x slots of a wired monoid word. The wired
words are also built slot by slot (build_x_i, build_y, t_good, t_bad),
the reference the package's letter-by-letter wiring is compared with.
Slow is fine; these run at desk scale only.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from itertools import combinations, product
from math import comb

from sigma2lab.blockwords import K_LIMIT_WORK_LIMIT, block_count, pack
from sigma2lab.entailment import FamilyIndex
from sigma2lab.errors import (
    AlphabetMismatchError,
    MalformedPairSetError,
    MonoidSizeError,
    NotMinimalError,
    PackError,
    PreconditionError,
    RegexSyntaxError,
    SearchBudgetError,
    UnknownSymbolError,
)
from sigma2lab.languages import Dfa, accepts, minimize
from sigma2lab.monoids import (
    EquationWitness,
    SubwordRelation,
    TransitionMonoid,
    subword_witness,
)
from sigma2lab.reductions import Factorization

IDENTITY = TransitionMonoid.identity

# ---------------------------------------------------------------------------
# regex trees, and the pattern text that denotes each


@dataclass(frozen=True)
class Empty:
    """The empty language; no pattern denotes it."""


@dataclass(frozen=True)
class Epsilon:
    """The language containing only the empty word."""


@dataclass(frozen=True)
class Letter:
    symbol: str


@dataclass(frozen=True)
class Union:
    left: object
    right: object


@dataclass(frozen=True)
class Concat:
    left: object
    right: object


@dataclass(frozen=True)
class Star:
    inner: object


EPSILON = Epsilon()


def to_pattern(r) -> str:
    """Pattern text for a tree without Empty: every node in parentheses,
    the empty word as '()', multi-character symbols in brackets."""
    if isinstance(r, Epsilon):
        return "()"
    if isinstance(r, Letter):
        return r.symbol if len(r.symbol) == 1 else f"[{r.symbol}]"
    if isinstance(r, Union):
        return f"({to_pattern(r.left)}+{to_pattern(r.right)})"
    if isinstance(r, Concat):
        return f"({to_pattern(r.left)}{to_pattern(r.right)})"
    if isinstance(r, Star):
        return f"({to_pattern(r.inner)})*"
    raise TypeError(f"no pattern denotes {r!r}")


# ---------------------------------------------------------------------------
# patterns by recursive descent, one method per grammar rule
#
# regex  := term ('+' term)*
# term   := factor*
# factor := base '*'*
# base   := '(' regex ')' | '[' name ']' | symbol character


class _RecursiveParser:
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

    def parse(self):
        node = self.parse_regex()
        if self.peek() is not None:
            raise self.error(f"unexpected {self.text[self.pos]!r}")
        return node

    def parse_regex(self):
        terms = [self.parse_term()]
        while self.peek() == "+":
            self.pos += 1
            terms.append(self.parse_term())
        node = terms[-1]
        for t in reversed(terms[:-1]):
            node = Union(t, node)
        return node

    def parse_term(self):
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

    def parse_factor(self):
        node = self.parse_base()
        while self.peek() == "*":
            self.pos += 1
            node = Star(node)
        return node

    def parse_base(self):
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
        if c in "()+*[]":
            raise self.error(f"unexpected {c!r}")
        if c not in self.alphabet:
            raise UnknownSymbolError(
                f"symbol {c!r} not in alphabet (at position {self.pos})"
            )
        self.pos += 1
        return Letter(c)


def parse_regex_recursive(text: str, alphabet):
    """The regex tree of a pattern, by recursive descent; depth is bounded
    by Python's recursion limit, so keep inputs short."""
    return _RecursiveParser(text, frozenset(alphabet)).parse()


# ---------------------------------------------------------------------------
# regex semantics via Brzozowski derivatives


def nullable(r) -> bool:
    if isinstance(r, Empty):
        return False
    if isinstance(r, Epsilon):
        return True
    if isinstance(r, Letter):
        return False
    if isinstance(r, Union):
        return nullable(r.left) or nullable(r.right)
    if isinstance(r, Concat):
        return nullable(r.left) and nullable(r.right)
    if isinstance(r, Star):
        return True
    raise TypeError(f"not a regex node: {r!r}")


def derivative(r, sym: str):
    if isinstance(r, (Empty, Epsilon)):
        return Empty()
    if isinstance(r, Letter):
        return Epsilon() if r.symbol == sym else Empty()
    if isinstance(r, Union):
        return Union(derivative(r.left, sym), derivative(r.right, sym))
    if isinstance(r, Concat):
        left = Concat(derivative(r.left, sym), r.right)
        if nullable(r.left):
            return Union(left, derivative(r.right, sym))
        return left
    if isinstance(r, Star):
        return Concat(derivative(r.inner, sym), r)
    raise TypeError(f"not a regex node: {r!r}")


def re_matches(r, word) -> bool:
    for sym in word:
        r = derivative(r, sym)
    return nullable(r)


# ---------------------------------------------------------------------------
# complement and equivalence, DFA equivalence by product BFS, minimality
# by Moore refinement


def equivalent_bfs(d1, d2) -> bool:
    """Agreement of two DFAs over the same alphabet, no minimization."""
    if d1.alphabet != d2.alphabet:
        raise ValueError("alphabet mismatch")
    start = (d1.initial, d2.initial)
    seen = {start}
    frontier = [start]
    while frontier:
        q1, q2 = frontier.pop()
        if (q1 in d1.accepting) != (q2 in d2.accepting):
            return False
        for s in range(len(d1.alphabet)):
            nxt = (d1.delta[q1][s], d2.delta[q2][s])
            if nxt not in seen:
                seen.add(nxt)
                frontier.append(nxt)
    return True


def complement(d):
    """The complement, built from scratch and minimized."""
    out = Dfa(
        alphabet=d.alphabet,
        n_states=d.n_states,
        initial=d.initial,
        accepting=frozenset(range(d.n_states)) - d.accepting,
        delta=d.delta,
    )
    return minimize(out)


def equivalent(d1, d2) -> bool:
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


def moore_state_count(d) -> int:
    """Number of states of the minimal DFA, by naive partition refinement."""
    reachable = {d.initial}
    frontier = [d.initial]
    while frontier:
        q = frontier.pop()
        for s in range(len(d.alphabet)):
            if d.delta[q][s] not in reachable:
                reachable.add(d.delta[q][s])
                frontier.append(d.delta[q][s])
    block = {q: (q in d.accepting) for q in reachable}
    while True:
        signature = {
            q: (block[q], tuple(block[d.delta[q][s]] for s in range(len(d.alphabet))))
            for q in reachable
        }
        relabel = {sig: i for i, sig in enumerate(sorted(set(signature.values())))}
        new_block = {q: relabel[signature[q]] for q in reachable}
        if new_block == block:
            return len(set(block.values()))
        block = new_block


def bfs_closure(d, max_size):
    """The state maps breadth-first from the identity, and the word first reaching each."""
    n = d.n_states
    if max_size < 1:  # the identity is an element too
        raise MonoidSizeError(f"more than {max_size} elements")
    identity = tuple(range(n))
    gens = {
        sym: tuple(d.delta[q][a] for q in range(n)) for a, sym in enumerate(d.alphabet)
    }
    index = {identity: 0}
    elements = [identity]
    words = [()]
    for i, current in enumerate(elements):
        for sym in d.alphabet:
            composed = tuple(gens[sym][q] for q in current)
            if composed not in index:
                if len(elements) >= max_size:
                    raise MonoidSizeError(f"more than {max_size} elements")
                index[composed] = len(elements)
                elements.append(composed)
                words.append(words[i] + (sym,))
    return elements, words


def bfs_transition_monoid(d, max_size):
    """The transition monoid, every product composed and hashed.

    The same breadth-first closure as the package, but the right Cayley
    graph and each element's first-letter split are read off the M^2
    cells of composition_table, not recorded as the closure runs. The
    closure's words and each letter's image, which the package reads off
    its graph, are returned beside the record as the closure found them.
    Minimality is checked by Moore refinement first, so NotMinimalError
    wins over MonoidSizeError.
    """
    if moore_state_count(d) != d.n_states:
        raise NotMinimalError("not minimal")
    elements, words = bfs_closure(d, max_size)
    table = composition_table(elements)
    index = {image: e for e, image in enumerate(elements)}
    letters = [tuple(row[a] for row in d.delta) for a in range(len(d.alphabet))]
    generator = {sym: index[image] for sym, image in zip(d.alphabet, letters)}
    suffix = [0] * len(elements)  # the element of a representative without its first letter
    for e, word in enumerate(words):
        for sym in word[1:]:
            suffix[e] = table[suffix[e]][generator[sym]]
    return TransitionMonoid(
        alphabet=d.alphabet,
        right=tuple(tuple(row[generator[sym]] for row in table) for sym in d.alphabet),
        first=tuple(d.alphabet.index(word[0]) if word else -1 for word in words),
        suffix=tuple(suffix),
        action=tuple(elements),
        j_class=j_classes_by_ideals(table),
        state_order=residual_inclusion(d),
    ), tuple(words), generator


def composition_table(action) -> tuple[tuple[int, ...], ...]:
    """table[s][t]: the element s t, composed from the state maps and looked up.

    action[e][q] is the state e sends q to, so s t sends q to
    action[t][action[s][q]]; each cell finds its element by that map.
    """
    index = {image: e for e, image in enumerate(action)}
    return tuple(tuple(index[tuple(t[q] for q in s)] for t in action) for s in action)


def accepted_elements(rec) -> frozenset[int]:
    """The elements sending the initial state into F, an upper set."""
    d = rec.dfa
    return frozenset(
        e for e, image in enumerate(rec.monoid.action) if image[d.initial] in d.accepting
    )


def residual_inclusion(d) -> tuple[int, ...]:
    """up[q]: bit r set iff every word q leads into F leads r into F too.

    The greatest simulation: start from the pairs with q in F => r in F,
    and drop a pair while some letter leads it outside the set.
    """
    n, letters = d.n_states, range(len(d.alphabet))
    related = {
        (q, r)
        for q in range(n)
        for r in range(n)
        if q not in d.accepting or r in d.accepting
    }
    while True:
        broken = {
            (q, r)
            for q, r in related
            if any((d.delta[q][a], d.delta[r][a]) not in related for a in letters)
        }
        if not broken:
            return tuple(sum(1 << r for r in range(n) if (q, r) in related) for q in range(n))
        related -= broken


def two_sided_ideals(table) -> list[frozenset]:
    """M s M for every element s, every product u s v formed. Cubic."""
    size = len(table)
    return [
        frozenset(table[table[u][s]][v] for u in range(size) for v in range(size))
        for s in range(size)
    ]


def j_classes_by_ideals(table) -> tuple[int, ...]:
    """J-classes as equal two-sided ideals, numbered by decreasing ideal size.

    A class strictly above another has the larger ideal, so the numbering
    puts every class before the classes below it; ties go to the class
    with the smaller least element.
    """
    ideals = two_sided_ideals(table)
    classes = sorted(
        {ideal: s for s, ideal in reversed(list(enumerate(ideals)))}.items(),
        key=lambda item: (-len(item[0]), item[1]),
    )
    number = {ideal: c for c, (ideal, _) in enumerate(classes)}
    return tuple(number[ideal] for ideal in ideals)


# ---------------------------------------------------------------------------
# words, orders, and relations by brute force


def words_up_to_oracle(alphabet, max_len):
    out = [()]
    for length in range(1, max_len + 1):
        out.extend(product(alphabet, repeat=length))
    return out


def brute_subword_pairs(monoid, max_len: int):
    """All (h(w), h(v)) with v a subsequence of w and |w| bounded."""
    pairs = set()
    for w in words_up_to_oracle(monoid.alphabet, max_len):
        x = monoid.eval(w)
        for size in range(len(w) + 1):
            for positions in combinations(range(len(w)), size):
                pairs.add((x, monoid.eval(tuple(w[i] for i in positions))))
    return pairs


def bfs_subword_relation(monoid):
    """The subword relation with a shortest witness per pair, all at once.

    Breadth-first over word lengths: each level's candidates are sorted
    by (word, positions) and the first to reach a pair claims it. Returns
    the set of pairs and a dict from pair to (word, positions).
    """
    table = composition_table(monoid.action)
    ident = monoid.identity
    start = (ident, ident)
    witness = {start: ((), ())}
    frontier = [(start, (), ())]
    while frontier:
        candidates = []
        for (x, y), w, ps in frontier:
            pos = len(w) + 1
            for sym in monoid.alphabet:
                g = monoid.image(sym)
                nw = w + (sym,)
                candidates.append((nw, ps, (table[x][g], y)))
                candidates.append((nw, ps + (pos,), (table[x][g], table[y][g])))
        candidates.sort(key=lambda c: (c[0], c[1]))
        frontier = []
        for w, ps, pair in candidates:
            if pair not in witness:
                witness[pair] = (w, ps)
                frontier.append((pair, w, ps))
    return set(witness), witness


def worklist_subword_relation(monoid) -> SubwordRelation:
    """The subword relation closed element by element, with no J-classes.

    A worklist closes {(1, 1)} under right multiplication by the
    generator pairs, one bitset of companions per x; only the bits new
    to x since it was last processed are pushed on.
    """
    table = composition_table(monoid.action)
    gens = {column[0] for column in monoid.right}  # each letter's image
    one = monoid.identity
    companions = [0] * monoid.size
    companions[one] = 1 << one
    new = {one: 1 << one}  # x -> its companions not yet pushed on
    while new:
        x, delta = new.popitem()
        ys = [y for y in range(delta.bit_length()) if delta >> y & 1]
        for g in gens:
            # (x, y)(g, 1) = (xg, y) and (x, y)(g, g) = (xg, yg)
            xg = table[x][g]
            grown = delta
            for y in ys:
                grown |= 1 << table[y][g]
            grown &= ~companions[xg]
            if grown:
                companions[xg] |= grown
                new[xg] = new.get(xg, 0) | grown
    return SubwordRelation(tuple(companions))


def scan_check_sigma2(rec, sw) -> EquationWitness | None:
    """The sigma2 equation checked at every idempotent, with no J-classes.

    Idempotents and companions in index order; the first failure comes
    with the first separating context, the oracle closure's words and the
    package's pair witness, and None means the equation holds.
    """
    table, acc = composition_table(rec.monoid.action), accepted_elements(rec)
    rep, size = bfs_closure(rec.dfa, len(table))[1], len(table)
    for x in (e for e in range(size) if table[e][e] == e):
        for y in range(size):
            if not sw.companions[x] >> y & 1:
                continue
            xyx = table[table[x][y]][x]
            if rec.leq(x, xyx):
                continue
            p, q = next(
                (p, q)
                for p in range(size)
                for q in range(size)
                if table[table[p][x]][q] in acc and table[table[p][xyx]][q] not in acc
            )
            return EquationWitness(
                x=x,
                y=y,
                context=(p, q),
                x_word=rep[x],
                y_word=rep[y],
                p_word=rep[p],
                q_word=rep[q],
                pair_witness=subword_witness(rec.monoid, (x, y)),
            )
    return None


def monoid_law_failure(table, e):
    """The first monoid law the table breaks, with e as identity, or None. Cubic."""
    size = len(table)
    if any(table[e][i] != i or table[i][e] != i for i in range(size)):
        return "identity law fails"
    for i, j, k in product(range(size), repeat=3):
        if table[table[i][j]][k] != table[i][table[j][k]]:
            return "associativity fails"
    return None


def order_law_failure(rec):
    """The first partial-order or compatibility law rec's order breaks, or None."""
    table, leq = composition_table(rec.monoid.action), rec.leq
    size = len(table)
    for s in range(size):
        if not leq(s, s):
            return "order not reflexive"
        for t in range(size):
            if not leq(s, t):
                continue
            if s != t and leq(t, s):
                return "order not antisymmetric"
            if any(leq(t, u) and not leq(s, u) for u in range(size)):
                return "order not transitive"
            for u in range(size):
                if not leq(table[s][u], table[t][u]):
                    return "order not right compatible"
                if not leq(table[u][s], table[u][t]):
                    return "order not left compatible"
    return None


def definitional_order(table, accepted) -> set:
    """s <= t iff every accepting context of s also accepts t.

    The contexts (p, q) with p s q accepting are one bitset per s, one
    bit per context, so s <= t is one inclusion test.
    """
    m = len(table)
    contexts = [
        int(
            "".join(
                "1" if table[table[p][s]][q] in accepted else "0"
                for p in range(m)
                for q in range(m)
            ),
            2,
        )
        for s in range(m)
    ]
    return {
        (s, t)
        for s in range(m)
        for t in range(m)
        if not contexts[s] & ~contexts[t]
    }


def in_da(d) -> bool:
    """Does the transition monoid of d satisfy (xy)^w x (xy)^w = (xy)^w?

    That identity defines DA, and DA is Delta2 (Pin & Weil 1997; Therien
    & Wilke 1998), so on a minimal DFA this decides delta2 without the
    sigma2 equation. Transformations are tuples, closed under the
    letters by plain search; s then t sends q to t[s[q]].
    """
    n = d.n_states

    def then(s, t):
        return tuple(t[q] for q in s)

    letters = [tuple(row[a] for row in d.delta) for a in range(len(d.alphabet))]
    elements = {tuple(range(n))}
    frontier = list(elements)
    while frontier:
        s = frontier.pop()
        for g in letters:
            t = then(s, g)
            if t not in elements:
                elements.add(t)
                frontier.append(t)

    def omega(s):
        power = s
        while then(power, power) != power:
            power = then(power, s)
        return power

    for x in elements:
        for y in elements:
            e = omega(then(x, y))
            if then(then(e, x), e) != e:
                return False
    return True


def content_sigma2(d) -> bool:
    """Does x^w <= x^w y x^w hold whenever alph(y) is inside alph(x)?

    The content form of the sigma2 identity (Pin & Weil 1997), decided on
    the DFA d without the subword relation. Elements are pairs (state
    transformation, content) closed from (letter, {letter}); s <= t when,
    from every reachable state r, the language of s(r) is included in
    that of t(r), found by searching the product of d with itself.
    """
    n = d.n_states

    def then(s, t):
        return tuple(t[q] for q in s)

    letters = [
        (tuple(row[a] for row in d.delta), frozenset({sym}))
        for a, sym in enumerate(d.alphabet)
    ]
    start = (tuple(range(n)), frozenset())
    elements = {start}
    frontier = [start]
    while frontier:
        s, content = frontier.pop()
        for g, letter in letters:
            t = (then(s, g), content | letter)
            if t not in elements:
                elements.add(t)
                frontier.append(t)

    def included(p, q):
        seen = {(p, q)}
        stack = [(p, q)]
        while stack:
            p, q = stack.pop()
            if p in d.accepting and q not in d.accepting:
                return False
            for row_p, row_q in zip(d.delta[p], d.delta[q]):
                if (row_p, row_q) not in seen:
                    seen.add((row_p, row_q))
                    stack.append((row_p, row_q))
        return True

    inclusion = {(p, q): included(p, q) for p in range(n) for q in range(n)}
    reachable = {s[d.initial] for s, _ in elements}

    def omega(s):
        power = s
        while then(power, power) != power:
            power = then(power, s)
        return power

    for e, content in {(omega(x), content) for x, content in elements}:
        for y in {y for y, c in elements if c <= content}:
            eye = then(then(e, y), e)
            if not all(inclusion[e[r], eye[r]] for r in reachable):
                return False
    return True


def definitional_neutral(d, max_len: int):
    """Letters whose insertion anywhere never changes membership."""
    neutral = set()
    halves = words_up_to_oracle(d.alphabet, max_len)
    for c in d.alphabet:
        if all(
            accepts(d, u + (c,) + v) == accepts(d, u + v)
            for u in halves
            for v in halves
            if len(u) + len(v) <= max_len
        ):
            neutral.add(c)
    return neutral


# ---------------------------------------------------------------------------
# limits, flowers, circuits


def brute_is_k_limit(u: str, family, k: int) -> bool:
    """Quantifies over every position set of size at most k."""
    n = len(u)
    if not any(len(w) == n for w in family):
        return False
    for size in range(k + 1):
        for positions in combinations(range(n), size):
            if not any(
                len(w) == n and all(w[i] == u[i] for i in positions) for w in family
            ):
                return False
    return True


def brute_flower_property(petals, p: int) -> bool:
    """Core is the exact intersection; no small set blocks the corelesses."""
    if len(set(petals)) != p:
        return False
    core = set(petals[0])
    for petal in petals[1:]:
        core &= set(petal)
    corelesses = [set(petal) - core for petal in petals]
    ground = set().union(*corelesses) if corelesses else set()
    for size in range(p):
        for blocker in combinations(sorted(ground), size):
            if all(set(blocker) & coreless for coreless in corelesses):
                return False
    return True


def naive_eval(circuit, word: str) -> bool:
    ors = []
    for gate in circuit.top:
        value = False
        for pos, letter in gate:
            if word[pos - 1] == letter:
                value = True
        ors.append(value)
    ands = []
    for gate in circuit.ands:
        value = True
        for ref in gate:
            if not ors[ref]:
                value = False
        ands.append(value)
    result = False
    for ref in circuit.bottom:
        if ands[ref]:
            result = True
    return result


# ---------------------------------------------------------------------------
# the lab's member scans, one member at a time


def scan_pack_family(words):
    """Every distinct word packed alone with pack, first fault in input order."""
    ws = list(words)
    if not ws:
        raise PreconditionError("family is empty; block size undetermined")
    n = len(ws[0])
    r = block_count(n)
    members = set()
    for w in dict.fromkeys(ws):
        if len(w) != n:
            raise PreconditionError(f"family member {w!r} has mismatched length")
        try:
            packed = pack(w)
        except PackError:
            if w.strip("ab"):
                raise  # a letter outside {a, b}
            packed = (None,)  # two a's in a block
        if None in packed:
            raise PreconditionError(f"family member {w!r} is not good")
        members.add(packed)
    return sorted(members), r


def scan_index_family(Phi, r: int) -> FamilyIndex:
    """The masks ORed together member by member, position by position."""
    members = tuple(sorted(set(Phi)))
    at = {}
    for j, mu in enumerate(members):
        for pair in enumerate(mu, 1):
            at[pair] = at.get(pair, 0) | 1 << j
    return FamilyIndex(members, r, at, (1 << len(members)) - 1)


def scan_k_limit_counterexample(u: str, family, k: int):
    """The first maximal position set no member agrees with u on, or None."""
    if k < 0:
        raise PackError("k must be nonnegative")
    fam = list(family)
    n = len(u)
    for w in fam:
        if len(w) != n:
            raise PackError("family words must have the same length as u")
    size = min(k, n)
    if comb(n, size) * max(len(fam), 1) > K_LIMIT_WORK_LIMIT:
        raise SearchBudgetError(
            f"limit check over {comb(n, size)} position sets is beyond desk scale"
        )
    for ps in combinations(range(1, n + 1), size):
        if not any(all(u[p - 1] == w[p - 1] for p in ps) for w in fam):
            return ps
    return None


def _scan_entailed(S, D, members) -> bool:
    for mu in members:
        if all(mu[p - 1] == c for p, c in S):
            if not any(mu[p - 1] == c for p, c in D):
                return False
    return True


def scan_find_entailment(Phi, r: int, k: int, available, i: int):
    """Lex-first (S, D), each candidate checked against every member."""
    pool = []
    for item in available:
        p, c = item
        if p == i:
            continue
        if not (type(p) is int and type(c) is int and p >= 1 and c >= 1):
            raise MalformedPairSetError(f"pair {item!r} is not two positive integers")
        if p > r or c > r:
            raise MalformedPairSetError(f"pair {item!r} is out of range for r={r}")
        pool.append((p, c))
    d_candidates = [
        tuple((i, c) for c in cs)
        for size in range(1, k + 1)
        for cs in combinations(range(1, r + 1), size)
    ]
    for S in combinations(sorted(pool), k):
        for D in d_candidates:
            if _scan_entailed(S, D, Phi):
                return S, D
    return None


def scan_limit_conditions(mu, nu, Phi, k: int) -> str | None:
    """P1 and P2, with every (C, P) probe scanning the members; None if both hold."""
    members = sorted(set(Phi))
    if not members:
        return "P1: family is empty"
    r = len(members[0])
    if len(mu) != r or len(nu) != r:
        return "P1: length mismatch with family"
    if nu not in members:
        return "P1: source member is not in the family"
    diffs = [i for i in range(1, r + 1) if mu[i - 1] != nu[i - 1]]
    if len(diffs) != 1:
        return f"P1: words differ at {len(diffs)} positions, need exactly 1"
    i = diffs[0]
    if mu[i - 1] is not None:
        return "P1: the differing block must be emptied"
    nu_i = nu[i - 1]
    other_contents = [c for c in range(1, r + 1) if c != nu_i]
    other_positions = [p for p in range(1, r + 1) if p != i]
    for c_size in range(1, min(k, r) + 1):
        p_size = k - c_size
        for extra in combinations(other_contents, c_size - 1):
            C = frozenset((nu_i,) + extra)
            for P in combinations(other_positions, p_size):
                if not any(
                    lam[i - 1] not in C and all(lam[p - 1] == nu[p - 1] for p in P)
                    for lam in members
                ):
                    return (
                        f"P2: no member avoids contents {sorted(C)} at position {i} "
                        f"while matching the source on {list(P)}"
                    )
    return None


def naive_and(circuit, gate: int, word: str) -> bool:
    return all(
        any(word[pos - 1] == letter for pos, letter in circuit.top[ref])
        for ref in circuit.ands[gate]
    )


def scan_densest_and_gate(circuit, accepted):
    """The densest output AND gate, every word checked and counted alone."""
    words = list(accepted)
    for w in words:
        if len(w) != circuit.n:
            raise PreconditionError(
                f"word length {len(w)} differs from circuit's {circuit.n}"
            )
        for sym in w:
            if sym not in circuit.alphabet:
                raise PreconditionError(f"letter {sym!r} not in the circuit's alphabet")
        if not naive_eval(circuit, w):
            raise PreconditionError(f"word {w!r} is not accepted by the circuit")
    gates = sorted(set(circuit.bottom))
    if not gates:
        raise PreconditionError("circuit has no output AND gates")
    best_gate, best = gates[0], [w for w in words if naive_and(circuit, gates[0], w)]
    for g in gates[1:]:
        sat = [w for w in words if naive_and(circuit, g, w)]
        if len(sat) > len(best):  # a tie keeps the lower gate
            best_gate, best = g, sat
    return best_gate, best


# ---------------------------------------------------------------------------
# helpers that only tests need: checking an externally supplied equation
# pair, writing circuit payloads, blanking the x slots of wired words


def confirm_failing_pair(rec, sw, x_word, y_word) -> dict:
    """Check that (h(x_word), h(y_word)) is a valid failing equation pair.

    Valid means: h(x_word) idempotent, the pair is in the subword
    relation, and some context separates x from x y x. This confirms an
    externally supplied witness independently of the minimal witness
    the checker itself reports.
    """
    h = rec.monoid
    x = h.eval(x_word)
    y = h.eval(y_word)
    table = composition_table(h.action)
    xyx = table[table[x][y]][x]
    idempotent = table[x][x] == x
    in_relation = bool(sw.companions[x] >> y & 1)
    separated = not rec.leq(x, xyx)
    return {
        "x": x,
        "y": y,
        "idempotent": idempotent,
        "in_subword_relation": in_relation,
        "equation_fails": separated,
        "valid_failing_pair": idempotent and in_relation and separated,
    }


def circuit_to_json(c) -> str:
    """The payload circuit_from_json reads; literal positions are 1-indexed."""
    payload = {
        "n": c.n,
        "alphabet": list(c.alphabet),
        "k": c.k,
        "top": [
            [{"pos": pos, "letter": letter} for pos, letter in gate] for gate in c.top
        ],
        "and": [list(gate) for gate in c.ands],
        "bottom": list(c.bottom),
    }
    return json.dumps(payload, sort_keys=True, indent=2)


def delete_x_letters(word: tuple[int, ...], r: int, i: int) -> tuple[int, ...]:
    """Blank the x slot of every segment; build_x_i collapses to build_y.

    Deletion is positional: the letter at offset i of each length r+1
    segment is replaced by the identity, element 0.
    """
    return tuple(0 if idx % (r + 1) == i - 1 else e for idx, e in enumerate(word))


def build_x_i(fact: Factorization, r: int, i: int) -> tuple[int, ...]:
    """The i-slot carrier: per factor j, segment 1^(i-1) x_j 1^(r-i) y_j.

    Every build_x_i evaluates to the same product x regardless of i;
    the slot only fixes where the x_j letters sit.
    """
    if not 1 <= i <= r:
        raise PreconditionError(f"slot {i} out of range 1..{r}")
    elements: list[int] = []
    for x_j, y_j in zip(fact.xs, fact.ys):
        elements.extend([IDENTITY] * (i - 1))
        elements.append(x_j)
        elements.extend([IDENTITY] * (r - i))
        elements.append(y_j)
    return tuple(elements)


def build_y(fact: Factorization, r: int) -> tuple[int, ...]:
    """The x-free variant: per factor j, segment 1^r y_j."""
    elements: list[int] = []
    for y_j in fact.ys:
        elements.extend([IDENTITY] * r)
        elements.append(y_j)
    return tuple(elements)


def t_good(fact: Factorization, r: int, indices) -> tuple[int, ...]:
    """x-carriers for every block, sandwiched: evaluates to x itself."""
    idx = list(indices)
    if len(idx) != r or any(not (isinstance(i, int) and 1 <= i <= r) for i in idx):
        raise PreconditionError(f"need {r} slot indices in 1..{r}, got {indices!r}")
    word = build_x_i(fact, r, 1)
    for i in idx:
        word = word + build_x_i(fact, r, i)
    return word + build_x_i(fact, r, 1)


def t_bad(fact: Factorization, r: int, indices, j: int) -> tuple[int, ...]:
    """Like t_good but block j carries no x: evaluates to x y x."""
    idx = list(indices)
    if len(idx) != r:
        raise PreconditionError(f"need {r} slot entries, got {indices!r}")
    if not 1 <= j <= r:
        raise PreconditionError(f"block {j} out of range 1..{r}")
    word = build_x_i(fact, r, 1)
    for pos, i in enumerate(idx, start=1):
        if pos == j:
            word = word + build_y(fact, r)
        else:
            if not (isinstance(i, int) and 1 <= i <= r):
                raise PreconditionError(f"slot {i!r} at block {pos} out of range 1..{r}")
            word = word + build_x_i(fact, r, i)
    return word + build_x_i(fact, r, 1)
