"""Ordered syntactic monoids and the equation-based class checks.

The transition monoid of a minimal DFA is the image of its letters, so
one record, TransitionMonoid, is both the monoid and the morphism onto
it (Froidure & Pin, Algorithms for computing finite semigroups, 1997).
A breadth-first closure from the identity, element 0, finds each element
with its state map. The closure is the right Cayley graph, off which a
letter's image and an element's shortest representative word (ties
broken lexicographically by the alphabet order) are read, and no table
of all products is built: s t walks the letters of t's representative
from s along that graph. The left Cayley graph is read off the right one
with no composition, and the J-classes off both.
The syntactic order is "more accepting is larger": s <= t when every
context accepting s accepts t. syntactic_order answers each query from
the states ordered by inclusion of their residuals, s <= t iff
r s <= r t for every state r (Pin, Syntactic semigroups, 1997).
Residual inclusion is read off the co-states (the
sets of states a word leads into F, Brzozowski 1962) enumerated after
the closure: q's lies in r's iff every co-state holding q holds r.
A Recognition is the minimal DFA, its transition monoid and a converse
flag; the complement's bundle flips the accepting states, shares the
monoid and swaps s and t, and every other value is read from those three.

Membership in sigma2 (first-order logic with two blocks of quantifiers
over ordered positions, existential first) holds iff x <= x y x for
every idempotent x and every y that the monoid-level subword relation
pairs with x; pi2 is the check on the complement, delta2 both. A
J-class shares one bitset of companions (the x paired with a y form an
ideal), and its idempotents are conjugate, so both run once per class.
x <= x y x is asked only at the states in the image of x, which x fixes.
A failing pair's shortest witness is searched for once per monoid;
a check returns the witness of its first failure, or None when it holds.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import count
from operator import itemgetter
from typing import Iterable, Sequence

from .errors import (
    MonoidSizeError,
    NotMinimalError,
    PreconditionError,
    UnknownSymbolError,
    VerificationError,
)
from .languages import Dfa, Word, _hopcroft, as_word, minimize

MONOID_SIZE_LIMIT = 4096
_NOT_MINIMAL = "transition monoid is syntactic only for minimal DFAs; minimize first"


# ---------------------------------------------------------------------------
# transition monoid


@dataclass(frozen=True)
class TransitionMonoid:
    """The transition monoid of a minimal DFA, as the image of its letters.

    right[a][s] is s times letter a, and a letter's image is right[a][0].
    Element 0 is the identity; any other s is letter first[s] times
    element suffix[s], its representative split after the first letter,
    so s t walks t's letters from s and word(s) spells them.
    """

    alphabet: tuple[str, ...]
    right: tuple[tuple[int, ...], ...]
    first: tuple[int, ...]
    suffix: tuple[int, ...]
    action: tuple[tuple[int, ...], ...]  # action[e][q]: the state e sends q to
    j_class: tuple[int, ...]  # j_class[e]: e's J-class, numbered from the top down
    # state_order[q]: bit r set iff q's residual lies in r's; the language's
    # order, which Recognition.complemented() shares and reads conversely
    state_order: tuple[int, ...]
    _idempotents: list = field(default_factory=list, compare=False, hash=False, repr=False)
    _witnesses: dict = field(default_factory=dict, compare=False, hash=False, repr=False)
    identity = 0

    @property
    def size(self) -> int:
        return len(self.first)

    @property
    def table(self) -> tuple[tuple[int, ...], ...]:
        """Every product s t, derived on each read for the benchmark's tracer only.

        It leaves once the tracer counts from size and idempotents() (ROADMAP item 1).
        """
        return tuple(tuple(self.mul(s, t) for t in range(self.size)) for s in range(self.size))

    def mul(self, s: int, t: int) -> int:
        right, first, suffix = self.right, self.first, self.suffix
        while t:
            s, t = right[first[t]][s], suffix[t]
        return s

    def product(self, elements: Iterable[int]) -> int:
        acc = self.identity
        for e in elements:
            acc = self.mul(acc, e)
        return acc

    def idempotents(self) -> list[int]:
        """The e with e e = e, ascending, found on the first call only."""
        if not self._idempotents:  # the identity is one, so empty means not yet
            self._idempotents.extend(e for e in range(self.size) if self.mul(e, e) == e)
        return self._idempotents

    def image(self, sym: str) -> int:
        try:
            return self.right[self.alphabet.index(sym)][0]
        except ValueError:
            raise UnknownSymbolError(f"symbol {sym!r} not in alphabet") from None

    def word(self, s: int) -> Word:
        """s's shortest word, lex-least; without its first letter, it is suffix[s]'s."""
        letters = []
        while s:
            letters.append(self.alphabet[self.first[s]])
            s = self.suffix[s]
        return tuple(letters)

    def eval(self, w: str | Sequence[str]) -> int:
        return self.product(map(self.image, as_word(w, self.alphabet)))


def transition_monoid(d: Dfa, max_size: int = MONOID_SIZE_LIMIT) -> TransitionMonoid:
    """The transition monoid of a minimal DFA, with its letters' images.

    Elements are state transformations discovered breadth-first from the
    identity, so indices are stable for a given DFA; each new s a is
    composed once, by an itemgetter over s's map. The closure records the
    right Cayley graph and splits each representative after its first
    letter, all a product needs, and after its last letter, from which the
    left graph follows: g s = (g prefix) last, the prefix found earlier
    (Froidure & Pin 1997). The left graph serves the J-classes only. The
    co-states found after the closure order the states by residual
    inclusion. Before it, NotMinimalError (minimize first) refuses a DFA
    with an unreached state or two equal residuals, ahead of
    MonoidSizeError beyond max_size elements.
    """
    n = d.n_states
    reached, frontier = {d.initial}, [d.initial]
    for q in frontier:
        frontier += set(d.delta[q]) - reached
        reached.update(d.delta[q])
    block_of = _hopcroft(n, len(d.alphabet), d.delta, d.accepting)
    # minimal: every state reached, and no two with the same residual
    if len(reached) < n or len(set(block_of.values())) < n:
        raise NotMinimalError(_NOT_MINIMAL)
    too_many = f"transition monoid exceeds {max_size} elements"
    if max_size < 1:  # the identity counts
        raise MonoidSizeError(too_many)
    gens = [tuple(row[a] for row in d.delta) for a in range(len(d.alphabet))]
    index = {tuple(range(n)): 0}
    elements = list(index)
    right: list[list[int]] = [[] for _ in gens]  # right[a][s]: s a
    first, suffix = [-1], [0]  # s = (letter first[s]) (element suffix[s])
    prefix, last = [0], [-1]  # s = (element prefix[s]) (letter last[s])
    for s, image in enumerate(elements):
        # g after s, composed in C; on one state every map is (0,), and
        # itemgetter would return a scalar
        compose = itemgetter(*image) if n > 1 else tuple
        for a, g in enumerate(gens):
            composed = compose(g)
            t = index.setdefault(composed, len(elements))
            if t == len(elements):
                if t >= max_size:
                    raise MonoidSizeError(too_many)
                elements.append(composed)
                first.append(first[s] if s else a)
                suffix.append(right[a][suffix[s]] if s else 0)
                prefix.append(s)
                last.append(a)
            right[a].append(t)
    # a co-state, one per element at most: the states some word leads into F, as a bitset
    masks = [sum(1 << q for q in d.accepting)]
    seen = set(masks)
    for mask in masks:
        befores = {sum(1 << r for r, p in enumerate(g) if mask >> p & 1) for g in gens}
        for before in befores - seen:
            seen.add(before)
            masks.append(before)
    up = [(1 << n) - 1] * n  # up[q]: the states r whose residual holds q's
    for mask in masks:
        for q in _members(mask):
            up[q] &= mask
    # g s from the right graph, prefixes first: g s = (g prefix[s]) last[s]
    left = [[column[0]] for column in right]
    for row in left:
        for p, b in zip(prefix[1:], last[1:]):
            row.append(right[b][row[p]])
    return TransitionMonoid(
        alphabet=d.alphabet,
        right=tuple(map(tuple, right)),
        first=tuple(first),
        suffix=tuple(suffix),
        action=tuple(elements),
        j_class=_j_classes(len(elements), right + left),
        state_order=tuple(up),
    )


def _j_classes(size: int, edges: list[list[int]]) -> tuple[int, ...]:
    """Tarjan's strongly connected components of s -> step[s], step in edges.

    On both Cayley graphs these are the J-classes (t is reachable from s
    iff t is in M s M), numbered so that the identity's is 0 and each
    class comes before the classes below it.
    """
    successors = list(zip(*edges)) or [()]
    order, low, closed = [0] + [-1] * (size - 1), [0] * size, [-1] * size
    ticks, done, stack, work = count(1), 0, [0], [(0, iter(successors[0]))]
    while work:
        s, ts = work[-1]
        for t in ts:
            if order[t] < 0:  # discovered: descend into t
                order[t] = low[t] = next(ticks)
                stack.append(t)
                work.append((t, iter(successors[t])))
                break
            if closed[t] < 0 and order[t] < low[s]:  # t is still on the stack
                low[s] = order[t]
        else:
            work.pop()
            if work and low[s] < low[work[-1][0]]:
                low[work[-1][0]] = low[s]
            if low[s] == order[s]:  # s roots a component: close it
                while closed[s] < 0:
                    closed[stack.pop()] = done
                done += 1
    return tuple(done - 1 - c for c in closed)


# ---------------------------------------------------------------------------
# syntactic order and the recognition bundle


def syntactic_order(monoid: TransitionMonoid, s: int, t: int) -> bool:
    """Is s <= t in the syntactic order of a minimal DFA's transition monoid?

    q <= r when the residual of q (the language q accepts) is included in
    that of r: bit r of monoid.state_order[q], read off the co-states
    transition_monoid enumerates after its closure. Since every state is
    reachable, s <= t (every accepting context of s accepts t) iff
    r s <= r t for every state r, and action[s][r] is r s.
    """
    up, action = monoid.state_order, monoid.action
    return all(up[p] >> q & 1 for p, q in zip(action[s], action[t]))


@dataclass(frozen=True)
class Recognition:
    """A minimal DFA and its transition monoid, ordered for the DFA's language.

    converse marks the complement's bundle: same monoid, converse order.
    """

    dfa: Dfa
    monoid: TransitionMonoid
    converse: bool = False

    def leq(self, s: int, t: int) -> bool:
        if self.converse:
            s, t = t, s
        return syntactic_order(self.monoid, s, t)

    def complemented(self) -> "Recognition":
        """Recognition of the complement: same monoid, converse order.

        Flipping the accepting states keeps the DFA minimal and canonical.
        """
        d = self.dfa
        flipped = replace(d, accepting=frozenset(range(d.n_states)) - d.accepting)
        return replace(self, dfa=flipped, converse=not self.converse)


def recognize(d: Dfa, max_size: int = MONOID_SIZE_LIMIT) -> Recognition:
    """Build the ordered syntactic monoid bundle for (the minimization of) d."""
    d = minimize(d)
    return Recognition(dfa=d, monoid=transition_monoid(d, max_size=max_size))


def neutral_letters(rec: Recognition) -> frozenset[str]:
    """Letters whose image is the identity; they never affect membership."""
    m = rec.monoid
    return frozenset(sym for sym in m.alphabet if m.image(sym) == m.identity)


# ---------------------------------------------------------------------------
# monoid-level subword relation


@dataclass(frozen=True)
class SubwordWitness:
    """A shortest word evaluating to x with marked positions evaluating to y."""

    word: Word
    positions: tuple[int, ...]  # 1-indexed, strictly increasing


@dataclass(frozen=True)
class SubwordRelation:
    """All pairs (h(w), h(v)) with v a scattered subword of w, as bitsets.

    companions[x] has bit y set when (x, y) is a pair.
    """

    companions: tuple[int, ...]

    @property
    def pairs(self) -> frozenset[tuple[int, int]]:
        """The relation as a set of pairs, derived from the bitsets."""
        return frozenset(
            (x, y) for x in range(len(self.companions)) for y in self.subwords_of(x)
        )

    def subwords_of(self, x: int) -> list[int]:
        return _members(self.companions[x])


def _members(bits: int) -> list[int]:
    """The indices of the set bits, ascending."""
    return [i for i, bit in enumerate(bin(bits)[:1:-1]) if bit == "1"]


def subword_relation(monoid: TransitionMonoid) -> SubwordRelation:
    """The submonoid of M x M generated by (h(a), h(a)) and (h(a), 1).

    With (x, y) it holds (g x, y) and (x g, y), so a J-class shares its
    companions Y, and the closure of {(1, 1)} under the generator pairs
    runs over classes: Y gives Y and Y g to the class of x g, x in the
    class. From the top down, each class takes in what the classes above
    give, closes under the generators that keep it in place, and gives to
    the classes below; they inherit the images Y g and compute their own.
    """
    j_class = monoid.j_class
    # the right Cayley graph's columns, one per generator g: x g is column[x]
    columns = list(dict.fromkeys(monoid.right))
    # moves[c][i]: the classes of x g_i for x in class c
    moves = [[set() for _ in columns] for _ in range(max(j_class) + 1)]
    for x, c in enumerate(j_class):
        for i, column in enumerate(columns):
            moves[c][i].add(j_class[column[x]])
    # found[c]: the companions class c has so far; images[c][i]: known[c] g_i
    found = [1 << monoid.identity] + [0] * (len(moves) - 1)
    known = [0] * len(moves)
    images: list = [[0] * len(columns) for _ in moves]
    for c, targets in enumerate(moves):
        stay = [i for i, to in enumerate(targets) if c in to]
        given, own = images[c], found[c]
        delta = own & ~known[c]
        while delta:  # close under the generators that keep the class in place
            for y in _members(delta):
                for i, column in enumerate(columns):
                    given[i] |= 1 << column[y]
            grown = 0
            for i in stay:
                grown |= given[i]
            delta = grown & ~own
            own |= delta
        found[c] = own
        for i, to in enumerate(targets):
            for below in to - {c}:
                found[below] |= own | given[i]
        for below in set().union(*targets) - {c}:
            known[below] |= own
            images[below] = [mine | theirs for mine, theirs in zip(given, images[below])]
        images[c] = None  # every class below has what it needs
    return SubwordRelation(tuple(found[c] for c in j_class))


def subword_witness(monoid: TransitionMonoid, pair: tuple[int, int]) -> SubwordWitness:
    """A shortest witness of pair, searched for once per monoid.

    Each breadth-first level keeps, per pair it reaches first, only the
    least (word, positions) reaching it, which sorting the level would make
    the pair's first claim. Raises PreconditionError for an unrelated pair.
    """
    if pair not in monoid._witnesses:
        monoid._witnesses[pair] = _least_witness(monoid, pair)
    return monoid._witnesses[pair]


def _least_witness(monoid: TransitionMonoid, pair: tuple[int, int]) -> SubwordWitness:
    right, one = monoid.right, monoid.identity
    level, claimed = {(one, one): ((), ())}, set()  # claimed: reached when shorter
    while pair not in level:
        if not level:
            raise PreconditionError(f"pair {pair} is not in the subword relation")
        claimed.update(level)
        grown = {}
        for (x, y), (w, ps) in level.items():
            marked = ps + (len(w) + 1,)
            for sym, column in zip(monoid.alphabet, right):
                nw, xg = w + (sym,), column[x]
                for reached, c in ((xg, y), (nw, ps)), ((xg, column[y]), (nw, marked)):
                    if reached not in claimed and (reached not in grown or c < grown[reached]):
                        grown[reached] = c
        level = grown
    return SubwordWitness(*level[pair])


# ---------------------------------------------------------------------------
# equation check and classification


@dataclass(frozen=True)
class EquationWitness:
    """A failing instance of the sigma2 equation, with replay material.

    x is idempotent, y is a subword companion of x, and the context
    (p, q) separates: p x q is accepting while p x y x q is not.
    Representative words allow replaying both memberships on the DFA.
    """

    x: int
    y: int
    context: tuple[int, int]
    x_word: Word
    y_word: Word
    p_word: Word
    q_word: Word
    pair_witness: SubwordWitness


def check_sigma2(rec: Recognition, sw: SubwordRelation) -> EquationWitness | None:
    """Where x <= x y x fails for an idempotent x and a subword companion y.

    None when it holds for every such pair. Idempotents and companions are
    scanned in index order, and the first failure comes with the first
    separating context, so witnesses are stable. Each x <= x y x is asked
    at the states in the image of x only (_leq_on_image), rank(x) of them.
    An idempotent whose J-class passed is skipped: two idempotents of one
    class are conjugate, e = a b and f = b a, with the same companions,
    and e <= e (a y b) e gives f <= f y f. An order that denies x <= xyx
    with no separating context is wrong, and raises VerificationError.
    """
    monoid = rec.monoid
    passed = set()  # J-classes whose first idempotent passed
    for x in monoid.idempotents():
        if monoid.j_class[x] in passed:
            continue
        fixed = set(monoid.action[x])  # the image of x, each of its states fixed by x
        for y in sw.subwords_of(x):
            xyx = monoid.mul(monoid.mul(x, y), x)
            if _leq_on_image(rec, fixed, xyx):
                continue
            context = _separating_context(rec, x, xyx)
            if context is None:
                raise VerificationError(
                    f"the order denies x <= xyx for x={x}, y={y}, "
                    "but no context separates x from xyx"
                )
            (p, q), word = context, monoid.word
            pair = subword_witness(monoid, (x, y))
            return EquationWitness(x, y, (p, q), word(x), word(y), word(p), word(q), pair)
        passed.add(monoid.j_class[x])
    return None


def _leq_on_image(rec: Recognition, fixed: set[int], t: int) -> bool:
    """Is x <= t, for an idempotent x whose image is fixed and t in x M?

    Each r x is a state q of the image, and r t = r x t = q t, while
    q x = q; so x <= t iff q <= q t for every q in the image, rec.leq
    asked at rank(x) states instead of all of them.
    """
    up, moved = rec.monoid.state_order, rec.monoid.action[t]
    if rec.converse:
        return all(up[moved[q]] >> q & 1 for q in fixed)
    return all(up[q] >> moved[q] & 1 for q in fixed)


def _separating_context(rec: Recognition, s: int, t: int) -> tuple[int, int] | None:
    """The first (p, q), in index order, with p s q accepted and p t q not.

    Read off the states, not the products: with r the initial state moved
    by p, p is the first element where r s's residual is not included in
    r t's (one bit of state_order, the two states swapped on the converse
    side), and q the first element taking r s into F and r t out of it.
    None when the states give no such context.
    """
    d, action, up = rec.dfa, rec.monoid.action, rec.monoid.state_order
    for p, image in enumerate(action):
        into, out = action[s][image[d.initial]], action[t][image[d.initial]]
        lower, upper = (out, into) if rec.converse else (into, out)
        if not up[lower] >> upper & 1:
            for q, e in enumerate(action):
                if e[into] in d.accepting and e[out] not in d.accepting:
                    return p, q
            return None
    return None


def up_word_accepts(rec: Recognition, x: int, w: Sequence[int]) -> bool:
    """Does the product of a word over the monoid's element indices dominate x?

    This makes threshold problems over the monoid ordinary languages over
    the finite alphabet of its elements.
    """
    return rec.leq(x, rec.monoid.product(w))


@dataclass(frozen=True)
class ClassReport:
    """Verdicts for one language: each equation's failing witness, or None."""

    description: str
    subword_pair_count: int
    sigma2: EquationWitness | None
    pi2: EquationWitness | None  # found on the complement

    @property
    def delta2(self) -> bool:
        return self.sigma2 is None and self.pi2 is None


def classify(d: Dfa, description: str = "") -> ClassReport:
    """Full classification of the language of d.

    sigma2 comes from the equation check on the language, pi2 from the
    same check on the complement (same monoid, converse order), delta2
    is their conjunction.
    """
    return classify_recognition(recognize(d), description)


def classify_recognition(rec: Recognition, description: str = "") -> ClassReport:
    """classify for callers that already hold the recognition bundle."""
    sw = subword_relation(rec.monoid)
    return ClassReport(
        description=description,
        subword_pair_count=sum(bits.bit_count() for bits in sw.companions),
        sigma2=check_sigma2(rec, sw),
        pi2=check_sigma2(rec.complemented(), sw),
    )

