"""Ordered syntactic monoids and the equation-based class checks.

The transition monoid of a minimal DFA is computed by breadth-first
closure over the generator transformations, so element 0 is always the
identity and every element keeps its state transformation and a shortest
representative word (ties broken lexicographically by the alphabet
order). Its table is read off the Cayley graphs of that closure
(Froidure & Pin, Algorithms for computing finite semigroups, 1997). The
syntactic order is "more accepting is larger": s <= t when every context
(p, q) with p s q accepting also has p t q accepting, so the image of
the language is an upper set. It is read off the states ordered by
inclusion of their residuals (the language each state accepts): s <= t
iff r s <= r t for every state r (Pin, Syntactic semigroups, 1997).
The complement has the same monoid and the converse order (s <= t for
the complement iff t <= s for the language), so its order is the same
rows read the other way, never computed a second time.

Membership in sigma2 (first-order logic with two blocks of quantifiers
over ordered positions, existential first) is decided by one equation
schema over the ordered monoid: for every idempotent x and every y that
the monoid-level subword relation pairs with x, x <= x y x must hold.
pi2 is the same check on the complement, delta2 the conjunction. The
relation is kept as one bitset of companions per element; a witness
word is built only for the pair a failing verdict reports.
"""

from __future__ import annotations

from dataclasses import dataclass, field, replace
from itertools import combinations
from typing import Iterable, Sequence

from .errors import (
    AntisymmetryError,
    MonoidSizeError,
    NotMinimalError,
    PreconditionError,
    UnknownSymbolError,
    VerificationError,
)
from .languages import Dfa, Word, as_word, minimize

MONOID_SIZE_LIMIT = 4096
_NOT_MINIMAL = "transition monoid is syntactic only for minimal DFAs; minimize first"


# ---------------------------------------------------------------------------
# transition monoid


@dataclass(frozen=True)
class FiniteMonoid:
    """Multiplication table with a designated identity.

    table[i][j] is the product (element i) * (element j).
    """

    size: int
    identity: int
    table: tuple[tuple[int, ...], ...]

    def mul(self, i: int, j: int) -> int:
        return self.table[i][j]

    def product(self, elements: Iterable[int]) -> int:
        acc = self.identity
        for e in elements:
            acc = self.table[acc][e]
        return acc

    def idempotents(self) -> list[int]:
        return [e for e in range(self.size) if self.table[e][e] == e]


@dataclass(frozen=True)
class Morphism:
    """Morphism from words over the source alphabet onto the monoid."""

    alphabet: tuple[str, ...]
    monoid: FiniteMonoid
    generator: dict[str, int] = field(hash=False)
    representative: tuple[Word, ...]  # shortest word per element, lex-minimal
    action: tuple[tuple[int, ...], ...]  # action[e][q]: the state e sends q to

    def image(self, sym: str) -> int:
        try:
            return self.generator[sym]
        except KeyError:
            raise UnknownSymbolError(f"symbol {sym!r} not in alphabet") from None

    def eval(self, w: str | Sequence[str]) -> int:
        return self.monoid.product(
            self.image(sym) for sym in as_word(w, self.alphabet)
        )


def transition_monoid(d: Dfa, max_size: int = MONOID_SIZE_LIMIT) -> Morphism:
    """The evaluation morphism onto the transition monoid of a minimal DFA.

    Elements are state transformations discovered breadth-first from the
    identity, so indices are stable for a given DFA. Row s of the table
    is row suffix[s], the rest of its representative after the first
    letter, mapped through left multiplication by that letter (Froidure
    & Pin 1997). Raises NotMinimalError for non-minimal input (minimize
    first), ahead of MonoidSizeError beyond max_size elements.
    """
    n = d.n_states

    def refuse() -> None:  # the monoid outgrows max_size; non-minimal input first
        if minimize(d).n_states != n:
            raise NotMinimalError(_NOT_MINIMAL)
        raise MonoidSizeError(f"transition monoid exceeds {max_size} elements")

    if max_size < 1:  # the identity counts
        refuse()
    gens = [tuple(row[a] for row in d.delta) for a in range(len(d.alphabet))]
    index = {tuple(range(n)): 0}
    elements = list(index)
    words: list[Word] = [()]
    right: list[list[int]] = [[] for _ in gens]  # right[a][s]: s a
    first, suffix = [-1], [0]  # s = (letter first[s]) (element suffix[s])
    for s, image in enumerate(elements):
        for a, g in enumerate(gens):
            composed = tuple(map(g.__getitem__, image))
            t = index.setdefault(composed, len(elements))
            if t == len(elements):
                if t >= max_size:
                    refuse()
                elements.append(composed)
                words.append(words[s] + (d.alphabet[a],))
                first.append(first[s] if s else a)
                suffix.append(right[a][suffix[s]] if s else 0)
            right[a].append(t)
    # minimal: all reached, residuals differ; a mask: the states a word leads into F
    masks = [tuple(q in d.accepting for q in range(n))]
    seen = set(masks)
    for mask in masks:
        for before in {tuple(map(mask.__getitem__, g)) for g in gens} - seen:
            seen.add(before)
            masks.append(before)
    if len({e[d.initial] for e in elements}) < n or len(set(zip(*masks))) < n:
        raise NotMinimalError(_NOT_MINIMAL)
    left = [[index[tuple(map(e.__getitem__, g))] for e in elements] for g in gens]
    rows = [tuple(range(len(elements)))]  # row s: s t for every t
    for s in range(1, len(elements)):
        rows.append(tuple(map(left[first[s]].__getitem__, rows[suffix[s]])))
    return Morphism(
        alphabet=d.alphabet,
        monoid=FiniteMonoid(size=len(rows), identity=0, table=tuple(rows)),
        generator={sym: right[a][0] for a, sym in enumerate(d.alphabet)},
        representative=tuple(words),
        action=tuple(elements),
    )


# ---------------------------------------------------------------------------
# syntactic order


@dataclass(frozen=True)
class OrderedMonoid:
    """A compatible partial order on a monoid's elements, as bitmask rows.

    leq_bits[s] has bit t set when s <= t, or, in the converse order,
    when t <= s.
    """

    leq_bits: tuple[int, ...]
    converse: bool = False

    def leq(self, s: int, t: int) -> bool:
        if self.converse:
            s, t = t, s
        return bool(self.leq_bits[s] >> t & 1)


def syntactic_order(d: Dfa, morphism: Morphism) -> OrderedMonoid:
    """Order the transition monoid of the minimal DFA d by its states.

    q <= r when the residual of q (the language q accepts) is included in
    that of r; the elements that lead each state into F stand for its
    residual. Since every state is reachable, s <= t (every accepting
    context of s accepts t) iff r s <= r t for every state r. Two states
    with the same residual mean d was not minimal; that is reported
    rather than repaired.
    """
    n = d.n_states
    action = morphism.action
    # into_f[q]: bit t set iff element t leads state q into F
    into_f = [0] * n
    for t, image in enumerate(action):
        for q, p in enumerate(image):
            if p in d.accepting:
                into_f[q] |= 1 << t
    for q, r in combinations(range(n), 2):
        if into_f[q] == into_f[r]:
            raise AntisymmetryError(
                f"states {q} and {r} accept the same language; "
                "the source DFA was not minimal"
            )
    # up[q]: the states r with q <= r
    up = [[r for r in range(n) if not into_f[q] & ~into_f[r]] for q in range(n)]

    rows = [-1] * len(action)
    for r in range(n):
        # lands[q]: bit t set iff element t sends state r to q
        lands = [0] * n
        for t, image in enumerate(action):
            lands[image[r]] |= 1 << t
        above = [sum(lands[p] for p in up[q]) for q in range(n)]
        for s, image in enumerate(action):
            rows[s] &= above[image[r]]
    return OrderedMonoid(leq_bits=tuple(rows))


# ---------------------------------------------------------------------------
# recognition bundle


@dataclass(frozen=True)
class Recognition:
    """Everything needed to study a language through its ordered monoid."""

    dfa: Dfa
    ordered: OrderedMonoid
    morphism: Morphism
    accepting: frozenset[int]  # elements of the monoid, an upper set

    @property
    def monoid(self) -> FiniteMonoid:
        return self.morphism.monoid

    def complemented(self) -> "Recognition":
        """Recognition of the complement: same monoid, converse order.

        Flipping the accepting states keeps the DFA minimal and canonical.
        """
        d = self.dfa
        return Recognition(
            dfa=replace(d, accepting=frozenset(range(d.n_states)) - d.accepting),
            ordered=replace(self.ordered, converse=not self.ordered.converse),
            morphism=self.morphism,
            accepting=frozenset(range(self.monoid.size)) - self.accepting,
        )


def recognize(d: Dfa, max_size: int = MONOID_SIZE_LIMIT) -> Recognition:
    """Build the ordered syntactic monoid bundle for (the minimization of) d."""
    d = minimize(d)
    morphism = transition_monoid(d, max_size=max_size)
    # element e is accepting iff it sends the initial state into F
    accepting = frozenset(
        e for e, image in enumerate(morphism.action) if image[d.initial] in d.accepting
    )
    ordered = syntactic_order(d, morphism)
    return Recognition(dfa=d, ordered=ordered, morphism=morphism, accepting=accepting)


def neutral_letters(rec: Recognition) -> frozenset[str]:
    """Letters whose image is the identity; they never affect membership."""
    ident = rec.monoid.identity
    return frozenset(
        sym for sym in rec.morphism.alphabet if rec.morphism.image(sym) == ident
    )


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

    companions[x] has bit y set when (x, y) is a pair. Witnesses are not
    stored; subword_witness builds one for a given pair.
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
    return [i for i in range(bits.bit_length()) if bits >> i & 1]


def subword_relation(morphism: Morphism) -> SubwordRelation:
    """The submonoid of M x M generated by (h(a), h(a)) and (h(a), 1).

    A worklist closes {(1, 1)} under right multiplication by the
    generator pairs, one bitset of companions per x; only the bits new
    to x since it was last processed are pushed on.
    """
    table = morphism.monoid.table
    gens = set(morphism.generator.values())
    one = morphism.monoid.identity
    companions = [0] * morphism.monoid.size
    companions[one] = 1 << one
    new = {one: 1 << one}  # x -> its companions not yet pushed on
    while new:
        x, delta = new.popitem()
        ys = _members(delta)
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


def subword_witness(morphism: Morphism, pair: tuple[int, int]) -> SubwordWitness:
    """A shortest witness of pair, found breadth-first.

    Each level holds the candidates (word, positions, pair reached) of
    one length, sorted by (word, positions); the first candidate to reach
    a pair claims it, and only claimed pairs grow into the next level.
    Raises PreconditionError when pair is not in the relation.
    """
    table = morphism.monoid.table
    one = morphism.monoid.identity
    level = [((), (), (one, one))]
    claimed = set()
    while level:
        level.sort()  # no two candidates share (word, positions)
        grown = []
        for w, ps, found in level:
            if found == pair:
                return SubwordWitness(word=w, positions=ps)
            if found in claimed:
                continue
            claimed.add(found)
            x, y = found
            for sym in morphism.alphabet:
                g = morphism.image(sym)
                nw = w + (sym,)
                # skipping the new letter keeps the smaller marking
                grown.append((nw, ps, (table[x][g], y)))
                grown.append((nw, ps + (len(nw),), (table[x][g], table[y][g])))
        level = grown
    raise PreconditionError(f"pair {pair} is not in the subword relation")


def verify_subword_witness(
    morphism: Morphism, pair: tuple[int, int], wit: SubwordWitness
) -> bool:
    x, y = pair
    if any(not 1 <= p <= len(wit.word) for p in wit.positions):
        return False
    if list(wit.positions) != sorted(set(wit.positions)):
        return False
    sub = tuple(wit.word[p - 1] for p in wit.positions)
    return morphism.eval(wit.word) == x and morphism.eval(sub) == y


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


@dataclass(frozen=True)
class EquationVerdict:
    holds: bool
    witness: EquationWitness | None = None


def check_sigma2(rec: Recognition, sw: SubwordRelation) -> EquationVerdict:
    """Does x <= x y x hold for every idempotent x and subword companion y?

    Scans idempotents and companions in index order and returns the first
    failure with the first separating context, so verdicts are stable.
    An order that denies x <= xyx with no separating context is wrong,
    and raises VerificationError.
    """
    ordered = rec.ordered
    monoid = rec.monoid
    table = monoid.table
    rep = rec.morphism.representative
    acc = rec.accepting

    for x in monoid.idempotents():
        for y in sw.subwords_of(x):
            xyx = table[table[x][y]][x]
            if ordered.leq(x, xyx):
                continue
            context = next(
                (
                    (p, q)
                    for p in range(monoid.size)
                    for q in range(monoid.size)
                    if table[table[p][x]][q] in acc
                    and table[table[p][xyx]][q] not in acc
                ),
                None,
            )
            if context is None:
                raise VerificationError(
                    f"the order denies x <= xyx for x={x}, y={y}, "
                    "but no context separates x from xyx"
                )
            p, q = context
            return EquationVerdict(
                holds=False,
                witness=EquationWitness(
                    x=x,
                    y=y,
                    context=context,
                    x_word=rep[x],
                    y_word=rep[y],
                    p_word=rep[p],
                    q_word=rep[q],
                    pair_witness=subword_witness(rec.morphism, (x, y)),
                ),
            )
    return EquationVerdict(holds=True)


def up_word_accepts(rec: Recognition, x: int, w: Sequence[int]) -> bool:
    """Does the product of a word over the monoid's element indices dominate x?

    This makes threshold problems over the monoid ordinary languages over
    the finite alphabet of its elements.
    """
    return rec.ordered.leq(x, rec.monoid.product(w))


@dataclass(frozen=True)
class ClassReport:
    """Verdicts for one language, with monoid statistics and witnesses."""

    description: str
    alphabet: tuple[str, ...]
    monoid_size: int
    idempotent_count: int
    subword_pair_count: int
    neutral: tuple[str, ...]
    sigma2: EquationVerdict
    pi2: EquationVerdict

    @property
    def delta2(self) -> bool:
        return self.sigma2.holds and self.pi2.holds


def classify(d: Dfa, description: str = "") -> ClassReport:
    """Full classification of the language of d.

    sigma2 comes from the equation check on the language, pi2 from the
    same check on the complement (same monoid, converse order), delta2
    is their conjunction.
    """
    return classify_recognition(recognize(d), description)


def classify_recognition(rec: Recognition, description: str = "") -> ClassReport:
    """classify for callers that already hold the recognition bundle."""
    sw = subword_relation(rec.morphism)
    sigma2 = check_sigma2(rec, sw)
    pi2 = check_sigma2(rec.complemented(), sw)
    return ClassReport(
        description=description,
        alphabet=rec.morphism.alphabet,
        monoid_size=rec.monoid.size,
        idempotent_count=len(rec.monoid.idempotents()),
        subword_pair_count=sum(bits.bit_count() for bits in sw.companions),
        neutral=tuple(sorted(neutral_letters(rec))),
        sigma2=sigma2,
        pi2=pi2,
    )

