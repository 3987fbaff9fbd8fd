"""Flowers in set families and the limits they yield.

A flower with p petals in a family of finite sets is a subfamily of p
members together with a core contained in all of them, such that no set
of fewer than p elements meets every petal's part outside the core. The
greedy search below returns flowers whose outside parts are pairwise
disjoint, which is the strongest way to satisfy that property.

Applied to the position sets of good words, a flower gives a limit: the
word carrying a's exactly on the core differs from each petal word only
inside that petal's outside part, and any p-1 positions must miss one
of p disjoint parts. So the core word is a (p-1)-limit of the petal
words, and of any family containing them. The position sets are read
off the packing of blockwords.pack_family, which entailment shares.
"""

from __future__ import annotations

from collections import Counter
from dataclasses import dataclass
from itertools import combinations
from operator import add

from .blockwords import is_good, is_k_limit, pack_family, word_from_positions
from .errors import DegeneracyError, VerificationError


@dataclass(frozen=True)
class Flower:
    core: frozenset[int]
    petals: tuple[frozenset[int], ...]


def find_flower(family, p: int) -> Flower | None:
    """Greedy flower search; deterministic, may fail on sparse families.

    Members whose parts outside the accumulated core are pairwise
    disjoint are collected in sorted order; if fewer than p turn up,
    the family is restricted to the members containing its most popular
    element (ties to the smallest) and the element joins the core.
    Failure (None) is possible only for small families: any family of
    more than (p-1)^s sets of size s contains a flower with p petals.
    """
    if p < 1:
        raise DegeneracyError("a flower needs at least one petal")
    fam = sorted({frozenset(m) for m in family}, key=sorted)
    core: set[int] = set()
    while len(fam) >= p:
        chosen: list[frozenset[int]] = []
        used: set[int] = set()
        for m in fam:
            outside = m - core
            if not outside & used:
                chosen.append(m)
                used |= outside
                if len(chosen) == p:
                    return Flower(core=frozenset(core), petals=tuple(chosen))
        counts = Counter(e for m in fam for e in m - core)
        if not counts:
            break
        element = max(counts, key=lambda e: (counts[e], -e))
        core.add(element)
        fam = [m for m in fam if element in m]
    return None


def verify_flower(flower: Flower, family, p: int) -> bool:
    """Check the flower property from its definition, by brute force.

    Petals must be p distinct members of the family containing the
    core, and no set of fewer than p elements may intersect every
    petal's part outside the core. Blockers only ever draw from the
    union of those parts, so the enumeration stops there.
    """
    members = {frozenset(m) for m in family}
    petals = flower.petals
    if len(petals) != p or len(set(petals)) != p:
        return False
    if not all(pt in members and flower.core <= pt for pt in petals):
        return False
    outsides = [pt - flower.core for pt in petals]
    pool = sorted(set().union(*outsides)) if outsides else []
    for size in range(p):
        for blocker in combinations(pool, size):
            bl = set(blocker)
            if all(bl & o for o in outsides):
                return False
    return True


@dataclass(frozen=True)
class FlowerLimit:
    word: str
    flower: Flower


def bad_limit_via_flower(family, k: int) -> FlowerLimit | None:
    """A verified non-good k-limit of a family of good words, via a flower.

    Searches for a flower with k+1 petals among the position sets and
    puts a's exactly on its core. None means the greedy search found no
    flower, which the caller must treat as an inconclusive round. A
    returned word has passed the exhaustive limit check; a flower that
    failed to produce one would be a bug, not a data condition.
    """
    if k < 0:
        raise DegeneracyError("k must be nonnegative")
    words = list(family)
    members, r = pack_family(words)
    n = r * r
    # the a of block b sits at position b*r + its content
    sets = [frozenset(map(add, range(0, n, r), mu)) for mu in members]
    flower = find_flower(sets, k + 1)
    if flower is None:
        return None
    u = word_from_positions(n, flower.core)
    if is_good(u):
        raise VerificationError("flower core covers every block; petals collide")
    if not is_k_limit(u, words, k):
        raise VerificationError("flower core word failed the limit check")
    return FlowerLimit(word=u, flower=flower)
