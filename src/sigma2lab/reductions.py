"""Bridges between block words, ordinary languages, and monoid words.

The expansion turns the good/bad distinction into membership in a fixed
regular language: each block is rewritten over {a, c} and closed with a
separator b, so a block is well formed exactly when it matches ac*b
with leading c's.

The other direction starts from a failing equation pair (x, y) with a
witness word and marked positions, factorizes the witness, and builds
words over monoid elements, plain tuples of element indices. Good words
wire to products equal to x, bad words to x y x, so any device
separating the two wired images is separating good from bad. Deleting
the x-slot of every segment turns each x-carrying word into the same
y-word, which is the subword step the wiring leans on.
"""

from __future__ import annotations

from dataclasses import dataclass
from typing import TYPE_CHECKING

from .blockwords import A, B, blocks
from .errors import PreconditionError

if TYPE_CHECKING:
    from .monoids import TransitionMonoid

SEPARATOR = "b"
FILLER = "c"
MARK = "a"


def expansion(w: str) -> str:
    """Rewrite b to c and close every block with a separator b.

    A word of length r*r maps to one of length r*(r+1) over {a, b, c},
    and the image lies in (ac*b+c)* exactly when the source is good.
    """
    rewrite = str.maketrans({A: MARK, B: FILLER})
    return "".join(block.translate(rewrite) + SEPARATOR for block in blocks(w))


# ---------------------------------------------------------------------------
# factorizing a subword witness


@dataclass(frozen=True)
class Factorization:
    """h(word) written as x_1 y_1 x_2 y_2 ... x_t y_t, with t = len(xs).

    The y_j are the images of the marked letters, the x_j the images of
    the gaps before them; a nonempty trailing gap contributes a final
    pair with y = identity. Dropping every x_j leaves exactly the image
    of the marked subword.
    """

    xs: tuple[int, ...]
    ys: tuple[int, ...]


def factorize_subword_witness(monoid: TransitionMonoid, word, positions) -> Factorization:
    """Split a witness word at its marked positions and evaluate the parts."""
    w = list(word)
    pos = list(positions)
    if pos != sorted(set(pos)) or any(not 1 <= p <= len(w) for p in pos):
        raise PreconditionError(
            f"positions {positions!r} must be strictly increasing within the word"
        )
    xs: list[int] = []
    ys: list[int] = []
    prev = 0
    for p in pos:
        xs.append(monoid.eval(w[prev : p - 1]))
        ys.append(monoid.image(w[p - 1]))
        prev = p
    trailing = w[prev:]
    if trailing or not pos:
        xs.append(monoid.eval(trailing))
        ys.append(monoid.identity)
    return Factorization(xs=tuple(xs), ys=tuple(ys))


# ---------------------------------------------------------------------------
# the wired words


def wiring(fact: Factorization, w: str) -> tuple[int, ...]:
    """Wire a block word letter by letter: b to identity, a to the x slot.

    Each block is replicated once per factor with its y_j appended, and
    the whole is sandwiched between two wirings of the block a b^(r-1),
    the first-slot carrier. A good word wires to a product equal to x, a
    bad word to x y x.
    """
    from .monoids import TransitionMonoid  # the wired words pad with its identity

    one = TransitionMonoid.identity
    split = blocks(w)
    carrier = A + B * (len(split) - 1)
    parts: list[int] = []
    for block in (carrier, *split, carrier):
        for x_j, y_j in zip(fact.xs, fact.ys):
            parts.extend(x_j if sym == A else one for sym in block)
            parts.append(y_j)
    return tuple(parts)


# ---------------------------------------------------------------------------
# positional annotation


def p_annotate(w, moduli) -> tuple:
    """Attach to every position the moduli that divide it (1-indexed).

    The result is a word over symbol/divisor-set pairs, the alphabet a
    layered logic sees when modular predicates join the order.
    """
    mods = sorted(set(moduli))
    if not mods:
        raise PreconditionError("moduli must be nonempty")
    if not all(isinstance(p, int) and p >= 1 for p in mods):
        raise PreconditionError(f"moduli must be positive integers, got {moduli!r}")
    return tuple(
        (sym, tuple(p for p in mods if (idx + 1) % p == 0))
        for idx, sym in enumerate(w)
    )
