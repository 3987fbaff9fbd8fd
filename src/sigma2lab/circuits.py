"""Depth-3 circuits with bounded top fan-in, and the limit adversary.

A circuit here is an OR of ANDs of ORs of literals, reading a fixed
length word. Top fan-in is the fan-in of the gates touching the input
directly: each top OR may test at most k position/letter literals.
Such a circuit cannot tell a k-limit apart from the family it is a
limit of, and the adversary makes that concrete: pick the AND gate
densest on the accepted set, ask an oracle for a non-member limit of
the words satisfying that gate, and watch the circuit accept it anyway.
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from functools import reduce
from operator import and_, or_

from .blockwords import block_count, enumerate_good, is_k_limit, letter_masks, members_of
from .errors import (
    CircuitStructureError,
    PreconditionError,
    SizeGuardError,
    VerificationError,
)

Literal = tuple[int, str]  # (position, letter), position 1-indexed


@dataclass(frozen=True)
class Sigma2Circuit:
    """OR of ANDs of ORs over literals, with a declared top fan-in."""

    n: int
    alphabet: tuple[str, ...]
    top: tuple[tuple[Literal, ...], ...]  # OR gates reading the input, fan-in <= k
    ands: tuple[tuple[int, ...], ...]
    bottom: tuple[int, ...]  # AND gates feeding the output OR
    k: int

    def __post_init__(self) -> None:
        if self.n < 1:
            raise CircuitStructureError("word length must be at least 1")
        if len(set(self.alphabet)) != len(self.alphabet) or not self.alphabet:
            raise CircuitStructureError("alphabet must be nonempty and duplicate free")
        for sym in self.alphabet:
            if not (isinstance(sym, str) and len(sym) == 1):
                raise CircuitStructureError(f"alphabet symbol {sym!r} is not a single letter")
        if self.k < 0:
            raise CircuitStructureError("fan-in bound must be nonnegative")
        letters = set(self.alphabet)
        for g, gate in enumerate(self.top):
            if len(gate) > self.k:
                raise CircuitStructureError(
                    f"OR gate {g} has {len(gate)} literals, above the bound {self.k}"
                )
            for pos, letter in gate:
                if not 1 <= pos <= self.n:
                    raise CircuitStructureError(
                        f"OR gate {g} reads position {pos}, outside 1..{self.n}"
                    )
                if letter not in letters:
                    raise CircuitStructureError(
                        f"OR gate {g} tests unknown letter {letter!r}"
                    )
        for g, gate in enumerate(self.ands):
            for ref in gate:
                if not 0 <= ref < len(self.top):
                    raise CircuitStructureError(
                        f"AND gate {g} references missing OR gate {ref}"
                    )
        for ref in self.bottom:
            if not 0 <= ref < len(self.ands):
                raise CircuitStructureError(f"output references missing AND gate {ref}")

    @property
    def size(self) -> int:
        return len(self.top) + len(self.ands) + 1


def eval_or(c: Sigma2Circuit, gate: int, w: str) -> bool:
    return any(w[pos - 1] == letter for pos, letter in c.top[gate])


def eval_and(c: Sigma2Circuit, gate: int, w: str) -> bool:
    return all(eval_or(c, ref, w) for ref in c.ands[gate])


def eval_circuit(c: Sigma2Circuit, w: str) -> bool:
    """Empty OR gates reject, empty AND gates accept, empty output rejects."""
    if len(w) != c.n:
        raise PreconditionError(f"word length {len(w)} differs from circuit's {c.n}")
    for sym in w:
        if sym not in c.alphabet:
            raise PreconditionError(f"letter {sym!r} not in the circuit's alphabet")
    return any(eval_and(c, ref, w) for ref in c.bottom)


def densest_and_gate(c: Sigma2Circuit, accepted) -> tuple[int, list[str]]:
    """The output AND gate satisfied by the most of the accepted words.

    Every word given must be accepted by the circuit; the densest gate
    then collects at least its pigeonhole share, which is checked
    rather than assumed. Ties go to the lowest gate index. The gates are
    evaluated on all words at once, as masks over the words: an OR gate
    is the OR of its literals' masks, an AND gate the AND of its OR
    gates'. The first word eval_circuit would refuse is reported.
    """
    words = list(accepted)
    letters = "".join(c.alphabet)
    # words[:valid] pass eval_circuit's length and letter checks
    valid = next(
        (j for j, w in enumerate(words) if len(w) != c.n or w.strip(letters)), len(words)
    )
    masks = letter_masks(words[:valid], c.n)
    everyone = (1 << valid) - 1
    ors = [reduce(or_, (masks.get(lit, 0) for lit in gate), 0) for gate in c.top]
    ands = [reduce(and_, (ors[ref] for ref in gate), everyone) for gate in c.ands]
    rejected = everyone & ~reduce(or_, (ands[g] for g in c.bottom), 0)
    if rejected:
        w = words[(rejected & -rejected).bit_length() - 1]
        raise PreconditionError(f"word {w!r} is not accepted by the circuit")
    if valid < len(words):
        eval_circuit(c, words[valid])  # raises for its length or a letter
    gates = sorted(set(c.bottom))
    if not gates:
        raise PreconditionError("circuit has no output AND gates")
    best_gate = max(gates, key=lambda g: (ands[g].bit_count(), -g))
    best = members_of(ands[best_gate], words)
    if len(best) * len(gates) < len(words):
        raise VerificationError("densest gate fell below the pigeonhole share")
    return best_gate, best


@dataclass(frozen=True)
class AdversaryResult:
    gate: int
    family_size: int
    word: str | None  # the refuting limit, or None when the oracle had none

    @property
    def status(self) -> str:
        return "refuted" if self.word is not None else "hypothesis_not_met"


def adversary(c: Sigma2Circuit, accepted, k: int, oracle, not_in_language) -> AdversaryResult:
    """Refute a small circuit by feeding it a limit of its own witnesses.

    The oracle maps (family, k) to an object whose .word is a non-member
    k-limit of the family, or to None when it cannot produce one; None
    is reported as an inconclusive round, not an error. A word the
    oracle does return is re-checked here: it must lie outside the
    language, be a k-limit of the densest gate's family, and still be
    accepted by the circuit. The last point is forced by the first two,
    so its failure means the circuit or the checks are broken, not the
    inputs.
    """
    fanin = max((len(g) for g in c.top), default=0)
    if fanin > k:
        raise PreconditionError(
            f"top fan-in {fanin} exceeds k={k}; the limit argument needs k"
        )
    gate, family = densest_and_gate(c, accepted)
    produced = oracle(family, k)
    if produced is None:
        return AdversaryResult(gate=gate, family_size=len(family), word=None)
    u = produced.word
    if not not_in_language(u):
        raise VerificationError("oracle produced a word inside the language")
    if not is_k_limit(u, family, k):
        raise VerificationError("oracle produced a word that is not a k-limit")
    if not eval_circuit(c, u):
        raise VerificationError("a k-limit of the gate family must stay accepted")
    return AdversaryResult(gate=gate, family_size=len(family), word=u)


# ---------------------------------------------------------------------------
# demonstration circuits


def demo_block_selector(n: int = 9) -> Sigma2Circuit:
    """Accepts any word with an a in the first block; wildly overcounts."""
    r = block_count(n)
    top = tuple(((p, "a"),) for p in range(1, r + 1))
    ands = tuple((g,) for g in range(r))
    return Sigma2Circuit(
        n=n,
        alphabet=("a", "b"),
        top=top,
        ands=ands,
        bottom=tuple(range(r)),
        k=1,
    )


def demo_accept_all(n: int = 9) -> Sigma2Circuit:
    """A single empty AND gate: accepts everything of the right length."""
    block_count(n)
    return Sigma2Circuit(
        n=n, alphabet=("a", "b"), top=(), ands=((),), bottom=(0,), k=1
    )


def demo_exact_good(n: int = 9) -> Sigma2Circuit:
    """The brute-force recognizer of the good words: one AND per member.

    Every AND spells out its word position by position through fan-in-1
    OR gates, shared between members, so every densest gate is a
    singleton. Desk sizes only.
    """
    r = block_count(n)
    if r > 3:
        raise SizeGuardError(f"r={r} gives {r**r} AND gates; capped at r=3")
    literal_index: dict[Literal, int] = {}
    top: list[tuple[Literal, ...]] = []

    def or_gate(lit: Literal) -> int:
        if lit not in literal_index:
            literal_index[lit] = len(top)
            top.append((lit,))
        return literal_index[lit]

    ands = []
    for w in enumerate_good(n):
        ands.append(tuple(or_gate((p, w[p - 1])) for p in range(1, n + 1)))
    return Sigma2Circuit(
        n=n,
        alphabet=("a", "b"),
        top=tuple(top),
        ands=tuple(ands),
        bottom=tuple(range(len(ands))),
        k=1,
    )


# ---------------------------------------------------------------------------
# serialization


def _exactly(kind: type, value):
    """value, if its type is exactly kind: true is no int, and 4.7 or "0" no index."""
    if type(value) is not kind:
        raise TypeError(f"expected {kind.__name__}, got {value!r}")
    return value


def _indices(value) -> tuple[int, ...]:
    return tuple(_exactly(int, x) for x in _exactly(list, value))


def circuit_from_json(text: str) -> Sigma2Circuit:
    """Read a circuit from JSON, coercing nothing.

    n, k, literal positions (1-indexed, as everywhere else) and gate
    indices must be JSON integers, letters strings, and the alphabet and
    every gate list lists; anything else is refused.
    """
    try:
        payload = json.loads(text)
        return Sigma2Circuit(
            n=_exactly(int, payload["n"]),
            alphabet=tuple(_exactly(list, payload["alphabet"])),
            top=tuple(
                tuple(
                    (_exactly(int, lit["pos"]), _exactly(str, lit["letter"]))
                    for lit in _exactly(list, gate)
                )
                for gate in _exactly(list, payload["top"])
            ),
            ands=tuple(_indices(gate) for gate in _exactly(list, payload["and"])),
            bottom=_indices(payload["bottom"]),
            k=_exactly(int, payload["k"]),
        )
    except (KeyError, TypeError, ValueError, RecursionError) as exc:
        raise CircuitStructureError(f"malformed circuit payload: {exc}") from exc
