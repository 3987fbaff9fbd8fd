"""Expected answers computed without the code under test.

Nothing here imports sigma2lab. Automata are plain tuples: ``delta[q][i]``
is the successor of state q on letter i, state 0 is initial. Block words
are strings over {a, b} of length r*r.
"""

from __future__ import annotations

from itertools import combinations


class CheckFailed(Exception):
    """An output disagreed with its independently computed expectation."""


def expect(condition: bool, message: str) -> None:
    if not condition:
        raise CheckFailed(message)


# ---------------------------------------------------------------------------
# automata and their transition monoids


def minimal_dfa(
    n_letters: int, delta: tuple[tuple[int, ...], ...], accepting: frozenset[int]
) -> tuple[tuple[tuple[int, ...], ...], frozenset[int]]:
    """Accessible part of the automaton, quotiented by Moore refinement."""
    reach, todo = {0}, [0]
    while todo:
        q = todo.pop()
        for nxt in delta[q]:
            if nxt not in reach:
                reach.add(nxt)
                todo.append(nxt)
    states = sorted(reach)
    block = {q: int(q in accepting) for q in states}
    while True:
        signature = {q: (block[q],) + tuple(block[delta[q][i]] for i in range(n_letters)) for q in states}
        names: dict[tuple, int] = {}
        refined = {q: names.setdefault(signature[q], len(names)) for q in states}
        if len(names) == len(set(block.values())):
            break
        block = refined
    # renumber breadth-first from the initial class so state 0 stays initial
    order = {block[0]: 0}
    todo = [0]
    rep = {block[0]: 0}
    while todo:
        q = todo.pop(0)
        for i in range(n_letters):
            b = block[delta[q][i]]
            if b not in order:
                order[b] = len(order)
                rep[b] = delta[q][i]
                todo.append(delta[q][i])
    by_index = sorted(order, key=order.get)
    new_delta = tuple(
        tuple(order[block[delta[rep[b]][i]]] for i in range(n_letters)) for b in by_index
    )
    new_accepting = frozenset(order[b] for b in by_index if rep[b] in accepting)
    return new_delta, new_accepting


def transformations(
    delta: tuple[tuple[int, ...], ...], n_letters: int, limit: int | None = None
) -> list[tuple[int, ...]]:
    """Every state map that some word induces, identity first; stops past limit."""
    n = len(delta)
    gens = [tuple(delta[q][i] for q in range(n)) for i in range(n_letters)]
    identity = tuple(range(n))
    seen = {identity}
    elements = [identity]
    for s in elements:  # grows while iterating: breadth-first closure
        for g in gens:
            t = tuple(g[q] for q in s)
            if t not in seen:
                seen.add(t)
                elements.append(t)
                if limit is not None and len(elements) > limit:
                    return elements
    return elements


def monoid_size(n_letters: int, delta, accepting, limit: int | None = None) -> int:
    """Size of the syntactic monoid: the transition monoid of the minimal DFA.

    With a limit, any size above it may be reported as limit + 1.
    """
    mdelta, _ = minimal_dfa(n_letters, delta, accepting)
    return len(transformations(mdelta, n_letters, limit))


def is_da(n_letters: int, delta, accepting) -> bool:
    """Does the syntactic monoid satisfy (xy)^w x (xy)^w = (xy)^w for all x, y?

    That identity defines the variety DA, and Delta2 = DA (Pin and Weil
    1997; Therien and Wilke 1998), so this decides delta2 membership
    without the sigma2 equation.
    """
    mdelta, _ = minimal_dfa(n_letters, delta, accepting)
    elements = transformations(mdelta, n_letters)
    index = {t: i for i, t in enumerate(elements)}
    # product x*y acts as "first x, then y" on states
    table = [[index[tuple(y[q] for q in x)] for y in elements] for x in elements]
    omega = []
    for x in range(len(elements)):
        p = x
        while table[p][p] != p:
            p = table[p][x]
        omega.append(p)
    for x in range(len(elements)):
        row = table[x]
        for y in range(len(elements)):
            e = omega[row[y]]
            if table[table[e][x]][e] != e:
                return False
    return True


# ---------------------------------------------------------------------------
# block words


def blocks_of(w: str) -> list[str]:
    r = int(round(len(w) ** 0.5))
    expect(r * r == len(w), f"word of length {len(w)} is not square")
    return [w[i * r : (i + 1) * r] for i in range(r)]


def has_empty_block(w: str) -> bool:
    return any("a" not in bl for bl in blocks_of(w))


def member_masks(family: list[str]) -> list[dict[str, int]]:
    """masks[p][letter] has bit j set when member j carries letter at position p."""
    n = len(family[0])
    masks = [{"a": 0, "b": 0} for _ in range(n)]
    for j, w in enumerate(family):
        bit = 1 << j
        for p, sym in enumerate(w):
            masks[p][sym] |= bit
    return masks


def is_k_limit(u: str, family: list[str], k: int) -> bool:
    """Every set of min(k, n) positions of u is matched by some member."""
    expect(len(family) > 0, "limit against an empty family")
    masks = member_masks(family)
    everyone = (1 << len(family)) - 1
    for ps in combinations(range(len(u)), min(k, len(u))):
        agree = everyone
        for p in ps:
            agree &= masks[p][u[p]]
        if not agree:
            return False
    return True
