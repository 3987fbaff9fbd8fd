"""The lab's bitset indexes against the member scans they replaced.

k-limit probes, the entailment search, the packed limit conditions and
the densest gate answer from member masks. Each is compared here with
the scan in oracles.py on seeded random inputs: families with r <= 5
and k <= 2, empty families, repeated members, and letters outside
{a, b}. Results must be identical, and so must the error raised.
"""

import random
from itertools import product

from oracles import (
    naive_eval,
    scan_densest_and_gate,
    scan_find_entailment,
    scan_k_limit_counterexample,
    scan_limit_conditions,
)
from sigma2lab.blockwords import k_limit_counterexample
from sigma2lab.circuits import Sigma2Circuit, densest_and_gate
from sigma2lab.entailment import (
    check_packed_limit_conditions,
    find_entailment,
    index_family,
)
from sigma2lab.errors import ToolkitError


def outcome(fn, *args):
    """The value, or the class and message of the library error raised."""
    try:
        return "value", fn(*args)
    except ToolkitError as exc:
        return "error", type(exc), str(exc)


def _word(rng, n: int, letters: str) -> str:
    return "".join(rng.choice(letters) for _ in range(n))


def _near(rng, u: str, letters: str) -> str:
    """u with a few positions redrawn, so that limits are neither rare nor sure."""
    w = list(u)
    for _ in range(rng.randint(1, 3)):
        w[rng.randrange(len(w))] = rng.choice(letters)
    return "".join(w)


def test_k_limit_probes_match_the_scan():
    rng = random.Random(8)
    verdicts = set()
    for _ in range(700):
        r = rng.randint(1, 5)
        n = r * r
        letters = "ab" if rng.random() < 0.8 else "abc"
        u = _word(rng, n, letters)
        pool = [_near(rng, u, letters) for _ in range(rng.randint(1, 6))]
        family = [rng.choice(pool) for _ in range(rng.choice((0, 1, 3, 8, 20)))]
        if family and rng.random() < 0.05:
            family[rng.randrange(len(family))] += "a"  # a length mismatch
        k = rng.randint(-1 if rng.random() < 0.02 else 0, 2)
        got = outcome(k_limit_counterexample, u, family, k)
        assert got == outcome(scan_k_limit_counterexample, u, family, k), (u, family, k)
        verdicts.add(got[0] if got[0] == "error" else got[1] is None)
    assert verdicts == {True, False, "error"}


def _packed_family(rng, r: int) -> list:
    pool = list(product(range(1, r + 1), repeat=r))
    base = rng.sample(pool, min(len(pool), rng.randint(1, 12)))
    return [rng.choice(base) for _ in range(rng.choice((0, 1, 2, 5, 10, 20)))]


def test_entailment_search_matches_the_scan():
    rng = random.Random(9)
    found = set()
    for _ in range(600):
        r = rng.randint(2, 5)
        k = rng.randint(1, 2)
        phi = _packed_family(rng, r)
        if phi and rng.random() < 0.7:
            mu = rng.choice(phi)
            available = [(p, mu[p - 1]) for p in range(1, r + 1)]
        else:
            available = [(rng.randint(1, r), rng.randint(1, r)) for _ in range(rng.randint(0, r))]
        if rng.random() < 0.03:
            available.append((r + 1, 1))  # out of range
        i = rng.randint(1, r)
        want = outcome(scan_find_entailment, phi, r, k, available, i)
        got = outcome(find_entailment, index_family(phi, r), k, available, i)
        assert got == want, (phi, r, k, available, i)
        found.add(want[0] if want[0] == "error" else want[1] is None)
    assert found == {True, False, "error"}


def test_packed_limit_conditions_match_the_scan():
    rng = random.Random(10)
    failures = set()
    for _ in range(500):
        r = rng.randint(2, 5)
        k = rng.randint(1, 2)
        phi = _packed_family(rng, r)
        nu = rng.choice(phi) if phi and rng.random() < 0.9 else tuple(
            rng.randint(1, r) for _ in range(r)
        )
        mu = list(nu)
        for _ in range(1 if rng.random() < 0.9 else rng.randint(0, 2)):
            mu[rng.randrange(r)] = None if rng.random() < 0.9 else rng.randint(1, r)
        mu = tuple(mu)
        want = scan_limit_conditions(mu, nu, phi, k)
        got = check_packed_limit_conditions(mu, nu, index_family(phi, r), k)
        assert got == want, (mu, nu, phi, k)
        failures.add(None if want is None else want.split(":")[0])
    assert failures == {None, "P1", "P2"}


def _circuit(rng) -> Sigma2Circuit:
    n = rng.randint(1, 9)
    alphabet = ("a", "b") if rng.random() < 0.7 else ("a", "b", "c")
    k = rng.randint(1, 2)
    top = tuple(
        tuple(
            (rng.randint(1, n), rng.choice(alphabet)) for _ in range(rng.randint(0, k))
        )
        for _ in range(rng.randint(0, 5))
    )
    ands = tuple(
        tuple(rng.randrange(len(top)) for _ in range(rng.randint(0, 3)) if top)
        for _ in range(rng.randint(1, 4))
    )
    bottom = tuple(
        rng.randrange(len(ands)) for _ in range(rng.randint(0 if rng.random() < 0.1 else 1, 4))
    )
    return Sigma2Circuit(n=n, alphabet=alphabet, top=top, ands=ands, bottom=bottom, k=k)


def test_densest_gate_matches_the_scan():
    rng = random.Random(11)
    kinds = set()
    for _ in range(500):
        c = _circuit(rng)
        letters = "".join(c.alphabet)
        drawn = [_word(rng, c.n, letters) for _ in range(rng.choice((0, 3, 12, 40)))]
        accepted = [w for w in drawn if naive_eval(c, w)]
        accepted += rng.sample(accepted, len(accepted) // 3)  # repeated words
        rng.shuffle(accepted)
        if rng.random() < 0.3:
            spoiler = rng.choice(
                [
                    _word(rng, c.n, letters),  # most likely rejected
                    _word(rng, c.n + 1, letters),
                    _word(rng, c.n, letters + "z"),
                ]
            )
            accepted.insert(rng.randint(0, len(accepted)), spoiler)
        want = outcome(scan_densest_and_gate, c, accepted)
        assert outcome(densest_and_gate, c, accepted) == want, (c, accepted)
        kinds.add(want[0])
    assert kinds == {"value", "error"}
