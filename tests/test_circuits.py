"""Circuit structure, evaluation, the densest gate, and the adversary."""

import json
import random

import pytest

from oracles import circuit_to_json, naive_eval
from sigma2lab.blockwords import enumerate_good, is_good
from sigma2lab.circuits import (
    AdversaryResult,
    Sigma2Circuit,
    adversary,
    circuit_from_json,
    demo_accept_all,
    demo_block_selector,
    demo_exact_good,
    densest_and_gate,
    eval_circuit,
)
from sigma2lab.entailment import bad_limit_via_entailment
from sigma2lab.errors import (
    CircuitStructureError,
    PreconditionError,
    SizeGuardError,
)
from sigma2lab.flowers import bad_limit_via_flower

GOOD9 = enumerate_good(9)


def not_good(w: str) -> bool:
    return not is_good(w)


# ---------------------------------------------------------------------------
# structure validation


def test_structure_guards():
    ok = dict(n=2, alphabet=("a", "b"), top=(((1, "a"),),), ands=((0,),), bottom=(0,), k=1)
    Sigma2Circuit(**ok)
    cases = [
        dict(ok, n=0),
        dict(ok, alphabet=()),
        dict(ok, alphabet=("a", "a")),
        dict(ok, k=-1),
        dict(ok, top=(((1, "a"), (2, "b")),)),  # fan-in 2 above k=1
        dict(ok, top=(((0, "a"),),)),
        dict(ok, top=(((3, "a"),),)),
        dict(ok, top=(((1, "c"),),)),
        dict(ok, ands=((1,),)),
        dict(ok, bottom=(1,)),
    ]
    for kwargs in cases:
        with pytest.raises(CircuitStructureError):
            Sigma2Circuit(**kwargs)


def test_size_counts_all_gates():
    c = demo_block_selector(9)
    assert c.size == 3 + 3 + 1


# ---------------------------------------------------------------------------
# evaluation


def test_empty_gate_semantics():
    accept_all = demo_accept_all(4)
    assert eval_circuit(accept_all, "abab")
    reject_all = Sigma2Circuit(n=4, alphabet=("a", "b"), top=(), ands=(), bottom=(), k=1)
    assert not eval_circuit(reject_all, "abab")
    empty_or = Sigma2Circuit(n=4, alphabet=("a", "b"), top=((),), ands=((0,),), bottom=(0,), k=1)
    assert not eval_circuit(empty_or, "abab")


def test_eval_guards():
    c = demo_accept_all(4)
    with pytest.raises(PreconditionError):
        eval_circuit(c, "abc")
    with pytest.raises(PreconditionError):
        eval_circuit(c, "abcd")


def test_single_word_recognizer():
    c = Sigma2Circuit(
        n=4,
        alphabet=("a", "b"),
        top=(((1, "a"),), ((2, "b"),), ((3, "b"),), ((4, "a"),)),
        ands=((0, 1, 2, 3),),
        bottom=(0,),
        k=1,
    )
    from itertools import product

    for letters in product("ab", repeat=4):
        w = "".join(letters)
        assert eval_circuit(c, w) == (w == "abba")


def _random_circuit(rng: random.Random, n: int) -> Sigma2Circuit:
    k = rng.randint(1, 3)
    top = tuple(
        tuple(
            (rng.randint(1, n), rng.choice("ab"))
            for _ in range(rng.randint(0, k))
        )
        for _ in range(rng.randint(1, 5))
    )
    ands = tuple(
        tuple(rng.randrange(len(top)) for _ in range(rng.randint(0, 4)))
        for _ in range(rng.randint(1, 4))
    )
    bottom = tuple(rng.randrange(len(ands)) for _ in range(rng.randint(0, len(ands))))
    return Sigma2Circuit(n=n, alphabet=("a", "b"), top=top, ands=ands, bottom=bottom, k=k)


def test_eval_matches_oracle_on_random_circuits():
    rng = random.Random(3)
    for _ in range(120):
        n = rng.randint(2, 6)
        c = _random_circuit(rng, n)
        for _ in range(5):
            w = "".join(rng.choice("ab") for _ in range(n))
            assert eval_circuit(c, w) == naive_eval(c, w)


# ---------------------------------------------------------------------------
# the brute-force recognizer


def test_circuit_for_good_is_exact_at_nine():
    from itertools import product

    c = demo_exact_good(9)
    assert len(c.ands) == 27
    assert len(c.top) == 18  # every position occurs with both letters
    assert c.size == 46
    for letters in product("ab", repeat=9):
        w = "".join(letters)
        assert eval_circuit(c, w) == is_good(w)


def test_circuit_for_good_is_exact_at_four():
    from itertools import product

    c = demo_exact_good(4)
    assert len(c.ands) == 4
    for letters in product("ab", repeat=4):
        w = "".join(letters)
        assert eval_circuit(c, w) == is_good(w)


def test_circuit_for_good_size_guard():
    with pytest.raises(SizeGuardError):
        demo_exact_good(16)


# ---------------------------------------------------------------------------
# densest gate


def test_densest_gate_on_block_selector():
    c = demo_block_selector(9)
    gate, family = densest_and_gate(c, GOOD9)
    assert gate == 0  # all three gates tie at 9 words; lowest index wins
    assert len(family) == 9
    assert all(w[0] == "a" for w in family)


def test_densest_gate_on_accept_all():
    c = demo_accept_all(9)
    gate, family = densest_and_gate(c, GOOD9)
    assert gate == 0
    assert family == GOOD9


def test_densest_gate_on_exact_recognizer():
    c = demo_exact_good(9)
    gate, family = densest_and_gate(c, GOOD9)
    assert gate == 0
    assert family == [GOOD9[0]]


def test_densest_gate_rejects_unaccepted_word():
    c = demo_exact_good(9)
    with pytest.raises(PreconditionError):
        densest_and_gate(c, ["bbbbbbbbb"])


# ---------------------------------------------------------------------------
# the adversary


def entailment_oracle(family, k):
    return bad_limit_via_entailment(family, k)


def flower_oracle(family, k):
    return bad_limit_via_flower(family, k)


def test_adversary_refutes_block_selector():
    c = demo_block_selector(9)
    result = adversary(c, GOOD9, 1, entailment_oracle, not_good)
    assert result == AdversaryResult(gate=0, family_size=9, word="abbbbbabb")
    assert eval_circuit(c, result.word)
    assert not_good(result.word)


def test_adversary_refutes_accept_all():
    c = demo_accept_all(9)
    result = adversary(c, GOOD9, 1, entailment_oracle, not_good)
    assert result.status == "refuted"
    assert result.word == "bbbabbabb"
    assert result.family_size == 27


def test_adversary_inconclusive_on_exact_recognizer():
    # singleton gate families are tangled, so the oracle returns None
    c = demo_exact_good(9)
    result = adversary(c, GOOD9, 1, entailment_oracle, not_good)
    assert result.status == "hypothesis_not_met"
    assert result.word is None
    assert result.family_size == 1


def test_adversary_with_flower_oracle():
    c = demo_block_selector(9)
    result = adversary(c, GOOD9, 1, flower_oracle, not_good)
    assert result.status == "refuted"
    assert result.word == "abbbbbbbb"
    assert eval_circuit(c, result.word)


def test_adversary_fanin_guard():
    c = Sigma2Circuit(
        n=4,
        alphabet=("a", "b"),
        top=(((1, "a"), (2, "a")),),
        ands=((0,),),
        bottom=(0,),
        k=2,
    )
    with pytest.raises(PreconditionError):
        adversary(c, ["abab"], 1, entailment_oracle, not_good)


# ---------------------------------------------------------------------------
# serialization


def test_circuit_json_roundtrip():
    for c in [demo_block_selector(9), demo_accept_all(9), demo_exact_good(4)]:
        assert circuit_from_json(circuit_to_json(c)) == c


def test_circuit_json_shape():
    payload = json.loads(circuit_to_json(demo_block_selector(9)))
    assert set(payload) == {"n", "alphabet", "k", "top", "and", "bottom"}
    assert payload["top"][0] == [{"pos": 1, "letter": "a"}]
    assert payload["and"] == [[0], [1], [2]]
    assert payload["bottom"] == [0, 1, 2]


def test_circuit_json_guards():
    for text in ('{"n": 1}', '{"n": 9', "[]"):
        with pytest.raises(CircuitStructureError):
            circuit_from_json(text)
    bad = json.loads(circuit_to_json(demo_accept_all(4)))
    bad["bottom"] = ["x"]
    with pytest.raises(CircuitStructureError):
        circuit_from_json(json.dumps(bad))
