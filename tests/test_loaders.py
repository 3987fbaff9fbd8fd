"""Loaders fail only with the package's own errors, whatever they are fed.

Hypothesis draws arbitrary text, JSON values and DFA shapes. Each loader
must either return or raise a ToolkitError subclass, which the command
line maps to an exit code and a one-line message; any other exception
fails the test with the input that raised it.
"""

import json

import pytest
from hypothesis import example, given, settings, strategies as st

from sigma2lab.blockwords import packed_from_str
from sigma2lab.circuits import circuit_from_json
from sigma2lab.errors import (
    AlphabetMismatchError,
    CircuitStructureError,
    RegexSyntaxError,
    ToolkitError,
    UnknownSymbolError,
)
from sigma2lab.languages import Dfa, compile_pattern


def _loads_or_refuses(load, *args) -> None:
    try:
        load(*args)
    except ToolkitError:
        pass


# text that is mostly pattern syntax, and text of any kind
PATTERNS = st.text(st.sampled_from("ab c()+*[]e0"), max_size=30) | st.text(max_size=20)
ALPHABETS = st.lists(st.text(max_size=2), max_size=3) | st.just(["a", "b"])
NESTED = "(" * 20000 + "a" + ")" * 20000
LONG = "a" * 20000


@settings(max_examples=100)
@given(PATTERNS, ALPHABETS)
@example(NESTED, ["a"])
@example(LONG, ["a"])
def test_parse_regex_refuses_cleanly(text, alphabet):
    # compile_pattern refuses only for the pattern's syntax, its symbols or
    # the alphabet, never with another of the package's errors
    try:
        compile_pattern(text, alphabet)
    except (RegexSyntaxError, UnknownSymbolError, AlphabetMismatchError):
        pass


@settings(max_examples=60)
@given(PATTERNS, ALPHABETS)
@example(NESTED, ["a"])
@example(LONG, ["a"])
def test_compile_pattern_refuses_cleanly(text, alphabet):
    _loads_or_refuses(compile_pattern, text, alphabet)


@settings(max_examples=100)
@given(st.text(st.sampled_from("0123456789_, ²٣"), max_size=12) | st.text())
@example("9" * 5000 + ",1")
def test_packed_from_str_refuses_cleanly(text):
    _loads_or_refuses(packed_from_str, text)


JSON_VALUES = st.recursive(
    st.none() | st.booleans() | st.integers() | st.floats() | st.text(max_size=3),
    lambda inner: st.lists(inner, max_size=3)
    | st.dictionaries(st.text(max_size=3), inner, max_size=3),
    max_leaves=8,
)
LITERALS = JSON_VALUES | st.fixed_dictionaries(
    {
        "pos": st.integers(0, 5) | JSON_VALUES,
        "letter": st.sampled_from("abc") | JSON_VALUES,
    }
)
REFS = st.integers(-1, 2)
CIRCUITS = st.fixed_dictionaries(
    {
        "n": st.integers(-1, 4) | JSON_VALUES,
        "alphabet": st.just(["a", "b"]) | JSON_VALUES,
        "top": st.lists(st.lists(LITERALS, max_size=2), max_size=2) | JSON_VALUES,
        "and": st.lists(st.lists(REFS | JSON_VALUES, max_size=2), max_size=2),
        "bottom": st.lists(REFS, max_size=2) | JSON_VALUES,
        "k": st.integers(-1, 3) | JSON_VALUES,
    }
)


@settings(max_examples=60)
@given(st.text() | JSON_VALUES.map(json.dumps) | CIRCUITS.map(json.dumps))
@example("[" * 100000)
@example('{"n": 1e400, "alphabet": "ab", "top": [], "and": [], "bottom": [], "k": 1}')
def test_circuit_from_json_refuses_cleanly(text):
    _loads_or_refuses(circuit_from_json, text)


VALID_CIRCUIT = {
    "n": 4,
    "k": 1,
    "alphabet": ["a", "b"],
    "top": [[{"pos": 1, "letter": "a"}]],
    "and": [[0]],
    "bottom": [0],
}


def test_a_well_typed_circuit_loads_as_written():
    c = circuit_from_json(json.dumps(VALID_CIRCUIT))
    assert (c.n, c.k, c.alphabet) == (4, 1, ("a", "b"))
    assert (c.top, c.ands, c.bottom) == ((((1, "a"),),), ((0,),), (0,))


def _with(path: tuple, value) -> dict:
    """VALID_CIRCUIT with the entry at path replaced by value."""
    payload = json.loads(json.dumps(VALID_CIRCUIT))
    *outer, last = path
    node = payload
    for key in outer:
        node = node[key]
    node[last] = value
    return payload


@pytest.mark.parametrize(
    "payload",
    [
        # every number truncated or coerced at once, as int() and tuple() did
        {
            "n": 4.7,
            "k": 1.9,
            "alphabet": "ab",
            "top": [[{"pos": True, "letter": "a"}]],
            "and": [[0.5]],
            "bottom": ["0"],
        },
        _with(("n",), 4.0),
        _with(("n",), True),
        _with(("k",), 1.9),
        _with(("k",), "1"),
        _with(("alphabet",), "ab"),
        _with(("alphabet",), {"a": 1, "b": 2}),
        _with(("top", 0, 0, "pos"), 1.5),
        _with(("top", 0, 0, "pos"), True),
        _with(("top", 0, 0, "letter"), 1),
        _with(("and", 0, 0), 0.5),
        _with(("and", 0, 0), False),
        _with(("and", 0), "0"),
        _with(("bottom", 0), "0"),
        _with(("bottom",), {}),
    ],
)
def test_circuit_from_json_coerces_nothing(payload):
    with pytest.raises(CircuitStructureError, match="^malformed circuit payload: "):
        circuit_from_json(json.dumps(payload))


def test_a_letter_of_two_characters_is_refused():
    # words are strings of single letters, so a literal testing "ab" could never fire
    payload = _with(("alphabet",), ["a", "b", "ab"])
    payload["top"][0][0]["letter"] = "ab"
    with pytest.raises(CircuitStructureError, match="^alphabet symbol 'ab' is not a single letter$"):
        circuit_from_json(json.dumps(payload))


STATES = st.integers(-1, 4)
ROWS = st.lists(STATES | st.lists(STATES, max_size=3).map(tuple), max_size=4).map(tuple)


@settings(max_examples=100)
@given(
    st.lists(st.text(max_size=1), max_size=3).map(tuple),
    STATES,
    STATES,
    st.frozensets(STATES, max_size=3),
    ROWS | STATES,
)
def test_dfa_refuses_malformed_shapes(alphabet, n_states, initial, accepting, delta):
    _loads_or_refuses(Dfa, alphabet, n_states, initial, accepting, delta)
