"""Command line behavior: payload shapes, exit codes, determinism."""

import hashlib
import json
from dataclasses import replace
from pathlib import Path

import pytest
from click.testing import CliRunner

from oracles import circuit_to_json
from sigma2lab import blockwords, cli, entailment, monoids
from sigma2lab.circuits import demo_accept_all
from sigma2lab.entailment import DichotomyResult, EncodingReport, MemberCode
from sigma2lab.cli import main
from sigma2lab.errors import VerificationError

K_PATTERN = "(ac*b+c)*"
# exit code and stdout sha256 of every command the cli-cold benchmark runs
RECORDED = Path(__file__).resolve().parent.parent / "perfbench" / "expected" / "cli_cold.json"


@pytest.fixture()
def runner():
    return CliRunner()


def invoke_json(runner, args):
    result = runner.invoke(main, args + ["--json"])
    assert result.exit_code == 0, result.output + str(result.exception)
    return json.loads(result.output)


# ---------------------------------------------------------------------------
# analyze


def test_analyze_block_language(runner):
    payload = invoke_json(runner, ["analyze", K_PATTERN, "--alphabet", "abc"])
    assert payload["description"] == K_PATTERN
    assert payload["alphabet"] == ["a", "b", "c"]
    assert payload["monoid"]["size"] == 6
    assert payload["monoid"]["idempotents"] == 4
    assert payload["neutral_letters"] == ["c"]
    assert payload["sigma2_lt"]["holds"] is False
    assert payload["sigma2_lt"]["replay"]["passed"] is True
    assert payload["pi2_lt"]["holds"] is True
    assert payload["delta2_lt"] == {"holds": False, "fails_on": ["sigma2_lt"]}


def test_analyze_full_language(runner):
    payload = invoke_json(runner, ["analyze", "(a+b)*", "--alphabet", "ab"])
    assert payload["sigma2_lt"]["holds"] is True
    assert payload["pi2_lt"]["holds"] is True
    assert payload["delta2_lt"] == {"holds": True}


def test_analyze_is_byte_stable(runner):
    args = ["analyze", K_PATTERN, "--alphabet", "abc", "--json"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.output == second.output


def test_analyze_renders_lines_from_same_payload(runner):
    result = runner.invoke(main, ["analyze", K_PATTERN, "--alphabet", "abc"])
    assert result.exit_code == 0
    assert "sigma2_lt" in result.output
    assert "holds" in result.output


def test_analyze_syntax_error_exits_two(runner):
    result = runner.invoke(main, ["analyze", "(ac*b", "--alphabet", "abc"])
    assert result.exit_code == 2
    assert "syntax error" in result.stderr


def test_analyze_unknown_symbol_exits_two(runner):
    result = runner.invoke(main, ["analyze", "ad", "--alphabet", "abc"])
    assert result.exit_code == 2


def test_analyze_monoid_limit_exits_three(runner):
    result = runner.invoke(
        main, ["analyze", K_PATTERN, "--alphabet", "abc", "--monoid-limit", "3"]
    )
    assert result.exit_code == 3
    assert "monoid too large" in result.stderr


def test_analyze_deep_nesting_is_not_refused(runner):
    nested = "(" * 400 + "a" + ")" * 400
    payload = invoke_json(runner, ["analyze", nested, "--alphabet", "ab"])
    plain = invoke_json(runner, ["analyze", "a", "--alphabet", "ab"])
    assert payload.pop("description") == nested
    plain.pop("description")
    assert payload == plain


def test_analyze_long_pattern_meets_only_the_monoid_limit(runner):
    result = runner.invoke(
        main, ["analyze", "a" * 3000, "--alphabet", "ab", "--monoid-limit", "100"]
    )
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr.startswith("monoid too large: ")
    assert len(result.stderr.splitlines()) == 1, result.stderr


@pytest.mark.parametrize("limit", ["0", "-3"])
def test_analyze_monoid_limit_below_one_is_a_usage_error(runner, limit):
    # a monoid has at least its identity, so no limit below 1 can pass
    result = runner.invoke(
        main, ["analyze", "(a+b)*", "--alphabet", "ab", "--monoid-limit", limit]
    )
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr.startswith("usage error: Invalid value for '--monoid-limit'")
    assert len(result.stderr.splitlines()) == 1, result.stderr


def test_analyze_monoid_limit_one_admits_the_identity(runner):
    payload = invoke_json(
        runner, ["analyze", "(a+b)*", "--alphabet", "ab", "--monoid-limit", "1"]
    )
    assert payload["monoid"]["size"] == 1


# ---------------------------------------------------------------------------
# lab klimit


def test_klimit_good_family(runner):
    payload = invoke_json(runner, ["lab", "klimit", "--u", "abbb", "--k", "1"])
    assert payload["input"] == {
        "u": "abbb",
        "n": 4,
        "k": 1,
        "family": "good",
        "family_size": 4,
    }
    assert payload["verdict"] is True
    assert payload["witness"] is None
    assert payload["verification"] == {"recheck_is_limit": True, "passed": True}


def test_klimit_with_counterexample(runner):
    payload = invoke_json(
        runner, ["lab", "klimit", "--u", "baba", "--family", "abab", "--k", "1"]
    )
    assert payload["verdict"] is False
    assert payload["witness"] == {"unmatched_positions": [1]}
    assert payload["verification"] == {"no_member_matches": True, "passed": True}


def test_klimit_packed_family(runner):
    payload = invoke_json(
        runner,
        ["lab", "klimit", "--u", "bbbbbbbbb", "--k", "1", "--family", "1,1,1;2,2,2;3,3,3"],
    )
    assert payload["input"]["family_size"] == 3
    assert payload["verdict"] is True


def test_klimit_takes_its_length_from_u(runner):
    result = runner.invoke(main, ["lab", "klimit", "--u", "abbb", "--n", "4", "--k", "1"])
    assert result.exit_code == 2
    assert result.stderr.startswith("usage error: No such option '--n'")


def test_klimit_length_mismatch_exits_two(runner):
    result = runner.invoke(
        main, ["lab", "klimit", "--u", "abab", "--family", "abbbabbba", "--k", "1"]
    )
    assert result.exit_code == 2


NOT_A_OR_B = "letter 'c' at position 3 is not a or b"


@pytest.mark.parametrize(
    "args, message",
    [
        (["--u", "abcabcabc"], NOT_A_OR_B),
        (["--u", "abcabcabc", "--family", "abcabcabc"], NOT_A_OR_B),
        (["--u", "abbbabbba", "--family", "abbbabbba,abcbabbba"], NOT_A_OR_B),
        (["--u", "abc", "--family", "abc,bca"], "length 3 is not a positive perfect square"),
    ],
)
def test_klimit_refuses_what_is_not_a_block_word(runner, args, message):
    # each of these once exited 0 with a verdict
    result = runner.invoke(main, ["lab", "klimit", "--k", "1", *args])
    assert result.exit_code == 2, result.output
    assert result.stdout == ""
    assert result.stderr == f"invalid input: {message}\n"


# ---------------------------------------------------------------------------
# lab flower


def test_flower_over_good_nine(runner):
    payload = invoke_json(runner, ["lab", "flower", "--n", "9", "-p", "2"])
    assert payload["verdict"] is True
    assert payload["witness"] == {"core": [], "petals": [[1, 4, 7], [2, 5, 8]]}
    assert payload["verification"] == {"flower_property": True, "passed": True}


def test_flower_not_found_is_clean(runner):
    payload = invoke_json(
        runner, ["lab", "flower", "--n", "4", "-p", "3", "--family", "abab"]
    )
    assert payload["verdict"] is False
    assert payload["witness"] is None
    assert payload["verification"] == {"passed": True}


def test_flower_sampling_is_seeded(runner):
    args = ["lab", "flower", "--n", "9", "-p", "2", "--sample", "6", "--seed", "3", "--json"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.output == second.output
    assert json.loads(first.output)["input"]["family_size"] == 6


def test_flower_oversample_exits_two(runner):
    result = runner.invoke(main, ["lab", "flower", "--n", "4", "-p", "2", "--sample", "99"])
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# lab tangled


def test_tangled_diagonal_family(runner):
    payload = invoke_json(
        runner,
        ["lab", "tangled", "--n", "9", "--k", "1", "--family", "1,1,1;2,2,2;3,3,3"],
    )
    assert payload["verdict"] is True
    assert payload["witness"] is None
    assert payload["verification"] == {
        "distinct_codes": True,
        "within_bound": True,
        "bound": 9,
        "passed": True,
    }


def test_tangled_verification_passes_only_on_distinct_codes(runner, monkeypatch):
    code = MemberCode(free_positions=(1,), free_contents=(1,), digits=(0, 0))
    shared = EncodingReport(bound=9, codes={(1, 1, 1): code, (2, 2, 2): code})
    monkeypatch.setattr(
        entailment,
        "dichotomy_suite",
        lambda words, k: DichotomyResult(family_size=2, encoding=shared),
    )
    payload = invoke_json(
        runner, ["lab", "tangled", "--n", "9", "--k", "1", "--family", "1,1,1;2,2,2"]
    )
    assert payload["verification"] == {
        "distinct_codes": False,
        "within_bound": True,
        "bound": 9,
        "passed": False,
    }


def test_tangled_good_family_gives_limit(runner):
    payload = invoke_json(runner, ["lab", "tangled", "--n", "9", "--k", "1"])
    assert payload["verdict"] is False
    assert payload["witness"] == {
        "member": "1,1,1",
        "position": 1,
        "limit_word": "bbbabbabb",
    }
    assert payload["verification"] == {"not_good": True, "k_limit": True, "passed": True}


@pytest.mark.parametrize(
    "limit, n, words",
    [(100, "16", "4**4"), (None, str(10**40), f"{10**20}**{10**20}")],
)
def test_an_oversized_good_family_exits_three_before_it_is_built(
    runner, monkeypatch, limit, n, words
):
    if limit is not None:
        monkeypatch.setattr(blockwords, "K_LIMIT_WORK_LIMIT", limit)
    result = runner.invoke(main, ["lab", "flower", "--n", n, "--p", "2"])
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr == (
        f"too large: the good family of length {n} has {words} words, beyond desk scale\n"
    )


def test_tangled_degenerate_k_exits_two(runner):
    result = runner.invoke(main, ["lab", "tangled", "--n", "4", "--k", "3"])
    assert result.exit_code == 2
    assert "needs k constrained positions" in result.stderr


def test_tangled_beyond_search_budget_exits_three(runner):
    result = runner.invoke(
        main, ["lab", "tangled", "--n", "36", "--k", "1", "--family", "1,1,1,1,1,1"]
    )
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr == (
        "too large: r=6, k=1 exceeds the search budget (MAX_R=5, MAX_K=2)\n"
    )


@pytest.mark.parametrize(
    "args",
    [
        ["lab", "tangled", "--n", "49", "--k", "1", "--sample", "5"],
        ["lab", "dichotomy", "--n", "49", "--k", "1", "--samples", "1"],
    ],
)
def test_a_good_family_beyond_the_search_budget_is_refused_unbuilt(
    runner, monkeypatch, args
):
    # r=7 is within the enumeration limit but beyond MAX_R
    def unbuilt(n):
        raise AssertionError(f"the good family of length {n} was built")

    monkeypatch.setattr(cli, "enumerate_good", unbuilt)
    result = runner.invoke(main, args)
    assert result.exit_code == 3
    assert result.stdout == ""
    assert result.stderr == (
        "too large: r=7, k=1 exceeds the search budget (MAX_R=5, MAX_K=2)\n"
    )


@pytest.mark.parametrize(
    "u, k, code, message",
    [
        # r=7: 49 position sets times 7**7 words
        ("abbbbbb" * 7, "1", 3, "too large: limit check over 49 position sets is beyond desk scale"),
        # r=8: 8**8 words is enumerate_good's own refusal
        ("abbbbbbb" * 8, "1", 3, "too large: the good family of length 64 has 8**8 words, beyond desk scale"),
    ],
    ids=["r7-limit-budget", "r8-family-budget"],
)
def test_a_limit_check_beyond_desk_scale_is_refused_before_the_good_family_is_built(
    runner, monkeypatch, u, k, code, message
):
    def unbuilt(n):
        raise AssertionError(f"the good family of length {n} was built")

    monkeypatch.setattr(cli, "enumerate_good", unbuilt)
    result = runner.invoke(main, ["lab", "klimit", "--u", u, "--k", k])
    assert result.exit_code == code
    assert result.stdout == ""
    assert result.stderr == f"{message}\n"


@pytest.mark.parametrize(
    "k, code, message",
    [
        ("-1", 2, "invalid input: k must be nonnegative"),
        ("1", 3, "too large: limit check over 9 position sets is beyond desk scale"),
    ],
)
def test_a_negative_k_is_refused_before_the_limit_budget(runner, monkeypatch, k, code, message):
    # 27 good words fit the limit; 9 position sets times 27 words do not
    monkeypatch.setattr(blockwords, "K_LIMIT_WORK_LIMIT", 30)
    result = runner.invoke(main, ["lab", "klimit", "--u", "abbbabbba", "--k", k])
    assert result.exit_code == code
    assert result.stdout == ""
    assert result.stderr == f"{message}\n"


@pytest.mark.parametrize(
    "args, n",
    [
        (["lab", "klimit", "--u", "abbbabbba", "--k", "1", "--family", "1,2,3"], 9),
        (["lab", "klimit", "--u", "abab", "--k", "1", "--family", "abab,abab"], 4),
        (["lab", "flower", "-p", "2", "--family", "abab"], 4),
        (["lab", "tangled", "--k", "1", "--family", "1,2,3;2,3,1;3,1,2"], 9),
        (["lab", "tangled", "--n", "9", "--k", "1", "--family", "1,2,3;2,3,1;3,1,2"], 9),
        (["lab", "flower", "-p", "2"], 9),
        (["lab", "flower", "--n", "4", "-p", "2"], 4),
    ],
)
def test_lab_reports_the_family_length_as_n(runner, args, n):
    assert invoke_json(runner, args)["input"]["n"] == n


@pytest.mark.parametrize(
    "args, message",
    [
        (
            ["lab", "tangled", "--n", "16", "--k", "1", "--family", "1,2,3;2,3,1;3,1,2"],
            "--n 16 disagrees with the family's length 9",
        ),
        (
            ["lab", "flower", "--n", "9", "-p", "2", "--family", "abab"],
            "--n 9 disagrees with the family's length 4",
        ),
        (
            ["lab", "flower", "-p", "2", "--family", "abab,abbbabbba"],
            "family members differ in length: [4, 9]",
        ),
    ],
)
def test_lab_refuses_an_n_its_family_contradicts(runner, args, message):
    result = runner.invoke(main, args)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"usage error: {message}\n"


@pytest.mark.parametrize(
    "args",
    [
        ["lab", "flower", "--n", "-3", "--p", "2"],
        ["lab", "tangled", "--n", "-1", "--k", "1"],
        ["lab", "dichotomy", "--n", "-4", "--k", "1"],
        ["circuit", "adversary", "--fixture", "exact-good", "--n", "-1"],
        ["circuit", "eval", "--word", "ab", "--fixture", "exact-good", "--n", "-4"],
    ],
)
def test_a_negative_length_exits_two_in_one_line(runner, args):
    # a negative length used to reach isqrt and end in a ValueError traceback
    result = runner.invoke(main, args)
    n = args[args.index("--n") + 1]
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"invalid input: length {n} is not a positive perfect square\n"


# ---------------------------------------------------------------------------
# lab dichotomy


def test_dichotomy_seeded_run(runner):
    payload = invoke_json(
        runner, ["lab", "dichotomy", "--n", "9", "--k", "1", "--samples", "3", "--seed", "7"]
    )
    assert payload["input"] == {"n": 9, "k": 1, "samples": 3, "seed": 7}
    assert payload["passed"] is True
    verdicts = [(r["input"]["family_size"], r["verdict"]) for r in payload["results"]]
    assert verdicts == [(11, "bad-limit"), (7, "bad-limit"), (18, "bad-limit")]
    assert payload["results"][0]["witness"] == {
        "emptied_block": 1,
        "limit_word": "bbbabbbab",
        "source": "1,1,2",
    }


def test_dichotomy_same_seed_same_bytes(runner):
    args = ["lab", "dichotomy", "--samples", "5", "--k", "1", "--seed", "2", "--json"]
    first = runner.invoke(main, args)
    second = runner.invoke(main, args)
    assert first.output == second.output


# ---------------------------------------------------------------------------
# reduce


def test_expand_good_word(runner):
    payload = invoke_json(runner, ["reduce", "expand", "--word", "abbbabbba"])
    assert payload == {
        "input": {"word": "abbbabbba", "language": K_PATTERN},
        "good": True,
        "expanded": "accbcacbccab",
        "in_language": True,
    }


def test_expand_bad_word(runner):
    payload = invoke_json(runner, ["reduce", "expand", "--word", "abbbbbbab"])
    assert payload["good"] is False
    assert payload["in_language"] is False


def test_expand_non_square_exits_two(runner):
    result = runner.invoke(main, ["reduce", "expand", "--word", "abb"])
    assert result.exit_code == 2


def test_wire_good_word(runner):
    payload = invoke_json(runner, ["reduce", "wire", "--word", "abbbabbba"])
    assert payload["applicable"] is True
    assert payload["good"] is True
    assert payload["x"] == 4
    assert payload["y"] == 1
    assert payload["factors"] == 2
    assert payload["product"] == 4
    assert payload["up_word_accepts"] is True
    assert payload["monoid_word"]["monoid_ref"] == K_PATTERN
    assert len(payload["monoid_word"]["elements"]) == 40


def test_wire_bad_word(runner):
    payload = invoke_json(runner, ["reduce", "wire", "--word", "abbbbbbab"])
    assert payload["good"] is False
    assert payload["product"] == 3  # x y x collapses to the absorbing element
    assert payload["up_word_accepts"] is False


def test_wire_inapplicable_language(runner):
    payload = invoke_json(
        runner, ["reduce", "wire", "--word", "abab", "--lang", "(a+b)*", "--alphabet", "ab"]
    )
    assert payload["applicable"] is False
    assert "reason" in payload


not_a_block_word = pytest.mark.parametrize(
    "word, message",
    [
        ("xyz", "length 3 is not a positive perfect square"),
        ("abxb", "letter 'x' at position 3 is not a or b"),
    ],
    ids=["non-square", "foreign-letter"],
)


@pytest.mark.parametrize("lang", [[], ["--lang", "a*", "--alphabet", "a"]], ids=["fails", "holds"])
@not_a_block_word
def test_wire_refuses_a_word_that_is_not_a_block_word(runner, lang, word, message):
    # on a language that satisfies the equations the word was echoed, exit 0
    result = runner.invoke(main, ["reduce", "wire", "--word", word] + lang)
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"invalid input: {message}\n"


@not_a_block_word
def test_expand_refuses_a_word_that_is_not_a_block_word(runner, word, message):
    result = runner.invoke(main, ["reduce", "expand", "--word", word])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == f"invalid input: {message}\n"


def test_annotate(runner):
    payload = invoke_json(runner, ["reduce", "annotate", "--word", "abcabc", "--moduli", "2,3"])
    assert payload["annotated"] == [
        ["a", []],
        ["b", [2]],
        ["c", [3]],
        ["a", [2]],
        ["b", []],
        ["c", [2, 3]],
    ]


def test_annotate_bad_moduli_exit_two(runner):
    assert runner.invoke(main, ["reduce", "annotate", "--word", "ab", "--moduli", "x,2"]).exit_code == 2
    assert runner.invoke(main, ["reduce", "annotate", "--word", "ab", "--moduli", "0"]).exit_code == 2


# ---------------------------------------------------------------------------
# circuit


def test_circuit_eval_fixture(runner):
    payload = invoke_json(
        runner, ["circuit", "eval", "--word", "abbabbabb", "--fixture", "exact-good"]
    )
    assert payload["accepted"] is True
    assert payload["input"]["k"] == 1
    payload = invoke_json(
        runner, ["circuit", "eval", "--word", "bbbbbbbbb", "--fixture", "exact-good"]
    )
    assert payload["accepted"] is False


def test_circuit_eval_from_file(runner, tmp_path):
    path = tmp_path / "c.json"
    path.write_text(circuit_to_json(demo_accept_all(4)), encoding="utf-8")
    payload = invoke_json(
        runner, ["circuit", "eval", "--word", "abab", "--circuit", str(path)]
    )
    assert payload["accepted"] is True
    assert payload["input"]["circuit"] == str(path)


def test_circuit_source_must_be_unique(runner):
    assert runner.invoke(main, ["circuit", "eval", "--word", "a"]).exit_code == 2
    result = runner.invoke(
        main,
        ["circuit", "eval", "--word", "a", "--fixture", "accept-all", "--circuit", "x.json"],
    )
    assert result.exit_code == 2


def test_circuit_unknown_fixture_exits_two(runner):
    result = runner.invoke(main, ["circuit", "eval", "--word", "a", "--fixture", "nope"])
    assert result.exit_code == 2


def test_adversary_block_selector(runner):
    payload = invoke_json(runner, ["circuit", "adversary", "--fixture", "block-selector"])
    assert payload["status"] == "refuted"
    assert payload["densest_gate"] == 0
    assert payload["gate_family_size"] == 9
    assert payload["word"] == "abbbbbabb"
    assert payload["verification"] == {
        "accepted": True,
        "outside_language": True,
        "k_limit": True,
        "passed": True,
    }


def test_adversary_flower_oracle(runner):
    payload = invoke_json(
        runner,
        ["circuit", "adversary", "--fixture", "block-selector", "--oracle", "flower"],
    )
    assert payload["status"] == "refuted"
    assert payload["word"] == "abbbbbbbb"
    assert payload["verification"]["passed"] is True


def test_adversary_inconclusive(runner):
    payload = invoke_json(runner, ["circuit", "adversary", "--fixture", "exact-good"])
    assert payload["status"] == "hypothesis_not_met"
    assert payload["word"] is None
    assert "verification" not in payload


def test_adversary_fanin_above_k_exits_two(runner):
    result = runner.invoke(
        main, ["circuit", "adversary", "--fixture", "block-selector", "--k", "0"]
    )
    assert result.exit_code == 2


# ---------------------------------------------------------------------------
# exit codes


@pytest.mark.parametrize(
    "args, code",
    [
        (["analyze", "a", "--alphabet", "aa"], 2),
        (["reduce", "wire", "--word", "abbbabbba", "--lang", "a", "--alphabet", "aa"], 2),
        (["circuit", "eval", "--word", "a", "--fixture", "exact-good", "--n", "16"], 3),
        (["circuit", "adversary", "--fixture", "exact-good", "--n", "16"], 3),
        (["circuit", "eval", "--word", "abab", "--circuit", "{tmp}/missing.json"], 2),
        (["circuit", "eval", "--word", "abab", "--circuit", "{tmp}/bad.json"], 2),
        (["reduce", "expand", "--word", "abbbabbba"], 4),
        (["--bogus"], 2),
        (["lab", "--bogus"], 2),
        # negative sample counts are usage errors, not tracebacks or empty runs
        (["lab", "flower", "--n", "9", "-p", "2", "--sample", "-1"], 2),
        (["lab", "tangled", "--n", "9", "--k", "1", "--sample", "-2"], 2),
        (["lab", "dichotomy", "--samples", "-1"], 2),
        # an alphabet symbol that is not a string is refused before any gate runs
        (["circuit", "adversary", "--circuit", "{tmp}/int_letter.json"], 2),
    ],
)
def test_errors_exit_with_their_code_and_one_stderr_line(
    runner, tmp_path, monkeypatch, args, code
):
    (tmp_path / "bad.json").write_text('{"n": 9', encoding="utf-8")
    (tmp_path / "int_letter.json").write_text(
        '{"n": 4, "alphabet": ["a", 1], "k": 1, "top": [[{"pos": 1, "letter": "a"}]],'
        ' "and": [[0]], "bottom": [0]}',
        encoding="utf-8",
    )
    if code == 4:

        def failing_self_check(word):
            raise VerificationError("expansion keeps the block count")

        monkeypatch.setattr(cli, "expansion", failing_self_check)
    result = runner.invoke(main, [arg.format(tmp=tmp_path) for arg in args])
    assert result.exit_code == code, result.output
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1, result.stderr
    assert "Traceback" not in result.output
    if code == 4:
        assert result.stderr == "self-check failed: expansion keeps the block count\n"
    if args == ["--bogus"]:
        assert result.stderr == "usage error: No such option '--bogus'.\n"
    if "-1" in args or "-2" in args:
        assert result.stderr.startswith("usage error: Invalid value for '--sample")


def test_a_circuit_file_with_fractional_numbers_exits_two(runner, tmp_path):
    # int() once read this as n=4, k=1, pos 1, and-gate 0, bottom 0 and exited 0
    path = tmp_path / "fractional.json"
    path.write_text(
        '{"n": 4.7, "k": 1.9, "alphabet": "ab", "top": [[{"pos": true, "letter": "a"}]],'
        ' "and": [[0.5]], "bottom": ["0"]}',
        encoding="utf-8",
    )
    result = runner.invoke(main, ["circuit", "eval", "--word", "abab", "--circuit", str(path)])
    assert result.exit_code == 2
    assert result.stdout == ""
    assert result.stderr == "invalid input: malformed circuit payload: expected int, got 4.7\n"


def test_an_order_with_no_separating_context_exits_4(runner, monkeypatch):
    # no state lies below any other, not even itself, so no element does
    # either and x <= xyx is denied for x = y = 1, where no context can
    # separate; the fault sits in the data both order queries read
    build = monoids.transition_monoid

    def unordered(d, max_size=monoids.MONOID_SIZE_LIMIT):
        h = build(d, max_size)
        return replace(h, state_order=(0,) * len(h.state_order))

    monkeypatch.setattr(monoids, "transition_monoid", unordered)
    result = runner.invoke(main, ["analyze", K_PATTERN, "--alphabet", "abc"])
    assert result.exit_code == 4, result.output
    assert result.stdout == ""
    assert len(result.stderr.splitlines()) == 1, result.stderr
    assert result.stderr.startswith("self-check failed: ")


@pytest.mark.parametrize("group", ["lab", "reduce", "circuit"])
def test_bare_group_prints_its_help_like_the_bare_top_group(runner, group):
    top = runner.invoke(main, [])
    result = runner.invoke(main, [group])
    assert result.exit_code == top.exit_code
    assert top.output.startswith("Usage: ")
    assert result.output.startswith("Usage: ")
    assert f" {group} [OPTIONS] COMMAND [ARGS]..." in result.output
    assert main.commands[group].help.splitlines()[0] in result.output
    assert "usage error" not in result.output


def test_every_recorded_command_prints_its_recorded_bytes(runner):
    recorded = json.loads(RECORDED.read_text(encoding="utf-8"))
    assert recorded
    differ = []
    for key, want in recorded.items():
        result = runner.invoke(main, json.loads(key))
        got = (result.exit_code, hashlib.sha256(result.stdout_bytes).hexdigest())
        if got != (want["exit"], want["sha256"]):
            differ.append(key)
    assert differ == [], f"commands whose exit code or stdout changed: {differ}"


# the line-mode stdout of one command per verdict shape, which the
# recorded commands above (all --json) leave unpinned
LINE_MODE_SHA256 = {
    "lab klimit --u abbb --k 1": "4d386c6975b4b63e162c42e2e1c462de6808f6a17b9563faa0f742640ac6adbd",
    "lab klimit --u baba --family abab --k 1": "3318de5b27d2778cf5916c3dd7b76cd275faa296f5dc9ec75384e69b5b3ebde2",
    "lab flower --n 9 -p 2": "f58239b44c3e3c453ddf502b67e69616322c476859b0242c8bea8fb315cbe8fc",
    "lab flower --n 4 -p 3 --family abab": "20927ca4dab564d9da9e890338d908e2221744792a292eb7a24712f94cfdeaf0",
    "lab tangled --n 9 --k 1 --family 1,1,1;2,2,2;3,3,3": "c12494306c9d6399ac038d11f64ba2e07c018adc12748ede6db11fb147e7c2ef",
    "lab tangled --n 9 --k 1": "c703423c7c23f29b3dcad06ad262ddb308d8d8ae40ac4bb697888bee0c68719d",
    "lab dichotomy --n 9 --k 1 --samples 4 --seed 4": "ab75b0ffb5a3d488c4848deb893f5b11bb631a6b373e3dc5425bad690181964a",
    "reduce expand --word abbbabbba": "289241b9639428c6cea91520d2554651d29711091679c8439a29ddee247e8f57",
    "reduce wire --word abbbabbba": "383f8f4ce68ddb3ff252388246d9df2c34ce39f1901c25165fd0cd86373983f8",
    "reduce wire --word abab --lang (a+b)* --alphabet ab": "a49abcc0978bb1fe5f262b5077f1079dcd070814f2505a260dde024ffb9cfead",
    "reduce annotate --word abbab --moduli 2,3": "9c63a92520d42d9354e60d8835d6ce93d3bd34b80e36700f35eee760088b2e97",
    "circuit eval --word abbbabbba --fixture block-selector": "94b289f9a885e76b3a4ce17681b25a6df65dd6c1de0c7e5564a8e31297f62ff8",
    "circuit adversary --fixture block-selector": "8f79e97f824d9d88063bd4b041571ea701a526c199854265c5f0a88899d0e9a0",
    "circuit adversary --fixture exact-good": "782da6ebba6ca3681fb0ad427f87087dfdb3568bbe417f26cecedc1087d3a6f5",
    "analyze (ac*b+c)* --alphabet abc": "173c4704f911ffab23d510903fc6cc278791fb6c4af65867bb9efa03e798feca",
    "analyze (a(ac*b+c)*b+c)* --alphabet abc": "683f41503cdfc503ff4628fe77bf4dc84bc51f346adac1e629e1643acd299f2c",
}


@pytest.mark.parametrize("command", LINE_MODE_SHA256)
def test_line_mode_prints_its_recorded_bytes(runner, command):
    result = runner.invoke(main, command.split())
    assert result.exit_code == 0, result.output
    assert hashlib.sha256(result.stdout_bytes).hexdigest() == LINE_MODE_SHA256[command]
