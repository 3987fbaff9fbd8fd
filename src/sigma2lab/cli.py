"""Command line front end.

Every command assembles one payload dictionary and prints it either as
stable JSON (--json: sorted keys, two-space indent, no timestamps) or
as indented key: value lines rendered from the same dictionary. Exit
codes, each failure with one line on stderr: 0 on success; 2 for
malformed input, from click's usage errors to regex syntax and bad
families or circuits; 3 when a resource guard trips (the transition
monoid outgrows its limit, a construction or search is asked for beyond
its size cap or budget); 4 when a self-check fails, naming the claim that
failed.

Lab experiments all report through the same frame: the input that was
run, the verdict, the witness backing it, and a verification block that
re-checks the witness from scratch.

Each command imports the algebra and lab modules it runs when it runs
them, so a process loads only its own command's modules: importing this
module loads none of languages, monoids, entailment, flowers or circuits.
"""

from __future__ import annotations

import random
from itertools import combinations
from typing import TYPE_CHECKING

import click

from .blockwords import (
    agree_on,
    block_count,
    check_block_word,
    check_limit_budget,
    count_good,
    enumerate_good,
    is_good,
    k_limit_counterexample,
    packed_from_str,
    packed_to_str,
    tau,
    unpack,
)
from .errors import (
    MONOID_SIZE_LIMIT,
    MonoidSizeError,
    RegexSyntaxError,
    SizeGuardError,
    ToolkitError,
    UnknownSymbolError,
    VerificationError,
)
from .reductions import expansion, factorize_subword_witness, p_annotate, wiring
from .reports import class_report_to_dict, render_lines, to_json, verification

if TYPE_CHECKING:
    from .circuits import Sigma2Circuit

GOOD_BLOCK_LANGUAGE = "(ac*b+c)*"

# each fixture's builder in circuits, looked up when the fixture is loaded
FIXTURES = {
    "block-selector": "demo_block_selector",
    "accept-all": "demo_accept_all",
    "exact-good": "demo_exact_good",
}

json_option = click.option(
    "--json", "as_json", is_flag=True, help="print stable JSON instead of lines"
)
circuit_option = click.option(
    "--circuit",
    "path",
    type=click.Path(exists=True, dir_okay=False),
    default=None,
    help="path to a circuit JSON file",
)

# exit code and stderr label of every library error, looked up along the
# error's class hierarchy; ToolkitError covers the remaining input errors
EXIT_CODES: dict[type, tuple[int, str]] = {
    ToolkitError: (2, "invalid input"),
    RegexSyntaxError: (2, "syntax error"),
    UnknownSymbolError: (2, "syntax error"),
    MonoidSizeError: (3, "monoid too large"),
    SizeGuardError: (3, "too large"),
    VerificationError: (4, "self-check failed"),
}


# click 8.2+ shows a bare group's help by raising this usage error, which
# must reach click's own handler to print the help
_NO_ARGS_IS_HELP = getattr(click.exceptions, "NoArgsIsHelpError", ())


class _Main(click.Group):
    """The top group: every failure in or below it leaves with one stderr line."""

    def parse_args(self, ctx: click.Context, args: list[str]) -> list[str]:
        return _one_line_errors(ctx, super().parse_args, ctx, args)

    def invoke(self, ctx: click.Context):
        return _one_line_errors(ctx, super().invoke, ctx)


def _one_line_errors(ctx: click.Context, run, *args):
    try:
        return run(*args)
    except _NO_ARGS_IS_HELP:
        raise
    except click.UsageError as exc:
        code, label, message = exc.exit_code, "usage error", exc.format_message()
    except ToolkitError as exc:
        code, label = next(EXIT_CODES[c] for c in type(exc).__mro__ if c in EXIT_CODES)
        message = str(exc)
    click.echo(f"{label}: {message}", err=True)
    ctx.exit(code)


def _emit(payload: dict, as_json: bool) -> None:
    if as_json:
        click.echo(to_json(payload))
    else:
        for line in render_lines(payload):
            click.echo(line)


@click.group(cls=_Main)
def main() -> None:
    """Language classification and the block-word laboratory."""


# ---------------------------------------------------------------------------
# analyze


@main.command()
@click.argument("regex")
@click.option("--alphabet", required=True, help="single-letter symbols, e.g. abc")
@click.option(
    "--monoid-limit",
    type=click.IntRange(min=1),
    default=MONOID_SIZE_LIMIT,
    show_default=True,
    help="abort (exit 3) if the transition monoid grows beyond this",
)
@json_option
def analyze(regex: str, alphabet: str, monoid_limit: int, as_json: bool) -> None:
    """Classify REGEX within the two-quantifier-block classes."""
    from .languages import compile_pattern
    from .monoids import classify_recognition, recognize

    rec = recognize(compile_pattern(regex, tuple(alphabet)), max_size=monoid_limit)
    report = classify_recognition(rec, description=regex)
    _emit(class_report_to_dict(rec, report), as_json)


# ---------------------------------------------------------------------------
# lab


@main.group()
def lab() -> None:
    """Limits, flowers, tangled families, and the dichotomy."""


def _parse_family(
    n: int | None, family: str, default_n: int, k: int | None = None
) -> tuple[int, list[str]]:
    """The word length and the words of a family.

    The keyword good takes n from --n, or default_n when --n is not
    given; with k given, a good family that the tangledness search would
    refuse is refused before it is built. Packed members split on ';', or
    words on ',', fix n as their common length, and a given --n that
    disagrees is a usage error.
    """
    if family == "good":
        n = default_n if n is None else n
        if k is not None:
            from .entailment import check_search_budget

            check_search_budget(block_count(n), k)
        return n, enumerate_good(n)
    if ";" in family or "_" in family or any(ch.isdigit() for ch in family):
        words = [unpack(packed_from_str(part)) for part in family.split(";")]
    else:
        words = family.split(",")
    lengths = sorted({len(w) for w in words})
    if len(lengths) > 1:
        raise click.UsageError(f"family members differ in length: {lengths}")
    if n is not None and n != lengths[0]:
        raise click.UsageError(f"--n {n} disagrees with the family's length {lengths[0]}")
    return lengths[0], words


def _recheck_k_limit(u: str, words: list[str], k: int) -> bool:
    """The k-limit definition, member by member, independent of the library's masks."""
    probes = combinations(range(1, len(u) + 1), min(k, len(u)))
    return all(any(agree_on(u, w, ps) for w in words) for ps in probes)


def _sampled(words: list[str], sample: int, seed: int) -> list[str]:
    if not sample:
        return words
    if sample > len(words):
        raise click.UsageError(f"cannot sample {sample} from {len(words)} words")
    return sorted(random.Random(seed).sample(words, sample))


@lab.command()
@click.option("--u", "u", required=True, help="the candidate limit word")
@click.option("--k", "-k", "k", type=int, required=True)
@click.option(
    "--family",
    default="good",
    show_default=True,
    help="good, packed members joined by ';', or words joined by ','",
)
@json_option
def klimit(u: str, k: int, family: str, as_json: bool) -> None:
    """Check whether a block word is a k-limit of a family of block words as long as u."""
    check_block_word(u)
    if family == "good" and k >= 0:  # a negative k is k_limit_counterexample's PackError
        check_limit_budget(len(u), k, count_good(len(u)))
    words = _parse_family(None, family, len(u))[1]
    for w in words:
        check_block_word(w)
    ce = k_limit_counterexample(u, words, k)
    if ce is None:
        checks = {"recheck_is_limit": _recheck_k_limit(u, words, k)}
    else:
        checks = {"no_member_matches": not any(agree_on(u, w, ce) for w in words)}
    _emit(
        {
            "input": {"u": u, "n": len(u), "k": k, "family": family, "family_size": len(words)},
            "verdict": ce is None,
            "witness": None if ce is None else {"unmatched_positions": sorted(ce)},
            "verification": verification(checks),
        },
        as_json,
    )


@lab.command()
@click.option(
    "--n", type=int, default=None, help="length of the good family; defaults to 9"
)
@click.option("--p", "-p", "--petals", "p", type=int, required=True)
@click.option("--family", default="good", show_default=True)
@click.option(
    "--sample", type=click.IntRange(min=0), default=0, help="restrict to a random subfamily"
)
@click.option("--seed", default=0, show_default=True)
@json_option
def flower(
    n: int | None, p: int, family: str, sample: int, seed: int, as_json: bool
) -> None:
    """Find a flower among the position sets of a family of block words."""
    from .flowers import find_flower, verify_flower

    n, words = _parse_family(n, family, 9)
    words = _sampled(words, sample, seed)
    sets = [tau(w) for w in words]
    fl = find_flower(sets, p)
    payload: dict = {
        "input": {"n": n, "p": p, "family": family, "family_size": len(set(words))},
        "verdict": fl is not None,
    }
    if fl is None:
        payload["witness"] = None
        payload["verification"] = verification({})
    else:
        payload["witness"] = {
            "core": sorted(fl.core),
            "petals": [sorted(petal) for petal in fl.petals],
        }
        ok = verify_flower(fl, sets, p)
        payload["verification"] = verification({"flower_property": ok})
    _emit(payload, as_json)


@lab.command()
@click.option(
    "--n", type=int, default=None, help="length of the good family; defaults to 9"
)
@click.option("--k", "-k", "k", type=int, required=True)
@click.option("--family", default="good", show_default=True)
@click.option("--sample", type=click.IntRange(min=0), default=0)
@click.option("--seed", default=0, show_default=True)
@json_option
def tangled(
    n: int | None, k: int, family: str, sample: int, seed: int, as_json: bool
) -> None:
    """Decide tangledness; each verdict ships with its consequence."""
    from .entailment import dichotomy_suite

    n, words = _parse_family(n, family, 9, k)
    words = _sampled(words, sample, seed)
    result = dichotomy_suite(words, k)
    payload: dict = {
        "input": {"n": n, "k": k, "family": family, "family_size": result.family_size},
        "verdict": result.tangled,
    }
    if result.tangled:
        enc = result.encoding
        checks = {
            "distinct_codes": len(set(enc.codes.values())) == len(enc.codes),
            "within_bound": len(enc.codes) <= enc.bound,
        }
        payload["witness"] = None
        payload["verification"] = verification(checks, bound=enc.bound)
    else:
        limit = result.limit
        payload["witness"] = {
            "member": packed_to_str(limit.source),
            "position": limit.block,
            "limit_word": limit.word,
        }
        checks = {
            "not_good": not is_good(limit.word),
            "k_limit": _recheck_k_limit(limit.word, words, k),
        }
        payload["verification"] = verification(checks)
    _emit(payload, as_json)


@lab.command()
@click.option("--n", type=int, default=9, show_default=True)
@click.option("--k", "-k", "k", type=int, required=True)
@click.option("--samples", type=click.IntRange(min=0), default=20, show_default=True)
@click.option("--seed", default=0, show_default=True)
@json_option
def dichotomy(n: int, k: int, samples: int, seed: int, as_json: bool) -> None:
    """Run sampled families through both sides of the dichotomy."""
    from .entailment import check_search_budget, dichotomy_suite

    if samples:  # refused before the family is built
        check_search_budget(block_count(n), k)
    pool = enumerate_good(n)
    rng = random.Random(seed)
    results = []
    for trial in range(samples):
        words = sorted(rng.sample(pool, rng.randint(1, len(pool))))
        result = dichotomy_suite(words, k)
        entry: dict = {
            "input": {"trial": trial, "family_size": result.family_size},
            "verdict": "tangled" if result.tangled else "bad-limit",
        }
        if result.tangled:
            entry["witness"] = {
                "bound": result.encoding.bound,
                "members": len(result.encoding.codes),
            }
        else:
            entry["witness"] = {
                "limit_word": result.limit.word,
                "source": packed_to_str(result.limit.source),
                "emptied_block": result.limit.block,
            }
        # dichotomy_suite has already re-verified whichever side applies
        entry["verification"] = verification({})
        results.append(entry)
    _emit(
        {
            "input": {"n": n, "k": k, "samples": samples, "seed": seed},
            "results": results,
            "passed": all(r["verification"]["passed"] for r in results),
        },
        as_json,
    )


# ---------------------------------------------------------------------------
# reduce


@main.group()
def reduce() -> None:
    """Maps between block words, languages, and monoid words."""


@reduce.command()
@click.option("--word", required=True)
@json_option
def expand(word: str, as_json: bool) -> None:
    """Expand a word and test the image against the block language."""
    from .languages import accepts, compile_pattern

    expanded = expansion(word)
    d = compile_pattern(GOOD_BLOCK_LANGUAGE, "abc")
    _emit(
        {
            "input": {"word": word, "language": GOOD_BLOCK_LANGUAGE},
            "good": is_good(word),
            "expanded": expanded,
            "in_language": accepts(d, expanded),
        },
        as_json,
    )


@reduce.command()
@click.option("--word", required=True)
@click.option("--lang", default=GOOD_BLOCK_LANGUAGE, show_default=True)
@click.option("--alphabet", default="abc", show_default=True)
@json_option
def wire(word: str, lang: str, alphabet: str, as_json: bool) -> None:
    """Wire a word through the failing equation pair of a language."""
    from .languages import compile_pattern
    from .monoids import check_sigma2, recognize, subword_relation

    check_block_word(word)
    rec = recognize(compile_pattern(lang, tuple(alphabet)))
    w = check_sigma2(rec, subword_relation(rec.monoid))
    if w is None:
        _emit(
            {
                "input": {"word": word, "lang": lang},
                "applicable": False,
                "reason": "language satisfies the equations; nothing to wire against",
            },
            as_json,
        )
        return
    fact = factorize_subword_witness(rec.monoid, w.pair_witness.word, w.pair_witness.positions)
    wired = wiring(fact, word)
    product = rec.monoid.product(wired)
    _emit(
        {
            "input": {"word": word, "lang": lang},
            "applicable": True,
            "good": is_good(word),
            "x": w.x,
            "y": w.y,
            "factors": len(fact.xs),
            "monoid_word": {"monoid_ref": lang, "elements": list(wired)},
            "product": product,
            "up_word_accepts": rec.leq(w.x, product),
        },
        as_json,
    )


@reduce.command()
@click.option("--word", required=True)
@click.option("--moduli", required=True, help="comma separated, e.g. 2,3")
@json_option
def annotate(word: str, moduli: str, as_json: bool) -> None:
    """Attach divisor sets to every position of a word."""
    try:
        mods = [int(p) for p in moduli.split(",")]
    except ValueError:
        raise click.UsageError(f"moduli {moduli!r} must be comma separated integers")
    annotated = p_annotate(word, mods)
    _emit(
        {
            "input": {"word": word, "moduli": sorted(set(mods))},
            "annotated": [[sym, list(divs)] for sym, divs in annotated],
        },
        as_json,
    )


# ---------------------------------------------------------------------------
# circuit


@main.group()
def circuit() -> None:
    """Evaluate the depth-3 circuits and run the adversary on them."""


def _load_circuit(fixture: str | None, path: str | None, n: int) -> tuple[str, Sigma2Circuit]:
    from . import circuits

    if (fixture is None) == (path is None):
        raise click.UsageError("give exactly one of --fixture or --circuit")
    if fixture is not None:
        if fixture not in FIXTURES:
            raise click.UsageError(
                f"unknown fixture {fixture!r}; choose from {sorted(FIXTURES)}"
            )
        return fixture, getattr(circuits, FIXTURES[fixture])(n)
    with open(path, "r", encoding="utf-8") as fh:
        return path, circuits.circuit_from_json(fh.read())


@circuit.command("eval")
@click.option("--word", required=True)
@click.option("--fixture", default=None, help=f"one of {sorted(FIXTURES)}")
@circuit_option
@click.option("--n", type=int, default=9, show_default=True, help="fixture word length")
@json_option
def eval_cmd(
    word: str, fixture: str | None, path: str | None, n: int, as_json: bool
) -> None:
    """Evaluate a circuit on a word."""
    from .circuits import eval_circuit

    name, c = _load_circuit(fixture, path, n)
    _emit(
        {
            "input": {"word": word, "circuit": name, "n": c.n, "k": c.k, "size": c.size},
            "accepted": eval_circuit(c, word),
        },
        as_json,
    )


@circuit.command("adversary")
@click.option("--fixture", default=None, help=f"one of {sorted(FIXTURES)}")
@circuit_option
@click.option("--n", type=int, default=9, show_default=True, help="fixture word length")
@click.option("--k", "-k", "k", type=int, default=1, show_default=True)
@click.option(
    "--oracle",
    "oracle_name",
    type=click.Choice(["entailment", "flower"]),
    default="entailment",
    show_default=True,
)
@json_option
def adversary_cmd(
    fixture: str | None,
    path: str | None,
    n: int,
    k: int,
    oracle_name: str,
    as_json: bool,
) -> None:
    """Pit a circuit accepting every good word against a limit oracle."""
    from .circuits import adversary, eval_and, eval_circuit

    name, c = _load_circuit(fixture, path, n)
    words = enumerate_good(c.n)
    if oracle_name == "entailment":
        from .entailment import bad_limit_via_entailment as oracle
    else:
        from .flowers import bad_limit_via_flower as oracle
    result = adversary(c, words, k, oracle, lambda u: not is_good(u))
    payload: dict = {
        "input": {"circuit": name, "n": c.n, "k": k, "oracle": oracle_name},
        "status": result.status,
        "densest_gate": result.gate,
        "gate_family_size": result.family_size,
        "word": result.word,
    }
    if result.status == "refuted":
        gate_family = [w for w in words if eval_and(c, result.gate, w)]
        checks = {
            "accepted": eval_circuit(c, result.word),
            "outside_language": not is_good(result.word),
            "k_limit": _recheck_k_limit(result.word, gate_family, k),
        }
        payload["verification"] = verification(checks)
    _emit(payload, as_json)


if __name__ == "__main__":
    main()
