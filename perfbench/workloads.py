"""The workloads: seeded task lists, the calls they time, and their checks.

BENCHMARK.json lists classify, lab-limits and cli-cold. lab-tangled runs
on request (--workload lab-tangled, or with every workload when none is
named): a fourth workload would cut every run to about 30 seconds in the
benchmark's time budget, and shorter runs repeat less well on a shared
machine.

Every task is one closed-loop call into sigma2lab's public functions (or
one fresh CLI process for cli-cold): the next task starts when the
previous one returns. Inputs come from ``random.Random(seed)`` and from
fixed ladders, never from the code under test. Each task carries a
check that runs outside the timed region and raises CheckFailed when
the output disagrees with an answer computed here.
"""

from __future__ import annotations

import hashlib
import json
import os
import random
import subprocess
import sys
from dataclasses import dataclass, field
from itertools import product
from pathlib import Path
from typing import Any, Callable

from perfbench import checks
from perfbench.checks import CheckFailed, expect
from perfbench.paths import ROOT, SRC

EXPECTED_CLI = Path(__file__).resolve().parent / "expected" / "cli_cold.json"


@dataclass
class Task:
    label: str
    key: str  # canonical text of the input; the task-list digest hashes these
    run: Callable[[], Any]  # the timed call
    check: Callable[[Any], None]  # untimed; raises CheckFailed


@dataclass
class Workload:
    name: str
    tasks: list[Task]
    # the same inputs run in-process for the traced pass, where that differs
    traced_tasks: list[Task] | None = None
    # peak resident set of the processes doing the work, in MiB; None: this process
    peak_rss_mb: Callable[[], float] | None = None
    digest: str = field(init=False)

    def __post_init__(self) -> None:
        h = hashlib.sha256()
        for t in self.tasks:
            h.update(t.key.encode() + b"\n")
        self.digest = h.hexdigest()


def verified_once(verify: Callable[[Any], None], summary: Callable[[Any], Any]):
    """A check that verifies an output in full once, then by equality.

    Outputs are deterministic, so later passes only have to reproduce
    the summary of the output that passed the full verification.
    """
    passed: list = []

    def check(out) -> None:
        key = summary(out)
        if passed and passed[0] == key:
            return
        verify(out)
        passed[:] = [key]

    return check


# ---------------------------------------------------------------------------
# classify: regex or DFA -> analyze pipeline -> JSON


def _shift_register(k: int) -> tuple[tuple[tuple[int, ...], ...], frozenset[int]]:
    """(a+b)*a(a+b)^k: remember the last k+1 letters, bit set for a."""
    width = k + 1
    mask = (1 << width) - 1
    delta = tuple(tuple(((q << 1) | bit) & mask for bit in (1, 0)) for q in range(1 << width))
    return delta, frozenset(q for q in range(1 << width) if q >> k & 1)


def _full_transformation_dfa(n: int) -> tuple[tuple[tuple[int, ...], ...], frozenset[int]]:
    """Letters act as a cycle, a transposition and a merge: they generate T_n."""
    cycle = [(q + 1) % n for q in range(n)]
    swap = [1, 0] + list(range(2, n))
    merge = [0, 0] + list(range(2, n))
    return tuple((cycle[q], swap[q], merge[q]) for q in range(n)), frozenset({0})


# label, pattern (None: DFA input), alphabet, DFA written out by hand,
# sigma2, pi2, monoid size. Verdicts: K is Pi2 and not Sigma2 (the paper's
# separating language); the nested block language is neither; a letter
# anywhere is Sigma1; a fixed letter k+1 from the end is Delta2; T3 and T4
# contain nontrivial groups, so they are not even first-order definable.
_K_DFA = (((1, 2, 0), (2, 0, 1), (2, 2, 2)), frozenset({0}))
_NESTED_DFA = (((1, 3, 0), (2, 0, 1), (3, 1, 2), (3, 3, 3)), frozenset({0}))
_MARKED_DFA = (((1, 0), (1, 1)), frozenset({1}))

LADDER = [
    ("K", "(ac*b+c)*", "abc", _K_DFA, False, True, 6),
    ("nested", "(a(ac*b+c)*b+c)*", "abc", _NESTED_DFA, False, False, 15),
    ("marked", "(a+b)*a(a+b)*", "ab", _MARKED_DFA, True, True, 2),
] + [
    (f"ab^{k}", "(a+b)*a" + "(a+b)" * k, "ab", _shift_register(k), True, True, 2 ** (k + 2) - 1)
    for k in range(3, 7)
] + [
    (f"T{n}", None, "abc", _full_transformation_dfa(n), False, False, n**n) for n in (3, 4)
]

# Left out: ab^7 (M=511), ab^8 (M=1023) and T5 (M=3125) take 20 s to
# minutes each at the baseline, beyond desk time for one task.

RANDOM_STATES = 4
RANDOM_LETTERS = "abc"
# How many random DFAs to draw with each syntactic monoid size M. Work
# grows like M^3, so fixing the multiset of sizes keeps every seed's pass
# the same mix of cheap and expensive inputs; the seed picks the automata.
# The sizes are common ones among uniform 4-state DFAs over abc (median
# 24). The rich end, where one task takes seconds, is the ladder's ab^5,
# ab^6 and T4. With the ladder, the median task falls in the middle of
# the twenty M=24 automata and the 90th percentile in the middle of the
# ten M=48 ones, so neither percentile sits on a jump in cost.
RANDOM_PROFILE = {
    1: 17, 4: 6, 8: 4, 12: 8, 13: 5, 16: 7, 17: 5, 24: 20,
    27: 4, 30: 4, 31: 4, 36: 3, 38: 3, 40: 10, 43: 6, 48: 10, 67: 2, 79: 2,
}


def random_dfas(seed: int) -> list[tuple[tuple[tuple[int, ...], ...], frozenset[int], int]]:
    """Seeded random 4-state DFAs over abc, drawn until RANDOM_PROFILE is filled."""
    rng = random.Random(seed)
    wanted = dict(RANDOM_PROFILE)
    out = []
    while len(out) < sum(RANDOM_PROFILE.values()):
        delta = tuple(
            tuple(rng.randrange(RANDOM_STATES) for _ in RANDOM_LETTERS) for _ in range(RANDOM_STATES)
        )
        accepting = frozenset(q for q in range(RANDOM_STATES) if rng.random() < 0.5)
        m = checks.monoid_size(len(RANDOM_LETTERS), delta, accepting, limit=max(RANDOM_PROFILE))
        if wanted.get(m):
            wanted[m] -= 1
            out.append((delta, accepting, m))
    return out


def _analyze(languages, monoids, reports, pattern, alphabet, dfa, label):
    def run() -> str:
        d = languages.compile_pattern(pattern, alphabet) if pattern is not None else dfa
        rec = monoids.recognize(d)
        report = monoids.classify_recognition(rec, description=label)
        return reports.to_json(reports.class_report_to_dict(rec, report))

    return run


def _classify_check(n_letters, delta, accepting, monoid_size, verdicts):
    def verify(text: str) -> None:
        payload = json.loads(text)
        expect(payload["monoid"]["size"] == monoid_size, f"monoid size {payload['monoid']['size']} != {monoid_size}")
        sigma2, pi2 = payload["sigma2_lt"]["holds"], payload["pi2_lt"]["holds"]
        if verdicts is not None:
            expect((sigma2, pi2) == verdicts, f"verdicts {(sigma2, pi2)} != {verdicts}")
        delta2 = payload["delta2_lt"]["holds"]
        expect(delta2 == (sigma2 and pi2), "delta2 is not sigma2 and pi2")
        da = checks.is_da(n_letters, delta, accepting)
        expect(delta2 == da, f"delta2 {delta2} but membership in DA is {da}")
        for side in ("sigma2_lt", "pi2_lt"):
            if "witness" in payload[side]:
                expect(payload[side]["replay"]["passed"] is True, f"{side} witness replay failed")

    return verified_once(verify, lambda text: text)


def classify(seed: int) -> Workload:
    from sigma2lab import languages, monoids, reports

    tasks = []
    for label, pattern, alphabet, (delta, accepting), sigma2, pi2, m in LADDER:
        dfa = None
        if pattern is None:
            dfa = languages.Dfa(tuple(alphabet), len(delta), 0, accepting, delta)
        tasks.append(
            Task(
                label,
                f"ladder {label} {pattern or delta}",
                _analyze(languages, monoids, reports, pattern, alphabet, dfa, label),
                _classify_check(len(alphabet), delta, accepting, m, (sigma2, pi2)),
            )
        )
    for i, (delta, accepting, m) in enumerate(random_dfas(seed)):
        label = f"random-{i:03d}"
        dfa = languages.Dfa(tuple(RANDOM_LETTERS), RANDOM_STATES, 0, accepting, delta)
        tasks.append(
            Task(
                label,
                f"dfa {delta} {sorted(accepting)}",
                _analyze(languages, monoids, reports, None, RANDOM_LETTERS, dfa, label),
                _classify_check(len(RANDOM_LETTERS), delta, accepting, m, None),
            )
        )
    return Workload("classify", tasks)


# ---------------------------------------------------------------------------
# the laboratory at n = 25


def good_words(r: int) -> list[str]:
    """All good words with r blocks, written out here rather than by the lab."""
    return [
        "".join("b" * (c - 1) + "a" + "b" * (r - c) for c in packed)
        for packed in product(range(1, r + 1), repeat=r)
    ]


def _check_limit(word: str, family: list[str], k: int, what: str) -> None:
    expect(checks.has_empty_block(word), f"{what} {word} has no empty block")
    expect(checks.is_k_limit(word, family, k), f"{what} {word} is not a {k}-limit")


def _check_tangled_side(result, family: list[str]) -> None:
    codes = list(result.encoding.codes.values())
    expect(len(codes) == len(set(family)), "not every member was encoded")
    expect(len(set(codes)) == len(codes), "two members share a code")


LIMIT_FAMILIES_PER_K = 44
LIMIT_SIZES = (100, 500)  # family sizes, log-spaced over this range
ADVERSARY_ROUNDS = 4  # per (k, oracle)
ADVERSARY_SIZES = (200, 1500)


def _log_spaced(count: int, lo: int, hi: int) -> list[int]:
    """The midpoints of count equal slices of [log lo, log hi].

    Work grows with family size, so fixed sizes keep every seed's pass the
    same amount of work; the seed picks the members.
    """
    return [round(lo * (hi / lo) ** ((j + 0.5) / count)) for j in range(count)]


def lab_limits(seed: int) -> Workload:
    from sigma2lab import blockwords, circuits, entailment, flowers

    rng = random.Random(seed)
    pool = good_words(5)
    tasks = []
    for k in (1, 2):
        for size in _log_spaced(LIMIT_FAMILIES_PER_K, *LIMIT_SIZES):
            family = sorted(rng.sample(pool, size))

            def run(family=family, k=k):
                return entailment.dichotomy_suite(family, k), flowers.bad_limit_via_flower(family, k)

            def verify(out, family=family, k=k):
                result, flower = out
                if result.tangled:
                    _check_tangled_side(result, family)
                else:
                    _check_limit(result.limit.word, family, k, "dichotomy limit")
                if flower is not None:
                    _check_limit(flower.word, family, k, "flower limit")

            def summary(out):
                result, flower = out
                return (result.tangled, result.limit and result.limit.word, flower and flower.word)

            tasks.append(
                Task(
                    f"family-k{k}-{size}",
                    f"family k={k} {family}",
                    run,
                    verified_once(verify, summary),
                )
            )

    selector = circuits.demo_block_selector(25)
    oracles = {"entailment": entailment.bad_limit_via_entailment, "flower": flowers.bad_limit_via_flower}
    sizes = _log_spaced(4 * ADVERSARY_ROUNDS, *ADVERSARY_SIZES)
    rng.shuffle(sizes)
    for j, (k, oracle) in enumerate(product((1, 2), sorted(oracles))):
        for size in sizes[j * ADVERSARY_ROUNDS : (j + 1) * ADVERSARY_ROUNDS]:
            accepted = sorted(rng.sample(pool, size))

            def run(accepted=accepted, k=k, oracle=oracles[oracle]):
                return circuits.adversary(selector, accepted, k, oracle, lambda u: not blockwords.is_good(u))

            def verify(res, accepted=accepted, k=k):
                if res.status == "hypothesis_not_met":
                    expect(res.word is None, "an inconclusive round returned a word")
                    return
                expect(res.status == "refuted", f"unknown status {res.status}")
                gate_family = [w for w in accepted if _and_gate_accepts(selector, res.gate, w)]
                expect(len(gate_family) == res.family_size, "gate family size differs")
                _check_limit(res.word, gate_family, k, "adversary word")
                expect(_circuit_accepts(selector, res.word), "refuting word is rejected by the circuit")

            tasks.append(
                Task(
                    f"adversary-{oracle}-k{k}-{size}",
                    f"adversary {oracle} k={k} {accepted}",
                    run,
                    verified_once(verify, lambda res: (res.status, res.gate, res.word)),
                )
            )
    return Workload("lab-limits", tasks)


def _and_gate_accepts(c, gate: int, w: str) -> bool:
    # the circuit's own tuples, read here: AND of ORs of (position, letter) literals
    return all(any(w[p - 1] == sym for p, sym in c.top[o]) for o in c.ands[gate])


def _circuit_accepts(c, w: str) -> bool:
    return any(_and_gate_accepts(c, g, w) for g in c.bottom)


def affine_code() -> list[str]:
    """mu_(a,b) has content a + j*b mod 5 in block j: two blocks fix the member."""
    return [
        "".join("b" * ((x + j * y) % 5) + "a" + "b" * (4 - (x + j * y) % 5) for j in range(1, 6))
        for x in range(5)
        for y in range(5)
    ]


def diagonal_code() -> list[str]:
    """The same content in every block: one block fixes the member."""
    return [("b" * c + "a" + "b" * (4 - c)) * 5 for c in range(5)]


def lab_tangled(seed: int) -> Workload:
    from sigma2lab import entailment

    rng = random.Random(seed)
    # every subfamily size appears equally often, so seeds differ only in members
    plan = [("affine", affine_code(), 2, size) for size in range(2, 26) for _ in range(4)]
    plan += [("diagonal", diagonal_code(), 1, size) for size in range(2, 6) for _ in range(6)]
    rng.shuffle(plan)
    tasks = []
    for code, members, k, size in plan:
        family = sorted(rng.sample(members, size))

        def verify(result, family=family):
            # a subfamily of a tangled code is tangled
            expect(result.tangled, "subfamily of a tangled code judged not tangled")
            _check_tangled_side(result, family)

        tasks.append(
            Task(
                f"{code}-{size}",
                f"{code} k={k} {family}",
                lambda family=family, k=k: entailment.dichotomy_suite(family, k),
                verified_once(verify, lambda result: (result.tangled, tuple(sorted(result.encoding.codes.items())))),
            )
        )
    return Workload("lab-tangled", tasks)


# ---------------------------------------------------------------------------
# cli-cold: one fresh interpreter per command

_ABC_PATTERNS = (
    "(ac*b+c)*", "(a(ac*b+c)*b+c)*", "c*(ab)*c*", "(ab+c)*", "a*b*c*", "(abc)*",
    "(a+b+c)*abc(a+b+c)*", "(a+c)*b(a+c)*", "((a+b)c)*", "c(a+b)*c", "(ac+bc)*", "(a+b)*c(a+b)*",
)
_AB_PATTERNS = (
    "(a+b)*a(a+b)*", "(a+b)*ab(a+b)*", "(ab)*", "a*b*", "(a+b)*a(a+b)", "(a+b)*a(a+b)(a+b)",
    "b*ab*", "(aa+b)*", "(a+bb)*", "a(a+b)*b", "(ab+ba)*", "(a+b)*aa(a+b)*",
)
_MALFORMED = ("(ab", "a+*", "(a+b", "*a", "a)", "(", ")", "a[", "[]", "a+(b", "d", "((a)")
_WORDS9 = (
    "abbbabbba", "abbbbbbab", "babbbabba", "bbabbabba", "abbabbabb", "bababbbba",
    "bbbbabbba", "babbbbbbb", "bbbbbbbbb", "abbbabbab", "bbababbab", "ababbabba",
)

# Each entry is one slot of the mix, with twelve variants. The seed picks
# CLI_PER_SLOT variants of every slot and shuffles the whole mix. Every
# variant's stdout and exit code were recorded at the baseline; the
# malformed patterns all exit with code 2.
CLI_PER_SLOT = 8
CLI_MIX: tuple[tuple[tuple[str, ...], ...], ...] = (
    tuple(("analyze", p, "--alphabet", "abc", "--json") for p in _ABC_PATTERNS),
    tuple(("analyze", p, "--alphabet", "ab", "--json") for p in _AB_PATTERNS),
    tuple(("analyze", p, "--alphabet", "abc") for p in _ABC_PATTERNS),
    tuple(("analyze", p, "--alphabet", "ab") for p in _MALFORMED),
    tuple(("lab", "klimit", "--u", u, "--k", "1", "--family", "good", "--json") for u in _WORDS9),
    tuple(("lab", "flower", "--n", "9", "-p", "2", "--sample", "12", "--seed", str(s), "--json") for s in range(12)),
    tuple(("lab", "tangled", "--n", "9", "--k", "1", "--family", f, "--json") for f in ("1,1,1;2,2,2;3,3,3", "1,2,3;2,3,1;3,1,2"))
    + tuple(
        ("lab", "tangled", "--n", "9", "--k", "1", "--family", "good", "--sample", "9", "--seed", str(s), "--json")
        for s in range(10)
    ),
    tuple(("lab", "dichotomy", "--n", "9", "--k", "1", "--samples", "10", "--seed", str(s), "--json") for s in range(12)),
    tuple(("reduce", "expand", "--word", w, "--json") for w in _WORDS9),
    tuple(("reduce", "wire", "--word", w, "--json") for w in _WORDS9),
    tuple(
        ("reduce", "annotate", "--word", w, "--moduli", m, "--json")
        for w in ("abcabc", "abbab", "cab", "aabbcc")
        for m in ("2,3", "2", "3,5")
    ),
    tuple(
        ("circuit", "eval", "--word", w, "--fixture", f, "--json")
        for w in _WORDS9[:4]
        for f in ("exact-good", "block-selector", "accept-all")
    ),
    tuple(
        ("circuit", "adversary", "--fixture", f, "--n", "9", "--k", k, "--oracle", o, "--json")
        for f in ("block-selector", "accept-all", "exact-good")
        for k in ("1", "2")
        for o in ("entailment", "flower")
    ),
)


def cli_key(args: tuple[str, ...]) -> str:
    return json.dumps(list(args))


def load_expected_cli() -> dict[str, dict]:
    return json.loads(EXPECTED_CLI.read_text(encoding="utf-8"))


def cli_env() -> dict[str, str]:
    env = dict(os.environ)
    env["PYTHONPATH"] = str(SRC) + (os.pathsep + env["PYTHONPATH"] if env.get("PYTHONPATH") else "")
    return env


def run_cli_process(args: tuple[str, ...], env: dict[str, str]) -> tuple[int, bytes, int]:
    """Run the CLI in a fresh interpreter: exit code, stdout, peak RSS in KiB."""
    proc = subprocess.Popen(
        [sys.executable, "-m", "sigma2lab.cli", *args],
        stdin=subprocess.DEVNULL,
        stdout=subprocess.PIPE,
        stderr=subprocess.PIPE,
        cwd=ROOT,
        env=env,
    )
    try:
        out = proc.stdout.read()
        proc.stderr.read()  # a line at most; never fills the pipe
    finally:
        proc.stdout.close()
        proc.stderr.close()
        _, status, usage = os.wait4(proc.pid, 0)
        proc.returncode = os.waitstatus_to_exitcode(status)
    return proc.returncode, out, usage.ru_maxrss


def cli_check(expected: dict):
    def check(out: tuple[int, bytes]) -> None:
        code, stdout = out
        expect(code == expected["exit"], f"exit code {code} != {expected['exit']}")
        digest = hashlib.sha256(stdout).hexdigest()
        expect(digest == expected["sha256"], f"stdout differs from the recording ({len(stdout)} bytes)")

    return check


def cli_cold(seed: int) -> Workload:
    from click.testing import CliRunner

    from sigma2lab import cli

    expected = load_expected_cli()
    rng = random.Random(seed)
    mix = [args for variants in CLI_MIX for args in rng.sample(variants, CLI_PER_SLOT)]
    rng.shuffle(mix)
    leaves = set()
    for name, cmd in cli.main.commands.items():
        subs = getattr(cmd, "commands", None)
        leaves |= {(name, sub) for sub in subs} if subs else {(name,)}
    covered = {args[:1] if args[0] == "analyze" else args[:2] for args in mix}
    expect(covered == leaves, f"the mix misses subcommands: {sorted(leaves - covered)}")

    env = cli_env()
    peak_kb = [0]

    def cold(args):
        def run():
            code, out, rss_kb = run_cli_process(args, env)
            peak_kb[0] = max(peak_kb[0], rss_kb)
            return code, out

        return run

    runner = CliRunner()

    def in_process(args):
        def run():
            result = runner.invoke(cli.main, list(args))
            if result.exception is not None and not isinstance(result.exception, SystemExit):
                raise result.exception
            return result.exit_code, result.stdout_bytes

        return run

    tasks, traced = [], []
    for args in mix:
        key = cli_key(args)
        if key not in expected:
            raise CheckFailed(f"no recorded output for {key}")
        tasks.append(Task(" ".join(args[:2]), key, cold(args), cli_check(expected[key])))
        traced.append(Task(" ".join(args[:2]), key, in_process(args), cli_check(expected[key])))
    return Workload("cli-cold", tasks, traced_tasks=traced, peak_rss_mb=lambda: peak_kb[0] / 1024)


BUILDERS: dict[str, Callable[[int], Workload]] = {
    "classify": classify,
    "lab-limits": lab_limits,
    "lab-tangled": lab_tangled,
    "cli-cold": cli_cold,
}
