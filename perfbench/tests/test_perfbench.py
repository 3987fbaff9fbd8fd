"""Tests of the benchmark's own machinery: timing arithmetic, patching, failure counting, seeding."""

from __future__ import annotations

import sys
import time
from pathlib import Path

import pytest

sys.path.insert(0, str(Path(__file__).resolve().parents[2]))

from perfbench.paths import use_checkout_source  # noqa: E402

use_checkout_source()

from perfbench import checks, tracing  # noqa: E402
from perfbench.run import PassResult, median_latencies, p90, run_pass  # noqa: E402
from perfbench.workloads import BUILDERS, LADDER, Task  # noqa: E402


class FakeClock:
    def __init__(self, times):
        self.times = iter(times)

    def __call__(self):
        return next(self.times)


def test_self_time_subtracts_child_spans_on_a_nested_tree():
    # A [0, 10] holds B [1, 4] and C [5, 9]; C holds D [6, 7]
    spans = [("A", 0.0, 10.0, -1), ("B", 1.0, 4.0, 0), ("C", 5.0, 9.0, 0), ("D", 6.0, 7.0, 2)]
    assert tracing.self_times(spans) == [3.0, 3.0, 3.0, 1.0]


def test_self_time_counts_overlapping_children_once():
    spans = [("A", 0.0, 10.0, -1), ("B", 2.0, 6.0, 0), ("C", 4.0, 8.0, 0)]
    assert tracing.self_times(spans)[0] == 4.0


def test_recorder_nests_spans_and_aggregates_per_name():
    rec = tracing.Recorder(clock=FakeClock([0.0, 1.0, 2.0, 3.0, 4.0, 10.0]))
    outer = rec.open("monoids.recognize")
    inner = rec.open("languages.minimize")
    rec.close(inner)
    again = rec.open("languages.minimize")
    rec.close(again, error=True)
    rec.close(outer)
    assert rec.parents == [-1, 0, 0]
    metrics = tracing.layer_metrics(rec)
    assert metrics["monoids.recognize.self_s"] == (8.0, "s")
    assert metrics["languages.minimize.self_s"] == (2.0, "s")
    assert metrics["languages.minimize.calls"] == (2, "count")
    assert metrics["languages.minimize.errors"] == (1, "count")


def _bindings():
    """Every object bound to a boundary name in the loaded sigma2lab namespaces."""
    from sigma2lab import cli, monoids

    found = {}
    for name, mod in sorted(sys.modules.items()):
        if name == "sigma2lab" or name.startswith("sigma2lab."):
            for attr, value in vars(mod).items():
                found[(name, attr)] = value
    found[("Recognition", "complemented")] = monoids.Recognition.__dict__["complemented"]
    found[("cli.main", "main")] = vars(cli.main).get("main")  # set on the instance only while traced
    return found


def test_traced_run_restores_every_binding():
    from click.testing import CliRunner

    from sigma2lab import cli, entailment, languages, monoids
    from perfbench.workloads import affine_code

    before = _bindings()
    rec = tracing.Recorder(clock=time.perf_counter)
    patches = tracing.install(rec)
    try:
        assert tracing.leftover_wrappers()
        monoids.classify_recognition(monoids.recognize(languages.compile_pattern("(ac*b+c)*", "abc")))
        entailment.dichotomy_suite(affine_code()[:3], 2)
        assert CliRunner().invoke(cli.main, ["reduce", "expand", "--word", "abbbabbba"]).exit_code == 0
    finally:
        tracing.uninstall(patches)
    after = _bindings()
    assert after.keys() == before.keys()
    assert all(after[key] is before[key] for key in before)
    for p in patches:
        if p.original is tracing._MISSING:
            assert p.attr not in vars(p.owner)
        else:
            assert getattr(p.owner, p.attr) is p.original
    assert tracing.leftover_wrappers() == []
    names = set(rec.names)
    assert {"monoids.Recognition.complemented", "languages.minimize", "entailment.entails", "cli.main"} <= names


def test_raising_task_is_counted_as_failed_not_dropped():
    def boom():
        raise ValueError("boom")

    def reject(out):
        raise checks.CheckFailed("wrong answer")

    tasks = [
        Task("ok", "ok", lambda: 1, lambda out: None),
        Task("raises", "raises", boom, lambda out: None),
        Task("wrong", "wrong", lambda: 2, reject),
    ]
    res = run_pass(tasks)
    assert (res.attempted, res.failed, len(res.latencies)) == (3, 2, 1)
    assert [f.split(":")[0] for f in res.failures] == ["raises", "wrong"]


@pytest.mark.parametrize("workload", sorted(BUILDERS))
def test_same_seed_gives_the_same_task_list(workload):
    first, again, other = BUILDERS[workload](3), BUILDERS[workload](3), BUILDERS[workload](4)
    assert [t.key for t in first.tasks] == [t.key for t in again.tasks]
    assert first.digest == again.digest
    assert first.digest != other.digest
    # the 90th percentile needs ten task latencies above it
    assert len(first.tasks) >= 100


def test_task_latency_is_its_lower_median_run():
    passes = [
        PassResult(latencies={0: 3.0, 1: 1.0, 2: 5.0}),
        PassResult(latencies={0: 2.0, 2: 4.0}),
        PassResult(latencies={0: 9.0}),
    ]
    # task 0: median of three; task 1: its only run; task 2: the faster of two
    assert sorted(median_latencies(passes)) == [1.0, 3.0, 4.0]


def test_p90_leaves_a_tenth_above():
    value, above = p90([float(i) for i in range(1, 101)])
    assert (value, above) == (90.0, 10)


@pytest.mark.parametrize("entry", [e for e in LADDER if e[6] <= 64], ids=lambda e: e[0])
def test_hand_written_ladder_answers_agree_with_the_oracles(entry):
    label, pattern, alphabet, (delta, accepting), sigma2, pi2, size = entry
    assert checks.monoid_size(len(alphabet), delta, accepting) == size
    assert checks.is_da(len(alphabet), delta, accepting) == (sigma2 and pi2)


def test_k_limit_oracle_on_a_small_family():
    family = ["abbbabbba", "abbbbabab"]
    assert checks.is_k_limit("abbbabbbb", family, 1)
    assert not checks.is_k_limit("bbbbbbbbb", family, 1)
    # every single position matches a member, but positions 5 and 6 together match neither
    assert checks.is_k_limit("abbbbbbba", family, 1)
    assert not checks.is_k_limit("abbbbbbba", family, 2)
