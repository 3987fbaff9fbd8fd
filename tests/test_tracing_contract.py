"""The benchmark's work counters read fields the package still returns.

perfbench/tracing.py wraps each boundary in COUNTERS and reads its
arguments and return value (rec.dfa.n_states, rec.monoid.table,
sw.pairs, pack_family's members, report.certificates, res.status and
so on). A change that drops one of those fields breaks the traced
benchmark run; here it breaks the test suite first. The monoid builds
no table of products any more: table is derived from the right Cayley
graph on each read, and only for the tracer.
"""

import sys
import time
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
if str(ROOT) not in sys.path:
    sys.path.insert(0, str(ROOT))

from perfbench import tracing  # noqa: E402
from sigma2lab import blockwords, circuits, entailment, flowers, languages, monoids  # noqa: E402


def test_every_counted_boundary_counts_work():
    good9 = blockwords.enumerate_good(9)
    rec = tracing.Recorder(clock=time.perf_counter)
    patches = tracing.install(rec)
    try:
        recognition = monoids.recognize(languages.compile_pattern("(ac*b+c)*", "abc"))
        monoids.classify_recognition(recognition)
        assert entailment.dichotomy_suite(["abab", "baba"], 1).tangled
        assert not entailment.dichotomy_suite(good9, 1).tangled
        assert flowers.bad_limit_via_flower(good9, 1) is not None
        result = circuits.adversary(
            circuits.demo_block_selector(9),
            good9,
            1,
            entailment.bad_limit_via_entailment,
            lambda u: not blockwords.is_good(u),
        )
        assert result.status == "refuted"
    finally:
        tracing.uninstall(patches)
    assert set(rec.names) >= set(tracing.COUNTERS)
    assert {name: rec.counts[name] for name in tracing.COUNT_NAMES if rec.counts[name] <= 0} == {}
