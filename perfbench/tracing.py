"""Spans around sigma2lab's layer boundaries, installed from outside the package.

A traced run replaces each boundary function at every binding in every
loaded ``sigma2lab`` module namespace (and ``Recognition.complemented``
on its class, and ``main`` on the click group instance) with a timer
that records a span: name, start, end, parent. Spans stay in memory
until the run ends. ``uninstall`` puts every original object back.

There is one thread and no queue, so every span is busy time; self time
is a span's duration minus the part of it that its child spans cover.
"""

from __future__ import annotations

import functools
import sys
from collections import Counter
from dataclasses import dataclass, field
from math import comb
from typing import Callable

import click

# module -> boundary functions; "Class.method" names a method on a class
BOUNDARIES: dict[str, tuple[str, ...]] = {
    "languages": ("compile_pattern", "minimize"),
    "monoids": (
        "recognize",
        "transition_monoid",
        "syntactic_order",
        "Recognition.complemented",
        "subword_relation",
        "check_sigma2",
        "classify_recognition",
    ),
    "reports": ("class_report_to_dict", "replay_equation_witness", "to_json"),
    "blockwords": ("enumerate_good", "k_limit_counterexample"),
    "entailment": (
        "pack_family",
        "is_tangled",
        "find_entailment",
        "entails",
        "tangled_encoding",
        "encode_member",
        "decode_member",
        "bad_limit_via_entailment",
        "check_packed_limit_conditions",
        "dichotomy_suite",
    ),
    "flowers": ("find_flower", "verify_flower", "bad_limit_via_flower"),
    "circuits": ("densest_and_gate", "adversary"),
    "reductions": ("factorize_subword_witness", "wiring"),
    "cli": ("main",),
}

SPAN_NAMES = tuple(f"{mod}.{fn}" for mod, fns in BOUNDARIES.items() for fn in fns)

# work counts read from arguments and return values at the boundary
COUNT_NAMES = (
    "languages.dfa_states",
    "monoids.elements",
    "monoids.idempotents",
    "monoids.subword_pairs",
    "entailment.members_packed",
    "entailment.certificates",
    "entailment.entails.true",
    "blockwords.position_sets",
    "flowers.find_flower.found",
    "circuits.adversary.refuted",
)


def _arg(args, kwargs, position: int, name: str):
    return args[position] if len(args) > position else kwargs[name]


def _count_recognize(counts, args, kwargs, rec) -> None:
    counts["languages.dfa_states"] += rec.dfa.n_states
    table = rec.monoid.table
    counts["monoids.elements"] += len(table)
    counts["monoids.idempotents"] += sum(1 for e in range(len(table)) if table[e][e] == e)


def _count_position_sets(counts, args, kwargs, result) -> None:
    # computed from the arguments: the sets the exhaustive scan may visit
    n = len(_arg(args, kwargs, 0, "u"))
    counts["blockwords.position_sets"] += comb(n, min(_arg(args, kwargs, 2, "k"), n))


COUNTERS: dict[str, Callable] = {
    "monoids.recognize": _count_recognize,
    "monoids.subword_relation": lambda c, a, kw, sw: c.update({"monoids.subword_pairs": len(sw.pairs)}),
    "entailment.pack_family": lambda c, a, kw, res: c.update({"entailment.members_packed": len(res[0])}),
    "entailment.is_tangled": lambda c, a, kw, rep: c.update({"entailment.certificates": len(rep.certificates)}),
    "entailment.entails": lambda c, a, kw, ok: c.update({"entailment.entails.true": int(bool(ok))}),
    "blockwords.k_limit_counterexample": _count_position_sets,
    "flowers.find_flower": lambda c, a, kw, fl: c.update({"flowers.find_flower.found": int(fl is not None)}),
    "circuits.adversary": lambda c, a, kw, res: c.update({"circuits.adversary.refuted": int(res.status == "refuted")}),
}


@dataclass
class Recorder:
    """Spans as parallel lists; parent is an index into them, or -1."""

    clock: Callable[[], float]
    names: list[str] = field(default_factory=list)
    starts: list[float] = field(default_factory=list)
    ends: list[float] = field(default_factory=list)
    parents: list[int] = field(default_factory=list)
    errors: list[bool] = field(default_factory=list)
    counts: Counter = field(default_factory=Counter)
    _open: list[int] = field(default_factory=list)

    def open(self, name: str) -> int:
        idx = len(self.names)
        self.names.append(name)
        self.parents.append(self._open[-1] if self._open else -1)
        self.ends.append(0.0)
        self.errors.append(False)
        self._open.append(idx)
        self.starts.append(self.clock())
        return idx

    def close(self, idx: int, error: bool = False) -> None:
        self.ends[idx] = self.clock()
        self.errors[idx] = error
        self._open.pop()

    def spans(self) -> list[tuple[str, float, float, int]]:
        return list(zip(self.names, self.starts, self.ends, self.parents))


def self_times(spans: list[tuple[str, float, float, int]]) -> list[float]:
    """Each span's duration minus the union of its children's intervals."""
    children: dict[int, list[tuple[float, float]]] = {}
    for name, start, end, parent in spans:
        if parent >= 0:
            children.setdefault(parent, []).append((start, end))
    out = []
    for idx, (name, start, end, parent) in enumerate(spans):
        covered = 0.0
        reach = start
        for c_start, c_end in sorted(children.get(idx, ())):
            c_start, c_end = max(c_start, reach), min(c_end, end)
            if c_end > c_start:
                covered += c_end - c_start
                reach = c_end
        out.append((end - start) - covered)
    return out


def layer_metrics(rec: Recorder) -> dict[str, tuple[float, str]]:
    """calls, self_s and errors per boundary, plus the work counts."""
    calls: Counter = Counter(rec.names)
    errors: Counter = Counter(n for n, e in zip(rec.names, rec.errors) if e)
    busy: Counter = Counter()
    for name, t in zip(rec.names, self_times(rec.spans())):
        busy[name] += t
    out: dict[str, tuple[float, str]] = {}
    for name in SPAN_NAMES:
        out[f"{name}.calls"] = (calls[name], "count")
        out[f"{name}.self_s"] = (busy[name], "s")
        out[f"{name}.errors"] = (errors[name], "count")
    for name in COUNT_NAMES:
        if name != "entailment.entails.true":
            out[name] = (rec.counts[name], "count")
    entails = calls["entailment.entails"]
    hits = rec.counts["entailment.entails.true"]
    out["entailment.entails.hit_ratio"] = (hits / entails if entails else 0.0, "ratio")
    return out


# ---------------------------------------------------------------------------
# installing and removing the timers

_MISSING = object()


@dataclass
class Patch:
    owner: object
    attr: str
    original: object  # _MISSING when the attribute was not set on owner itself


def _traced(fn, name: str, rec: Recorder):
    count = COUNTERS.get(name)

    @functools.wraps(fn)
    def traced(*args, **kwargs):
        idx = rec.open(name)
        try:
            result = fn(*args, **kwargs)
        except SystemExit as exc:
            # click's standalone mode ends every command with SystemExit
            rec.close(idx, error=exc.code not in (0, None))
            raise
        except BaseException:
            rec.close(idx, error=True)
            raise
        rec.close(idx)
        if count is not None:
            count(rec.counts, args, kwargs, result)
        return result

    traced.__perfbench_span__ = name
    return traced


def _package_modules() -> list[tuple[str, object]]:
    return [(n, m) for n, m in sorted(sys.modules.items()) if n == "sigma2lab" or n.startswith("sigma2lab.")]


def install(rec: Recorder) -> list[Patch]:
    """Wrap every boundary at every binding in the loaded sigma2lab modules."""
    modules = [m for _, m in _package_modules()]
    patches: list[Patch] = []
    for mod_name, fns in BOUNDARIES.items():
        home = sys.modules.get(f"sigma2lab.{mod_name}")
        if home is None:
            continue
        for fn_name in fns:
            name = f"{mod_name}.{fn_name}"
            if "." in fn_name:
                cls_name, meth = fn_name.split(".")
                cls = getattr(home, cls_name)
                original = cls.__dict__[meth]
                patches.append(Patch(cls, meth, original))
                setattr(cls, meth, _traced(original, name, rec))
                continue
            original = getattr(home, fn_name)
            if isinstance(original, click.Command):
                # a click group: time its main method on the instance itself
                patches.append(Patch(original, "main", original.__dict__.get("main", _MISSING)))
                original.main = _traced(original.main, name, rec)
                continue
            wrapper = _traced(original, name, rec)
            for mod in modules:
                for attr, value in list(vars(mod).items()):
                    if value is original:
                        patches.append(Patch(mod, attr, original))
                        setattr(mod, attr, wrapper)
    return patches


def uninstall(patches: list[Patch]) -> None:
    for p in reversed(patches):
        if p.original is _MISSING:
            delattr(p.owner, p.attr)
        else:
            setattr(p.owner, p.attr, p.original)


def leftover_wrappers() -> list[str]:
    """Bindings in loaded sigma2lab modules and classes that are still timers."""
    found = []
    for n, mod in _package_modules():
        for attr, value in vars(mod).items():
            if hasattr(value, "__perfbench_span__"):
                found.append(f"{n}.{attr}")
            if isinstance(value, type):
                found.extend(
                    f"{n}.{attr}.{a}" for a, v in vars(value).items() if hasattr(v, "__perfbench_span__")
                )
            elif isinstance(value, click.Command) and "main" in vars(value):
                found.append(f"{n}.{attr}.main")
    return found
