"""Report dictionaries and witness replay.

Verdicts leave this package as plain dictionaries so that the JSON a
command prints and the structure a test inspects are the same object.
Witnesses are self-verifying: they carry enough words to re-run both
memberships on the DFA, with no monoid machinery in the loop.
"""

from __future__ import annotations

import json

from .languages import accepts
from .monoids import (
    ClassReport,
    EquationWitness,
    Recognition,
    SubwordWitness,
    TransitionMonoid,
    neutral_letters,
)


def _word_str(word: tuple[str, ...]) -> str:
    # multi-character symbols keep a space so the string stays parseable
    if all(len(sym) == 1 for sym in word):
        return "".join(word)
    return " ".join(word)


def witness_to_dict(w: EquationWitness) -> dict:
    return {
        "x": w.x,
        "y": w.y,
        "context": list(w.context),
        "x_word": _word_str(w.x_word),
        "y_word": _word_str(w.y_word),
        "p_word": _word_str(w.p_word),
        "q_word": _word_str(w.q_word),
        "pair_witness": {
            "word": _word_str(w.pair_witness.word),
            "positions": list(w.pair_witness.positions),
        },
    }


def verify_subword_witness(
    monoid: TransitionMonoid, pair: tuple[int, int], wit: SubwordWitness
) -> bool:
    """Do the marked positions of the word evaluate to y, and the word to x?"""
    x, y = pair
    if any(not 1 <= p <= len(wit.word) for p in wit.positions):
        return False
    if list(wit.positions) != sorted(set(wit.positions)):
        return False
    sub = tuple(wit.word[p - 1] for p in wit.positions)
    return monoid.eval(wit.word) == x and monoid.eval(sub) == y


def replay_equation_witness(rec: Recognition, w: EquationWitness) -> dict:
    """Re-check a failing equation pair from its words alone.

    The witness claims p x q is in the language of rec while p x y x q
    is not. Both memberships are replayed on the DFA; the algebraic
    claims about the pair are checked against the monoid. A pi2
    witness is replayed on the complemented recognition it was found on.
    """
    m = rec.monoid
    x, y = m.eval(w.x_word), m.eval(w.y_word)
    inner_in = accepts(rec.dfa, w.p_word + w.x_word + w.q_word)
    outer_in = accepts(rec.dfa, w.p_word + w.x_word + w.y_word + w.x_word + w.q_word)
    checks = {
        "x_word_maps_to_x": x == w.x,
        "y_word_maps_to_y": y == w.y,
        "x_is_idempotent": m.mul(x, x) == x,
        "pair_witness_valid": verify_subword_witness(m, (w.x, w.y), w.pair_witness),
        "memberships_separate": inner_in and not outer_in,
    }
    checks["passed"] = all(checks.values())
    return checks


def verdict_to_dict(rec: Recognition, witness: EquationWitness | None) -> dict:
    """An equation's verdict: it holds, or its witness and the witness's replay."""
    if witness is None:
        return {"holds": True}
    return {
        "holds": False,
        "witness": witness_to_dict(witness),
        "replay": replay_equation_witness(rec, witness),
    }


def class_report_to_dict(rec: Recognition, report: ClassReport) -> dict:
    """The full classification verdict as one JSON-ready dictionary.

    The alphabet and the monoid's statistics come from rec, which report
    was made from.
    """
    delta2: dict = {"holds": report.delta2}
    if not report.delta2:
        delta2["fails_on"] = [
            name
            for name, witness in (("sigma2_lt", report.sigma2), ("pi2_lt", report.pi2))
            if witness is not None
        ]
    return {
        "description": report.description,
        "alphabet": list(rec.monoid.alphabet),
        "monoid": {
            "size": rec.monoid.size,
            "idempotents": len(rec.monoid.idempotents()),
            "subword_pairs": report.subword_pair_count,
        },
        "neutral_letters": sorted(neutral_letters(rec)),
        "sigma2_lt": verdict_to_dict(rec, report.sigma2),
        "pi2_lt": verdict_to_dict(rec.complemented(), report.pi2),
        "delta2_lt": delta2,
    }


def to_json(payload: dict) -> str:
    """The one serializer every command shares; key order is fixed."""
    return json.dumps(payload, sort_keys=True, indent=2)


def render_lines(payload, prefix: str = "") -> list[str]:
    """Flatten a payload into indented key: value lines for terminals.

    This renders the same dictionary the JSON mode prints; there is no
    second vocabulary to drift out of sync.
    """
    lines: list[str] = []
    if isinstance(payload, dict):
        for key, value in payload.items():
            if isinstance(value, (dict, list)) and value and not _is_flat(value):
                lines.append(f"{prefix}{key}:")
                lines.extend(render_lines(value, prefix + "  "))
            else:
                lines.append(f"{prefix}{key}: {_flat(value)}")
    elif isinstance(payload, list):
        for value in payload:
            if isinstance(value, (dict, list)) and value and not _is_flat(value):
                lines.append(f"{prefix}-")
                lines.extend(render_lines(value, prefix + "  "))
            else:
                lines.append(f"{prefix}- {_flat(value)}")
    else:
        lines.append(f"{prefix}{_flat(payload)}")
    return lines


def _is_flat(value) -> bool:
    if isinstance(value, list):
        return all(not isinstance(v, (dict, list)) for v in value)
    return False


def _flat(value) -> str:
    if isinstance(value, list):
        return "[" + ", ".join(_flat(v) for v in value) + "]"
    if isinstance(value, bool):
        return "true" if value else "false"
    if value is None:
        return "null"
    return str(value)
