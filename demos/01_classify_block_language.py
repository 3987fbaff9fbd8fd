"""
Classifying a language by its ordered syntactic monoid
======================================================

The running example: K = (ac*b+c)*, words made of blocks ac*b with
filler c's. K sits outside the exists-forall class but its complement
is inside, which the equation check makes concrete.
"""

from sigma2lab.languages import compile_pattern
from sigma2lab.monoids import classify, neutral_letters, recognize
from sigma2lab.reports import class_report_to_dict, render_lines

ALPHABET = ("a", "b", "c")
K = "(ac*b+c)*"

dfa = compile_pattern(K, ALPHABET)
rec = recognize(dfa)

# the monoid is tiny: six elements, four of them idempotent
print(f"monoid size: {rec.monoid.size}")
print(f"idempotents: {rec.monoid.idempotents()}")

# c maps to the identity, so it can be inserted and deleted at will
print(f"neutral letters: {sorted(neutral_letters(rec))}")

report = classify(dfa, description=K)
print(f"sigma2: {report.sigma2 is None}")
print(f"pi2:    {report.pi2 is None}")
print(f"delta2: {report.delta2}")

# the failing equation is its witness: an idempotent x, a subword y of
# x, and a context (p, q) with p x q accepted but p xyx q rejected
w = report.sigma2
print(f"\nfailing pair: x = h({''.join(w.x_word)}), y = h({''.join(w.y_word)})")
print(f"subword embedding: {w.pair_witness.word} at positions {w.pair_witness.positions}")

# the report dictionary replays the witness from scratch before it is
# printed; 'replay' below re-checks every claim against the DFA
payload = class_report_to_dict(rec, report)
for line in render_lines(payload):
    print(line)
