"""Ordered-monoid language classification and a block-word laboratory.

Two halves share this package. The algebra half compiles regular
expressions to minimal DFAs, builds ordered syntactic monoids, and
decides membership in the sigma2 / pi2 / delta2 classes by equation
checks. The laboratory half works with words of perfect-square length
split into blocks, and executes the combinatorial constructions that
turn dense depth-3 circuits for those words into contradictions:
flowers, entailment, tangled families, limits, and the adversary that
exploits them.
"""

__version__ = "0.1.0"
