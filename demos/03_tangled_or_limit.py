"""
The dichotomy: compress the family or escape it
===============================================

Every family of good words falls on one of two sides. Either it is
k-tangled, and then every member can be reconstructed from a few free
positions plus one small digit per derived position (so the family is
small), or some member with one block emptied is a bad k-limit the
family cannot separate.
"""

import random

from sigma2lab.blockwords import enumerate_good, packed_to_str, unpack
from sigma2lab.entailment import (
    bad_limit_via_entailment,
    counting_bound,
    dichotomy_suite,
    is_tangled,
    tangled_encoding,
)

# the diagonal family: each member repeats one content everywhere, so
# any single position entails all the others
diagonal = [unpack((c, c, c)) for c in (1, 2, 3)]
report = is_tangled(diagonal, 1)
print(f"diagonal family tangled at k=1: {report.witness is None}")

enc = tangled_encoding(diagonal, 1)
print(f"members {len(enc.codes)}, bound {enc.bound} = counting_bound(3,1) = {counting_bound(3, 1)}")
for mu, code in enc.codes.items():
    print(
        f"  {packed_to_str(mu)} -> free {code.free_positions} = {code.free_contents},"
        f" digits {code.digits}"
    )

# the full good family is too rich to be tangled; the witness hands us
# a member and a position, and emptying that block gives the limit
good9 = enumerate_good(9)
lim = bad_limit_via_entailment(good9, 1)
print(f"\ngood9 at k=1: not tangled")
print(f"source {packed_to_str(lim.source)}, emptied block {lim.block}")
print(f"bad 1-limit: {lim.word}")

# one call runs whichever side applies and re-verifies it
rng = random.Random(4)
for trial in range(5):
    fam = sorted(rng.sample(good9, rng.randint(1, 27)))
    result = dichotomy_suite(fam, 1)
    side = "tangled" if result.tangled else f"bad-limit {result.limit.word}"
    print(f"trial {trial}: |F|={result.family_size:2d} -> {side}")
