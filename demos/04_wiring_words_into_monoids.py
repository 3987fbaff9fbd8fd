"""
From block words to the up-word problem
=======================================

Two bridges. The expansion rewrites a block word over {a,c} with
separator b's, landing in (ac*b+c)* exactly for good words. The wiring
goes further: it takes the failing equation pair (x, y) of that
language, factorizes the witness, and maps good words to products
equal to x and bad words to x y x.
"""

from sigma2lab.blockwords import enumerate_bad, enumerate_good, is_good, pack, unpack
from sigma2lab.languages import accepts, compile_pattern
from sigma2lab.monoids import recognize, up_word_accepts
from sigma2lab.reductions import expansion, factorize_subword_witness, wiring

K = "(ac*b+c)*"
dfa = compile_pattern(K, ("a", "b", "c"))

print(f"expansion('abbbabbba') = {expansion('abbbabbba')}")
print(f"in {K}: {accepts(dfa, expansion('abbbabbba'))}")
print(f"expansion('abbbbbbab') = {expansion('abbbbbbab')}  (bad word)")
print(f"in {K}: {accepts(dfa, expansion('abbbbbbab'))}")

# the equation x <= x y x fails in K's monoid for x = h(ab), y = h(a);
# the witness embeds y into the word ab at position 1
rec = recognize(dfa)
m = rec.monoid
fact = factorize_subword_witness(m, "ab", (1,))
x = m.eval("ab")
y = m.eval("a")
print(f"\nfactors t={len(fact.xs)}, xs={fact.xs}, ys={fact.ys}")

good_word = wiring(fact, unpack((1, 2, 3)))
bad_word = wiring(fact, unpack((1, None, 3)))  # block 2 carries no x
print(f"wired good word product = {m.product(good_word)} (x = {x})")
print(f"wired bad word product  = {m.product(bad_word)} (xyx = {m.mul(m.mul(x, y), x)})")

# every good word wires to x and is up-accepted; a bad word is not
for w in list(enumerate_good(9))[:3] + list(enumerate_bad(9))[:2]:
    wired = wiring(fact, w)
    prod = m.product(wired)
    print(
        f"{w} good={is_good(w)!s:5} pack={pack(w)} "
        f"product={prod} up-accept={up_word_accepts(rec, x, wired)}"
    )
