"""Words of perfect-square length, read as r blocks of r letters.

Everything here is over the two-letter alphabet {a, b}. A word of
length n = r*r is good when every block carries exactly one a, and bad
when exactly one block is all b and every other block carries exactly
one a. Good and bad words pack into tuples over {1..r} with None for
the empty block, and that packed view is where the combinatorial
arguments live. This module owns it: pack_family packs a family of
good words for both limit oracles, flowers and entailment, one block
column at a time over the sorted distinct words.

A word u is a k-limit of a family F when no k positions can tell u
apart from all of F at once: for every set P of at most k positions
some member of F agrees with u on P. Limits are what break small
circuits; the laboratory's other modules construct them. A probe is an
AND of member masks: bit j of a word's mask at position p is set when
member j carries that word's letter there, so P goes unmatched exactly
when the AND of its positions' masks is 0.
"""

from __future__ import annotations

from itertools import combinations, compress, product
from math import comb, isqrt
from operator import itemgetter

from .errors import NonSquareLengthError, PackError, PreconditionError, SearchBudgetError

A = "a"
B = "b"

Packed = tuple  # of int | None, one entry per block

K_LIMIT_WORK_LIMIT = 10**6


def block_count(n: int) -> int:
    """The block size and count r for a length n = r*r word."""
    if n <= 0 or isqrt(n) ** 2 != n:  # isqrt refuses a negative n
        raise NonSquareLengthError(f"length {n} is not a positive perfect square")
    return isqrt(n)


def check_block_word(w: str) -> int:
    """Validate letters and length; return r."""
    r = block_count(len(w))
    if w.strip(A + B):  # some letter is neither; name the first one
        i, sym = next((i, sym) for i, sym in enumerate(w) if sym not in (A, B))
        raise PackError(f"letter {sym!r} at position {i + 1} is not a or b")
    return r


def blocks(w: str) -> list[str]:
    r = check_block_word(w)
    return [w[i * r : (i + 1) * r] for i in range(r)]


def is_good(w: str) -> bool:
    return all(bl.count(A) == 1 for bl in blocks(w))


def is_bad(w: str) -> bool:
    counts = [bl.count(A) for bl in blocks(w)]
    return counts.count(0) == 1 and all(c in (0, 1) for c in counts)


def pack(w: str) -> Packed:
    """Positions of the a in each block, None for an all-b block.

    Defined for words with at most one a per block; two a's in a block
    have no packed form and raise PackError.
    """
    r = check_block_word(w)
    out = []
    for start in range(0, len(w), r):
        end = start + r
        at = w.find(A, start, end)
        if at >= 0 and w.find(A, at + 1, end) >= 0:
            raise PackError(
                f"block {start // r + 1} has {w.count(A, start, end)} a's; at most one allowed"
            )
        out.append(at - start + 1 if at >= 0 else None)
    return tuple(out)


def unpack(packed: Packed) -> str:
    """Inverse of pack; the packed tuple fixes r."""
    r = len(packed)
    out = []
    for idx, v in enumerate(packed):
        if v is None:
            out.append(B * r)
        elif isinstance(v, int) and 1 <= v <= r:
            out.append(B * (v - 1) + A + B * (r - v))
        else:
            raise PackError(f"entry {v!r} at block {idx + 1} is not None or in 1..{r}")
    return "".join(out)


def pack_family(words) -> tuple[list[Packed], int]:
    """Distinct packed members in lexicographic order, plus the block size.

    The distinct words are sorted once: among good words of one length,
    string order (a < b) is packed order. Each block is then read as a
    column, one slice per word looked up among the r blocks with one a,
    and the columns zip into the members. A word of the wrong length or
    with some other block is a fault; the first faulty distinct word in
    input order is named, a letter outside {a, b} as a PackError.
    """
    ws = list(words)
    if not ws:
        raise PreconditionError("family is empty; block size undetermined")
    n = len(ws[0])
    r = block_count(n)
    content = {B * (c - 1) + A + B * (r - c): c for c in range(1, r + 1)}
    distinct = sorted(set(ws))
    columns = [
        list(map(content.get, map(itemgetter(slice(s, s + r)), distinct)))
        for s in range(0, n, r)
    ]
    if any(None in column for column in columns) or {n} != set(map(len, distinct)):
        for w in dict.fromkeys(ws):
            if len(w) != n:
                raise PreconditionError(f"family member {w!r} has mismatched length")
            if not all(w[s : s + r] in content for s in range(0, n, r)):
                check_block_word(w)  # a letter outside {a, b} is a PackError
                raise PreconditionError(f"family member {w!r} is not good")
    return list(zip(*columns)), r


def packed_to_str(packed: Packed) -> str:
    return ",".join("_" if v is None else str(v) for v in packed)


def packed_from_str(text: str) -> Packed:
    parts = text.split(",") if text else []
    out = []
    for part in parts:
        part = part.strip()
        # more digits than r is out of range, and may be too many for int()
        digits = part.lstrip("0")
        if part == "_":
            out.append(None)
        elif part.isdecimal() and 0 < len(digits) <= len(parts):
            out.append(int(digits))
        else:
            raise PackError(f"entry {part!r} is not '_' or an integer in 1..{len(parts)}")
    packed = tuple(out)
    unpack(packed)  # range check against r = len(packed)
    return packed


def tau(w: str) -> frozenset[int]:
    """1-indexed positions carrying an a."""
    check_block_word(w)
    return frozenset(i + 1 for i, sym in enumerate(w) if sym == A)


def word_from_positions(n: int, positions) -> str:
    """The length-n word with a exactly on the given 1-indexed positions."""
    block_count(n)
    pos = set(positions)
    if not all(isinstance(p, int) and 1 <= p <= n for p in pos):
        raise PackError(f"positions must be integers in 1..{n}")
    return "".join(A if i + 1 in pos else B for i in range(n))


def count_good(n: int) -> int:
    """r**r, the number of good words of length n, refused beyond K_LIMIT_WORK_LIMIT."""
    r = block_count(n)
    # past the limit's bit length r**r >= 2**r exceeds it, so no huge power is taken
    if r > K_LIMIT_WORK_LIMIT.bit_length() or r**r > K_LIMIT_WORK_LIMIT:
        raise SearchBudgetError(
            f"the good family of length {n} has {r}**{r} words, beyond desk scale"
        )
    return r**r


def enumerate_good(n: int) -> list[str]:
    """All good words of length n in lexicographic order (a < b).

    The family is refused before any word is built when count_good refuses it.
    """
    count_good(n)
    r = isqrt(n)
    return [unpack(p) for p in product(range(1, r + 1), repeat=r)]


def enumerate_bad(n: int) -> list[str]:
    """All bad words of length n in lexicographic order."""
    r = block_count(n)
    out = []
    for empty in range(r):
        for rest in product(range(1, r + 1), repeat=r - 1):
            packed = rest[:empty] + (None,) + rest[empty:]
            out.append(unpack(packed))
    return sorted(out)


def agree_on(u: str, w: str, positions) -> bool:
    return all(u[p - 1] == w[p - 1] for p in positions)


def letter_masks(words, n: int) -> dict[tuple[int, str], int]:
    """Bit j of masks[(p, x)] is set when words[j] carries x at position p.

    Every word must have length n; pairs no word carries are left out.
    """
    joined = "".join(words)
    masks = {}
    for p in range(1, n + 1):
        column = joined[p - 1 :: n][::-1]  # word j at bit j
        letters = set(column)
        for x in letters:
            bits = column.translate({ord(y): "1" if y == x else "0" for y in letters})
            masks[(p, x)] = int(bits, 2)
    return masks


def members_of(mask: int, items) -> list:
    """The items whose index is a bit of mask, in order."""
    return list(compress(items, map(int, reversed(f"{mask:b}"))))


def check_limit_budget(n: int, k: int, family_size: int) -> None:
    """Refuse a limit check whose position sets times members exceed K_LIMIT_WORK_LIMIT."""
    sets = comb(n, min(k, n))
    if sets * max(family_size, 1) > K_LIMIT_WORK_LIMIT:
        raise SearchBudgetError(f"limit check over {sets} position sets is beyond desk scale")


def k_limit_counterexample(
    u: str, family, k: int
) -> tuple[int, ...] | None:
    """The first position set of size min(k, n) no member matches, or None.

    Position sets are scanned in lexicographic order, so the reported
    counterexample is stable. Agreement on a set implies agreement on
    its subsets, so only maximal sets need checking. The members that
    match u on a set are the AND of agree[p] over its positions, agree[p]
    being the mask of members that carry u's letter at p.
    """
    if k < 0:
        raise PackError("k must be nonnegative")
    fam = list(family)
    n = len(u)
    for w in fam:
        if len(w) != n:
            raise PackError("family words must have the same length as u")
    check_limit_budget(n, k, len(fam))
    size = min(k, n)
    masks = letter_masks(fam, n)
    agree = [masks.get((p, x), 0) for p, x in enumerate(u, 1)]
    everyone = (1 << len(fam)) - 1
    for ps in combinations(range(1, n + 1), size):
        matched = everyone
        for p in ps:
            matched &= agree[p - 1]
        if not matched:
            return ps
    return None


def is_k_limit(u: str, family, k: int) -> bool:
    """Does every k-position probe of u match some member of the family?

    Note an empty family has no limits (for n, k >= 1), and any member
    of the family is trivially a limit of it.
    """
    return k_limit_counterexample(u, family, k) is None
