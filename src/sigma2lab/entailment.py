"""Entailment between packed constraints, tangled families, encodings.

A packed family Phi lists good words as tuples over {1..r}. A pair
(p, c) constrains a member to carry content c at position p. A set S of
pairs with distinct positions entails an i-set D (pairs sharing
position i, distinct contents) when every member agreeing with all of S
agrees with at least one pair of D.

The family is k-tangled when for every member nu and every position i
some k pairs of nu away from i entail an i-set of at most k pairs. That
always pins down nu's own pair at i, which is what makes tangled
families compressible: each member is reconstructed from a few freely
given positions plus one small digit per derived position, so tangled
families are small. A family that is not tangled instead hands us a
member nu and a position i such that emptying nu's block i produces a
bad word no k positions can separate from the family. Every family
falls on one side or the other; that is the dichotomy the laboratory
runs end to end.

The searches read a family through its FamilyIndex, which carries the
block count r and one member mask per (position, content) pair. The
members satisfying a set of pairs are the AND of their masks, the
members satisfying some pair of an i-set the OR, so S entails D exactly
when S's AND has no bit outside D's OR.
entails keeps the member-by-member scan of the definition, as the
independent check of every certificate the index finds.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import reduce
from itertools import combinations
from math import comb
from operator import and_, or_

from .blockwords import (
    A,
    B,
    Packed,
    block_count,
    check_block_word,
    is_bad,
    is_k_limit,
    unpack,
)
from .errors import (
    DegeneracyError,
    MalformedPairSetError,
    NotTangledError,
    PackError,
    PreconditionError,
    SearchBudgetError,
    VerificationError,
)

Pair = tuple[int, int]  # (position, content), both 1-indexed


# budgets for the exhaustive searches, like blockwords.K_LIMIT_WORK_LIMIT;
# raise them consciously, not by default
MAX_R = 5
MAX_K = 2


def pack_family(words) -> tuple[list[Packed], int]:
    """Distinct packed members in lexicographic order, plus the block size.

    Distinct words are checked once each, in input order. A word of r
    a's, n - r b's and an a in every block is good, so one find per
    block packs it.
    """
    ws = list(words)
    if not ws:
        raise PreconditionError("family is empty; block size undetermined")
    n = len(ws[0])
    r = block_count(n)
    starts = range(0, n, r)
    members = set()
    for w in dict.fromkeys(ws):
        if len(w) != n:
            raise PreconditionError(f"family member {w!r} has mismatched length")
        packed = tuple([w.find(A, s, s + r) - s + 1 for s in starts])
        if min(packed) < 1 or w.count(A) != r or w.count(B) != n - r:
            check_block_word(w)  # a letter outside {a, b} is a PackError
            raise PreconditionError(f"family member {w!r} is not good")
        members.add(packed)
    return sorted(members), r


@dataclass(frozen=True)
class FamilyIndex:
    """A packed family of r-block members, one mask per (position, content) pair.

    Bit j of at[(p, c)] is set when members[j] has content c at block p;
    pairs no member carries are left out. Every search reads r here.
    """

    members: tuple[Packed, ...]
    r: int
    at: dict = field(compare=False, repr=False)
    everyone: int = field(repr=False)

    def masks(self, pairs) -> list[int]:
        """The mask of each pair, in order."""
        return [self.at.get(pair, 0) for pair in pairs]

    def matching(self, pairs) -> int:
        """The members that satisfy every pair: an AND of masks."""
        return reduce(and_, self.masks(pairs), self.everyone)

    def meeting(self, pairs) -> int:
        """The members that satisfy some pair: an OR of masks."""
        return reduce(or_, self.masks(pairs), 0)


def index_family(Phi, r: int) -> FamilyIndex:
    """The index of a packed family's distinct r-block members, in sorted order."""
    members = tuple(sorted(set(Phi)))
    at: dict[Pair, int] = {}
    for j, mu in enumerate(members):
        for pair in enumerate(mu, 1):
            at[pair] = at.get(pair, 0) | 1 << j
    return FamilyIndex(members, r, at, (1 << len(members)) - 1)


def _checked_pairs(items, r: int | None) -> tuple[Pair, ...]:
    """Sorted (position, content) pairs of positive integers, within r if given.

    True is no integer here, though Python counts it as 1.
    """
    out = []
    for item in items:
        p, c = item
        if not (type(p) is int and type(c) is int and p >= 1 and c >= 1):
            raise MalformedPairSetError(f"pair {item!r} is not two positive integers")
        if r is not None and (p > r or c > r):
            raise MalformedPairSetError(f"pair {item!r} is out of range for r={r}")
        out.append((p, c))
    return tuple(sorted(out))


def entails(S, D, Phi) -> bool:
    """Does every member satisfying all of S satisfy some pair of D?"""
    members = list(Phi)
    r = len(members[0]) if members else None
    S = _checked_pairs(S, r)
    if len({p for p, _ in S}) != len(S):
        raise MalformedPairSetError("constraint set repeats a position")
    D = _checked_pairs(D, r)
    if not D:
        raise MalformedPairSetError("an i-set must be nonempty")
    if len({p for p, _ in D}) != 1:
        raise MalformedPairSetError("an i-set must keep to a single position")
    if len({c for _, c in D}) != len(D):
        raise MalformedPairSetError("an i-set must not repeat contents")
    for mu in members:
        if all(mu[p - 1] == c for p, c in S):
            if not any(mu[p - 1] == c for p, c in D):
                return False
    return True


def find_entailment(index: FamilyIndex, k: int, available, i: int):
    """Lex-first (S, D) with S drawn from available pairs, or None.

    S runs over k-subsets of the available pairs away from position i,
    ordered by position tuple; D runs over i-sets by size then contents.
    The search only consults the family and its arguments, so an encoder
    that knows a member and a decoder that does not stay in lockstep.
    """
    r = index.r
    pool = _checked_pairs(((p, c) for p, c in available if p != i), r)
    i_pairs = [(i, c) for c in range(1, r + 1)]
    i_masks = index.masks(i_pairs)
    d_candidates = [  # (D, the members outside the OR of D's masks)
        (D, ~reduce(or_, masks))
        for size in range(1, k + 1)
        for D, masks in zip(combinations(i_pairs, size), combinations(i_masks, size))
    ]
    for S, masks in zip(combinations(pool, k), combinations(index.masks(pool), k)):
        satisfying = reduce(and_, masks, index.everyone)
        for D, outside in d_candidates:
            if not satisfying & outside:
                return S, D
    return None


def _pairs_of(mu: Packed) -> tuple[Pair, ...]:
    return tuple((p, mu[p - 1]) for p in range(1, len(mu) + 1))


def check_search_budget(r: int, k: int) -> None:
    """Refuse a degenerate k, then an r or k beyond MAX_R or MAX_K."""
    if k < 1:
        raise DegeneracyError("k must be at least 1")
    if k > r - 1:
        raise DegeneracyError(
            f"k={k} needs k constrained positions besides i, but r-1={r - 1}"
        )
    if r > MAX_R or k > MAX_K:
        raise SearchBudgetError(
            f"r={r}, k={k} exceeds the search budget (MAX_R={MAX_R}, MAX_K={MAX_K})"
        )


@dataclass(frozen=True)
class TangledReport:
    """The family is tangled iff witness is None."""

    k: int
    index: FamilyIndex = field(repr=False)  # the packed family, sorted, and its masks
    witness: tuple[Packed, int] | None
    certificates: dict = field(hash=False, repr=False, default_factory=dict)


def is_tangled(family, k: int) -> TangledReport:
    """Decide tangledness; the witness on failure is the lex-first (nu, i).

    The certificate for every (member, position) examined before the
    verdict is confirmed with entails and kept; on a tangled family that
    is all of them, and they are what encode_member walks. The report
    carries the packed family and its index, so either side of the
    dichotomy is built from it without packing, indexing or searching
    again.
    """
    Phi, r = pack_family(family)
    check_search_budget(r, k)
    index = index_family(Phi, r)
    certificates = {}
    for mu in index.members:
        pairs = _pairs_of(mu)
        for i in range(1, r + 1):
            found = find_entailment(index, k, pairs, i)
            if found is None:
                return TangledReport(k, index, (mu, i), certificates)
            S, D = found
            if (i, mu[i - 1]) not in D or not entails(S, D, index.members):
                raise VerificationError(
                    "certificate does not entail the member's own pair"
                )
            certificates[(mu, i)] = found
    return TangledReport(k, index, None, certificates)


# ---------------------------------------------------------------------------
# the non-tangled side: a bad word the family cannot separate


@dataclass(frozen=True)
class EntailmentLimit:
    word: str  # the source member with block emptied
    source: Packed
    block: int


def bad_limit_via_entailment(family, k: int) -> EntailmentLimit | None:
    """The bad k-limit a non-tangled family must contain; None if tangled.

    The returned word is checked exhaustively against the definition of
    a limit, and its packed form against P1 and P2, before it is handed
    out.
    """
    family = list(family)  # read twice: packed, then probed
    report = is_tangled(family, k)
    return None if report.witness is None else _limit(report, family)


def _limit(report: TangledReport, family) -> EntailmentLimit:
    """Empty the witness member's block; the bad word must be a k-limit meeting P1 and P2."""
    nu, i = report.witness
    mu = nu[: i - 1] + (None,) + nu[i:]
    u = unpack(mu)
    if not is_bad(u):
        raise VerificationError("emptying one block of a good word must yield a bad word")
    if not is_k_limit(u, family, report.k):
        raise VerificationError("entailment failure did not produce a k-limit")
    failure = check_packed_limit_conditions(mu, nu, report.index, report.k)
    if failure is not None:
        raise VerificationError(f"limit conditions failed on a constructed limit: {failure}")
    return EntailmentLimit(word=u, source=nu, block=i)


def check_packed_limit_conditions(
    mu: Packed, nu: Packed, index: FamilyIndex, k: int
) -> str | None:
    """The first failing condition, as a message led by its name; None when both hold.

    P1: nu belongs to the family and mu is nu with exactly one block emptied.
    P2: for the emptied position i, whenever forbidden contents C (with
    nu's own content among them) and pinned positions P share a budget
    of k, some member avoids C at i while matching nu on P.

    Any probe of at most k word positions either misses block i's a or
    translates into such a (C, P), so P1 and P2 make unpack(mu) a
    k-limit of the unpacked family.
    """
    members, r = index.members, index.r
    if not members:
        return "P1: family is empty"
    if len(mu) != r or len(nu) != r:
        return "P1: length mismatch with family"
    if nu not in members:
        return "P1: source member is not in the family"
    diffs = [i for i in range(1, r + 1) if mu[i - 1] != nu[i - 1]]
    if len(diffs) != 1:
        return f"P1: words differ at {len(diffs)} positions, need exactly 1"
    i = diffs[0]
    if mu[i - 1] is not None:
        return "P1: the differing block must be emptied"

    nu_i = nu[i - 1]
    other_contents = [c for c in range(1, r + 1) if c != nu_i]
    other_positions = [p for p in range(1, r + 1) if p != i]
    for c_size in range(1, min(k, r) + 1):
        p_size = k - c_size
        for extra in combinations(other_contents, c_size - 1):
            C = frozenset((nu_i,) + extra)
            avoid = index.everyone & ~index.meeting((i, c) for c in C)
            for P in combinations(other_positions, p_size):
                if not avoid & index.matching((p, nu[p - 1]) for p in P):
                    return (
                        f"P2: no member avoids contents {sorted(C)} at position {i} "
                        f"while matching the source on {list(P)}"
                    )
    return None


# ---------------------------------------------------------------------------
# the tangled side: every member compresses


@dataclass(frozen=True)
class MemberCode:
    free_positions: tuple[int, ...]
    free_contents: tuple[int, ...]
    digits: tuple[int, ...]  # index into the sorted i-set, one per derived position


def _derive(index: FamilyIndex, k: int, specified: dict, content) -> bool:
    """Fill the smallest derivable position until all r are set; False on a stall.

    Position i gets content(i, D), D being the sorted i-set that
    find_entailment derives from the pairs specified so far. The
    encoder's replay and the decoder share this loop, so they stay in
    lockstep.
    """
    r = index.r
    while len(specified) < r:
        for i in range(1, r + 1):
            if i not in specified:
                found = find_entailment(index, k, specified.items(), i)
                if found is not None:
                    specified[i] = content(i, sorted(found[1]))
                    break
        else:
            return False
    return True


def encode_member(report: TangledReport, mu: Packed) -> MemberCode:
    """Compress one member of a family the report found tangled.

    A first pass walks the member's certificates from is_tangled in
    position order, skipping positions already covered; so each step
    derives the smallest uncovered position from a certificate over the
    member's full pair set, and positions the certificate leans on that
    are not covered yet become free. Free positions can take at most
    k/(k+1) of the total, which is where the size bound on tangled
    families comes from.

    A second pass replays the derivation exactly as the decoder will:
    only pairs already specified may be used, and each step records
    which pair of the entailed i-set is the member's own.
    """
    if report.witness is not None:
        nu, i = report.witness
        raise NotTangledError(
            f"family is not tangled: member {nu} has no certificate at position {i}"
        )
    if (mu, 1) not in report.certificates:
        raise PreconditionError(f"{mu} is not a member of the family")
    index, k = report.index, report.k
    r = index.r
    free: set[int] = set()
    covered: set[int] = set()
    for i in range(1, r + 1):
        if i not in covered:
            S, _ = report.certificates[(mu, i)]
            fresh = {p for p, _ in S if p not in covered}
            free |= fresh
            covered |= fresh | {i}
    if len(free) * (k + 1) > k * r:
        raise VerificationError(
            "free positions exceed the k/(k+1) share the walk guarantees"
        )

    digits: list[int] = []

    def own_content(i: int, D: list[Pair]) -> int:
        own = (i, mu[i - 1])
        if own not in D:
            raise VerificationError("derived i-set misses the member's own pair")
        digits.append(D.index(own))
        return mu[i - 1]

    specified = {p: mu[p - 1] for p in sorted(free)}
    if not _derive(index, k, specified, own_content):
        raise VerificationError("derivation stalled although the walk succeeded")
    return MemberCode(
        free_positions=tuple(sorted(free)),
        free_contents=tuple(mu[p - 1] for p in sorted(free)),
        digits=tuple(digits),
    )


def decode_member(index: FamilyIndex, k: int, code: MemberCode) -> Packed:
    """Rebuild a member from its code; the inverse of encode_member."""
    r = index.r
    if len(code.free_positions) != len(code.free_contents):
        raise PackError("free positions and contents differ in length")
    if list(code.free_positions) != sorted(set(code.free_positions)):
        raise PackError("free positions must be strictly increasing")
    for p, c in zip(code.free_positions, code.free_contents):
        if not (1 <= p <= r and 1 <= c <= r):
            raise PackError(f"free entry ({p}, {c}) out of range for r={r}")
    stream = iter(code.digits)

    def coded_content(i: int, D: list[Pair]) -> int:
        z = next(stream, None)
        if z is None:
            raise PackError("digit stream exhausted before all positions derived")
        if not 0 <= z < len(D):
            raise PackError(f"digit {z} out of range for an i-set of {len(D)}")
        return D[z][1]

    specified = dict(zip(code.free_positions, code.free_contents))
    if not _derive(index, k, specified, coded_content):
        raise PackError("code does not derive all positions against this family")
    if next(stream, None) is not None:
        raise PackError("digit stream longer than the derivation")
    return tuple(specified[p] for p in range(1, r + 1))


def counting_bound(r: int, k: int) -> int:
    """Ceiling on the size of any k-tangled family of r-block words."""
    m = k * r // (k + 1)
    return comb(r, m) * r**m * k ** (r - m)


@dataclass(frozen=True)
class EncodingReport:
    """Each member's code; the family has len(codes) members."""

    bound: int
    codes: dict = field(hash=False, repr=False, default_factory=dict)


def tangled_encoding(family, k: int) -> EncodingReport:
    """Encode every member of a tangled family and prove it round-trips.

    Raises NotTangledError if the family is not tangled. Injectivity,
    decodability, and the counting bound are all checked here rather
    than trusted.
    """
    return _encoding(is_tangled(family, k))


def _encoding(report: TangledReport) -> EncodingReport:
    """Codes for every member of the family a tangled report covers."""
    index, k = report.index, report.k
    members = index.members
    codes: dict[Packed, MemberCode] = {}
    for mu in members:
        code = encode_member(report, mu)
        back = decode_member(index, k, code)
        if back != mu:
            raise VerificationError(f"decode(encode({mu})) = {back}")
        codes[mu] = code
    if len(set(codes.values())) != len(members):
        raise VerificationError("two members share a code")
    bound = counting_bound(index.r, k)
    if len(members) > bound:
        raise VerificationError(
            f"tangled family of {len(members)} members exceeds the bound {bound}"
        )
    return EncodingReport(bound=bound, codes=codes)


# ---------------------------------------------------------------------------
# the dichotomy runner


@dataclass(frozen=True)
class DichotomyResult:
    family_size: int
    limit: EntailmentLimit | None = None
    encoding: EncodingReport | None = None  # set iff the family is tangled

    @property
    def tangled(self) -> bool:
        return self.encoding is not None


def dichotomy_suite(family, k: int) -> DichotomyResult:
    """Run one family through the dichotomy, verifying whichever side holds.

    A tangled family must encode injectively within the counting bound;
    a family that is not tangled must yield a verified bad k-limit that
    also passes the packed-level conditions. Either failure raises
    VerificationError. Exactly one side applies to any family.
    """
    family = list(family)  # read twice: packed, then probed
    report = is_tangled(family, k)
    size = len(report.index.members)
    if report.witness is None:
        return DichotomyResult(family_size=size, encoding=_encoding(report))
    return DichotomyResult(family_size=size, limit=_limit(report, family))
