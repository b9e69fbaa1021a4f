"""Group-level and matroid-level matching decision procedures.

A group matching from A to B is a bijection f with a + f(a) never landing in
A: a matched basis of the free matroids on A and on B. A basis of M is
matched to a basis of N when some pairing of their elements keeps every
pairwise sum out of E(M); the permutation is normalised away by returning the
target tuple aligned with the (ground-ordered) source.

The matroid-level decision reduces to an independent-transversal question:
with F_i = {b in E(N) : a_i + b not in E(M)}, a transversal of (F_1..F_n)
independent in N is exactly a matched target basis. One SumTable per
ground-set pair holds the rows of every such family as bit masks; the
search returns the least independent transversal of those masks in
polynomial time (matroid-intersection augmenting paths decide where a greedy
pass sticks), cross-checked elsewhere against brute force over all bases and
bijections.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from functools import cached_property

from .additive import GroupSubset
from .errors import BudgetExceededError, InternalCheckError
from .matroids import FreeMatroid, GroundSet, mask_indices

#: Brute-force oracles refuse ranks above this (n! * #bases growth).
BRUTE_FORCE_MAX_RANK = 5

#: The least-violation scan gives up after this many index sets: every
#: family of up to 16 rows is scanned in full.
VIOLATION_SCAN_MAX_SETS = 1 << 16


@dataclass(frozen=True)
class GroupMatching:
    """Pairs (a, f(a)) of a matching from A to B, ordered by a."""

    pairs: tuple


@dataclass(frozen=True)
class RadoVerdict:
    """Either an independent transversal or a minimal violating index set.

    Exactly one field is set. ``violation`` holds 0-based indices J into the
    family with rank(union of F_i, i in J) < |J|, smallest size first, then
    lexicographic.
    """

    transversal: tuple | None = None
    violation: tuple | None = None

    @property
    def has_transversal(self):
        return self.transversal is not None


@dataclass(frozen=True)
class MatchWitness:
    """A matched pair of bases: source[i] + target[perm[i]] avoids E(M).

    The transversal construction absorbs the permutation, so ``perm`` is
    always the identity and ``target`` is aligned with ``source``.
    """

    source: tuple
    target: tuple
    perm: tuple


@dataclass(frozen=True)
class CriterionVerdict:
    """Rank-criterion outcome: holds, or the first violating index set."""

    holds: bool
    violating: tuple | None = None


@dataclass(frozen=True)
class MatchReport:
    """Per-basis outcome of matching M into N.

    ``witnesses`` maps each basis of M (as a frozenset) to its MatchWitness
    or None; ``failing_basis`` is the lexicographically first basis without a
    witness.
    """

    matched: bool
    witnesses: dict
    failing_basis: frozenset | None


def find_group_matching(a: GroupSubset, b: GroupSubset):
    """The lexicographically least matching from A to B, or None.

    This is the free-matroid case of the kernel: the only bases of the free
    matroids on A and on B are A and B, so a matched basis is a matching.
    The pairs are sorted A against the first valid permutation of sorted B.
    """
    if a.group != b.group:
        raise ValueError("subsets live in different groups")
    g = a.group
    if len(a) != len(b):
        raise ValueError(f"size mismatch: |A| = {len(a)}, |B| = {len(b)}")
    if g.zero() in b:
        raise ValueError("0 lies in B; no matching into B can exist")
    if not a:
        return GroupMatching(())
    ga, gb = GroundSet._trusted(g, a.sorted()), GroundSet._trusted(g, b.sorted())
    w = SumTable(ga, gb).match(ga.full_mask, FreeMatroid(gb))
    return None if w is None else GroupMatching(tuple(zip(w.source, w.target)))


class Census:
    """The index-level members of one census; bit k of its bitsets is ``members[k]``.

    ``basis_bits[t]`` has the members whose rank oracle calls the r-subset mask t
    a basis, ``low(x, bound)`` those with rank(x) <= bound; ``order`` lists the
    members' basis masks once each, first seen first. Equal keys, equal members.
    """

    def __init__(self, key, members):
        self.key, self.members = key, tuple(members)
        self.full = (1 << len(self.members)) - 1
        self._low = {}

    @cached_property
    def basis_bits(self):
        if not self.members:
            return {}
        r, ground = self.members[0].rank_value, self.members[0].ground
        return {
            t: sum([1 << k for k, m in enumerate(self.members) if m.rank_mask(t) == r])
            for t in ground.masks_of_size(r)
        }

    def low(self, x, bound):
        if (x, bound) not in self._low:
            self._low[x, bound] = sum(
                [1 << k for k, m in enumerate(self.members) if m.rank_mask(x) <= bound]
            )
        return self._low[x, bound]

    @cached_property
    def order(self):
        return tuple(dict.fromkeys(mask for m in self.members for mask in m.bases_masks))


class SumTable:
    """The matching kernel of one ground-set pair (E(M), E(N)): rows and pure functions.

    ``hit[i]`` is the mask of the j with e_i + f_j in E(M), read from E(M)'s
    differences. A source basis given as a mask over E(M) has the family rows
    ``miss[i] = full_N & ~hit[i]`` over its elements, which one mask search turns
    into a witness; the rank criterion intersects the rows themselves. The table
    depends on the ground sets only, so one instance serves every M on E(M) and
    every N on E(N). ``match`` and ``criterion`` decide one N, ``column`` a whole
    Census. Callers validate ranks and source bases; the kernel does not.
    """

    def __init__(self, ground_m, ground_n):
        self.members = set(ground_m.elements)
        self.ground_m = ground_m
        self.ground_n = ground_n
        self.full = ground_n.full_mask
        index = ground_n._index
        self.hit = tuple(
            sum([1 << index[b] for b in diffs if b in index]) for diffs in ground_m.differences
        )
        self.miss = tuple(self.full & ~h for h in self.hit)

    def match(self, src_mask, n):
        """MatchWitness for the source basis mask into N, or None."""
        chosen = _least_transversal([self.miss[i] for i in mask_indices(src_mask)], n.rank_mask)
        if chosen is None:
            return None
        witness = self._witness(src_mask, chosen)
        _check_witness(self, n, witness, sum(chosen))
        return witness

    def _witness(self, src_mask, bits):
        src = tuple([self.ground_m.elements[i] for i in mask_indices(src_mask)])
        return MatchWitness(src, _elements_at(self.ground_n, bits), tuple(range(len(src))))

    def targets(self, src_mask):
        """The admissible targets of a source basis mask: each r-subset T of E(N) that
        a transversal of the rows ``miss[i]`` reaches, mapped to that transversal's
        bits, in ascending T. The basis is matched into N exactly when some T is a
        basis of N."""
        reach = {0: ()}
        for i in mask_indices(src_mask):
            step = {}
            for t, bits in reach.items():
                for j in mask_indices(self.miss[i] & ~t):
                    step.setdefault(t | 1 << j, bits + (1 << j,))
            reach = step
        return dict(sorted(reach.items()))

    def kept(self, src_mask):
        """The rank criterion's (J, X_J, r - |J|) with |X_J| > r - |J|, by size, then
        lexicographic: every other J holds for every N, as rank <= size."""
        rows = [self.hit[i] for i in mask_indices(src_mask)]
        r, kept = len(rows), []
        for size in range(1, r + 1):
            for j in itertools.combinations(range(r), size):
                inter = self.full
                for i in j:
                    inter &= rows[i]
                if inter.bit_count() > r - size:
                    kept.append((j, inter, r - size))
        return kept

    def column(self, src_mask, census):
        """(ok, holds) bitsets of a Census on E(N): the members the source basis mask
        is matched into (some admissible target is a basis) and those where its rank
        criterion holds. Each pairing that is some member's least target has its sums
        checked, once per call."""
        ok, holds = 0, census.full
        for t, bits in self.targets(src_mask).items():
            members = census.basis_bits.get(t, 0)
            if members & ~ok:
                _check_witness(self, None, self._witness(src_mask, bits), t)
                ok |= members
        for _, x, bound in self.kept(src_mask):
            holds &= census.low(x, bound)
        return ok, holds

    def criterion(self, src_mask, n):
        """Rank criterion for the source basis mask; see rank_criterion."""
        for j, inter, bound in self.kept(src_mask):
            if n.rank_mask(inter) > bound:
                return CriterionVerdict(False, j)
        return CriterionVerdict(True)


def _least_transversal(rows, rank_mask):
    """The least independent transversal of mask rows, or None.

    One single-bit mask per row; least means the first row takes the lowest
    bit it can, then the second, and so on. Taking the lowest independent bit
    of each row in turn answers most calls at once. Where that sticks,
    augmenting paths complete the transversal or prove that none exists, and
    each row in turn then moves to the lowest bit it can take while the later
    rows still complete, which keeps the search polynomial.
    """
    assign, cur = [], 0
    for row in rows:
        avail = row & ~cur
        while avail:
            low = avail & -avail
            if rank_mask(cur | low) > len(assign):
                break
            avail ^= low
        if not avail:
            break
        assign.append(low)
        cur |= low
    else:
        return assign
    picks = assign
    assign = picks + [0] * (len(rows) - len(picks))
    for r in range(len(picks), len(rows)):
        if not _augment(rows, rank_mask, 0, assign, r, rows[r]):
            return None
    # The rows before the first one a path moved hold their least bits.
    fixed = next(i for i, p in enumerate(picks + [0]) if assign[i] != p)
    base = sum(assign[:fixed])
    for i in range(fixed, len(rows)):
        lower = rows[i] & (assign[i] - 1) & ~base
        if lower:
            sub = [0, *assign[i + 1:]]
            if _augment(rows[i:], rank_mask, base, sub, 0, lower):
                assign[i:] = sub
        base |= assign[i]
    return assign


def _augment(rows, rank_mask, base, assign, start, lower):
    """Give the unassigned row ``start`` the lowest bit of ``lower`` that
    begins an augmenting path, and apply the path; False if no bit does.

    The rows work in N contracted by the independent mask ``base``. A bit c
    not held ends a path when it keeps the taken bits independent; a row
    reaches an end when its own row has an end bit, or a bit that displaces
    a row that reaches one: that row's bit, or a free c for which dropping
    that row's bit keeps the taken bits independent. The reaching rows grow
    breadth first backwards from the ends, so each follows a shortest path,
    which has no shortcut; its swaps together keep the taken bits
    independent (the matroid-intersection exchange lemma).
    """
    taken = base
    for s in assign:
        taken |= s
    size = taken.bit_count()
    spare = lower
    for row in rows:
        spare |= row
    ends, into, free = 0, {v: s for v, s in enumerate(assign) if s}, spare & ~taken
    while free:
        c = free & -free
        free ^= c
        if rank_mask(taken | c) > size:
            ends |= c
            continue
        for v, s in enumerate(assign):
            if s and rank_mask((taken ^ s) | c) == size:
                into[v] |= c
    first = lower & -lower
    good, hop, reach = ends, {}, [None]
    for w in reach:
        bits = ends if w is None else into[w]
        for v in into:
            if v not in hop and rows[v] & bits:
                hop[v] = (rows[v] & bits & -(rows[v] & bits), w)
                reach.append(v)
                good |= into[v]
        if good & first:
            break
    c = lower & good & -(lower & good)
    if not c:
        return False
    u = start
    w = None if c & ends else next(w for w in reach[1:] if c & into[w])
    while w is not None:
        assign[u] = c
        u = w
        c, w = hop[u]
    assign[u] = c
    return True


def _least_violation(rows, rank_mask):
    """The first index set J, smallest first, then lexicographic, whose rows
    have a union of rank < |J|: Rado's certificate that no transversal
    exists. The scan is exponential in the number of rows, so it raises
    BudgetExceededError after VIOLATION_SCAN_MAX_SETS sets."""
    index_sets = itertools.chain.from_iterable(
        itertools.combinations(range(len(rows)), size) for size in range(1, len(rows) + 1)
    )
    for j in itertools.islice(index_sets, VIOLATION_SCAN_MAX_SETS):
        union = 0
        for i in j:
            union |= rows[i]
        if rank_mask(union) < len(j):
            return j
    if (1 << len(rows)) - 1 > VIOLATION_SCAN_MAX_SETS:
        raise BudgetExceededError(
            f"no Rado violation among the first {VIOLATION_SCAN_MAX_SETS} index sets "
            f"of {len(rows)} rows"
        )
    raise InternalCheckError(
        "no transversal found but every index set satisfies the rank condition"
    )


def rado_transversal(family, matroid) -> RadoVerdict:
    """Independent transversal of the family in the matroid, or a violating J.

    Element front end of the kernel's mask search; on failure the returned J
    certificate re-verifies by direct rank evaluation.
    """
    n = matroid.rank_value
    family = list(family)
    if len(family) != n:
        raise ValueError(
            f"family size {len(family)} differs from the matroid rank {n}"
        )
    ground = matroid.ground
    rows = [ground.mask_of(f) for f in family]
    chosen = _least_transversal(rows, matroid.rank_mask)
    if chosen is None:
        return RadoVerdict(violation=_least_violation(rows, matroid.rank_mask))
    return RadoVerdict(transversal=_elements_at(ground, chosen))


def _elements_at(ground, bits):
    """The ground elements at single-bit masks, in the order given."""
    return tuple([ground.elements[bit.bit_length() - 1] for bit in bits])


def rado_transversal_brute(family, matroid) -> RadoVerdict:
    """Same decision by brute force over all tuples; oracle for the search."""
    n = matroid.rank_value
    family = [sorted(f) for f in family]
    if len(family) != n:
        raise ValueError(
            f"family size {len(family)} differs from the matroid rank {n}"
        )
    if n > BRUTE_FORCE_MAX_RANK:
        raise BudgetExceededError(f"brute force refuses rank {n} > {BRUTE_FORCE_MAX_RANK}")
    for combo in itertools.product(*family):
        if len(set(combo)) != n:
            continue
        if matroid.is_independent(combo):
            return RadoVerdict(transversal=tuple(combo))
    for size in range(1, n + 1):
        for j in itertools.combinations(range(n), size):
            union = set().union(*(family[i] for i in j))
            if matroid.rank(union) < size:
                return RadoVerdict(violation=j)
    raise InternalCheckError("brute force found neither transversal nor violation")


def _source_mask(m, source_basis):
    elems = list(source_basis)
    mask = m.ground.mask_of(elems)
    if mask.bit_count() != len(elems) or not m.is_basis_mask(mask):
        raise ValueError(f"{sorted(elems)} is not a basis of the source matroid")
    return mask


def match_basis(m, source_basis, n):
    """Match one basis of M to some basis of N, or None if impossible.

    Equivalent to the existence of a permutation pairing the source with a
    target basis so that all pairwise sums avoid E(M); agreement with the
    brute-force bijection oracle is part of the test suite.
    """
    _require_equal_positive_ranks(m, n)
    return SumTable(m.ground, n.ground).match(_source_mask(m, source_basis), n)


def _check_witness(table, n, witness, target_mask):
    """The target is a basis of N (if N is given); no witness sum lands in E(M), by sum_in."""
    if n is not None and not n.is_basis_mask(target_mask):
        raise InternalCheckError("matched target is not a basis of N")
    g = table.ground_m.group
    for a, b in zip(witness.source, witness.target):
        if g.sum_in(a, b, table.members):
            raise InternalCheckError(f"witness sum {a} + {b} lands in E(M)")


def match_basis_brute(m, source_basis, n):
    """Oracle: try every basis of N and every bijection (rank <= 5)."""
    _require_equal_positive_ranks(m, n)
    src = m.ground.elems_of(_source_mask(m, source_basis))
    if len(src) > BRUTE_FORCE_MAX_RANK:
        raise BudgetExceededError(
            f"brute force refuses rank {len(src)} > {BRUTE_FORCE_MAX_RANK}"
        )
    g = m.ground.group
    e_m = set(m.ground.elements)
    for basis_mask in n.bases_masks:
        basis = n.ground.elems_of(basis_mask)
        for perm in itertools.permutations(basis):
            if all(not g.sum_in(a, b, e_m) for a, b in zip(src, perm)):
                return MatchWitness(src, perm, tuple(range(len(src))))
    return None


def _require_equal_positive_ranks(m, n):
    if m.ground.group != n.ground.group:
        raise ValueError("matroids live over different groups")
    if m.rank_value != n.rank_value:
        raise ValueError(
            f"rank mismatch: r(M) = {m.rank_value}, r(N) = {n.rank_value}"
        )
    if m.rank_value == 0:
        raise ValueError("matching needs positive rank")


def match_matroid(m, n) -> MatchReport:
    """Whether every basis of M is matched to some basis of N.

    Scans all bases in lexicographic order over one sum table; the failing
    basis reported is the lexicographically first one, determined after a
    full scan.
    """
    _require_equal_positive_ranks(m, n)
    table = SumTable(m.ground, n.ground)
    witnesses = {}
    failing = None
    for mask, basis in zip(m.bases_masks, m.bases()):
        w = table.match(mask, n)
        witnesses[basis] = w
        if w is None and failing is None:
            failing = basis
    return MatchReport(failing is None, witnesses, failing)


def mutually_matched(m, n) -> bool:
    """Convenience: matched in both directions."""
    return match_matroid(m, n).matched and match_matroid(n, m).matched


def rank_criterion(m, source_basis, n) -> CriterionVerdict:
    """Sufficient condition for match_basis success via ranks of translate intersections.

    Checks, for every nonempty J (by size, then lexicographically), that the
    set of common targets {b in E(N) : a_i + b in E(M) for all i in J} has
    rank at most n - |J| in N. When this holds, a matched basis exists; the
    converse is not asserted.
    """
    _require_equal_positive_ranks(m, n)
    return SumTable(m.ground, n.ground).criterion(_source_mask(m, source_basis), n)
