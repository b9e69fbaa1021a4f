"""Matroids whose ground sets live inside an abelian group.

Five representations share one interface: uniform, free, explicit basis list,
sparse paving given by its circuit-hyperplanes, and partition matroids.
Subsets of the ground set are bit masks over the fixed element order, which
keeps the C(m, n) enumerations and Johnson-graph checks cheap.

Matroid values are immutable after construction; the rank oracle is a pure
function, so instances can be shared freely between threads.
"""

from __future__ import annotations

import copy
import itertools
import math
from functools import cached_property

from .errors import BudgetExceededError, InternalCheckError
from .groups import _int

#: Enumeration of circuits/hyperplanes refuses larger ground sets.
SUBSET_ENUM_BUDGET = 16
#: Sparse paving census refuses ground/rank pairs with more n-subsets.
CENSUS_BUDGET = 64

NOT_PAVING = "not-paving"
PAVING = "paving"
SPARSE_PAVING = "sparse-paving"


class GroundSet:
    """An ordered, duplicate-free tuple of group elements.

    The construction order is fixed and defines all lexicographic conventions
    downstream (basis enumeration order, tie-breaks in witnesses).
    """

    def __init__(self, group, elements):
        elems = tuple(elements)
        for e in elems:
            group.check(e)
        if len(set(elems)) != len(elems):
            raise ValueError("ground set contains duplicate elements")
        self.group = group
        self.elements = elems
        self._index = {e: i for i, e in enumerate(elems)}

    @classmethod
    def _trusted(cls, group, elements):
        """Skip validation: ``elements`` are distinct, already valid elements of ``group``."""
        self = cls.__new__(cls)
        self.group, self.elements = group, tuple(elements)
        self._index = {e: i for i, e in enumerate(self.elements)}
        return self

    def __len__(self):
        return len(self.elements)

    def __contains__(self, e):
        return e in self._index

    def index(self, e):
        try:
            return self._index[e]
        except KeyError:
            raise ValueError(f"element {e!r} is not in the ground set") from None

    @property
    def full_mask(self):
        return (1 << len(self.elements)) - 1

    @cached_property
    def differences(self):
        """{x - a : x in E} for each element a: b is in differences[i] iff a_i + b is in E."""
        sub = self.group.sub_exact
        return tuple([sub(x, a) for x in self.elements] for a in self.elements)

    def mask_of(self, elems):
        mask = 0
        for e in elems:
            mask |= 1 << self.index(e)
        return mask

    def elems_of(self, mask):
        return tuple(e for i, e in enumerate(self.elements) if mask >> i & 1)

    def set_of(self, mask):
        return frozenset(self.elems_of(mask))

    def masks_of_size(self, k):
        """All k-subsets as masks, in lexicographic order of index tuples."""
        for combo in itertools.combinations(range(len(self.elements)), k):
            mask = 0
            for i in combo:
                mask |= 1 << i
            yield mask

    def __eq__(self, other):
        return (
            isinstance(other, GroundSet)
            and self.group == other.group
            and self.elements == other.elements
        )

    def __hash__(self):
        return hash((self.group, self.elements))

    def __repr__(self):
        return f"GroundSet({self.group!r}, {list(self.elements)!r})"


class Matroid:
    """Rank oracle plus basis/circuit/hyperplane enumeration over a GroundSet."""

    rep = "abstract"

    def __init__(self, ground):
        self.ground = ground

    # -- rank ----------------------------------------------------------------

    @property
    def rank_value(self):
        raise NotImplementedError

    def rank_mask(self, mask):
        raise NotImplementedError

    def on(self, ground):
        """This matroid with its index-level structure moved onto ``ground``.

        Every representation stores only masks, ranks and capacities over
        element indices, so a census built once on one ground set serves
        every ground set of its size; the verifiers bind a member to its
        real ground set only to report it.
        """
        if len(ground) != len(self.ground):
            raise ValueError(
                f"cannot move {len(self.ground)} elements onto {len(ground)}"
            )
        bound = copy.copy(self)
        bound.ground = ground
        return bound

    def rank(self, subset=None):
        if subset is None:
            return self.rank_value
        return self.rank_mask(self.ground.mask_of(subset))

    def is_independent(self, subset):
        mask = self.ground.mask_of(subset)
        return self.rank_mask(mask) == mask.bit_count()

    def is_basis_mask(self, mask):
        n = self.rank_value
        return mask.bit_count() == n and self.rank_mask(mask) == n

    # -- families -------------------------------------------------------------

    @cached_property
    def bases_masks(self):
        n = self.rank_value
        return tuple(m for m in self.ground.masks_of_size(n) if self.rank_mask(m) == n)

    def bases(self):
        """All bases, in lexicographic order of element indices."""
        return tuple(self.ground.set_of(m) for m in self.bases_masks)

    def loops(self):
        covered = 0
        for b in self.bases_masks:
            covered |= b
        return self.ground.set_of(self.ground.full_mask & ~covered)

    def coloops(self):
        common = self.ground.full_mask
        for b in self.bases_masks:
            common &= b
        return self.ground.set_of(common)

    def dual(self):
        """Matroid whose bases are the complements of this one's bases."""
        full = self.ground.full_mask
        masks = [full & ~b for b in self.bases_masks]
        return BasisListMatroid(self.ground, masks, _from_masks=True, _allow_loops=True)

    def _check_budget(self):
        if len(self.ground) > SUBSET_ENUM_BUDGET:
            raise BudgetExceededError(
                f"{len(self.ground)} elements exceed the enumeration budget {SUBSET_ENUM_BUDGET}"
            )

    def circuits(self):
        """Minimal dependent sets, by size then lexicographically."""
        self._check_budget()
        n = self.rank_value
        found = []
        for size in range(1, n + 2):
            for mask in self.ground.masks_of_size(size):
                if any(c & mask == c for c in found):
                    continue
                if self.rank_mask(mask) < size:
                    found.append(mask)
        return tuple(self.ground.set_of(m) for m in found)

    def hyperplanes(self):
        """Flats of rank n-1: adjoining any outside element raises the rank."""
        self._check_budget()
        n = self.rank_value
        out = [
            mask
            for mask in range(1 << len(self.ground))
            if self.rank_mask(mask) == n - 1 and self._is_flat(mask)
        ]
        out.sort(key=lambda x: (x.bit_count(), self.ground.elems_of(x)))
        return tuple(self.ground.set_of(x) for x in out)

    def circuit_hyperplanes(self):
        circuits = set(self.circuits())
        return tuple(h for h in self.hyperplanes() if h in circuits)

    # -- classification ---------------------------------------------------------

    def _is_paving(self):
        n = self.rank_value
        if n <= 1:
            return True
        return all(
            self.rank_mask(m) == n - 1 for m in self.ground.masks_of_size(n - 1)
        )

    def _is_flat(self, mask):
        r = self.rank_mask(mask)
        return all(
            self.rank_mask(mask | (1 << i)) > r
            for i in range(len(self.ground))
            if not mask >> i & 1
        )

    def paving_class(self):
        """One of NOT_PAVING, PAVING, SPARSE_PAVING.

        The sparse test runs both ways on every call: the every-n-subset
        criterion (basis or circuit-hyperplane) and the definitional one
        (matroid and dual both paving) must agree.
        """
        n = self.rank_value
        paving = self._is_paving()
        sparse_by_subsets = paving and all(
            self.rank_mask(m) == n or self._is_flat(m)
            for m in self.ground.masks_of_size(n)
        )
        sparse_by_dual = paving and self.dual()._is_paving()
        if sparse_by_subsets != sparse_by_dual:
            raise InternalCheckError(
                f"sparse paving criteria disagree on {self!r}: "
                f"subset test {sparse_by_subsets}, dual test {sparse_by_dual}"
            )
        if sparse_by_subsets:
            return SPARSE_PAVING
        return PAVING if paving else NOT_PAVING

    # -- common validation -------------------------------------------------------

    def _reject_loops(self):
        loops = self.loops()
        if loops:
            raise ValueError(f"loopless violation: {sorted(loops)} lie in no basis")

    def to_json(self):
        raise NotImplementedError

    def __repr__(self):
        return f"{type(self).__name__}(E={list(self.ground.elements)})"


class UniformMatroid(Matroid):
    """Every n-subset of the ground set is a basis."""

    rep = "uniform"

    def __init__(self, ground, rank):
        super().__init__(ground)
        if not 1 <= _int(rank) <= len(ground):
            raise ValueError(
                f"uniform rank must satisfy 1 <= n <= {len(ground)}, got {rank}"
            )
        self._rank = rank

    @property
    def rank_value(self):
        return self._rank

    def rank_mask(self, mask):
        return min(mask.bit_count(), self._rank)

    def to_json(self):
        return {"kind": "uniform", "rank": self._rank}


class FreeMatroid(UniformMatroid):
    """U(m, m): everything is independent; the unique basis is the whole ground set."""

    rep = "free"

    def __init__(self, ground):
        if len(ground) == 0:
            raise ValueError("free matroid needs a nonempty ground set")
        super().__init__(ground, len(ground))

    def to_json(self):
        return {"kind": "free"}


class BasisListMatroid(Matroid):
    """Matroid given by an explicit basis family (checked for basis exchange)."""

    rep = "bases"

    def __init__(self, ground, bases, *, _from_masks=False, _allow_loops=False):
        super().__init__(ground)
        masks = _lex_masks(ground, bases, _from_masks)
        if not masks:
            raise ValueError("basis list must be nonempty")
        sizes = {m.bit_count() for m in masks}
        if len(sizes) != 1:
            raise ValueError(f"bases must share one size, got sizes {sorted(sizes)}")
        self._rank = sizes.pop()
        self._bases = tuple(masks)
        self._check_exchange()
        if not _allow_loops:
            self._reject_loops()

    def _check_exchange(self):
        basis_set = frozenset(self._bases)
        for b1, b2 in itertools.permutations(self._bases, 2):
            rest = b1 & ~b2
            while rest:
                low = rest & -rest
                rest ^= low
                if not any(
                    ((b1 ^ low) | 1 << y) in basis_set
                    for y in mask_indices(b2 & ~b1)
                ):
                    raise ValueError(
                        "basis exchange fails between "
                        f"{sorted(self.ground.elems_of(b1))} and "
                        f"{sorted(self.ground.elems_of(b2))}"
                    )

    @property
    def rank_value(self):
        return self._rank

    @property
    def bases_masks(self):
        return self._bases

    def rank_mask(self, mask):
        return max((mask & b).bit_count() for b in self._bases)

    def to_json(self):
        return {
            "kind": "bases",
            "list": [sorted(self.ground.elems_of(b)) for b in self._bases],
        }


class ChSparsePavingMatroid(Matroid):
    """Sparse paving matroid given by rank and the set of circuit-hyperplanes.

    Any two listed circuit-hyperplanes intersect in at most n-2 elements, the
    family count respects the binomial circuit-hyperplane bound, and every
    element lies in some basis.
    """

    rep = "ch"

    def __init__(self, ground, rank, circuit_hyperplanes, *, _from_masks=False):
        super().__init__(ground)
        if not 1 <= _int(rank) <= len(ground):
            raise ValueError(f"rank must satisfy 1 <= n <= {len(ground)}, got {rank}")
        self._rank = rank
        masks = _lex_masks(ground, circuit_hyperplanes, _from_masks)
        for m in masks:
            if m.bit_count() != rank:
                raise ValueError(
                    f"circuit-hyperplane {sorted(ground.elems_of(m))} is not an "
                    f"{rank}-subset"
                )
        for a, b in itertools.combinations(masks, 2):
            if (a & b).bit_count() > rank - 2:
                raise ValueError(
                    "circuit-hyperplanes too close: "
                    f"{sorted(ground.elems_of(a))} and {sorted(ground.elems_of(b))} "
                    f"share more than {rank - 2} elements"
                )
        self._ch = tuple(masks)
        self._ch_set = frozenset(masks)
        if not satisfies_ch_count_bound_params(len(ground), rank, len(masks)):
            raise ValueError(
                f"{len(masks)} circuit-hyperplanes exceed the count bound for "
                f"m={len(ground)}, n={rank}"
            )
        self._reject_loops()

    @classmethod
    def _trusted(cls, ground, rank, ch_masks):
        """Skip validation: ``ch_masks`` are lexicographically sorted, pairwise
        within n-2 common elements, within the count bound and loopless."""
        self = cls.__new__(cls)
        Matroid.__init__(self, ground)
        self._rank = rank
        self._ch = tuple(ch_masks)
        self._ch_set = frozenset(self._ch)
        return self

    @property
    def rank_value(self):
        return self._rank

    def rank_mask(self, mask):
        n = self._rank
        size = mask.bit_count()
        if size < n:
            return size
        if size == n and mask in self._ch_set:
            return n - 1
        return n

    @cached_property
    def bases_masks(self):
        n = self._rank
        return tuple(
            m for m in self.ground.masks_of_size(n) if m not in self._ch_set
        )

    def ch_masks(self):
        return self._ch

    def to_json(self):
        return {
            "kind": "ch",
            "rank": self._rank,
            "ch": [sorted(self.ground.elems_of(m)) for m in self._ch],
        }


class PartitionMatroid(Matroid):
    """Independent sets take at most cap_i elements from block i.

    All capacities are at least 1 (a zero capacity would make its block a set
    of loops) and at most the block size. Caps equal to 1 everywhere give a
    transversal matroid.
    """

    rep = "partition"

    def __init__(self, ground, blocks, caps):
        super().__init__(ground)
        block_masks = [ground.mask_of(b) for b in blocks]
        caps = tuple(map(_int, caps))
        if len(caps) != len(block_masks):
            raise ValueError("one capacity per block is required")
        union = 0
        for m in block_masks:
            if union & m:
                raise ValueError("blocks must be disjoint")
            union |= m
        if union != ground.full_mask:
            raise ValueError("blocks must cover the ground set")
        for m, c in zip(block_masks, caps):
            if c < 1:
                raise ValueError(
                    f"loopless violation: block {sorted(ground.elems_of(m))} has "
                    "capacity 0"
                )
            if c > m.bit_count():
                raise ValueError(
                    f"capacity {c} exceeds block size {m.bit_count()}"
                )
        self._blocks = tuple(block_masks)
        self._caps = caps

    @property
    def rank_value(self):
        return sum(self._caps)

    def rank_mask(self, mask):
        return sum(
            min((mask & b).bit_count(), c) for b, c in zip(self._blocks, self._caps)
        )

    @property
    def is_transversal(self):
        return all(c == 1 for c in self._caps)

    def blocks(self):
        return tuple(self.ground.set_of(b) for b in self._blocks)

    def caps(self):
        return self._caps

    def to_json(self):
        return {
            "kind": "partition",
            "blocks": [sorted(self.ground.elems_of(b)) for b in self._blocks],
            "caps": list(self._caps),
        }


def mask_indices(mask):
    """Indices of the set bits of a mask, ascending."""
    out = []
    while mask:
        low = mask & -mask
        out.append(low.bit_length() - 1)
        mask ^= low
    return out


def _lex_masks(ground, family, from_masks):
    """The distinct masks of ``family`` (element sets, or masks if ``from_masks``).

    Sorted in lexicographic order of index tuples, as bases() documents;
    sorting the masks as integers would give colex order instead.
    """
    masks = set(family) if from_masks else {ground.mask_of(s) for s in family}
    return sorted(masks, key=mask_indices)


def satisfies_ch_count_bound_params(m, n, count) -> bool:
    """count <= C(m, n) * min(1/(n+1), 1/(m-n+1)), in exact integer arithmetic."""
    return count * max(n + 1, m - n + 1) <= math.comb(m, n)


def satisfies_ch_count_bound(matroid) -> bool:
    """Circuit-hyperplane count bound for a sparse paving matroid."""
    if matroid.paving_class() != SPARSE_PAVING:
        raise ValueError("the count bound applies to sparse paving matroids")
    count = len(matroid.circuit_hyperplanes())
    return satisfies_ch_count_bound_params(
        len(matroid.ground), matroid.rank_value, count
    )


def enumerate_sparse_paving(ground, rank):
    """Every sparse paving matroid of the given rank on the ground set, once each.

    Families of n-subsets pairwise intersecting in at most n-2 elements are
    exactly the independent sets of the Johnson graph J(|E|, n); each family
    becomes the circuit-hyperplane set of one matroid. Families that would
    leave some element in no basis are skipped. Emission order is
    lexicographic in the chosen subset indices, smallest family first on each
    branch, which is deterministic across runs. Each family is chosen in
    lexicographic order and meets every constraint the validating
    constructor checks (the count bound follows from the Johnson-graph
    independence), so members skip that validation.
    """
    m = len(ground)
    if not 1 <= rank <= m:
        raise ValueError(f"rank must satisfy 1 <= n <= {m}, got {rank}")
    total = math.comb(m, rank)
    if total > CENSUS_BUDGET:
        raise BudgetExceededError(
            f"C({m},{rank}) = {total} n-subsets exceed the census budget {CENSUS_BUDGET}"
        )
    subsets = list(ground.masks_of_size(rank))
    results = []

    def covered(chosen):
        ch_set, union = set(chosen), 0
        for s in subsets:
            if s not in ch_set:
                union |= s
        return union == ground.full_mask

    def grow(start, chosen):
        if covered(chosen):
            results.append(ChSparsePavingMatroid._trusted(ground, rank, chosen))
        for j in range(start, len(subsets)):
            cand = subsets[j]
            if all((cand & c).bit_count() <= rank - 2 for c in chosen):
                chosen.append(cand)
                grow(j + 1, chosen)
                chosen.pop()

    grow(0, [])
    return results


def _set_partitions(items):
    """All set partitions, in a deterministic refinement order."""
    if not items:
        yield []
        return
    first, rest = items[0], items[1:]
    for part in _set_partitions(rest):
        for i in range(len(part)):
            yield part[:i] + [[first] + part[i]] + part[i + 1 :]
        yield [[first]] + part


def enumerate_partition_matroids(ground, rank=None):
    """All partition matroids on the ground set (optionally of one fixed rank).

    Enumerates every block partition together with every capacity assignment
    1 <= cap_i <= |block_i|. Deterministic order.
    """
    elems = list(ground.elements)
    out = []
    for blocks in _set_partitions(elems):
        ranges = [range(1, len(b) + 1) for b in blocks]
        for caps in itertools.product(*ranges):
            if rank is not None and sum(caps) != rank:
                continue
            out.append(PartitionMatroid(ground, blocks, caps))
    return out


