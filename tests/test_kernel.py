"""Differential tests: the sum-table matching kernel against brute force.

Hypothesis draws a group (cyclic, product, or an integer window whose
pairwise sums may leave the window), ground sets in drawn (not sorted) order,
and matroids of all five representations. match_basis, match_matroid,
rado_transversal and rank_criterion must agree with match_basis_brute and
rado_transversal_brute, and every witness must re-validate from scratch.
"""

import itertools
import random

from hypothesis import given, settings
from hypothesis import strategies as st

from matchroid import (
    BasisListMatroid,
    ChSparsePavingMatroid,
    CyclicGroup,
    FreeMatroid,
    GroundSet,
    IntegerWindow,
    ProductGroup,
    UniformMatroid,
    enumerate_partition_matroids,
    match_basis,
    match_basis_brute,
    match_matroid,
    rado_transversal,
    rado_transversal_brute,
    rank_criterion,
)

GROUPS = (
    CyclicGroup(5),
    CyclicGroup(8),
    CyclicGroup(11),
    ProductGroup([2, 3]),
    ProductGroup([2, 2, 2]),
    ProductGroup([3, 3]),
    IntegerWindow(-4, 4),
    IntegerWindow(0, 6),
)
REPS = ("uniform", "free", "bases", "ch", "partition")

KERNEL_SETTINGS = settings(max_examples=150, deadline=None)


@st.composite
def matroids(draw, group, rank, rep):
    elems = list(group.elements())
    size = rank if rep == "free" else draw(st.integers(rank, min(rank + 3, len(elems))))
    ground = GroundSet(
        group, draw(st.lists(st.sampled_from(elems), min_size=size, max_size=size, unique=True))
    )
    if rep == "free":
        return FreeMatroid(ground)
    if rep == "bases":
        source = draw(matroids(group, rank, draw(st.sampled_from(("uniform", "ch", "partition")))))
        family = draw(st.permutations(source.bases()))
        return BasisListMatroid(source.ground, family)
    if rep == "partition":
        return draw(st.sampled_from(enumerate_partition_matroids(ground, rank)))
    if rep == "ch":
        chosen = []
        for mask in ground.masks_of_size(rank):
            if draw(st.booleans()) and all((mask & c).bit_count() <= rank - 2 for c in chosen):
                chosen.append(mask)
        try:
            return ChSparsePavingMatroid(ground, rank, chosen, _from_masks=True)
        except ValueError:  # some element lies in no basis, or too many sets
            return ChSparsePavingMatroid(ground, rank, [], _from_masks=True)
    return UniformMatroid(ground, rank)


@st.composite
def matroid_pairs(draw):
    group = draw(st.sampled_from(GROUPS))
    rank = draw(st.integers(1, 3))
    m = draw(matroids(group, rank, draw(st.sampled_from(REPS))))
    n = draw(matroids(group, rank, draw(st.sampled_from(REPS))))
    return m, n


def _index_order(m, basis):
    return sorted(m.ground.index(e) for e in basis)


def _assert_valid_witness(m, n, basis, witness):
    group = m.ground.group
    assert witness.source == tuple(sorted(basis, key=m.ground.index))
    assert witness.perm == tuple(range(len(basis)))
    assert len(set(witness.target)) == n.rank_value
    assert all(b in n.ground for b in witness.target)
    assert n.is_independent(witness.target)
    e_m = set(m.ground.elements)
    for a, b in zip(witness.source, witness.target):
        assert not group.sum_in(a, b, e_m)


@KERNEL_SETTINGS
@given(matroid_pairs())
def test_match_agrees_with_brute_force(pair):
    m, n = pair
    report = match_matroid(m, n)
    first_failing = None
    lexicographic = sorted(m.bases(), key=lambda b: _index_order(m, b))
    assert list(m.bases()) == lexicographic
    for basis in lexicographic:
        got = match_basis(m, basis, n)
        assert (got is None) == (match_basis_brute(m, basis, n) is None)
        assert report.witnesses[basis] == got
        if got is not None:
            _assert_valid_witness(m, n, basis, got)
        elif first_failing is None:
            first_failing = basis
        if rank_criterion(m, basis, n).holds:
            assert got is not None
    assert report.matched == (first_failing is None)
    assert report.failing_basis == first_failing


@KERNEL_SETTINGS
@given(st.data())
def test_rado_agrees_with_brute_force(data):
    group = data.draw(st.sampled_from(GROUPS))
    rank = data.draw(st.integers(1, 3))
    n = data.draw(matroids(group, rank, data.draw(st.sampled_from(REPS))))
    family = [
        data.draw(st.sets(st.sampled_from(n.ground.elements))) for _ in range(rank)
    ]
    got = rado_transversal(family, n)
    brute = rado_transversal_brute(family, n)
    assert got.has_transversal == brute.has_transversal
    if got.has_transversal:
        assert len(set(got.transversal)) == rank
        assert all(t in f for t, f in zip(got.transversal, family))
        assert n.is_independent(got.transversal)
        assert got.transversal == _least_transversal_brute(family, n)
    else:
        assert got.violation == brute.violation
        union = set().union(*(family[i] for i in got.violation))
        assert n.rank(union) < len(got.violation)


def _least_transversal_brute(family, n):
    """The first independent transversal, rows in order, each in ground order."""
    rows = [sorted(f, key=n.ground.index) for f in family]
    for combo in itertools.product(*rows):
        if len(set(combo)) == len(combo) and n.is_independent(combo):
            return combo
    return None


def _greedy_sticks(family, n):
    """Whether taking each row's first independent element in turn gets stuck."""
    picked = []
    for f in family:
        low = next((e for e in sorted(f, key=n.ground.index)
                    if e not in picked and n.is_independent(picked + [e])), None)
        if low is None:
            return True
        picked.append(low)
    return False


def test_transversal_is_the_least_where_the_greedy_pass_sticks():
    # At ranks 4 and 5 the lowest-first pass often sticks, and the kernel
    # falls back to augmenting paths; the answer must still be the least
    # transversal, and a failure must still carry a violation.
    rng = random.Random(7)
    ground = GroundSet(CyclicGroup(11), range(8))
    stuck = 0
    for rank in (4, 5):
        census = [UniformMatroid(ground, rank), *enumerate_partition_matroids(ground, rank)]
        for n in rng.sample(census, 12):
            for _ in range(25):
                family = [{e for e in range(8) if rng.random() < 0.35} for _ in range(rank)]
                got = rado_transversal(family, n)
                want = _least_transversal_brute(family, n)
                assert got.transversal == want
                if want is None:
                    union = set().union(*(family[i] for i in got.violation))
                    assert n.rank(union) < len(got.violation)
                else:
                    stuck += _greedy_sticks(family, n)
    assert stuck >= 100
