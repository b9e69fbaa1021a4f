import itertools
import random

import pytest

from matchroid import (
    BasisListMatroid,
    BudgetExceededError,
    ChSparsePavingMatroid,
    CyclicGroup,
    FreeMatroid,
    GroundSet,
    IntegerWindow,
    PartitionMatroid,
    UniformMatroid,
    enumerate_partition_matroids,
    enumerate_sparse_paving,
    satisfies_ch_count_bound,
)
from matchroid.matroids import (
    NOT_PAVING,
    PAVING,
    SPARSE_PAVING,
    satisfies_ch_count_bound_params,
)

W = IntegerWindow(0, 40)


def ground(*elems, group=W):
    return GroundSet(group, elems)


def two_block_partition():
    return PartitionMatroid(ground(1, 2, 3, 4), [[1], [2, 3, 4]], [1, 1])


def rank_oracle(matroid, subset):
    """Definitional rank: the largest overlap with an independent set."""
    return max(len(set(subset) & b) for b in matroid.bases())


def test_partition_rank_formula():
    m = two_block_partition()
    assert m.rank([2, 3]) == 1
    assert m.rank([1, 2]) == 2
    assert m.rank([]) == 0


def test_uniform_rank_empty():
    m = UniformMatroid(ground(1, 2, 3, 4, 5), 3)
    assert m.rank([]) == 0
    assert m.rank([1, 2, 3, 4]) == 3


def test_ch_rank_of_circuit_hyperplane():
    m = ChSparsePavingMatroid(ground(1, 2, 3), 2, [[2, 3]])
    assert m.rank([2, 3]) == 1
    assert m.rank([1, 2]) == 2
    assert m.rank([1, 2, 3]) == 2


def test_free_matroid_single_basis():
    m = FreeMatroid(ground(1, 2, 3))
    assert m.bases() == (frozenset({1, 2, 3}),)
    assert m.coloops() == {1, 2, 3}


def test_uniform_bases_lexicographic():
    m = UniformMatroid(ground(1, 2, 3), 2)
    assert [sorted(b) for b in m.bases()] == [[1, 2], [1, 3], [2, 3]]


def test_basis_list_bases_are_lexicographic():
    # Sorting bases as integer masks (colex) would put {2,3} before {1,4}.
    gs = ground(1, 2, 3, 4, 5)
    rng = random.Random(3)
    for rank in (2, 3):
        lex = UniformMatroid(gs, rank).bases()
        sources = enumerate_sparse_paving(gs, rank) + enumerate_partition_matroids(gs, rank)
        for source in sources:
            family = list(source.bases())
            rng.shuffle(family)
            m = BasisListMatroid(gs, family)
            assert m.bases() == tuple(b for b in lex if b in set(family))
            assert m.to_json()["list"] == [sorted(b) for b in m.bases()]
            dual = source.dual()
            dual_lex = UniformMatroid(gs, len(gs) - rank).bases()
            assert dual.bases() == tuple(b for b in dual_lex if b in set(dual.bases()))
    four = BasisListMatroid(ground(1, 2, 3, 4), [[2, 3], [1, 4], [1, 2], [3, 4], [1, 3], [2, 4]])
    assert four.bases() == UniformMatroid(ground(1, 2, 3, 4), 2).bases()


def test_partition_bases_enumeration():
    m = two_block_partition()
    assert [sorted(b) for b in m.bases()] == [[1, 2], [1, 3], [1, 4]]


def test_bases_match_independence_oracle():
    mats = [
        two_block_partition(),
        UniformMatroid(ground(1, 2, 3, 4, 5), 2),
        ChSparsePavingMatroid(ground(1, 2, 3, 4), 2, [[1, 3]]),
        FreeMatroid(ground(2, 5)),
    ]
    for m in mats:
        n = m.rank_value
        expected = [
            frozenset(c)
            for c in itertools.combinations(m.ground.elements, n)
            if m.rank(c) == n
        ]
        assert list(m.bases()) == expected


def test_dual_of_uniform_is_self_dual():
    m = UniformMatroid(ground(1, 2, 3, 4), 2)
    assert sorted(map(sorted, m.dual().bases())) == sorted(map(sorted, m.bases()))


def test_dual_of_free_is_rank_zero():
    d = FreeMatroid(ground(1, 2, 3)).dual()
    assert d.rank_value == 0
    assert d.bases() == (frozenset(),)
    assert d.loops() == {1, 2, 3}


def test_dual_involution_on_random_matroids():
    rng = random.Random(13)
    for _ in range(50):
        size = rng.randrange(2, 7)
        rank = rng.randrange(1, size + 1)
        gs = ground(*range(1, size + 1))
        combos = list(itertools.combinations(range(1, size + 1), rank))
        m = None
        while m is None:
            picked = [c for c in combos if rng.random() < 0.6] or [combos[0]]
            try:
                m = BasisListMatroid(gs, picked)
            except ValueError:
                m = None
        double = m.dual().dual()
        assert sorted(map(sorted, double.bases())) == sorted(map(sorted, m.bases()))


def test_dual_bases_are_complements():
    m = two_block_partition()
    full = set(m.ground.elements)
    assert {frozenset(full - b) for b in m.bases()} == set(m.dual().bases())


def test_circuits_of_uniform():
    m = UniformMatroid(ground(1, 2, 3, 4), 2)
    assert sorted(map(sorted, m.circuits())) == [[1, 2, 3], [1, 2, 4], [1, 3, 4], [2, 3, 4]]


def test_partition_circuit_is_not_hyperplane():
    m = two_block_partition()
    circuits = set(m.circuits())
    hyperplanes = set(m.hyperplanes())
    assert frozenset({2, 3}) in circuits
    assert frozenset({2, 3}) not in hyperplanes
    assert frozenset({2, 3, 4}) in hyperplanes
    assert m.circuit_hyperplanes() == ()


def test_ch_matroid_lists_its_circuit_hyperplanes():
    m = ChSparsePavingMatroid(ground(1, 2, 3, 4), 2, [[1, 3]])
    assert [sorted(h) for h in m.circuit_hyperplanes()] == [[1, 3]]


def test_circuit_budget():
    big = ground(*range(1, 18))
    with pytest.raises(BudgetExceededError):
        UniformMatroid(big, 2).circuits()


def test_classify_uniform_is_sparse_paving():
    assert UniformMatroid(ground(1, 2, 3, 4, 5), 2).paving_class() == SPARSE_PAVING


def test_classify_partition_example_is_paving_only():
    assert two_block_partition().paving_class() == PAVING


def test_classify_not_paving():
    m = PartitionMatroid(ground(1, 2, 3, 4, 5), [[1, 2, 3], [4, 5]], [1, 2])
    assert m.rank([1, 2]) == 1  # a dependent 2-subset below the rank
    assert m.paving_class() == NOT_PAVING


def test_classify_two_bases_sharing_a_coloop():
    # {2,3} is simultaneously a circuit and a rank-1 flat here, so the
    # every-n-subset test and the dual-paving test both report sparse paving.
    m = BasisListMatroid(ground(1, 2, 3), [[1, 2], [1, 3]])
    assert m.coloops() == {1}
    assert [sorted(h) for h in m.circuit_hyperplanes()] == [[2, 3]]
    assert m.paving_class() == SPARSE_PAVING


def test_loops_and_coloops():
    u = UniformMatroid(ground(1, 2, 3, 4), 2)
    assert u.loops() == frozenset()
    assert u.coloops() == frozenset()
    assert BasisListMatroid(ground(1, 2, 3), [[1, 2], [1, 3]]).coloops() == {1}


def test_loopless_is_enforced():
    with pytest.raises(ValueError):
        BasisListMatroid(ground(1, 2, 3), [[1, 2]])
    with pytest.raises(ValueError):
        PartitionMatroid(ground(1, 2, 3), [[1], [2, 3]], [1, 0])
    with pytest.raises(ValueError):
        # The only 2-subset cannot be a circuit-hyperplane: no basis remains.
        ChSparsePavingMatroid(ground(1, 2), 2, [[1, 2]])


def test_basis_exchange_is_checked():
    with pytest.raises(ValueError):
        BasisListMatroid(ground(1, 2, 3, 4), [[1, 2], [3, 4]])


def test_ch_pairwise_intersection_rejected():
    with pytest.raises(ValueError):
        ChSparsePavingMatroid(ground(1, 2, 3, 4), 2, [[1, 2], [1, 3]])


def test_ch_count_bound():
    assert satisfies_ch_count_bound(UniformMatroid(ground(1, 2, 3, 4), 2))
    two = ChSparsePavingMatroid(ground(1, 2, 3, 4), 2, [[1, 2], [3, 4]])
    assert satisfies_ch_count_bound(two)
    assert satisfies_ch_count_bound_params(4, 2, 2)
    assert not satisfies_ch_count_bound_params(4, 2, 3)


def test_ch_count_bound_needs_sparse_paving():
    with pytest.raises(ValueError):
        satisfies_ch_count_bound(two_block_partition())


def test_census_counts():
    assert len(enumerate_sparse_paving(ground(1, 2, 3, 4), 2)) == 10
    assert len(enumerate_sparse_paving(ground(1, 2, 3), 3)) == 1
    assert len(enumerate_sparse_paving(ground(1, 2, 3, 4, 5), 1)) == 1


def test_census_budget():
    with pytest.raises(BudgetExceededError):
        enumerate_sparse_paving(ground(*range(1, 13)), 6)


def test_census_members_are_sparse_paving():
    for m in enumerate_sparse_paving(ground(1, 2, 3, 4, 5), 2):
        assert m.paving_class() == SPARSE_PAVING
        assert satisfies_ch_count_bound(m)


def test_census_is_deterministic():
    a = [m.to_json() for m in enumerate_sparse_paving(ground(1, 2, 3, 4, 5), 2)]
    b = [m.to_json() for m in enumerate_sparse_paving(ground(1, 2, 3, 4, 5), 2)]
    assert a == b


def test_census_members_equal_their_validated_construction():
    # Census members skip the constructor's checks; each must be exactly the
    # matroid the validating constructor builds from its circuit-hyperplanes.
    for size in range(1, 8):
        gs = ground(*range(1, size + 1))
        for rank in range(1, size + 1):
            for m in enumerate_sparse_paving(gs, rank):
                checked = ChSparsePavingMatroid(gs, rank, m.ch_masks(), _from_masks=True)
                assert type(m) is ChSparsePavingMatroid
                assert (m.ground, m.rank_value, m.ch_masks(), m._ch_set, m.bases_masks) == (
                    checked.ground,
                    checked.rank_value,
                    checked.ch_masks(),
                    checked._ch_set,
                    checked.bases_masks,
                )


def test_on_moves_a_matroid_to_another_ground_set():
    source, target = ground(1, 2, 3, 4), ground(5, 7, 9, 11, group=CyclicGroup(13))
    census = enumerate_sparse_paving(source, 2) + enumerate_partition_matroids(source)
    others = [
        UniformMatroid(source, 2),
        FreeMatroid(source),
        BasisListMatroid(source, [[1, 2, 3], [1, 2, 4]]),
        two_block_partition().on(source),
    ]
    for m in census + others:
        moved = m.on(target)
        assert moved.ground is target and m.ground is source
        assert moved.on(source).to_json() == m.to_json()
        assert moved.bases_masks == m.bases_masks
        assert [moved.rank_mask(x) for x in range(16)] == [m.rank_mask(x) for x in range(16)]
    with pytest.raises(ValueError):
        UniformMatroid(source, 2).on(ground(1, 2, 3))


def test_partition_census_ranks():
    mats = enumerate_partition_matroids(ground(1, 2, 3), 2)
    assert mats
    for m in mats:
        assert m.rank_value == 2
        assert m.loops() == frozenset()


def _structural_census(size):
    gs = ground(*range(1, size + 1))
    out = []
    for rank in range(1, size + 1):
        out.extend(enumerate_sparse_paving(gs, rank))
    out.extend(enumerate_partition_matroids(gs))
    out.append(FreeMatroid(gs))
    return out


def test_rank_agrees_with_definitional_oracle():
    for size in (2, 3, 4):
        for m in _structural_census(size):
            for r in range(size + 1):
                for combo in itertools.combinations(m.ground.elements, r):
                    assert m.rank(combo) == rank_oracle(m, combo)


def test_submodularity_exhaustive():
    for size in (3, 4):
        for m in _structural_census(size):
            table = [m.rank_mask(mask) for mask in range(1 << size)]
            for x in range(1 << size):
                for y in range(1 << size):
                    assert table[x] + table[y] >= table[x | y] + table[x & y]


def test_submodularity_eight_elements():
    gs = ground(*range(1, 9))
    mats = [
        UniformMatroid(gs, 4),
        PartitionMatroid(gs, [[1, 2, 3], [4, 5], [6, 7, 8]], [2, 1, 2]),
    ]
    for m in mats:
        table = [m.rank_mask(mask) for mask in range(1 << 8)]
        for x in range(0, 1 << 8, 3):
            for y in range(1 << 8):
                assert table[x] + table[y] >= table[x | y] + table[x & y]


def test_complement_rank_bound():
    for size in (3, 4):
        for m in _structural_census(size):
            n = m.rank_value
            full = m.ground.full_mask
            for x in range(1 << size):
                assert m.rank_mask(full & ~x) >= n - m.rank_mask(x)


def test_hyperplanes_of_paving_form_partition():
    for size in (4, 5):
        gs = ground(*range(1, size + 1))
        for rank in (2, 3):
            if rank > size:
                continue
            for m in enumerate_sparse_paving(gs, rank):
                hyps = m.hyperplanes()
                for h in hyps:
                    assert len(h) >= rank - 1
                for h1, h2 in itertools.combinations(hyps, 2):
                    assert len(h1 & h2) <= rank - 2


def test_ground_set_validation():
    with pytest.raises(ValueError):
        GroundSet(W, [1, 1, 2])
    with pytest.raises(ValueError):
        GroundSet(CyclicGroup(7), [1, 9])
    m = UniformMatroid(ground(1, 2, 3), 2)
    with pytest.raises(ValueError):
        m.rank([5])


def test_uniform_rank_bounds():
    with pytest.raises(ValueError):
        UniformMatroid(ground(1, 2), 0)
    with pytest.raises(ValueError):
        UniformMatroid(ground(1, 2), 3)


def test_hyperplanes_agree_with_dual_circuits():
    # Independent oracle: hyperplanes are exactly the complements of the
    # circuits of the dual matroid.
    mats = [
        two_block_partition(),
        UniformMatroid(ground(1, 2, 3, 4, 5), 3),
        ChSparsePavingMatroid(ground(1, 2, 3, 4), 2, [[1, 3]]),
        BasisListMatroid(ground(1, 2, 3), [[1, 2], [1, 3]]),
    ]
    for m in mats:
        full = set(m.ground.elements)
        via_dual = {frozenset(full - c) for c in m.dual().circuits()}
        assert set(m.hyperplanes()) == via_dual


def test_hyperplane_budget():
    big = ground(*range(1, 18))
    with pytest.raises(BudgetExceededError):
        UniformMatroid(big, 2).hyperplanes()


def test_constructor_contract_errors():
    with pytest.raises(ValueError):
        FreeMatroid(GroundSet(W, []))
    with pytest.raises(ValueError):
        BasisListMatroid(ground(1, 2, 3), [])
    with pytest.raises(ValueError):
        BasisListMatroid(ground(1, 2, 3), [[1], [1, 2]])
    with pytest.raises(ValueError):
        PartitionMatroid(ground(1, 2, 3), [[1], [2, 3]], [1])
    with pytest.raises(ValueError):
        PartitionMatroid(ground(1, 2, 3), [[1, 2], [2, 3]], [1, 1])
    with pytest.raises(ValueError):
        PartitionMatroid(ground(1, 2, 3), [[1], [2]], [1, 1])
    with pytest.raises(ValueError):
        PartitionMatroid(ground(1, 2, 3), [[1], [2, 3]], [1, 3])
    with pytest.raises(ValueError):
        ChSparsePavingMatroid(ground(1, 2, 3), 4, [])
    with pytest.raises(ValueError):
        ChSparsePavingMatroid(ground(1, 2, 3), 2, [[1, 2, 3]])
    with pytest.raises(ValueError):
        enumerate_sparse_paving(ground(1, 2, 3), 0)


def test_ground_set_identity():
    a = ground(1, 2, 3)
    b = ground(1, 2, 3)
    assert a == b and hash(a) == hash(b)
    assert a != ground(1, 3, 2)  # order is part of the identity
    assert "GroundSet" in repr(a)
    assert "Uniform" in repr(UniformMatroid(a, 2))


def test_partition_accessors():
    m = two_block_partition()
    assert m.caps() == (1, 1)
    assert m.blocks()[0] == {1}
    assert m.is_transversal
    m2 = PartitionMatroid(ground(1, 2, 3), [[1, 2, 3]], [2])
    assert not m2.is_transversal


def test_ch_masks_accessor():
    m = ChSparsePavingMatroid(ground(1, 2, 3, 4), 2, [[3, 4]])
    assert [sorted(m.ground.elems_of(c)) for c in m.ch_masks()] == [[3, 4]]
    # Sorting the masks as integers (colex) would put {3,4,5} before {1,2,6}.
    m = ChSparsePavingMatroid(ground(1, 2, 3, 4, 5, 6), 3, [[3, 4, 5], [1, 2, 6]])
    lex = [[1, 2, 6], [3, 4, 5]]
    assert [sorted(m.ground.elems_of(c)) for c in m.ch_masks()] == lex
    assert m.to_json()["ch"] == lex
    assert [sorted(h) for h in m.circuit_hyperplanes()] == lex


def test_free_matroid_is_the_full_rank_uniform_matroid():
    for size in range(1, 7):
        g = ground(*range(1, size + 1))
        free, uniform = FreeMatroid(g), UniformMatroid(g, size)
        assert isinstance(free, UniformMatroid) and free.rank_value == size
        assert all(free.rank_mask(m) == uniform.rank_mask(m) for m in range(1 << size))
        assert free.to_json() == {"kind": "free"} and free.rep == "free"
    with pytest.raises(ValueError, match="nonempty ground set"):
        FreeMatroid(ground())


def test_hyperplanes_are_the_maximal_sets_of_rank_n_minus_1():
    """hyperplanes() against the definition, on every matroid of the structural census."""
    checked = 0
    for size in range(1, 7):
        g = ground(*range(1, size + 1))
        census = [m for rank in range(1, size + 1) for m in enumerate_sparse_paving(g, rank)]
        census += [*enumerate_partition_matroids(g), FreeMatroid(g)]
        for m in census:
            n = m.rank_value
            below = [x for x in range(1 << size) if m.rank_mask(x) == n - 1]
            maximal = [x for x in below if not any(y != x and y & x == x for y in below)]
            expected = sorted((g.set_of(x) for x in maximal), key=lambda h: (len(h), sorted(h)))
            assert m.hyperplanes() == tuple(expected)
            checked += 1
    assert checked > 1000


@pytest.mark.parametrize("rank", ["2", 2.5, True])
def test_ranks_must_be_ints(rank):
    with pytest.raises(ValueError, match="^needs an int, not "):
        UniformMatroid(ground(1, 2, 3), rank)
    with pytest.raises(ValueError, match="^needs an int, not "):
        ChSparsePavingMatroid(ground(1, 2, 3), rank, [])


@pytest.mark.parametrize("caps", [[1.9, 1], [True, 1], ["1", 1]])
def test_caps_must_be_ints(caps):
    with pytest.raises(ValueError, match="^needs an int, not "):
        PartitionMatroid(ground(1, 2, 3), [[1, 2], [3]], caps)
