import itertools
import random
import time

import pytest

from matchroid import (
    BudgetExceededError,
    CyclicGroup,
    FreeMatroid,
    GroundSet,
    GroupSubset,
    IntegerWindow,
    PartitionMatroid,
    ProductGroup,
    UniformMatroid,
    enumerate_sparse_paving,
    find_group_matching,
    match_basis,
    match_basis_brute,
    match_matroid,
    mutually_matched,
    rado_transversal,
    rado_transversal_brute,
    rank_criterion,
)
from matchroid import matching
from matchroid.matching import Census, CriterionVerdict, SumTable
from conftest import brute_criterion

W = IntegerWindow(0, 40)


def sub(group, elems):
    return GroupSubset.of(group, elems)


def sym_counterexample(n=2):
    ground = GroundSet(IntegerWindow(0, 4 * n), range(1, 2 * n + 1))
    blocks = [[i] for i in range(1, n)] + [list(range(n, 2 * n + 1))]
    return PartitionMatroid(ground, blocks, [1] * n)


def brute_group_matching(group, a, b):
    """Oracle: the pairs of the first valid permutation of sorted B, or None."""
    a_list = sorted(a)
    for perm in itertools.permutations(sorted(b)):
        if all(not group.sum_in(x, y, set(a_list)) for x, y in zip(a_list, perm)):
            return tuple(zip(a_list, perm))
    return None


def test_group_matching_mod7_example(c7):
    a = sub(c7, [1, 2, 3])
    got = find_group_matching(a, a)
    assert got is not None
    assert got.pairs == brute_group_matching(c7, a.elems, a.elems)
    for x, y in got.pairs:
        assert c7.add(x, y) not in a.elems


def test_group_matching_preconditions(c7):
    with pytest.raises(ValueError):
        find_group_matching(sub(c7, [1, 2]), sub(c7, [1]))
    with pytest.raises(ValueError):
        find_group_matching(sub(c7, [1, 2]), sub(c7, [0, 1]))
    assert find_group_matching(sub(c7, []), sub(c7, [])).pairs == ()


def test_group_matching_agrees_with_brute_force(c7):
    # The kernel reports the lexicographically least matching, which is the
    # first valid permutation of sorted B; and a group matching exists
    # exactly when the free matroid on A is matched to the free matroid on B.
    for group in (c7, ProductGroup([2, 4]), IntegerWindow(-4, 4)):
        elems = sorted(group.elements())
        zero = group.zero()
        for size in (1, 2, 3):
            for a_elems in itertools.combinations(elems, size):
                for b_elems in itertools.combinations([e for e in elems if e != zero], size):
                    a, b = sub(group, a_elems), sub(group, b_elems)
                    got = find_group_matching(a, b)
                    want = brute_group_matching(group, a_elems, b_elems)
                    assert (None if got is None else got.pairs) == want, (a_elems, b_elems)
                    free_a = FreeMatroid(GroundSet(group, a_elems))
                    free_b = FreeMatroid(GroundSet(group, b_elems))
                    assert match_matroid(free_a, free_b).matched == (got is not None)


def test_failing_group_matching_is_polynomial(monkeypatch):
    # A is the index-2 subgroup of Z/40 and B = {2} plus 19 odd elements:
    # a + 2 lies in A for every a, so the 20 rows share 19 columns, and a
    # backtracking search tries on the order of 2^19 partial matchings
    # before it gives up. Augmenting paths need a polynomial number of rank
    # evaluations.
    k = 20
    calls = []
    rank_mask = UniformMatroid.rank_mask

    def counted(self, mask):
        calls.append(mask)
        assert len(calls) <= k * k, "the failing search is not polynomial"
        return rank_mask(self, mask)

    monkeypatch.setattr(UniformMatroid, "rank_mask", counted)
    g = CyclicGroup(2 * k)
    odds = [2 * i + 1 for i in range(k - 1)]
    assert find_group_matching(sub(g, range(0, 2 * k, 2)), sub(g, [2, *odds])) is None


def test_small_sets_below_p_always_match(c7):
    # |A| = |B| = 3 < 7 = p(G) with 0 outside B guarantees a matching.
    for a_elems in itertools.combinations(range(7), 3):
        for b_elems in itertools.combinations(range(1, 7), 3):
            assert find_group_matching(sub(c7, a_elems), sub(c7, b_elems)) is not None


def test_symmetric_matchable_iff_zero_absent(c7):
    for mask in range(1, 1 << 7):
        elems = [i for i in range(7) if mask >> i & 1]
        a = sub(c7, elems)
        if 0 in elems:
            continue  # rejected by the zero-in-B precondition; unmatchable
        assert find_group_matching(a, a) is not None


def test_unmatchable_asymmetric_pair():
    g = CyclicGroup(4)
    assert find_group_matching(sub(g, [0, 2]), sub(g, [1, 2])) is None


def test_rado_shared_singleton_violation():
    n = UniformMatroid(GroundSet(W, [1, 2, 3]), 2)
    verdict = rado_transversal([{1}, {1}], n)
    assert not verdict.has_transversal
    assert verdict.violation == (0, 1)


def test_rado_simple_transversal():
    n = UniformMatroid(GroundSet(W, [1, 2, 3]), 2)
    verdict = rado_transversal([{1}, {2, 3}], n)
    assert verdict.transversal == (1, 2)


def test_rado_family_size_checked():
    n = UniformMatroid(GroundSet(W, [1, 2, 3]), 2)
    with pytest.raises(ValueError):
        rado_transversal([{1}], n)


def _squeezed_family(n):
    """U(n, {1..n+1}) with n copies of {1..n-1}: only the whole family violates."""
    return [set(range(1, n))] * n, UniformMatroid(GroundSet(W, range(1, n + 2)), n)


def test_rado_scans_every_index_set_of_sixteen_rows():
    assert rado_transversal(*_squeezed_family(16)).violation == tuple(range(16))


def test_rado_violation_scan_is_capped():
    start = time.perf_counter()
    with pytest.raises(BudgetExceededError, match="65536 index sets of 20 rows"):
        rado_transversal(*_squeezed_family(20))
    assert time.perf_counter() - start < 1.0


def test_rado_matches_brute_force_on_random_instances():
    rng = random.Random(99)
    gs = GroundSet(W, range(1, 8))
    for _ in range(200):
        rank = rng.randrange(1, 4)
        census = enumerate_sparse_paving(GroundSet(W, range(1, rng.randrange(4, 8))), rank)
        n = census[rng.randrange(len(census))]
        elems = list(n.ground.elements)
        family = [
            {e for e in elems if rng.random() < 0.5} for _ in range(rank)
        ]
        got = rado_transversal(family, n)
        brute = rado_transversal_brute(family, n)
        assert got.has_transversal == brute.has_transversal
        if not got.has_transversal:
            union = set().union(*(family[i] for i in got.violation))
            assert n.rank(union) < len(got.violation)


def test_match_basis_on_symmetric_counterexample():
    m = sym_counterexample(2)
    assert match_basis(m, [1, 2], m) is None
    assert match_basis_brute(m, [1, 2], m) is None


def test_match_basis_free_pair_over_mod5():
    g = CyclicGroup(5)
    m = FreeMatroid(GroundSet(g, [1, 2]))
    w = match_basis(m, [1, 2], m)
    assert w is not None
    assert w.source == (1, 2)
    assert w.target == (2, 1)  # sums 3, 3 stay outside the ground set


def test_match_basis_validates_source():
    m = sym_counterexample(2)
    with pytest.raises(ValueError):
        match_basis(m, [2, 3], m)  # dependent pair inside one block


def _random_sparse_paving(rng, ground, rank):
    """Greedy random circuit-hyperplane family; falls back to uniform."""
    chosen = []
    from matchroid import ChSparsePavingMatroid

    for combo in itertools.combinations(ground.elements, rank):
        if rng.random() < 0.4 and all(
            len(set(combo) & c) <= rank - 2 for c in chosen
        ):
            chosen.append(set(combo))
    try:
        return ChSparsePavingMatroid(ground, rank, chosen)
    except ValueError:
        return UniformMatroid(ground, rank)


def test_match_basis_agrees_with_brute_force():
    rng = random.Random(4)
    for trial in range(500):
        m_size = rng.randrange(2, 9)
        n_size = rng.randrange(2, 9)
        rank = rng.randrange(1, min(m_size, n_size, 4) + 1)
        m = _random_sparse_paving(rng, GroundSet(W, range(1, m_size + 1)), rank)
        n = _random_sparse_paving(rng, GroundSet(W, range(2, n_size + 2)), rank)
        src = m.bases()[rng.randrange(len(m.bases()))]
        got = match_basis(m, src, n)
        brute = match_basis_brute(m, src, n)
        assert (got is None) == (brute is None)



def _random_partition(rng, ground, rank):
    """A random partition matroid of the given rank: k <= rank blocks, caps summing to rank."""
    elems = list(ground.elements)
    rng.shuffle(elems)
    k = rng.randrange(1, rank + 1)
    cuts = sorted(rng.sample(range(1, len(elems)), k - 1))
    blocks = [elems[i:j] for i, j in zip([0, *cuts], [*cuts, len(elems)])]
    caps = [1] * k
    while sum(caps) < rank:
        caps[rng.choice([i for i, b in enumerate(blocks) if caps[i] < len(b)])] += 1
    return PartitionMatroid(ground, blocks, caps)


_RANDOM_N = {
    "uniform": lambda rng, ground, rank: UniformMatroid(ground, rank),
    "partition": _random_partition,
    "sparse paving": _random_sparse_paving,
}


def _random_census(kind, rng, ground, rank):
    """The whole sparse paving census of the ground set and rank, or three random N."""
    if kind == "sparse paving":
        return Census(kind, enumerate_sparse_paving(ground, rank))
    return Census(kind, [_RANDOM_N[kind](rng, ground, rank) for _ in range(3)])


@pytest.mark.parametrize("kind", sorted(_RANDOM_N))
def test_census_decision_agrees_with_the_search_on_random_families(kind):
    """Every member bit of a census column: ``ok`` against the augmenting-path
    search, ``holds`` against the brute scan of every J, on seeded random families
    (sparse paving ground sets of N stay at six elements, where a census has at
    most 271 members)."""
    rng = random.Random(f"column {kind}")
    seen = set()
    for _ in range(200):
        group, pool = rng.choice([(CyclicGroup(13), range(13)), (W, range(1, 20))])
        rank = rng.randrange(1, 6)
        n_sizes = range(rank, rank + 4) if kind != "sparse paving" else range(rank, max(rank, 6) + 1)
        ground_m = GroundSet(group, sorted(rng.sample(pool, rng.randrange(rank, rank + 3))))
        ground_n = GroundSet(group, sorted(rng.sample(pool, rng.choice(n_sizes))))
        table, census = SumTable(ground_m, ground_n), _random_census(kind, rng, ground_n, rank)
        for mask in ground_m.masks_of_size(rank):
            ok, holds = table.column(mask, census)
            assert ok | holds <= census.full
            for k, n in enumerate(census.members):
                matched, violating = bool(ok >> k & 1), brute_criterion(table, mask, n)
                assert matched == (table.match(mask, n) is not None)
                assert bool(holds >> k & 1) == (violating is None)
                assert table.criterion(mask, n) == CriterionVerdict(violating is None, violating)
                seen.add((matched, violating is None))
    assert {matched for matched, _ in seen} == {True, False}
    assert {holds for _, holds in seen} == {True, False}


def test_admissible_targets_of_the_sparse_sym_counterexample():
    """Over {1,2,3,4} in Z/11 the basis {1,2} has the one target {3,4}; a
    sparse paving N with that circuit-hyperplane leaves the basis unmatched."""
    ground = GroundSet(CyclicGroup(11), [1, 2, 3, 4])
    table, basis, target = SumTable(ground, ground), ground.mask_of([1, 2]), ground.mask_of([3, 4])
    assert table.targets(basis) == {target: (ground.mask_of([4]), ground.mask_of([3]))}
    n = next(m for m in enumerate_sparse_paving(ground, 2) if m.ch_masks() == (target,))
    assert table.column(basis, Census("pair", [n, UniformMatroid(ground, 2)]))[0] == 0b10


def test_decision_checks_each_target_and_each_pairing_once(monkeypatch):
    """A census counts a target as a member's basis only where that member's rank
    oracle says so; each column computed checks the element sums of every (basis,
    target) pairing that is some member's least target, once. The table keeps
    nothing, so a second column on the same basis checks its pairings again."""
    checks = []
    check = matching._check_witness

    def recorded(table, n, witness, target_mask):
        checks.append(witness)
        return check(table, n, witness, target_mask)

    monkeypatch.setattr(matching, "_check_witness", recorded)
    ground = GroundSet(CyclicGroup(11), [1, 2, 3, 4])
    table, u = SumTable(ground, ground), UniformMatroid(ground, 2)
    low = ground.mask_of([1, 2])
    # {1, 2} is the least admissible target of {3, 4}; n has it as its one circuit-hyperplane.
    n = next(m for m in enumerate_sparse_paving(ground, 2) if m.ch_masks() == (low,))
    census = Census("u and n", [u, n])
    assert census.basis_bits == {
        t: sum(1 << k for k, m in enumerate(census.members) if m.is_basis_mask(t))
        for t in ground.masks_of_size(2)
    }
    # {1, 2} reaches the one target {3, 4}, the least target of both members.
    assert table.column(ground.mask_of([1, 2]), census)[0] == 0b11
    assert [(w.source, w.target) for w in checks] == [((1, 2), (4, 3))]
    # {3, 4}: u's least target is {1, 2}, n's is {1, 3}; each column checks its own.
    for key, members in (("u and n", [u, n]), ("n alone", [n]), ("u alone", [u])):
        census = Census(key, members)
        assert table.column(ground.mask_of([3, 4]), census)[0] == census.full
    other = ground.mask_of([1, 3])
    assert [ground.mask_of(w.target) for w in checks[1:]] == [low, other, other, low]


@pytest.mark.parametrize(
    "group, em, en",
    [
        (CyclicGroup(7), [0, 2, 3, 5], [1, 2, 4, 6]),
        (ProductGroup([2, 3]), [(0, 1), (1, 0), (1, 2)], [(0, 0), (0, 2), (1, 1), (1, 2)]),
        # -5 + -4 and 5 + 4 leave the window; so do differences such as 5 - (-5).
        (IntegerWindow(-5, 5), [-5, -1, 2, 5], [-4, -3, 0, 3, 4]),
    ],
)
def test_sum_table_rows_from_differences_equal_the_sum_in_rows(group, em, en):
    ground_m, ground_n = GroundSet(group, em), GroundSet(group, en)
    rows = tuple(
        sum(1 << j for j, b in enumerate(en) if group.sum_in(a, b, set(em))) for a in em
    )
    assert SumTable(ground_m, ground_n).hit == rows and any(rows)
    assert ground_m.differences is ground_m.differences


def test_match_matroid_symmetric_counterexample():
    m = sym_counterexample(2)
    report = match_matroid(m, m)
    assert not report.matched
    assert report.failing_basis == {1, 2}
    assert report.witnesses[frozenset({1, 2})] is None
    assert report.witnesses[frozenset({1, 3})] is None
    assert report.witnesses[frozenset({1, 4})] is not None


def test_match_matroid_asymmetric_counterexample():
    ground = GroundSet(IntegerWindow(0, 8), [1, 2, 3, 4])
    m = UniformMatroid(ground, 2)
    n = PartitionMatroid(ground, [[1], [2, 3, 4]], [1, 1])
    report = match_matroid(m, n)
    assert not report.matched
    assert report.failing_basis == {1, 2}


def test_match_matroid_uniform_self_match(c7):
    m = UniformMatroid(GroundSet(c7, [1, 2, 3]), 2)
    report = match_matroid(m, m)
    assert report.matched
    for basis, witness in report.witnesses.items():
        assert witness is not None
        assert match_basis_brute(m, basis, m) is not None


def test_match_matroid_rank_mismatch(c7):
    m = UniformMatroid(GroundSet(c7, [1, 2, 3]), 2)
    n = UniformMatroid(GroundSet(c7, [1, 2, 3]), 1)
    with pytest.raises(ValueError):
        match_matroid(m, n)


def test_mutually_matched(c7):
    m = UniformMatroid(GroundSet(c7, [1, 2, 3]), 2)
    assert mutually_matched(m, m)


def test_rank_criterion_violated_on_counterexample():
    m = sym_counterexample(2)
    verdict = rank_criterion(m, [1, 2], m)
    assert not verdict.holds
    assert verdict.violating == (0,)


def test_rank_criterion_holds_implies_witness_rank_one():
    g = CyclicGroup(7)
    m = FreeMatroid(GroundSet(g, [1]))
    n = FreeMatroid(GroundSet(g, [2]))
    verdict = rank_criterion(m, [1], n)
    assert verdict.holds  # {b in E(N) : 1 + b in E(M)} is empty
    assert match_basis(m, [1], n) is not None


def test_rank_criterion_holds_implies_witness_enumerated():
    gs = GroundSet(W, [1, 2, 3, 4])
    for m in enumerate_sparse_paving(gs, 2):
        for n in enumerate_sparse_paving(gs, 2):
            for src in m.bases():
                if rank_criterion(m, src, n).holds:
                    assert match_basis(m, src, n) is not None


def test_brute_force_budget():
    g = IntegerWindow(0, 40)
    m = UniformMatroid(GroundSet(g, range(1, 14)), 6)
    with pytest.raises(BudgetExceededError):
        match_basis_brute(m, range(1, 7), m)


def test_cross_group_rejections():
    c7 = CyclicGroup(7)
    w = IntegerWindow(0, 9)
    with pytest.raises(ValueError):
        find_group_matching(sub(c7, [1]), sub(w, [1]))
    m = UniformMatroid(GroundSet(c7, [1, 2]), 1)
    n = UniformMatroid(GroundSet(w, [1, 2]), 1)
    with pytest.raises(ValueError):
        match_matroid(m, n)


def test_zero_rank_rejected():
    gs = GroundSet(W, [1, 2])
    d = UniformMatroid(gs, 2).dual()  # the rank-0 matroid with basis {}
    with pytest.raises(ValueError):
        match_matroid(d, d)
