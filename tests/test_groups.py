import itertools
import math
import time
import tracemalloc

import pytest

from matchroid import (
    CyclicGroup,
    IntegerWindow,
    InternalCheckError,
    ProductGroup,
    Rectification,
    WindowOverflowError,
    generated_subgroup,
    group_from_json,
    is_subgroup,
    rectify,
)

INF = math.inf


def test_cyclic_add_reduces():
    g = CyclicGroup(7)
    assert g.add(4, 5) == 2


def test_window_add_inside():
    g = IntegerWindow(-10, 10)
    assert g.add(3, 4) == 7


def test_window_add_overflow():
    g = IntegerWindow(-10, 10)
    with pytest.raises(WindowOverflowError):
        g.add(8, 8)
    with pytest.raises(WindowOverflowError):
        g.sub(-10, 1)


def test_window_boundaries_exact():
    g = IntegerWindow(-3, 5)
    assert g.add(2, 3) == 5
    with pytest.raises(WindowOverflowError):
        g.add(3, 3)
    assert g.add_exact(3, 3) == 6


def test_neg_examples():
    assert CyclicGroup(7).neg(3) == 4
    assert CyclicGroup(7).neg(0) == 0
    assert ProductGroup([2, 3]).neg((1, 2)) == (1, 1)
    assert IntegerWindow(-5, 5).neg(5) == -5


def test_group_axioms_exhaustive(small_groups):
    for g in small_groups:
        if g.order() > 12:
            continue
        elems = g.elements()
        zero = g.zero()
        for a in elems:
            assert g.add(a, zero) == a
            assert g.add(a, g.neg(a)) == zero
            for b in elems:
                assert g.add(a, b) == g.add(b, a)
                for c in elems:
                    assert g.add(g.add(a, b), c) == g.add(a, g.add(b, c))


def test_element_order_examples():
    assert CyclicGroup(6).element_order(2) == 3
    assert CyclicGroup(6).element_order(0) == 1
    assert IntegerWindow(-10, 10).element_order(1) == INF
    assert IntegerWindow(-10, 10).element_order(0) == 1
    assert ProductGroup([2, 3]).element_order((1, 1)) == 6


def test_lagrange(small_groups):
    for g in small_groups:
        for a in g.elements():
            assert g.order() % g.element_order(a) == 0


def test_min_subgroup_size():
    assert CyclicGroup(7).min_subgroup_size() == 7
    assert CyclicGroup(6).min_subgroup_size() == 2
    assert CyclicGroup(9).min_subgroup_size() == 3
    assert ProductGroup([2, 3]).min_subgroup_size() == 2
    assert IntegerWindow(-50, 50).min_subgroup_size() == INF


def test_subgroups_cyclic4():
    subs = CyclicGroup(4).subgroups()
    assert [sorted(s) for s in subs] == [[0], [0, 2], [0, 1, 2, 3]]


def test_subgroups_prime_order():
    subs = CyclicGroup(7).subgroups()
    assert len(subs) == 2


def test_subgroups_klein_four_against_brute_force():
    g = ProductGroup([2, 2])
    # Independent oracle: exhaust every subset and keep the closed ones.
    brute = set()
    elems = g.elements()
    for r in range(1, len(elems) + 1):
        for combo in itertools.combinations(elems, r):
            if is_subgroup(g, combo):
                brute.add(frozenset(combo))
    enumerated = set(g.subgroups())
    assert enumerated == brute
    assert len(enumerated) == 5


def test_subgroup_count_matches_divisor_count():
    for n in range(2, 13):
        subs = CyclicGroup(n).subgroups()
        divisors = sum(1 for d in range(1, n + 1) if n % d == 0)
        assert len(subs) == divisors
        for s in subs:
            assert is_subgroup(CyclicGroup(n), s)


def test_window_has_no_subgroup_enumeration():
    with pytest.raises(ValueError):
        IntegerWindow(-2, 2).subgroups()


def test_generated_subgroup():
    g = CyclicGroup(6)
    assert generated_subgroup(g, [2]) == {0, 2, 4}
    assert generated_subgroup(g, [2, 3]) == set(range(6))


def test_window_requires_zero_inside():
    with pytest.raises(ValueError):
        IntegerWindow(1, 5)
    with pytest.raises(ValueError):
        IntegerWindow(-5, -1)


def test_product_limits():
    with pytest.raises(ValueError):
        ProductGroup([2, 2, 2, 2])
    with pytest.raises(ValueError):
        ProductGroup([9, 9])


def test_strict_check_rejects_non_canonical():
    with pytest.raises(ValueError):
        CyclicGroup(7).check(9)
    with pytest.raises(ValueError):
        CyclicGroup(7).check(-1)
    with pytest.raises(ValueError):
        ProductGroup([2, 3]).check((1,))
    with pytest.raises(ValueError):
        IntegerWindow(-2, 2).check(3)


def test_group_json_round_trip(small_groups, window):
    for g in small_groups + [window]:
        assert group_from_json(g.to_json()) == g


# -- rectification -----------------------------------------------------------


def test_rectify_window_is_identity():
    g = IntegerWindow(-10, 10)
    rect = rectify(g, [1, 5, 9])
    assert rect.mapping == {0: 0, 1: 1, 5: 5, 9: 9}
    assert rect.is_freiman2()


def test_rectify_small_cyclic_set_exists():
    # |A| = 2 < ceil(log2 7) = 3, so a rectification must be found.
    rect = rectify(CyclicGroup(7), [1, 2])
    assert rect is not None
    assert rect.mapping[0] == 0
    assert rect.is_freiman2()
    assert rect.order_compatible()


def test_explicit_candidate_map_accepted():
    # Brute-force oracle over all quadruples validates this known-good map.
    rect = Rectification(CyclicGroup(7), {0: 0, 1: 1, 2: 2})
    assert rect.is_freiman2()


def test_explicit_candidate_map_rejected():
    # 1 + 1 = 2 + 0 in the group but 1 + 1 != 3 + 0 in the image.
    rect = Rectification(CyclicGroup(7), {0: 0, 1: 1, 2: 3})
    assert not rect.is_freiman2()


def test_rectify_whole_small_group_is_absent():
    assert rectify(CyclicGroup(5), [1, 2, 3, 4]) is None


def test_rectify_two_torsion_is_absent():
    # 1 + 1 = 0 + 0 forces map(1) = 0, clashing with injectivity.
    assert rectify(CyclicGroup(4), [1, 2]) is None


def test_rectify_guaranteed_regime_succeeds():
    # Sizes below ceil(log2 101) = 7 are always rectifiable.
    g = CyclicGroup(101)
    for elems in ([1, 2, 4], [1, 2, 4, 8, 16], [3, 7, 50, 99]):
        rect = rectify(g, elems)
        assert rect is not None, elems
        assert rect.is_freiman2()
        assert rect.order_compatible()


def test_rectify_small_sumset_is_absent_without_search():
    # |D+D| = 7 < 2|D| - 1 = 11 for D = {0, 2, 3, 4, 5, 6}: no set of six
    # integers has so few pairwise sums.
    assert rectify(CyclicGroup(7), [0, 2, 3, 4, 5, 6]) is None


def test_rectify_budget_is_reported():
    # Every answer is decided: the doubling chain is its own rectification.
    rect = rectify(CyclicGroup(101), [1, 2, 4, 8, 16, 32, 64])
    assert rect.mapping == {e: e for e in (0, 1, 2, 4, 8, 16, 32, 64)}


def test_rectify_yields_candidates_lazily():
    # Ten elements of Z/101: the linear algebra stays small in memory too.
    tracemalloc.start()
    try:
        rect = rectify(CyclicGroup(101), [1, 8, 20, 37, 45, 59, 66, 72, 90, 97])
    finally:
        _, peak = tracemalloc.get_traced_memory()
        tracemalloc.stop()
    assert rect is not None and rect.is_freiman2()
    assert peak < 1 << 20


def test_rectify_decides_every_small_domain_fast():
    # Every distinct domain E(M) u E(N) u (E(M)+E(N)) u {0} of 2-element
    # E(M), E(N) in Z/11 \ {0}.
    g = CyclicGroup(11)
    pairs = list(itertools.combinations(range(1, 11), 2))
    domains = {
        frozenset({0, *em, *en, *(g.add(a, b) for a in em for b in en)})
        for em in pairs
        for en in pairs
    }
    assert len(domains) == 455
    start = time.perf_counter()
    rects = [rectify(g, d) for d in domains]
    assert time.perf_counter() - start < 2.0
    for rect in rects:
        assert rect is None or (rect.is_freiman2() and rect.order_compatible())


def _freiman2_by_quadruples(rect):
    """The definition: 0 fixed, injective, and a+b = c+d iff the images agree."""
    g, m = rect.group, rect.mapping
    if m.get(g.zero()) != 0 or len(set(m.values())) != len(m):
        return False
    return all(
        (g.add(a, b) == g.add(c, d)) == (m[a] + m[b] == m[c] + m[d])
        for a, b, c, d in itertools.product(m, repeat=4)
    )


def test_is_freiman2_matches_the_quadruple_definition():
    g, dom = CyclicGroup(7), (0, 1, 2, 3)
    verdicts = []
    for images in itertools.product(range(-3, 4), repeat=len(dom)):
        rect = Rectification(g, dict(zip(dom, images)))
        verdicts.append(rect.is_freiman2())
        assert verdicts[-1] == _freiman2_by_quadruples(rect), images
    assert any(verdicts) and not all(verdicts)


def test_invalid_rectification_is_an_internal_error(monkeypatch):
    monkeypatch.setattr(Rectification, "is_freiman2", lambda self: False)
    with pytest.raises(InternalCheckError, match="^rectification returned an invalid map$"):
        rectify(CyclicGroup(11), [1, 2, 3])


def test_rectification_order_is_compatible_where_defined():
    rect = rectify(CyclicGroup(11), [1, 2, 3])
    m = rect.mapping
    g = rect.group
    for a in m:
        for b in m:
            if m[a] > m[b]:
                continue
            for c in m:
                ac, bc = g.add(a, c), g.add(b, c)
                if ac in m and bc in m:
                    assert m[ac] <= m[bc]


def test_groups_are_equal_exactly_when_kind_and_parameters_agree():
    forms = [ProductGroup([2, 3]), ProductGroup((2, 3)), ProductGroup(f for f in (2, 3))]
    assert all(g == forms[0] and hash(g) == hash(forms[0]) for g in forms)
    assert forms[2].factors == (2, 3)
    kinds = [CyclicGroup(7), ProductGroup([7]), IntegerWindow(0, 7)]
    for a, b in itertools.combinations(kinds, 2):
        assert a != b
    assert len(set(kinds)) == 3
    assert CyclicGroup(7) == CyclicGroup(7) and CyclicGroup(7) != CyclicGroup(11)
    assert IntegerWindow(-2, 3) != IntegerWindow(-3, 2)


@pytest.mark.parametrize(
    "group, attr",
    [(CyclicGroup(7), "n"), (ProductGroup([2, 3]), "factors"), (IntegerWindow(-2, 2), "lo")],
)
def test_groups_are_immutable(group, attr):
    with pytest.raises(AttributeError):
        setattr(group, attr, 5)


def test_group_reprs():
    assert repr(CyclicGroup(7)) == "CyclicGroup(7)"
    assert repr(ProductGroup([2, 3])) == "ProductGroup((2, 3))"
    assert repr(IntegerWindow(0, 8)) == "IntegerWindow(0, 8)"


@pytest.mark.parametrize(
    "build",
    [
        lambda: CyclicGroup(True),
        lambda: CyclicGroup(7.0),
        lambda: CyclicGroup("7"),
        lambda: ProductGroup([2, 3.0]),
        lambda: IntegerWindow(False, True),
        lambda: IntegerWindow(-2.5, 2),
    ],
)
def test_group_parameters_must_be_ints(build):
    with pytest.raises(ValueError, match="^needs an int, not "):
        build()


def test_is_subgroup_on_a_window_uses_exact_arithmetic():
    g = IntegerWindow(-2, 2)
    assert is_subgroup(g, {-2, 0, 2}) is False  # 2 + 2 leaves the window: not closed
    assert is_subgroup(g, {0}) is True
