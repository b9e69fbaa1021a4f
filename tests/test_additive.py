import functools
import itertools

import pytest
from hypothesis import given, settings, strategies as st

from matchroid import (
    CyclicGroup,
    GroupSubset,
    IntegerWindow,
    ProductGroup,
    ProgressionForm,
    WindowOverflowError,
    classify_progression,
    is_chowla,
    is_critical_pair,
    is_progression,
    iterated_sumset,
    kneser_witness,
    progression_differences,
    stabilizer,
    sumset,
    translate_intersection,
)
from matchroid.additive import NEITHER, PROGRESSION, SEMI_PROGRESSION


def sub(group, elems):
    return GroupSubset.of(group, elems)


def test_sumset_example_mod5():
    g = CyclicGroup(5)
    got = sumset(sub(g, [1, 2]), sub(g, [1, 3]))
    assert got.elems == {2, 3, 4, 0}


def test_sumset_with_zero_is_identity(c7):
    a = sub(c7, [1, 4, 6])
    assert sumset(a, sub(c7, [0])).elems == a.elems


def test_iterated_sumset_of_subgroup():
    g = CyclicGroup(4)
    assert iterated_sumset(sub(g, [0, 2]), 2).elems == {0, 2}
    with pytest.raises(ValueError):
        iterated_sumset(sub(g, [1]), 0)


def test_sumset_window_overflow(window):
    with pytest.raises(WindowOverflowError):
        sumset(sub(window, [8]), sub(window, [8]))


def test_sumset_requires_same_group(c7, window):
    with pytest.raises(ValueError):
        sumset(sub(c7, [1]), sub(window, [1]))


def test_stabilizer_examples():
    g = CyclicGroup(4)
    assert stabilizer(sub(g, [0, 2])) == {0, 2}
    assert stabilizer(sub(g, [0, 1])) == {0}
    assert stabilizer(sub(g, [0, 1, 2, 3])) == {0, 1, 2, 3}
    assert stabilizer(sub(IntegerWindow(-5, 5), [1, 2])) == {0}


def test_kneser_witness_examples():
    g4 = CyclicGroup(4)
    w = kneser_witness(sub(g4, [0, 2]), sub(g4, [0, 2]))
    assert w.subgroup == {0, 2}
    assert len(w.sum) == 2

    c7 = CyclicGroup(7)
    w = kneser_witness(sub(c7, [1, 2]), sub(c7, [3]))
    assert w.subgroup == {0}
    assert len(w.sum) == 2

    g6 = CyclicGroup(6)
    w = kneser_witness(sub(g6, [0, 3]), sub(g6, [1, 4]))
    assert w.sum.elems == {1, 4}
    assert w.subgroup == {0, 3}
    assert w.check()


def test_kneser_witness_rejects_empty(c7):
    with pytest.raises(ValueError):
        kneser_witness(sub(c7, []), sub(c7, [1]))


def test_classify_window_progression(window):
    report = classify_progression(sub(window, [3, 5, 7]))
    assert report.kind == PROGRESSION
    assert report.form == ProgressionForm(3, 2, 3)


def test_small_sets_are_progressions(window):
    assert classify_progression(sub(window, [4])).form == ProgressionForm(4, 0, 1)
    report = classify_progression(sub(window, [-3, 9]))
    assert report.kind == PROGRESSION
    assert report.form == ProgressionForm(-3, 12, 2)


def test_classify_neither(window):
    assert classify_progression(sub(window, [0, 1, 3, 7])).kind == NEITHER


def test_classify_semi_progression(window):
    report = classify_progression(sub(window, [0, 1, 3]))
    assert report.kind == SEMI_PROGRESSION
    assert report.removed == 0
    assert report.form == ProgressionForm(1, 2, 2)


def test_wide_two_set_difference_may_leave_window():
    g = IntegerWindow(-8, 8)
    report = classify_progression(sub(g, [-8, 8]))
    assert report.kind == PROGRESSION
    assert report.form.difference == 16  # descriptive value in the modelled integers


def test_classify_product_group():
    g = ProductGroup([3, 3])
    report = classify_progression(sub(g, [(0, 0), (1, 1), (2, 2)]))
    assert report.kind == PROGRESSION
    assert report.form.difference in ((1, 1), (2, 2))


def test_classify_cyclic_ties_are_lexicographic():
    g = CyclicGroup(5)
    report = classify_progression(sub(g, [1, 2]))
    assert (report.form.initial, report.form.difference) == (1, 1)


def test_progression_differences():
    g = CyclicGroup(5)
    assert progression_differences(sub(g, [1, 2])) == (1, 4)
    w = IntegerWindow(-10, 10)
    assert progression_differences(sub(w, [2, 4, 6])) == (-2, 2)
    assert progression_differences(sub(w, [0, 1, 5])) == ()


def test_is_chowla():
    assert is_chowla(sub(CyclicGroup(7), [1, 2, 3]))
    assert not is_chowla(sub(CyclicGroup(6), [3, 1]))
    assert is_chowla(sub(IntegerWindow(-9, 9), [2, 5, 7]))
    assert not is_chowla(sub(IntegerWindow(-9, 9), [0, 1]))


def test_critical_pair_examples():
    c7 = CyclicGroup(7)
    assert is_critical_pair(sub(c7, [1, 2]), sub(c7, [3, 4]))
    assert not is_critical_pair(sub(c7, [1, 2]), sub(c7, [3, 5]))
    c5 = CyclicGroup(5)
    whole = sub(c5, range(5))
    assert not is_critical_pair(whole, whole)


def test_translate_intersection_examples(window):
    assert translate_intersection(window, [0, 1, 3]) == {0}
    assert translate_intersection(window, [0, 1, 2]) == {0, 1}
    for elems in ([2, 5, 9], [-4, 0, 1, 6]):
        assert 0 in translate_intersection(window, sorted(elems))


def test_translate_intersection_window_overflow():
    g = IntegerWindow(-2, 10)
    with pytest.raises(WindowOverflowError):
        translate_intersection(g, [-2, 10])


def test_translate_intersection_needs_distinct(window):
    with pytest.raises(ValueError):
        translate_intersection(window, [1, 1, 2])


@settings(max_examples=150, deadline=None)
@given(
    data=st.data(),
    order=st.sampled_from([11, 13]),
    k1=st.integers(1, 4),
    k2=st.integers(1, 4),
)
def test_same_difference_progression_sumsets(data, order, k1, k2):
    """The sumset of two x-progressions is again an x-progression."""
    g = CyclicGroup(order)
    x = data.draw(st.integers(1, order - 1))
    a = data.draw(st.integers(0, order - 1))
    b = data.draw(st.integers(0, order - 1))
    first = ProgressionForm(a, x, k1).generate(g)
    second = ProgressionForm(b, x, k2).generate(g)
    if len(set(first)) != k1 or len(set(second)) != k2:
        return
    total = sumset(sub(g, first), sub(g, second))
    # A singleton sumset is a progression with unconstrained difference.
    assert len(total) == 1 or x in progression_differences(total)


def test_is_progression_matches_classify(window):
    for elems in ([1, 2, 3], [1, 2, 4], [0, 5], [3, 1, 7, 9]):
        got = is_progression(sub(window, elems))
        assert got == (classify_progression(sub(window, elems)).kind == PROGRESSION)


def test_group_subset_validates():
    with pytest.raises(ValueError):
        GroupSubset.of(CyclicGroup(7), [1, 9])


def test_empty_set_preconditions(c7):
    empty = GroupSubset(c7, frozenset())
    with pytest.raises(ValueError):
        classify_progression(empty)
    with pytest.raises(ValueError):
        progression_differences(empty)
    with pytest.raises(ValueError):
        is_chowla(empty)


def test_group_subset_iterates_sorted(c7):
    assert list(sub(c7, [5, 1, 3])) == [1, 3, 5]
    assert 3 in sub(c7, [5, 1, 3])


def test_progression_form_matches(window):
    form = ProgressionForm(3, 2, 3)
    assert form.matches(window, {3, 5, 7})
    assert not form.matches(window, {3, 5, 8})
    assert not ProgressionForm(0, 0, 2).matches(window, {0, 1})  # degenerate


def test_progression_report_flags(window):
    assert classify_progression(sub(window, [1, 2])).is_progression
    assert classify_progression(sub(window, [0, 1, 3])).is_semi_progression


def test_kneser_witness_check_rejects_wrong_subgroup():
    from matchroid import KneserWitness

    g = CyclicGroup(4)
    a = sub(g, [0, 1])
    bad = KneserWitness(a, a, sumset(a, a), frozenset({0, 2}))
    # {0,1}+{0,1} = {0,1,2} is not stabilized by 2, so the witness fails.
    assert not bad.check()


@functools.cache
def _exact(group):
    """Memoised exact addition and subtraction in ``group``: the oracle below is O(k^4)."""
    return functools.cache(group.add_exact), functools.cache(group.sub_exact)


def _generates(add, start, x, elems):
    """Whether start, start + x, ... takes |A| steps through distinct elements of A."""
    cur, seen = start, {start}
    for _ in range(len(elems) - 1):
        cur = add(cur, x)
        if cur not in elems or cur in seen:
            return False
        seen.add(cur)
    return seen == elems


def _oracle_pairs(group, elems):
    """Every (start, x) whose progression of length |A| is A, by the nested search, in order."""
    if len(elems) == 1:
        return iter([(min(elems), group.zero())])
    add, sub = _exact(group)
    diffs = sorted({sub(y, x) for x in elems for y in elems if x != y})
    return ((s, x) for s in sorted(elems) for x in diffs if _generates(add, s, x, elems))


def _oracle_report(group, elems, pairs):
    """(kind, initial, difference, length, removed) as classify_progression reports it."""
    if pairs:
        return (PROGRESSION, *pairs[0], len(elems), None)
    for removed in sorted(elems):
        rest = elems - {removed}
        first = next(_oracle_pairs(group, rest), None)
        if first:
            return (SEMI_PROGRESSION, *first, len(rest), removed)
    return (NEITHER, None, None, None, None)


def _differential_sets():
    groups = [CyclicGroup(n) for n in range(2, 10)] + [ProductGroup([2, 4]), ProductGroup([3, 3])]
    for g in groups:
        elems = g.elements()
        for mask in range(1, 1 << len(elems)):
            yield g, frozenset(e for i, e in enumerate(elems) if mask >> i & 1)
    window = IntegerWindow(-6, 6)
    for size in range(1, 6):
        for combo in itertools.combinations(window.elements(), size):
            yield window, frozenset(combo)


def test_progression_kernel_matches_nested_search():
    """Classification and differences agree with the nested (start, difference) search."""
    checked = 0
    for g, elems in _differential_sets():
        a, pairs = GroupSubset(g, elems), list(_oracle_pairs(g, elems))
        report = classify_progression(a)
        form = report.form
        got = (report.kind, *((form.initial, form.difference, form.length) if form else (None,) * 3))
        assert (*got, report.removed) == _oracle_report(g, elems, pairs), (g, sorted(elems))
        assert progression_differences(a) == tuple(sorted({x for _, x in pairs})), (g, sorted(elems))
        checked += 1
    assert checked == 1012 + 255 + 511 + 2379


def test_whole_cycles_are_progressions_started_anywhere():
    """A coset of <x> has no distinguished start: the least element is reported."""
    c8 = CyclicGroup(8)
    assert classify_progression(sub(c8, [0, 4])).form == ProgressionForm(0, 4, 2)
    assert progression_differences(sub(c8, [0, 4])) == (4,)
    assert progression_differences(sub(c8, [1, 3, 5, 7])) == (2, 6)
    g = ProductGroup([3, 3])
    diagonal = sub(g, [(0, 0), (1, 1), (2, 2)])
    assert classify_progression(diagonal).form == ProgressionForm((0, 0), (1, 1), 3)
    assert progression_differences(diagonal) == ((1, 1), (2, 2))
    assert not is_progression(sub(c8, [0, 2, 4, 6, 1]))
