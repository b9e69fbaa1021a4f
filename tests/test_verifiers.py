import functools
import inspect
import itertools
import json
import random
import re
import time
from pathlib import Path

import pytest

from matchroid import (
    BudgetExceededError,
    CyclicGroup,
    GroundSet,
    HypothesisViolation,
    IntegerWindow,
    ProductGroup,
    Rectification,
    UniformMatroid,
    UnknownTheoremError,
    build_ordered_context,
    recheck_counterexample,
    verify,
)
from matchroid import verifiers
from matchroid.additive import GroupSubset
from matchroid.matching import Census, SumTable, match_matroid
from matchroid.matroids import PAVING, enumerate_partition_matroids, enumerate_sparse_paving
from matchroid.serialize import canonical_json, matroid_to_json, parse_instance_obj
from matchroid.verifiers import VERIFIERS
from conftest import INSTANCE_KEYS, SCOPE_KEYS, brute_criterion, known_keys, per_pair_unmatched

W = IntegerWindow(-8, 8)


def record_json(record):
    return canonical_json(record.to_json())


# -- group-level -------------------------------------------------------------


def test_sym_group_mod7():
    rec = verify("sym-group", bounds={"group": CyclicGroup(7)})
    assert rec.passed
    assert rec.instances_checked == 127


def test_sym_group_mod8():
    rec = verify("sym-group", bounds={"group": CyclicGroup(8)})
    assert rec.passed
    assert rec.instances_checked == 255


def test_sym_group_product():
    rec = verify("sym-group", bounds={"group": ProductGroup([2, 4])})
    assert rec.passed
    assert rec.instances_checked == 255


def test_sym_group_needs_finite():
    with pytest.raises(HypothesisViolation):
        verify("sym-group", bounds={"group": W})


def test_sym_group_budget():
    with pytest.raises(BudgetExceededError):
        verify("sym-group", bounds={"group": CyclicGroup(17)})


def test_unknown_theorem():
    with pytest.raises(UnknownTheoremError):
        verify("fermat-last")


# -- only-if directions -------------------------------------------------------


def test_only_if_1_exhaustive():
    rec = verify("only-if-1", bounds={"group": CyclicGroup(6)})
    assert rec.passed
    assert rec.instances_checked > 100


def test_only_if_1_instance():
    inst = {
        "group": {"kind": "cyclic", "n": 7},
        "matroids": {"M": {"ground": [0, 1, 2], "rep": {"kind": "uniform", "rank": 2}}},
    }
    rec = verify("only-if-1", instance=inst, bounds={"m": "M"})
    assert rec.passed


def test_only_if_1_instance_needs_zero():
    inst = {
        "group": {"kind": "cyclic", "n": 7},
        "matroids": {"M": {"ground": [1, 2, 3], "rep": {"kind": "uniform", "rank": 2}}},
    }
    with pytest.raises(HypothesisViolation):
        verify("only-if-1", instance=inst, bounds={"m": "M"})


def test_only_if_2_instance_mod6():
    rec = verify("only-if-2", bounds={"group": CyclicGroup(6), "a": 2, "x": 1})
    assert rec.passed
    assert rec.instances_checked == 1


def test_only_if_2_exhaustive_mod6_and_klein():
    rec = verify("only-if-2", bounds={"group": CyclicGroup(6)})
    assert rec.passed and rec.instances_checked == 10
    rec = verify("only-if-2", bounds={"group": ProductGroup([2, 2])})
    assert rec.passed and rec.instances_checked == 6


def test_only_if_2_rejects_prime_cyclic():
    with pytest.raises(HypothesisViolation):
        verify("only-if-2", bounds={"group": CyclicGroup(7)})
    with pytest.raises(HypothesisViolation):
        verify("only-if-2", bounds={"group": CyclicGroup(6), "a": 1, "x": 2})


def test_only_if_2_recheck_runs_its_hypotheses():
    # Z/7 is cyclic of prime order, outside the theorem; the pair is matched there.
    m = {"ground": [1, 2], "rep": {"kind": "free"}}
    n = {"ground": [3, 5], "rep": {"kind": "free"}}
    payload = _matroid_pair(_C7, m, n, "free matroid pair unmatchable", False)
    assert recheck_counterexample(payload) is False


def test_only_if_2_pair_passes_its_check():
    group = CyclicGroup(6)
    m, n = verifiers._free_pair(group, 2, 1)
    assert (m.ground.elements, n.ground.elements) == ((0, 2, 4), (2, 4, 1))
    _, check, expect_matched = verifiers._PAIR_CLAIMS["free matroid pair unmatchable"]
    check(group, m, n)
    assert expect_matched is False


# -- sparse paving self-matching ----------------------------------------------


def test_sparse_sym_finds_the_minimal_counterexample():
    rec = verify(
        "sparse-sym",
        bounds={
            "group": CyclicGroup(11),
            "universe": tuple(range(1, 6)),
            "sizes": (4, 5),
            "ranks": (2,),
        },
    )
    assert not rec.passed
    assert rec.instances_checked == 76
    assert rec.extras["failing_matroids"] == 4
    ce = rec.counterexample
    assert ce["m"]["ground"] == [1, 2, 3, 4]
    assert ce["m"]["rep"] == {"kind": "ch", "rank": 2, "ch": [[3, 4]]}
    assert ce["basis"] == [1, 2]


def test_sparse_sym_counterexample_rechecks_standalone():
    rec = verify(
        "sparse-sym",
        bounds={
            "group": CyclicGroup(11),
            "universe": tuple(range(1, 6)),
            "sizes": (4,),
            "ranks": (2,),
        },
    )
    assert recheck_counterexample(rec.counterexample)


def test_sparse_sym_failure_is_group_independent():
    rec = verify(
        "sparse-sym",
        bounds={
            "group": IntegerWindow(0, 12),
            "universe": tuple(range(1, 5)),
            "sizes": (4,),
            "ranks": (2, 3),
        },
    )
    assert not rec.passed
    assert rec.extras["failing_matroids"] == 2


def test_recheck_rejects_unknown_payload():
    with pytest.raises(ValueError):
        recheck_counterexample({"kind": "mystery"})
    pair = {"kind": "subset-pair", "group": {"kind": "cyclic", "n": 7}, "a": [1], "b": [1]}
    with pytest.raises(ValueError):
        recheck_counterexample(dict(pair, claim="no such claim"))
    with pytest.raises(ValueError):
        recheck_counterexample(dict(pair, kind="group-subset", claim="unique-sum lower bound"))


@pytest.mark.parametrize("group", [CyclicGroup(7), ProductGroup([2, 2])])
def test_eliahou_counterexample_rechecks(group):
    payload = verify("eliahou", bounds={"group": group}).counterexample
    assert payload["kind"] == "subset-pair"
    assert recheck_counterexample(payload)
    assert not recheck_counterexample(dict(payload, claim="unique-sum lower bound"))


def test_recheck_group_subset_payloads():
    window = {"kind": "zwindow", "lo": -8, "hi": 8}
    claim = "translate intersection equals {0}"
    progression = {"kind": "group-subset", "group": window, "a": [1, 2, 3], "claim": claim}
    # The lemma is about non-progressions only, so a progression witnesses nothing.
    assert not recheck_counterexample(progression)
    assert not recheck_counterexample(dict(progression, a=[1, 2, 4]))
    matchable = {"kind": "group-subset", "group": {"kind": "cyclic", "n": 7}, "a": [1, 2, 4]}
    assert not recheck_counterexample(dict(matchable, claim="matchable to itself"))
    assert not recheck_counterexample(dict(matchable, a=[0, 1], claim="matchable to itself"))


# Payloads outside a claim's hypotheses on which its conclusion fails: each
# would recheck True if recheck tested the conclusion alone.
_C7 = {"kind": "cyclic", "n": 7}
_C11 = {"kind": "cyclic", "n": 11}


def _subset_pair(group, a, b, claim):
    return {"kind": "subset-pair", "group": group, "a": a, "b": b, "claim": claim}


def _matroid_pair(group, m, n, claim, expect_matched):
    return {
        "kind": "matroid-pair", "group": group, "m": m, "n": n,
        "expect_matched": expect_matched, "claim": claim,
    }


def _uniform(ground, rank):
    return {"ground": ground, "rep": {"kind": "uniform", "rank": rank}}


def _transversal(blocks):
    ground = sorted(e for b in blocks for e in b)
    return {"ground": ground, "rep": {"kind": "partition", "blocks": blocks, "caps": [1] * len(blocks)}}


def test_recheck_rejects_a_progression_for_the_lemma():
    payload = {"kind": "group-subset", "group": _C7, "a": [1, 3, 5]}
    assert not recheck_counterexample(dict(payload, claim="translate intersection equals {0}"))
    # Over Z/6, which is not of prime order, the lemma says nothing either.
    payload = dict(payload, group={"kind": "cyclic", "n": 6}, a=[0, 1, 3, 4])
    assert not recheck_counterexample(dict(payload, claim="translate intersection equals {0}"))


def test_recheck_rejects_a_non_critical_pair():
    # Not progressions with a common difference, but |A+B| = 6 > |A|+|B|-1.
    payload = _subset_pair(_C11, [0, 1], [0, 2, 5], "same-difference progressions")
    assert not recheck_counterexample(payload)


def test_recheck_rejects_a_kemperman_pair_without_unique_sum():
    # |A+B| = 2 < 3, but both sums are expressed twice.
    payload = _subset_pair({"kind": "cyclic", "n": 4}, [0, 2], [0, 2], "unique-sum lower bound")
    assert not recheck_counterexample(payload)


def test_recheck_rejects_an_eliahou_pair_with_zero_in_x():
    # X = {0, 1} has 2 < 3 elements, but contains 0.
    claim = "containment lower bound |X| >= |A|+|B|+1"
    assert not recheck_counterexample(_subset_pair(_C7, [1], [0], claim))


def test_recheck_rejects_asy_1_pair_with_zero_in_target_ground_set():
    # 0 in E(N) is the first clause the check finds violated (the sizes are too).
    m = {"ground": [1], "rep": {"kind": "uniform", "rank": 1}}
    n = {"ground": [0], "rep": {"kind": "uniform", "rank": 1}}
    inst = parse_instance_obj({"group": _C11, "matroids": {"M": m, "N": n}})
    assert not match_matroid(inst.matroid("M"), inst.matroid("N")).matched
    assert not recheck_counterexample(_matroid_pair(_C11, m, n, "small ground set condition", True))


def test_recheck_rejects_only_if_1_pair_without_zero():
    m = {"ground": [1, 2], "rep": {"kind": "uniform", "rank": 1}}
    inst = parse_instance_obj({"group": _C7, "matroids": {"M": m}})
    assert match_matroid(inst.matroid("M"), inst.matroid("M")).matched
    assert not recheck_counterexample(_matroid_pair(_C7, m, m, "not matched to itself", False))
    # The claim is about M and itself, so a matched pair of two matroids is outside it too.
    m0 = {"ground": [0, 1, 2], "rep": {"kind": "uniform", "rank": 1}}
    n = {"ground": [3], "rep": {"kind": "uniform", "rank": 1}}
    inst = parse_instance_obj({"group": _C7, "matroids": {"M": m0, "N": n}})
    assert match_matroid(inst.matroid("M"), inst.matroid("N")).matched
    assert not recheck_counterexample(_matroid_pair(_C7, m0, n, "not matched to itself", False))


_SPARSE_SELF = "sparse paving self-matching"


def test_recheck_rejects_sparse_sym_pair_with_zero_in_ground_set():
    m = {"ground": [0, 1, 2], "rep": {"kind": "uniform", "rank": 1}}
    inst = parse_instance_obj({"group": _C7, "matroids": {"M": m}})
    assert not match_matroid(inst.matroid("M"), inst.matroid("M")).matched
    assert not recheck_counterexample(_matroid_pair(_C7, m, m, _SPARSE_SELF, True))


def test_recheck_rejects_sparse_sym_pair_of_two_matroids():
    # U(1, {1, 2}) is not matched to U(1, {3}) over Z/4: 2 + 3 = 1 lies in E(M).
    m = {"ground": [1, 2], "rep": {"kind": "uniform", "rank": 1}}
    n = {"ground": [3], "rep": {"kind": "uniform", "rank": 1}}
    group = {"kind": "cyclic", "n": 4}
    inst = parse_instance_obj({"group": group, "matroids": {"M": m, "N": n}})
    assert not match_matroid(inst.matroid("M"), inst.matroid("N")).matched
    assert not recheck_counterexample(_matroid_pair(group, m, n, _SPARSE_SELF, True))


def test_recheck_rejects_sparse_sym_pair_that_is_not_sparse_paving():
    # The transversal matroid of sym-counterexample: paving, its dual is not.
    m = {"ground": [1, 2, 3, 4], "rep": {"kind": "partition", "blocks": [[1], [2, 3, 4]], "caps": [1, 1]}}
    window = {"kind": "zwindow", "lo": 0, "hi": 8}
    inst = parse_instance_obj({"group": window, "matroids": {"M": m}})
    assert not match_matroid(inst.matroid("M"), inst.matroid("M")).matched
    assert not recheck_counterexample(_matroid_pair(window, m, m, _SPARSE_SELF, True))


def test_sparse_sym_golden_counterexample_still_rechecks():
    golden = json.loads((Path(__file__).parent / "golden" / "verdicts.json").read_text())
    payload = golden["sparse-sym-full"]["counterexample"]
    assert payload["claim"] == _SPARSE_SELF and recheck_counterexample(payload)


def test_recheck_rejects_an_unknown_matroid_pair_claim():
    m = {"ground": [1, 2], "rep": {"kind": "uniform", "rank": 1}}
    with pytest.raises(ValueError, match="no such claim"):
        recheck_counterexample(_matroid_pair(_C7, m, m, "no such claim", True))


@pytest.mark.parametrize(
    "theorem, predicate, bounds",
    [
        ("sym-group", "_self_matchable", {"group": CyclicGroup(5)}),
        ("lemma-progression", "_translates_meet_in_zero", {"group": CyclicGroup(7), "sizes": (3,)}),
        ("kneser", "_kneser_holds", {"group": CyclicGroup(4)}),
        ("kemperman", "_unique_sum_bound", {"group": CyclicGroup(4)}),
        ("critical", "_same_difference", {"group": CyclicGroup(11)}),
        ("eliahou", "_containment_bound", {"group": CyclicGroup(4)}),
    ],
)
def test_forced_subset_failures_recheck(monkeypatch, theorem, predicate, bounds):
    """Every subset scope reads its claim's _SUBSET_CLAIMS entry, as recheck does."""
    table, claim = next(
        (t, c) for t in verifiers._SUBSET_CLAIMS.values() for c, f in t.items()
        if f.__name__ == predicate
    )
    real = table[claim]
    # Fail the conclusion on every instance inside the hypotheses.
    monkeypatch.setitem(table, claim, lambda *s: None if real(*s) is None else False)
    rec = verify(theorem, bounds=bounds)
    assert rec.extras.get("claimed_bound_failures", 1) == rec.instances_checked
    payload = rec.counterexample
    assert payload["claim"] == claim and recheck_counterexample(payload)
    monkeypatch.undo()
    # The real predicate holds there, except for eliahou's refuted bound.
    assert recheck_counterexample(payload) is (theorem == "eliahou")


def test_rado_payloads_carry_their_instance_and_recheck(monkeypatch):
    for claim in list(verifiers._RADO_CLAIMS):
        monkeypatch.setitem(verifiers._RADO_CLAIMS, claim, lambda *args: False)
        payload = verify("rado", bounds={"seed": 1, "count": 5}).counterexample
        assert payload["kind"] == "rado-instance" and payload["claim"] == claim
        assert {"group", "matroid", "family"} <= set(payload)
        assert recheck_counterexample(payload)
        monkeypatch.undo()
        assert not recheck_counterexample(payload)


_WIN10 = IntegerWindow(-10, 10)

#: claim -> (theorem, bounds) for each single-pair scope.
_SINGLE_PAIR_SCOPES = {
    "not matched to itself": ("only-if-1", {"group": CyclicGroup(5), "sizes": (2,), "ranks": (1,)}),
    "free matroid pair unmatchable": ("only-if-2", {"group": CyclicGroup(6)}),
    "ordered transversal (positive)": ("transversal-1", {"group": _WIN10, "sign": "positive"}),
    "ordered transversal (negative)": ("transversal-1", {"group": _WIN10, "sign": "negative"}),
    "mixed-sign transversal": ("transversal-2", {"group": _WIN10}),
}


@pytest.mark.parametrize("claim", sorted(_SINGLE_PAIR_SCOPES))
def test_forced_single_pair_failures_recheck(monkeypatch, claim):
    """A single-pair scope expects the outcome of its claim's row, as recheck does."""
    theorem, bounds = _SINGLE_PAIR_SCOPES[claim]
    row_theorem, check, expect_matched = verifiers._PAIR_CLAIMS[claim]
    monkeypatch.setitem(verifiers._PAIR_CLAIMS, claim, (row_theorem, check, not expect_matched))
    rec = verify(theorem, bounds=bounds)
    assert not rec.passed and rec.instances_checked == 1
    payload = rec.counterexample
    assert payload["claim"] == claim and recheck_counterexample(payload)
    monkeypatch.undo()
    assert not recheck_counterexample(payload)


@pytest.mark.parametrize(
    "claim", ["not matched to itself", "ordered transversal (positive)", "mixed-sign transversal"]
)
def test_single_pair_scopes_filter_by_their_check(monkeypatch, claim):
    """A single-pair scope skips, uncounted, every pair its row's check rejects."""
    theorem, bounds = _SINGLE_PAIR_SCOPES[claim]
    row_theorem, _, expect_matched = verifiers._PAIR_CLAIMS[claim]

    def outside(group, m, n):
        raise HypothesisViolation("outside")

    monkeypatch.setitem(verifiers._PAIR_CLAIMS, claim, (row_theorem, outside, expect_matched))
    rec = verify(theorem, bounds=bounds)
    assert rec.passed and rec.instances_checked == 0


# -- asymmetric conditions ------------------------------------------------------


@pytest.mark.parametrize(
    "cond", ["asy-1", "asy-2", "asy-3", "asy-4", "asy-uniform", "asy-coloopless"]
)
def test_asy_conditions_small_scope(cond):
    rec = verify(
        cond, bounds={"group": CyclicGroup(11), "ranks": (1, 2), "max_size": 5}
    )
    assert rec.passed
    assert rec.extras.get("criterion_violations", 0) == 0


def test_asy_instance_mode():
    inst = {
        "group": {"kind": "cyclic", "n": 11},
        "matroids": {
            "M": {"ground": [1, 2], "rep": {"kind": "uniform", "rank": 2}},
            "N": {"ground": [1, 2, 3, 4, 5], "rep": {"kind": "ch", "rank": 2, "ch": [[4, 5]]}},
        },
    }
    rec = verify("asy-1", instance=inst, bounds={"m": "M", "n": "N"})
    assert rec.passed and rec.instances_checked == 1


def test_asy_instance_hypothesis_checks():
    inst = {
        "group": {"kind": "cyclic", "n": 11},
        "matroids": {
            "M": {"ground": [1, 2, 3, 4], "rep": {"kind": "uniform", "rank": 2}},
            "N": {"ground": [1, 2, 3, 4, 5], "rep": {"kind": "uniform", "rank": 2}},
        },
    }
    with pytest.raises(HypothesisViolation):
        verify("asy-1", instance=inst, bounds={"m": "M", "n": "N"})  # sizes too close

    inst["matroids"]["N"]["ground"] = [0, 1, 2, 3, 4]
    with pytest.raises(HypothesisViolation):
        verify("asy-1", instance=inst, bounds={"m": "M", "n": "N"})  # 0 in E(N)


@pytest.mark.parametrize(
    "theorem, group, m, n, clause",
    [
        ("asy-2", {"kind": "zwindow", "lo": -20, "hi": 20}, _uniform([1], 1), _uniform([2, 3], 1),
         "finite group"),
        ("asy-uniform", _C11, _uniform([0], 1),
         {"ground": [1, 2], "rep": {"kind": "ch", "rank": 1, "ch": []}}, "N uniform"),
        ("asy-order", {"kind": "zwindow", "lo": 0, "hi": 30}, _uniform([1, 2, 3, 4], 3),
         _transversal([[5], [6], [7, 8]]), "N paving"),
        ("asy-1", _C11, _uniform([0, 5], 2), _transversal([[1, 2, 3], [4, 6]]), "N sparse paving"),
        ("asy-coloopless", _C11, _uniform([0, 1, 2], 2),
         {"ground": [3, 4, 5], "rep": {"kind": "bases", "list": [[3, 4], [3, 5]]}},
         "N coloopless"),
        *(
            (theorem, _C11, _transversal([[0, 1], [2], [3]]), _uniform([1, 2, 3, 4, 5, 6], 3),
             "M sparse paving")
            for theorem in ("asy-1", "asy-uniform")
        ),
        # One instance per ground-set hypothesis, M and N uniform.
        ("asy-1", _C11, _uniform([0], 1), _uniform([1], 1), "asy-1 size condition"),
        ("asy-2", _C11, _uniform([0], 1), _uniform([1, 2], 1), "asy-2 additive condition on E(M)"),
        ("asy-n+1", _C11, _uniform([0, 1, 3, 4], 3), _uniform([1, 2, 3, 4], 3),
         "|(-a + E(M)) cap E(N)| != n"),
        ("asy-order", _C11, _uniform([0, 1], 1), _uniform([1, 2], 1), "E(M) and E(N) positive"),
        ("asy-order", _C11, _uniform([1, 2], 1), _uniform([1, 2], 1),
         "max(E(M)) outside E(M)+E(N)"),
        ("asy-order", _C11, _uniform([0, 1], 1), _uniform([2, 5], 1), "compatible total order"),
        ("asy-order", {"kind": "cyclic", "n": 13}, _uniform([0, 1], 1), _uniform([1, 5], 1),
         "compatible total order unique up to reversal"),
        ("asy-1", _C11, _uniform([0], 1), _uniform([0], 1), "0 not in E(N)"),
    ],
)
def test_census_instance_names_the_failed_clause(theorem, group, m, n, clause):
    inst = {"group": group, "matroids": {"M": m, "N": n}}
    with pytest.raises(HypothesisViolation) as err:
        verify(theorem, instance=inst, bounds={"m": "M", "n": "N"})
    assert err.value.clause == clause


def test_census_scope_reports_its_first_unmatched_pair(monkeypatch):
    """A census pair left unmatched stops the scope; its payload names the pair."""
    column = verifiers.matching.SumTable.column
    calls = []

    def first_fails(table, mask, census):
        ok, holds = column(table, mask, census)
        calls.append(mask)
        # The first column leaves member 0 of the N census unmatched.
        return (ok & ~1 if len(calls) == 1 else ok), holds

    monkeypatch.setattr(verifiers.matching.SumTable, "column", first_fails)
    rec = verify("asy-1", bounds={"group": CyclicGroup(11), "ranks": (1,)})
    assert not rec.passed and rec.instances_checked == 1
    payload = rec.counterexample
    assert payload["kind"] == "matroid-pair" and payload["claim"] == "small ground set condition"
    assert (payload["m"]["ground"], payload["n"]["ground"]) == ([0], [1, 2, 3])
    monkeypatch.undo()
    assert not recheck_counterexample(payload)


def test_asy_2_and_3_need_finite_groups():
    with pytest.raises(HypothesisViolation):
        verify("asy-2", bounds={"group": IntegerWindow(0, 9)})
    with pytest.raises(HypothesisViolation):
        verify("asy-3", bounds={"group": IntegerWindow(0, 9)})


def test_asy_window_scope_for_condition_1():
    rec = verify(
        "asy-1", bounds={"group": IntegerWindow(0, 12), "ranks": (1, 2), "max_size": 5}
    )
    assert rec.passed and rec.instances_checked > 0


# -- order-based and n+1 theorems ------------------------------------------------


def test_asy_order_window_scope():
    rec = verify("asy-order", bounds={"group": IntegerWindow(0, 14), "ranks": (1, 2)})
    assert rec.passed
    assert rec.instances_checked > 500


def test_asy_order_cyclic_instance_via_rectification():
    inst = {
        "group": {"kind": "cyclic", "n": 101},
        "matroids": {
            "M": {"ground": [1, 4], "rep": {"kind": "uniform", "rank": 1}},
            "N": {"ground": [1, 4], "rep": {"kind": "uniform", "rank": 1}},
        },
    }
    rec = verify("asy-order", instance=inst, bounds={"m": "M", "n": "N"})
    assert rec.passed


def test_asy_order_rejects_when_no_order_exists():
    inst = {
        "group": {"kind": "cyclic", "n": 5},
        "matroids": {
            "M": {"ground": [1, 2], "rep": {"kind": "uniform", "rank": 1}},
            "N": {"ground": [1, 2], "rep": {"kind": "uniform", "rank": 1}},
        },
    }
    with pytest.raises(HypothesisViolation) as err:
        verify("asy-order", instance=inst, bounds={"m": "M", "n": "N"})
    assert "order" in err.value.clause


def test_asy_order_rejects_when_the_sumset_is_too_small_for_integers():
    # D = {0, 2, 3, 4, 5, 6} has |D+D| = 7 < 2|D| - 1 = 11 in Z/7, so no
    # compatible order exists; rectify proves that without searching.
    inst = {
        "group": {"kind": "cyclic", "n": 7},
        "matroids": {
            "M": {"ground": [0, 6], "rep": {"kind": "uniform", "rank": 1}},
            "N": {"ground": [3, 5], "rep": {"kind": "uniform", "rank": 1}},
        },
    }
    with pytest.raises(HypothesisViolation) as err:
        verify("asy-order", instance=inst, bounds={"m": "M", "n": "N"})
    assert err.value.clause == "compatible total order"


def test_asy_order_rejects_mixed_signs():
    inst = {
        "group": {"kind": "zwindow", "lo": -8, "hi": 8},
        "matroids": {
            "M": {"ground": [-1, 2], "rep": {"kind": "uniform", "rank": 1}},
            "N": {"ground": [1, 2], "rep": {"kind": "uniform", "rank": 1}},
        },
    }
    with pytest.raises(HypothesisViolation) as err:
        verify("asy-order", instance=inst, bounds={"m": "M", "n": "N"})
    assert "positive" in err.value.clause


def test_asy_order_rejects_max_in_sumset():
    inst = {
        "group": {"kind": "zwindow", "lo": 0, "hi": 20},
        "matroids": {
            "M": {"ground": [1, 2], "rep": {"kind": "uniform", "rank": 1}},
            "N": {"ground": [1, 2], "rep": {"kind": "uniform", "rank": 1}},
        },
    }
    with pytest.raises(HypothesisViolation) as err:
        verify("asy-order", instance=inst, bounds={"m": "M", "n": "N"})
    assert "max" in err.value.clause


def test_asy_order_rejects_an_order_not_unique_up_to_reversal():
    # The Freiman-2 maps of D = E(M) u E(N) u (E(M)+E(N)) u {0} form a
    # 3-dimensional space, so the sign and max(E(M)) conditions depend on
    # which compatible order is picked; none is.
    inst = _pair_instance(
        {"kind": "cyclic", "n": 101}, _uniform([63, 85], 1), _uniform([29, 42], 1)
    )
    with pytest.raises(HypothesisViolation) as err:
        verify("asy-order", instance=inst, bounds={"m": "M", "n": "N"})
    assert err.value.clause == "compatible total order unique up to reversal"
    assert "dimension 3" in str(err.value)
    m, n = (parse_instance_obj(inst).matroids[name] for name in ("M", "N"))
    with pytest.raises(HypothesisViolation):
        build_ordered_context(m, n)


def test_asy_order_census_rectifies_each_domain_once(monkeypatch):
    """14 400 ground pairs share 211 domains E(M) u E(N) u (E(M)+E(N)) u {0}."""
    calls = []
    rectify = verifiers.rectify

    def counted(group, elems):
        calls.append(frozenset(elems))
        return rectify(group, elems)

    monkeypatch.setattr(verifiers, "rectify", counted)
    bounds = {"group": CyclicGroup(11), "universe": tuple(range(1, 11)), "ranks": (2,)}
    start = time.perf_counter()
    rec = verify("asy-order", bounds=bounds)
    elapsed = time.perf_counter() - start
    assert rec.passed and rec.instances_checked == 0
    assert len(calls) == len(set(calls)) == 211
    assert elapsed < 10
    # The memo belongs to one call: a second call rectifies every domain again.
    verify("asy-order", bounds=bounds)
    assert len(calls) == 2 * 211


def test_asy_n_plus_1_exhaustive():
    rec = verify("asy-n+1", bounds={"group": CyclicGroup(13)})
    assert rec.passed
    assert rec.instances_checked > 1000


def test_asy_n_plus_1_hypotheses():
    inst = {
        "group": {"kind": "cyclic", "n": 13},
        "matroids": {
            # {1,2,3,4} is a progression, so the additive hypothesis fails.
            "M": {"ground": [1, 2, 3, 4], "rep": {"kind": "uniform", "rank": 3}},
            "N": {"ground": [1, 2, 3, 5], "rep": {"kind": "uniform", "rank": 3}},
        },
    }
    with pytest.raises(HypothesisViolation):
        verify("asy-n+1", instance=inst, bounds={"m": "M", "n": "N"})


def test_asy_n_plus_1_instance_passes():
    inst = {
        "group": {"kind": "cyclic", "n": 13},
        "matroids": {
            "M": {"ground": [0, 1, 3, 4], "rep": {"kind": "uniform", "rank": 3}},
            "N": {"ground": [2, 5, 6, 9], "rep": {"kind": "uniform", "rank": 3}},
        },
    }
    rec = verify("asy-n+1", instance=inst, bounds={"m": "M", "n": "N"})
    assert rec.passed


# -- transversal theorems ---------------------------------------------------------


def test_transversal_1_window_scope():
    rec = verify("transversal-1", bounds={"group": W})
    assert rec.passed
    assert rec.instances_checked > 400


def test_transversal_1_instance_positive():
    inst = {
        "group": {"kind": "zwindow", "lo": 0, "hi": 30},
        "matroids": {
            "M": {
                "ground": [1, 2, 5],
                "rep": {"kind": "partition", "blocks": [[1, 2], [5]], "caps": [1, 1]},
            },
            "N": {
                "ground": [3, 4, 7],
                "rep": {"kind": "partition", "blocks": [[3, 4], [7]], "caps": [1, 1]},
            },
        },
    }
    rec = verify("transversal-1", instance=inst, bounds={"m": "M", "n": "N"})
    assert rec.passed


def test_transversal_1_instance_claim_names_its_sign(monkeypatch):
    inst = {
        "group": {"kind": "zwindow", "lo": 0, "hi": 30},
        "matroids": {
            "M": {
                "ground": [1, 2, 5],
                "rep": {"kind": "partition", "blocks": [[1, 2], [5]], "caps": [1, 1]},
            },
            "N": {
                "ground": [3, 4, 7],
                "rep": {"kind": "partition", "blocks": [[3, 4], [7]], "caps": [1, 1]},
            },
        },
    }
    claim = "ordered transversal (positive)"
    theorem, check, _ = verifiers._PAIR_CLAIMS[claim]
    monkeypatch.setitem(verifiers._PAIR_CLAIMS, claim, (theorem, check, False))
    payload = verify("transversal-1", instance=inst, bounds={"m": "M", "n": "N"}).counterexample
    assert payload["claim"] == claim and recheck_counterexample(payload)
    monkeypatch.undo()
    assert not recheck_counterexample(payload)


def test_transversal_1_scope_rejects_an_unknown_sign():
    with pytest.raises(HypothesisViolation, match="sign positive or negative"):
        verify("transversal-1", bounds={"group": IntegerWindow(-10, 10), "sign": "foo"})


def test_transversal_1_instance_rejects_an_unknown_sign():
    inst = {
        "group": {"kind": "zwindow", "lo": 0, "hi": 30},
        "matroids": {
            "M": {"ground": [1, 5], "rep": {"kind": "partition", "blocks": [[1], [5]], "caps": [1, 1]}},
            "N": {"ground": [3, 7], "rep": {"kind": "partition", "blocks": [[3], [7]], "caps": [1, 1]}},
        },
    }
    with pytest.raises(HypothesisViolation, match="sign positive or negative"):
        verify("transversal-1", instance=inst, bounds={"m": "M", "n": "N", "sign": "foo"})


def test_instance_mode_names_a_missing_bound():
    inst = {
        "group": {"kind": "cyclic", "n": 11},
        "matroids": {"M": {"ground": [1, 2], "rep": {"kind": "uniform", "rank": 2}}},
    }
    with pytest.raises(HypothesisViolation, match="missing bound n"):
        verify("asy-1", instance=inst, bounds={"m": "M"})
    with pytest.raises(HypothesisViolation, match="missing bound m"):
        verify("only-if-1", instance=inst, bounds={"n": "M"})


def test_instance_mode_adds_no_signature_cache_entries():
    """Instance mode's bounds schemas are declared once, so repeated calls reuse their entries."""
    inst = {"group": _C11, "matroids": {"M": _uniform([0, 1], 1), "N": _uniform([1, 2, 3, 4], 1)}}
    mn = {"m": "M", "n": "N"}
    calls = {"only-if-1": {"m": "M"}, "asy-1": mn, "transversal-1": mn}
    sizes = []
    for _ in range(3):
        for theorem, bounds in calls.items():
            try:
                verify(theorem, instance=inst, bounds=bounds)
            except HypothesisViolation as exc:  # transversal-1 refuses M after parsing its bounds
                assert exc.clause == "transversal matroid"
        sizes.append(verifiers._signature.cache_info().currsize)
    assert sizes[0] == sizes[1] == sizes[2]


@pytest.mark.parametrize("theorem", ["kneser", "sparse-sym", "rado", "only-if-2"])
def test_scope_only_verifiers_refuse_an_instance(theorem):
    inst = {"group": {"kind": "cyclic", "n": 5}, "matroids": {}}
    with pytest.raises(HypothesisViolation, match="no instance mode"):
        verify(theorem, instance=inst, bounds={"group": CyclicGroup(5)})


def test_transversal_1_requires_transversal_matroids():
    inst = {
        "group": {"kind": "zwindow", "lo": 0, "hi": 30},
        "matroids": {
            "M": {"ground": [1, 2, 5], "rep": {"kind": "uniform", "rank": 2}},
            "N": {"ground": [3, 4, 7], "rep": {"kind": "uniform", "rank": 2}},
        },
    }
    with pytest.raises(HypothesisViolation):
        verify("transversal-1", instance=inst, bounds={"m": "M", "n": "N"})


@pytest.mark.parametrize(
    "sign, blocks_m, blocks_n, clause",
    [
        ("positive", [[1], [2, 3]], [[4], [5, 6]], "|E_i| > |E_j| for k < i < j"),
        ("positive", [[-1, 2], [3]], [[4, 5], [6]], "E_i and E'_i positive for i > k"),
        ("positive", [[3, 4], [9]], [[1, 2], [5]], "max E below max E'"),
        ("negative", [[-6, -5], [-1]], [[-4, -3], [-2]], "|E_i| < |E_j| for i < j < k"),
        ("negative", [[-6], [-5, 1]], [[-4], [-3, -2]], "E_i and E'_i negative for i < k"),
        ("negative", [[-9], [-2, -1]], [[-6], [-4, -3]], "min E' below min E"),
        ("positive", [[1], [2]], [[3, 4]], "equal block counts"),
        ("positive", [[1], [2]], [[3], [4, 5]], "|E_i| = |E'_i| for all i"),
        ("positive", [[1, 3], [2, 4]], [[5, 6], [7, 8]], "E_i strictly below E_j for i < j"),
    ],
)
def test_transversal_1_instance_names_the_failed_clause(sign, blocks_m, blocks_n, clause):
    inst = {
        "group": {"kind": "zwindow", "lo": -10, "hi": 10},
        "matroids": {"M": _transversal(blocks_m), "N": _transversal(blocks_n)},
    }
    with pytest.raises(HypothesisViolation) as err:
        verify("transversal-1", instance=inst, bounds={"m": "M", "n": "N", "sign": sign})
    assert err.value.clause == clause


def test_transversal_2_window_scope():
    rec = verify("transversal-2", bounds={"group": W})
    assert rec.passed
    assert rec.instances_checked > 100
    assert any(k.startswith("k=") for k in rec.extras)


def test_transversal_2_instance_with_bridge_block():
    inst = {
        "group": {"kind": "zwindow", "lo": -8, "hi": 8},
        "matroids": {
            "M": {
                "ground": [-1, 2, 3],
                "rep": {"kind": "partition", "blocks": [[-1], [2, 3]], "caps": [1, 1]},
            },
            "N": {
                "ground": [1, 4, 5],
                "rep": {"kind": "partition", "blocks": [[1], [4, 5]], "caps": [1, 1]},
            },
        },
    }
    rec = verify("transversal-2", instance=inst, bounds={"m": "M", "n": "N"})
    assert rec.passed
    assert rec.extras["k"] == 1


def test_transversal_2_skips_bridges_whose_negation_leaves_the_window():
    # -4 = -(4) lies outside [-3, 8]: such a pair is outside the hypotheses, not an overflow.
    rec = verify("transversal-2", bounds={"group": IntegerWindow(-3, 8), "limit": 4})
    assert rec.passed and rec.instances_checked > 0
    inst = {
        "group": {"kind": "zwindow", "lo": -3, "hi": 8},
        "matroids": {"M": _transversal([[-3], [5, 6]]), "N": _transversal([[-2], [3, 4]])},
    }
    with pytest.raises(HypothesisViolation) as err:
        verify("transversal-2", instance=inst, bounds={"m": "M", "n": "N"})
    assert err.value.clause == "no index k satisfies the sign/size conditions"


# -- additive verifiers -------------------------------------------------------------


def test_kneser_small_group():
    rec = verify("kneser", bounds={"group": CyclicGroup(6)})
    assert rec.passed
    assert rec.instances_checked == 63 * 63


def test_kneser_product_group():
    rec = verify("kneser", bounds={"group": ProductGroup([2, 3])})
    assert rec.passed


def test_kemperman_small_group():
    rec = verify("kemperman", bounds={"group": CyclicGroup(6)})
    assert rec.passed


def test_eliahou_claimed_bound_fails_with_minimal_counterexample():
    rec = verify("eliahou", bounds={"group": CyclicGroup(7)})
    assert not rec.passed
    assert rec.counterexample["a"] == [1]
    assert rec.counterexample["b"] == [1]
    assert rec.extras["claimed_bound_failures"] > 0
    assert rec.extras["corrected_bound_failures"] == 0


def test_critical_small_group():
    rec = verify("critical", bounds={"group": CyclicGroup(7)})
    assert rec.passed
    assert rec.instances_checked > 100


def test_critical_size_pairs_past_the_lemma_bound_add_nothing():
    """max_total past p(G) - 1 reaches sizes with |A|+|B|-1 > p(G)-2, which are skipped."""
    default = verify("critical", bounds={"group": CyclicGroup(7)})
    wide = verify("critical", bounds={"group": CyclicGroup(7), "max_total": 20})
    assert default.bounds["max_total"] == 6 and wide.bounds["max_total"] == 20
    assert wide.passed and wide.instances_checked == default.instances_checked == 882


def test_critical_needs_cyclic():
    with pytest.raises(HypothesisViolation):
        verify("critical", bounds={"group": ProductGroup([2, 3])})


@pytest.mark.parametrize("group", [CyclicGroup(8), CyclicGroup(9), ProductGroup([2, 4])])
def test_translation_orbits_partition_the_subsets(group):
    subsets = list(verifiers._nonempty_subsets(group, group.elements()))
    orbits = verifiers._translation_orbits(group, subsets)
    assert sum(weight for _, weight in orbits) == len(subsets) == 2 ** group.order() - 1
    position = {sub.elems: i for i, sub in enumerate(subsets)}
    for rep, weight in orbits:
        members = {frozenset(group.add(x, t) for x in rep.elems) for t in group.elements()}
        assert len(members) == weight
        assert position[rep.elems] == min(position[m] for m in members)


def test_translation_orbits_weigh_periodic_sets_by_their_stabilizer():
    group = CyclicGroup(8)
    weights = {
        rep.sorted(): weight
        for rep, weight in verifiers._translation_orbits(
            group, verifiers._nonempty_subsets(group, group.elements())
        )
    }
    assert weights[(0,)] == 8
    assert weights[(0, 4)] == 8 // 2  # stabilizer {0, 4}
    assert weights[(0, 2, 4, 6)] == 8 // 4  # stabilizer {0, 2, 4, 6}
    assert weights[(0, 1, 2, 3, 4, 5, 6, 7)] == 1
    assert weights[(0, 1)] == 8


_ORBIT_SCOPES = [
    *[("kneser", {"group": g}, None) for g in (CyclicGroup(4), CyclicGroup(5), CyclicGroup(6))],
    *[("kneser", {"group": ProductGroup(f)}, None) for f in ([2, 2], [2, 3])],
    *[("kemperman", {"group": g}, None) for g in (CyclicGroup(5), CyclicGroup(6))],
    ("kemperman", {"group": ProductGroup([2, 2])}, None),
    ("critical", {"group": CyclicGroup(7)}, None),
    ("critical", {"group": CyclicGroup(11)}, None),
    ("critical", {"group": CyclicGroup(11), "max_total": 5}, None),
    # The claim patched to fail on the translation orbits of (A, B) fails deep
    # in the plain scan, past many passing orbits: (claim, A, B, checked, a, b).
    ("kneser", {"group": CyclicGroup(5)}, ("Kneser", {1, 2}, {0, 3}, 67, [0, 1], [0, 2])),
    ("kemperman", {"group": CyclicGroup(5)}, ("unique-sum", {2, 3}, {1}, 63, [0, 1], [0])),
]


@pytest.mark.parametrize(
    "theorem, bounds, fails",
    [pytest.param(*scope, id=f"{scope[0]}-bounds{i}") for i, scope in enumerate(_ORBIT_SCOPES)],
)
def test_orbit_scopes_equal_the_plain_scan(monkeypatch, theorem, bounds, fails):
    if fails:
        prefix, a0, b0, *expected = fails
        group, claims = bounds["group"], verifiers._SUBSET_CLAIMS["subset-pair"]
        claim = next(c for c in claims if c.startswith(prefix))
        holds = claims[claim]
        orbit = lambda sub: {frozenset(group.add(x, t) for x in sub) for t in group.elements()}
        bad_a, bad_b = orbit(a0), orbit(b0)
        failing = lambda a, b: False if a.elems in bad_a and b.elems in bad_b else holds(a, b)
        monkeypatch.setitem(claims, claim, failing)
    orbit_json = record_json(verify(theorem, bounds=bounds))
    first_failure = verifiers._first_failure
    monkeypatch.setattr(
        verifiers,
        "_first_failure",
        lambda run, claim, candidates, subsets, orbits=False: first_failure(
            run, claim, candidates, subsets
        ),
    )
    assert orbit_json == record_json(verify(theorem, bounds=bounds))
    if fails:
        record = json.loads(orbit_json)
        cx = record["counterexample"]
        assert [record["checked"], cx["a"], cx["b"]] == expected


def test_orbit_scope_budget_stops_where_the_plain_scan_does():
    """kneser on Z/4 checks 15 * 15 = 225 pairs."""
    with pytest.raises(BudgetExceededError, match="^instance budget 224 exceeded by kneser$"):
        verify("kneser", bounds={"group": CyclicGroup(4), "budget": 224})
    rec = verify("kneser", bounds={"group": CyclicGroup(4), "budget": 225})
    assert rec.passed and rec.instances_checked == 225


def test_orbit_claims_are_translation_invariant(monkeypatch):
    """A claim visited by orbits answers alike on (A, B) and (A + t, B + s), None included."""
    declared = set()
    first_failure = verifiers._first_failure

    def spy(run, claim, candidates, subsets, orbits=False):
        if orbits:
            declared.add(claim)
        return first_failure(run, claim, candidates, subsets, orbits)

    monkeypatch.setattr(verifiers, "_first_failure", spy)
    for theorem in ("sym-group", "kneser", "kemperman", "critical"):
        verify(theorem, bounds={"group": CyclicGroup(5)})
    assert declared == {
        "Kneser stabilizer conditions",
        "unique-sum lower bound",
        "same-difference progressions",
    }
    for group in (CyclicGroup(5), ProductGroup([2, 2])):
        subsets = list(verifiers._nonempty_subsets(group, group.elements()))
        shifts = [group.elements()] + [group.elements()[:2]] * 2
        for claim in sorted(declared):
            holds = verifiers._claim_predicate(claim)
            arity = len(inspect.signature(holds).parameters)
            for args in itertools.product(subsets, repeat=arity):
                expected = holds(*args)
                for moves in itertools.product(*shifts[:arity]):
                    moved = [
                        GroupSubset(group, frozenset(group.add(x, t) for x in sub.elems))
                        for sub, t in zip(args, moves)
                    ]
                    assert holds(*moved) == expected, (claim, args, moves)


def test_lemma_progression_window_and_prime():
    rec = verify("lemma-progression", bounds={"group": IntegerWindow(-6, 6), "sizes": (3, 4)})
    assert rec.passed
    rec = verify("lemma-progression", bounds={"group": CyclicGroup(11), "sizes": (3, 4)})
    assert rec.passed


def test_lemma_progression_rejects_non_prime():
    with pytest.raises(HypothesisViolation):
        verify("lemma-progression", bounds={"group": CyclicGroup(6)})


def test_prime_order_is_decided_by_the_order_not_the_kind():
    """Z/7 written as ProductGroup([7]) meets the lemma's hypothesis like CyclicGroup(7)."""
    product = verify("lemma-progression", bounds={"group": ProductGroup([7]), "sizes": (3,)})
    cyclic = verify("lemma-progression", bounds={"group": CyclicGroup(7), "sizes": (3,)})
    assert product.passed and product.instances_checked == cyclic.instances_checked == 14
    subset = GroupSubset(ProductGroup([7]), frozenset({(1,), (2,), (4,)}))
    assert verifiers._translates_meet_in_zero(subset) is True
    for group in (CyclicGroup(6), ProductGroup([2, 2])):
        with pytest.raises(HypothesisViolation, match="^torsion-free or cyclic of prime order: "):
            verify("lemma-progression", bounds={"group": group, "sizes": (3,)})


# -- rado and rank criteria -----------------------------------------------------------


def test_rado_randomized_equivalence():
    rec = verify("rado", bounds={"seed": 1, "count": 60})
    assert rec.passed
    assert rec.instances_checked == 60
    assert rec.extras["transversals"] + rec.extras["violations"] == 60


def test_rado_determinism():
    a = verify("rado", bounds={"seed": 5, "count": 40})
    b = verify("rado", bounds={"seed": 5, "count": 40})
    assert record_json(a) == record_json(b)
    c = verify("rado", bounds={"seed": 6, "count": 40})
    assert record_json(a) != record_json(c)


def test_rado_refuses_ranks_its_oracle_cannot_decide():
    """Every draw is compared with the brute force, which decides ranks up to 5."""
    refused = "^bound max_rank: brute force refuses rank 6 > 5$"
    with pytest.raises(BudgetExceededError, match=refused):
        verify("rado", bounds={"max_rank": 6, "count": 1})
    assert verify("rado", bounds={"max_rank": 5, "count": 50}).passed


@pytest.mark.parametrize("seed", range(6))
@pytest.mark.parametrize(
    "group, missing",
    [(CyclicGroup(6), 6), (ProductGroup([3, 3]), 1), (IntegerWindow(0, 3), 4)],
)
def test_rado_refuses_a_group_without_its_ground_elements(seed, group, missing):
    bounds = {"group": group, "max_ground": 8, "count": 1, "seed": seed}
    with pytest.raises(HypothesisViolation) as info:
        verify("rado", bounds=bounds)
    assert info.value.clause == "group holds 1..max_ground"
    assert str(info.value).endswith(f"lacks {missing}")


def test_rank_criteria_soundness():
    rec = verify("rank-criteria", bounds={})
    assert rec.passed
    assert rec.extras["criterion_holds"] > 0


def test_rank_criteria_honours_an_explicit_universe():
    default = verify("rank-criteria", bounds={})
    assert default.bounds["universe"] == [1, 2, 3, 4]
    rec = verify("rank-criteria", bounds={"universe": (1, 2, 3, 4, 5)})
    assert rec.passed
    assert rec.bounds["universe"] == [1, 2, 3, 4, 5]
    assert rec.instances_checked > default.instances_checked == 768


def test_default_universes_read_only_the_first_elements_of_huge_groups():
    """The default universes take the group's first elements lazily, so their
    scopes cost the same on Z/10^15 and [0, 10^15] as on Z/10^4 and [0, 12]."""
    huge = verify("asy-1", bounds={"group": CyclicGroup(10**15), "ranks": (1,)})
    small = verify("asy-1", bounds={"group": CyclicGroup(10**4), "ranks": (1,)})
    assert huge.passed and huge.instances_checked == small.instances_checked == 252
    assert huge.bounds["universe_n"] == small.bounds["universe_n"] == [1, 2, 3, 4, 5, 6]
    window = verify("rank-criteria", bounds={"group": IntegerWindow(0, 10**15)})
    assert window.passed and window.instances_checked == 768
    assert window.bounds["universe"] == [1, 2, 3, 4]


def _rank_criteria_pairs(group, universe, rank):
    """rank-criteria's (E(M), E(N), N index, N, basis mask) in its per-pair order:
    ground pairs, then N, then the basis of M = U(rank, E(M))."""
    census = verifiers._census_templates()
    sizes = range(rank, len(universe) + 1)
    combos = (c for size in sizes for c in itertools.combinations(universe, size))
    grounds = [GroundSet(group, c) for c in combos]
    for ground_m, ground_n in itertools.product(grounds, repeat=2):
        for k, n in enumerate(census("sparse paving", ground_n, rank).members):
            for mask in ground_m.masks_of_size(rank):
                yield ground_m, ground_n, k, n, mask


@pytest.mark.parametrize(
    "bounds", [{}, {"universe": (1, 2, 3, 4, 5), "ranks": (2, 3)}], ids=["default", "1..5"]
)
def test_rank_criteria_columns_equal_the_per_pair_procedures(monkeypatch, bounds):
    """Every (N, basis) bit rank-criteria reads equals SumTable.criterion and
    SumTable.match on that pair, and its counts equal the per-pair loop's."""
    decided = set()

    def cross_checked(table, mask, census, ok, holds):
        for k, n in enumerate(census.members):
            assert bool(holds >> k & 1) == table.criterion(mask, n).holds
            assert bool(ok >> k & 1) == (table.match(mask, n) is not None)
            decided.add((bool(ok >> k & 1), bool(holds >> k & 1)))

    computed = _computes_columns(monkeypatch, cross_checked)
    rec = verify("rank-criteria", bounds=bounds)
    assert rec.passed and decided == {(True, True), (True, False), (False, False)}
    universe, ranks = rec.bounds["universe"], rec.bounds["ranks"]
    group = IntegerWindow(0, 12)
    pairs = [p for rank in ranks for p in _rank_criteria_pairs(group, universe, rank)]
    holds = sum(
        SumTable(ground_m, ground_n).criterion(mask, n).holds
        for ground_m, ground_n, _, n, mask in pairs
    )
    assert rec.instances_checked == len(pairs)
    assert rec.extras == {"criterion_holds": holds, "criterion_fails": len(pairs) - holds}
    # One column per table and basis of M, whatever the number of N.
    assert len(computed) == sum(1 for _, _, k, _, _ in pairs if k == 0)


def test_rank_criteria_reports_a_cleared_ok_bit_at_its_per_pair_place(monkeypatch):
    """A column that leaves member 1 unmatched where its criterion holds stops the
    scope at that (N, basis), with the per-pair ``checked``; the payload names the
    pair and, the pair being matched in truth, does not recheck."""
    column = verifiers.matching.SumTable.column
    forced = []

    def cleared(table, mask, census):
        ok, holds = column(table, mask, census)
        if not forced and holds >> 1 & 1:
            forced.append((table.ground_m, table.ground_n, mask))
            ok &= ~0b10
        return ok, holds

    monkeypatch.setattr(verifiers.matching.SumTable, "column", cleared)
    rec = verify("rank-criteria")
    monkeypatch.undo()
    ground_m, ground_n, mask = forced[0]
    pairs = list(_rank_criteria_pairs(IntegerWindow(0, 12), (1, 2, 3, 4), 2))
    place = next(
        i for i, (gm, gn, k, _, b) in enumerate(pairs, 1)
        if (gm, gn, k, b) == (ground_m, ground_n, 1, mask)
    )
    n = pairs[place - 1][3]
    assert SumTable(ground_m, ground_n).match(mask, n) is not None
    holds = sum(SumTable(gm, gn).criterion(b, nn).holds for gm, gn, _, nn, b in pairs[:place])
    assert not rec.passed and rec.instances_checked == place
    counts = {"criterion_holds": holds, "criterion_fails": place - holds}
    assert rec.extras == {name: amount for name, amount in counts.items() if amount}
    payload = rec.counterexample
    assert payload["claim"] == "criterion implies witness"
    assert payload["m"] == matroid_to_json(UniformMatroid(ground_m, 2))
    assert payload["n"] == matroid_to_json(n.on(ground_n))
    assert payload["basis"] == list(ground_m.elems_of(mask))
    assert not recheck_counterexample(payload)


def test_rank_criteria_recheck_needs_the_criterion_at_an_unmatched_basis(monkeypatch):
    # M = U(2, {1,2,3}) is not matched to N (circuit-hyperplane {2,3}), but
    # the rank criterion fails at the basis {1, 2}: the claim says nothing.
    payload = {
        "kind": "matroid-pair",
        "group": {"kind": "zwindow", "lo": 0, "hi": 12},
        "m": _uniform([1, 2, 3], 2),
        "n": {"ground": [1, 2, 3], "rep": {"kind": "ch", "rank": 2, "ch": [[2, 3]]}},
        "expect_matched": True,
        "claim": "criterion implies witness",
        "basis": [1, 2],
    }
    assert not recheck_counterexample(payload)
    holds = verifiers.matching.CriterionVerdict(True)
    monkeypatch.setattr(verifiers.matching.SumTable, "criterion", lambda *args: holds)
    assert recheck_counterexample(payload)


# -- fixed counterexamples -----------------------------------------------------------


@pytest.mark.parametrize("n", [2, 3])
def test_reproduce_sym_counterexample(n):
    rec = verify("sym-counterexample", bounds={"n": n})
    assert rec.passed


@pytest.mark.parametrize("n", [2, 3])
def test_reproduce_asy_counterexample(n):
    rec = verify("asy-counterexample", bounds={"n": n})
    assert rec.passed


def test_reproduce_over_large_prime_cyclic():
    rec = verify("sym-counterexample", bounds={"n": 2, "group": CyclicGroup(29)})
    assert rec.passed


def test_reproduce_rejects_small_cyclic():
    with pytest.raises(HypothesisViolation):
        verify("sym-counterexample", bounds={"n": 3, "group": CyclicGroup(11)})


def test_reproduce_budget_and_bounds():
    with pytest.raises(BudgetExceededError):
        verify("sym-counterexample", bounds={"n": 6})
    with pytest.raises(HypothesisViolation):
        verify("asy-counterexample", bounds={"n": 1})
    with pytest.raises(UnknownTheoremError):
        verify("other-example", bounds={"n": 2})


@pytest.mark.parametrize("theorem", ["sym-counterexample", "asy-counterexample"])
def test_an_unreproduced_counterexample_carries_its_witness(monkeypatch, theorem):
    """A found witness fails the run; its payload names it and does not recheck."""
    witness = verifiers.matching.MatchWitness((1, 2), (3, 4), (0, 1))
    monkeypatch.setattr(verifiers.matching, "match_basis", lambda *args: witness)
    rec = verify(theorem, bounds={"n": 2})
    monkeypatch.undo()
    payload = rec.counterexample
    assert not rec.passed and rec.instances_checked == 1
    assert payload["claim"] == "unmatchable basis [n]" and payload["expect_matched"] is False
    assert payload["basis"] == [1, 2]
    assert payload["witness"] == {"source": [1, 2], "target": [3, 4], "perm": [0, 1]}
    assert recheck_counterexample(payload) is False


# -- ordered contexts -----------------------------------------------------------------


def test_ordered_context_window_identity():
    ground = GroundSet(IntegerWindow(0, 10), [1, 2])
    m = UniformMatroid(ground, 1)
    rect = build_ordered_context(m, m)
    assert isinstance(rect, Rectification)
    assert rect.mapping == {e: e for e in (0, 1, 2, 3, 4)}
    assert rect.value(1) == 1
    assert rect.value(2) > 0
    assert max([1, 2], key=rect.value) == 2


def test_ordered_context_cyclic_found():
    g = CyclicGroup(101)
    ground = GroundSet(g, [1, 4])
    rect = build_ordered_context(UniformMatroid(ground, 1), UniformMatroid(ground, 1))
    assert isinstance(rect, Rectification)
    assert sorted(rect.mapping) == [0, 1, 2, 4, 5, 8]
    assert rect.is_freiman2()


def test_ordered_context_absent_for_whole_group():
    g = CyclicGroup(5)
    ground = GroundSet(g, [1, 2])
    rect = build_ordered_context(UniformMatroid(ground, 1), UniformMatroid(ground, 1))
    assert rect is None


# -- records ---------------------------------------------------------------------------


def test_record_json_shape_and_determinism():
    a = verify("sym-group", bounds={"group": CyclicGroup(7)})
    b = verify("sym-group", bounds={"group": CyclicGroup(7)})
    assert record_json(a) == record_json(b)
    doc = a.to_json()
    assert "runtime_ms" not in doc
    assert a.to_json(include_runtime=True)["runtime_ms"] >= 0
    assert doc["bounds"]["group"] == {"kind": "cyclic", "n": 7}


def test_record_parts_are_fresh_on_each_read():
    rec = verify("eliahou", bounds={"group": CyclicGroup(5)})
    for part in ("bounds", "extras", "counterexample"):
        first = getattr(rec, part)
        first.clear()
        assert getattr(rec, part) and getattr(rec, part) is not first
    assert rec.to_json() is not rec.to_json()


def test_failed_record_carries_counterexample():
    rec = verify(
        "sparse-sym",
        bounds={
            "group": CyclicGroup(11),
            "universe": tuple(range(1, 5)),
            "sizes": (4,),
            "ranks": (2,),
        },
    )
    doc = rec.to_json()
    assert doc["passed"] is False and "counterexample" in doc


# -- instance budgets ---------------------------------------------------------


def test_instance_budget_caps_runs():
    with pytest.raises(BudgetExceededError):
        verify("sym-group", bounds={"group": CyclicGroup(7), "budget": 50})
    rec = verify("sym-group", bounds={"group": CyclicGroup(7), "budget": 127})
    assert rec.passed
    assert rec.bounds["budget"] == 127


def test_instance_budget_does_not_leak_between_runs():
    with pytest.raises(BudgetExceededError):
        verify("sym-group", bounds={"group": CyclicGroup(7), "budget": 5})
    rec = verify("sym-group", bounds={"group": CyclicGroup(7)})
    assert rec.passed and "budget" not in rec.bounds


def test_instance_mode_honours_the_budget():
    inst = {
        "group": {"kind": "cyclic", "n": 11},
        "matroids": {
            "M": {"ground": [1, 2], "rep": {"kind": "uniform", "rank": 2}},
            "N": {"ground": [1, 2, 3, 4, 5], "rep": {"kind": "ch", "rank": 2, "ch": [[4, 5]]}},
        },
    }
    rec = verify("asy-1", instance=inst, bounds={"m": "M", "n": "N", "budget": 1})
    assert rec.passed and rec.bounds["budget"] == 1
    with pytest.raises(BudgetExceededError, match="^instance budget 0 exceeded by asy-1$"):
        verify("asy-1", instance=inst, bounds={"m": "M", "n": "N", "budget": 0})


@pytest.mark.parametrize("budget", [-1, 2.9, "x", "5", True])
def test_a_budget_must_be_an_int_at_least_0(budget):
    with pytest.raises(ValueError, match=r"^bound budget: needs an int >= 0, not "):
        verify("sym-group", bounds={"group": CyclicGroup(7), "budget": budget})


# -- first-principles confirmations of the two refutations ---------------------
#
# These re-derive the counterexamples with plain integers and itertools only,
# sharing no code path with the package, so a bug in the matroid or matching
# machinery cannot produce a false refutation.


def test_self_matching_refutation_by_first_principles():
    import itertools

    ground = [1, 2, 3, 4]
    bases = [{1, 2}, {1, 3}, {1, 4}, {2, 3}, {2, 4}]  # every 2-subset but {3,4}

    # It is a matroid: basis exchange holds outright.
    for b1 in bases:
        for b2 in bases:
            for x in b1 - b2:
                assert any((b1 - {x}) | {y} in bases for y in b2 - b1)

    def rank(subset):
        return max(len(set(subset) & b) for b in bases)

    # It is sparse paving: singletons independent, and the one non-basis
    # 2-subset {3,4} is a circuit (proper subsets independent) and a
    # hyperplane (rank-1 flat: adjoining anything reaches rank 2).
    assert all(rank([e]) == 1 for e in ground)
    assert rank([3, 4]) == 1
    assert rank([1, 3, 4]) == rank([2, 3, 4]) == 2

    # No basis can be matched to the basis {1,2}: all bijections fail.
    src = [1, 2]
    for target in bases:
        for perm in itertools.permutations(sorted(target)):
            assert any(a + b in ground for a, b in zip(src, perm)), (
                f"{src} unexpectedly matched to {target} via {perm}"
            )


def test_containment_bound_refutation_by_first_principles():
    # A = B = {1} inside Z/7 with zero removed: A+B = {2}, so the smallest
    # admissible X is {1,2} with |X| = 2 = |A| + |B| < |A| + |B| + 1.
    a = b = {1}
    sums = {(x + y) % 7 for x in a for y in b}
    assert 0 not in a | b | sums
    assert len(a | b | sums) == len(a) + len(b)


def test_counterexample_round_trips_through_json_text():
    import json

    rec = verify(
        "sparse-sym",
        bounds={
            "group": CyclicGroup(11),
            "universe": tuple(range(1, 5)),
            "sizes": (4,),
            "ranks": (2,),
        },
    )
    text = canonical_json(rec.to_json())
    payload = json.loads(text)["counterexample"]
    assert recheck_counterexample(payload)


def test_verifiers_are_thread_safe():
    from concurrent.futures import ThreadPoolExecutor

    jobs = [
        ("sym-group", {"group": CyclicGroup(7)}),
        ("sym-group", {"group": CyclicGroup(8)}),
        ("kemperman", {"group": CyclicGroup(6)}),
        ("rado", {"seed": 11, "count": 30}),
    ]
    serial = [verify(t, bounds=b) for t, b in jobs]
    with ThreadPoolExecutor(max_workers=4) as pool:
        parallel = list(pool.map(lambda job: verify(job[0], bounds=job[1]), jobs))
    for s, p in zip(serial, parallel):
        assert canonical_json(s.to_json()) == canonical_json(p.to_json())


def test_self_matching_failures_are_progressions_or_semi():
    """Consistency with the equal-size asymmetric condition.

    Taking M = N in that condition shows a sparse paving matroid over a
    finite group whose ground set is neither a progression nor a
    semi-progression (and smaller than the least subgroup size) IS matched
    to itself. Hence every self-matching failure must have a progression or
    semi-progression ground set.
    """
    import itertools

    from matchroid import GroupSubset, classify_progression, match_basis
    from matchroid.matroids import GroundSet, enumerate_sparse_paving
    from matchroid.additive import NEITHER

    group = CyclicGroup(11)
    failures = 0
    for size in (4, 5):
        for combo in itertools.combinations(range(1, 7), size):
            ground = GroundSet(group, combo)
            for rank in (2, 3):
                for m in enumerate_sparse_paving(ground, rank):
                    if all(
                        match_basis(m, ground.elems_of(b), m) is not None
                        for b in m.bases_masks
                    ):
                        continue
                    failures += 1
                    kind = classify_progression(
                        GroupSubset(group, frozenset(combo))
                    ).kind
                    assert kind != NEITHER, (combo, rank, m.to_json())
    assert failures > 0


def test_verifiers_handle_product_groups():
    g = ProductGroup([5, 5])
    rec = verify("asy-uniform", bounds={"group": g, "ranks": (1, 2), "max_size": 4})
    assert rec.passed and rec.instances_checked > 5000
    universe = tuple((1, j) for j in range(5)) + ((2, 0),)
    rec = verify(
        "sparse-sym",
        bounds={"group": g, "universe": universe, "sizes": (4,), "ranks": (2,)},
    )
    assert rec.passed and rec.instances_checked == 150


def _readme_bounds_table():
    """(verifier names, bound keys) per row of README's bounds table.

    Backticked words outside parentheses are the names (first cell) and keys
    (second cell); parenthesised defaults and notes are dropped, and a name
    range such as `asy-1`..`asy-4` is expanded.
    """
    lines = (Path(__file__).parent.parent / "README.md").read_text().splitlines()
    start = lines.index("| verifier | bounds (default) |") + 2
    rows = []
    for line in itertools.takewhile(lambda text: text.startswith("|"), lines[start:]):
        cells = []
        for cell in line.strip("|").split("|"):
            while re.search(r"\([^()]*\)", cell):
                cell = re.sub(r"\([^()]*\)", "", cell)
            cell = re.sub(
                r"`([\w-]+-)(\d+)`\.\.`\1(\d+)`",
                lambda m: ", ".join(f"`{m[1]}{i}`" for i in range(int(m[2]), int(m[3]) + 1)),
                cell,
            )
            cells.append(re.findall(r"`([^`]+)`", cell))
        rows.append(cells)
    return rows


def test_readme_bounds_table_matches_the_verifier_signatures():
    rows = _readme_bounds_table()
    named = []
    for names, keys in rows:
        for name in names:
            params = inspect.signature(VERIFIERS[name]).parameters.values()
            assert keys == [p.name for p in params if p.kind is p.KEYWORD_ONLY], name
        named += names
    assert sorted(named) == sorted(VERIFIERS)
    # The one row naming no verifier is instance mode's.
    assert [keys for names, keys in rows if not names] == [["m", "n"]]


# -- golden scopes ----------------------------------------------------------------

#: Canonical verdict JSON (no runtime) of every verifier outside the
#: acceptance table at small bounds, product-group runs, one instance-mode
#: run per instance-capable verifier and one budgeted run. A change to it
#: must be deliberate and named, with its reason, in CHANGES.md.
GOLDEN_SCOPES = Path(__file__).parent / "golden" / "scopes.json"


def _pair_instance(group, m, n=None):
    matroids = {"M": m} if n is None else {"M": m, "N": n}
    return {"group": group, "matroids": matroids}


def _scope_table():
    """(theorem, instance, bounds) per golden scope, keyed for reporting."""
    c13 = {"kind": "cyclic", "n": 13}
    window = IntegerWindow(-10, 10)
    mn = {"m": "M", "n": "N"}
    return {
        "only-if-1-6": ("only-if-1", None, {"group": CyclicGroup(6)}),
        "only-if-2-6": ("only-if-2", None, {"group": CyclicGroup(6)}),
        "only-if-2-6-a2-x1": ("only-if-2", None, {"group": CyclicGroup(6), "a": 2, "x": 1}),
        "only-if-2-2x2": ("only-if-2", None, {"group": ProductGroup([2, 2])}),
        "asy-order-win14": ("asy-order", None, {"group": IntegerWindow(0, 14)}),
        "asy-order-11": (
            "asy-order",
            None,
            {"group": CyclicGroup(11), "universe": tuple(range(1, 11)), "ranks": (1,)},
        ),
        "asy-n+1-13": ("asy-n+1", None, {"group": CyclicGroup(13)}),
        "transversal-1-win10": ("transversal-1", None, {"group": window}),
        "transversal-2-win10": ("transversal-2", None, {"group": window}),
        "rank-criteria": ("rank-criteria", None, {}),
        "sym-counterexample-3": ("sym-counterexample", None, {"n": 3}),
        "asy-counterexample-3": ("asy-counterexample", None, {"n": 3}),
        "sym-group-2x4": ("sym-group", None, {"group": ProductGroup([2, 4])}),
        "kneser-2x3": ("kneser", None, {"group": ProductGroup([2, 3])}),
        "kneser-10": ("kneser", None, {"group": CyclicGroup(10)}),
        "asy-1-5x5": (
            "asy-1",
            None,
            {"group": ProductGroup([5, 5]), "ranks": (1, 2), "max_size": 4},
        ),
        "only-if-1-instance": (
            "only-if-1",
            _pair_instance({"kind": "cyclic", "n": 7}, _uniform([0, 1, 2], 2)),
            {"m": "M"},
        ),
        "asy-1-instance": (
            "asy-1",
            _pair_instance(
                {"kind": "cyclic", "n": 11},
                _uniform([1, 2], 2),
                {"ground": [1, 2, 3, 4, 5], "rep": {"kind": "ch", "rank": 2, "ch": [[4, 5]]}},
            ),
            mn,
        ),
        "asy-order-instance": (
            "asy-order",
            _pair_instance({"kind": "cyclic", "n": 101}, _uniform([1, 4], 1), _uniform([1, 4], 1)),
            mn,
        ),
        "asy-n+1-instance": (
            "asy-n+1",
            _pair_instance(c13, _uniform([0, 1, 3, 4], 3), _uniform([2, 5, 6, 9], 3)),
            mn,
        ),
        "transversal-1-instance": (
            "transversal-1",
            _pair_instance(
                {"kind": "zwindow", "lo": 0, "hi": 30},
                _transversal([[1, 2], [5]]),
                _transversal([[3, 4], [7]]),
            ),
            mn,
        ),
        "transversal-2-instance": (
            "transversal-2",
            _pair_instance(
                {"kind": "zwindow", "lo": -8, "hi": 8},
                _transversal([[-1], [2, 3]]),
                _transversal([[1], [4, 5]]),
            ),
            mn,
        ),
        "only-if-2-6-budget": ("only-if-2", None, {"group": CyclicGroup(6), "budget": 10}),
    }


def _scope_json(theorem, instance, bounds):
    return canonical_json(verify(theorem, instance=instance, bounds=bounds).to_json())


def test_golden_scope_snapshot():
    golden = json.loads(GOLDEN_SCOPES.read_text())
    table = _scope_table()
    assert sorted(golden) == sorted(table)
    drift = [
        key
        for key, (theorem, instance, bounds) in table.items()
        if _scope_json(theorem, instance, bounds) != canonical_json(golden[key])
    ]
    assert not drift, drift


def test_every_verifier_has_a_golden_verdict():
    covered = {theorem for theorem, _, _ in _scope_table().values()}
    verdicts = json.loads((GOLDEN_SCOPES.parent / "verdicts.json").read_text())
    covered |= {doc["theorem"] for doc in verdicts.values()}
    assert set(VERIFIERS) <= covered, sorted(set(VERIFIERS) - covered)


# -- census memo ------------------------------------------------------------------

#: Golden census scopes of the memoised driver: the scopes.json entries of
#: asy-1, asy-n+1 and asy-order, and the verdicts.json entries of
#: asy-uniform, asy-coloopless and sparse-sym.
_MEMO_SCOPES = {
    **{key: _scope_table()[key] for key in ("asy-1-5x5", "asy-n+1-13", "asy-order-win14")},
    "asy-uniform-11": ("asy-uniform", None, {"group": CyclicGroup(11)}),
    "asy-coloopless-11": ("asy-coloopless", None, {"group": CyclicGroup(11)}),
    "sparse-sym-full": (
        "sparse-sym",
        None,
        {"group": CyclicGroup(11), "universe": tuple(range(1, 11)), "sizes": (4, 5), "ranks": (2, 3)},
    ),
}


def _golden_json(key):
    golden = {**json.loads(GOLDEN_SCOPES.read_text()), **json.loads(
        (GOLDEN_SCOPES.parent / "verdicts.json").read_text()
    )}
    return canonical_json(golden[key])


def _computes_columns(monkeypatch, check=None):
    """Route SumTable.column through a recorder: returns the list of columns the
    kernel computes (every call computes one), each as (table, mask, census, ok,
    holds), after passing each to ``check``."""
    computed = []
    column = verifiers.matching.SumTable.column

    def recorded(table, mask, census):
        ok, holds = column(table, mask, census)
        computed.append((table, mask, census, ok, holds))
        if check:
            check(*computed[-1])
        return ok, holds

    monkeypatch.setattr(verifiers.matching.SumTable, "column", recorded)
    return computed


@pytest.mark.parametrize("key", sorted(_MEMO_SCOPES))
def test_memo_leaves_the_verdict_byte_identical(monkeypatch, key):
    theorem, _, bounds = _MEMO_SCOPES[key]
    computed = _computes_columns(monkeypatch)
    memoised = _scope_json(theorem, None, bounds)
    memo_columns = len(computed)
    # Every census group gets its own key: each one runs the kernel.
    monkeypatch.setattr(verifiers, "_decision_key", lambda *args: object())
    unmemoised = _scope_json(theorem, None, bounds)
    assert memoised == unmemoised == _golden_json(key)
    # The replayed counts are logical decisions; the memo computes fewer columns.
    assert 0 < memo_columns < len(computed) - memo_columns


# -- census decision --------------------------------------------------------------

_ASY = ("asy-1", "asy-2", "asy-3", "asy-4", "asy-uniform", "asy-coloopless")

#: Every golden census scope: the scope-mode census entries of scopes.json and
#: the asy and sparse-sym suites of verdicts.json, as (theorem, bounds).
_GOLDEN_CENSUS = {
    **{
        key: (theorem, bounds)
        for key, (theorem, instance, bounds) in _scope_table().items()
        if instance is None and theorem in verifiers._CENSUS_THEOREMS
    },
    **{f"{cond}-{p}": (cond, {"group": CyclicGroup(p)}) for cond in _ASY for p in (11, 13)},
    "sparse-sym-full": _MEMO_SCOPES["sparse-sym-full"][::2],
}


@pytest.mark.parametrize("key", sorted(_GOLDEN_CENSUS))
def test_census_decisions_agree_with_the_search_on_golden_scopes(monkeypatch, key):
    """Each member bit of each census column equals the augmenting-path search's
    answer, and its criterion bit the brute scan over every J; the verdict stays
    the golden one."""
    decided = set()

    def cross_checked(table, mask, census, ok, holds):
        for k, n in enumerate(census.members):
            matched, violating = bool(ok >> k & 1), brute_criterion(table, mask, n)
            assert matched == (table.match(mask, n) is not None)
            assert bool(holds >> k & 1) == (violating is None)
            assert table.criterion(mask, n) == verifiers.matching.CriterionVerdict(
                violating is None, violating
            )
            decided.add(matched)

    _computes_columns(monkeypatch, cross_checked)
    theorem, bounds = _GOLDEN_CENSUS[key]
    assert _scope_json(theorem, None, bounds) == _golden_json(key)
    assert True in decided


@pytest.mark.parametrize("key", sorted(_GOLDEN_CENSUS))
def test_each_decided_group_computes_each_column_once(monkeypatch, key):
    """With the memo off every census group is decided, and each decision computes
    one column per basis mask of its M census (its census, if diagonal)."""
    computed, columns = _computes_columns(monkeypatch), []
    cross, diagonal = verifiers._first_unmatched, verifiers._diagonal_unmatched

    def cross_counted(table, n_census, m_census):
        columns.append(len(m_census.order))
        return cross(table, n_census, m_census)

    def diagonal_counted(table, census):
        columns.append(len(census.order))
        return diagonal(table, census)

    monkeypatch.setattr(verifiers, "_decision_key", lambda *args: object())
    monkeypatch.setattr(verifiers, "_first_unmatched", cross_counted)
    monkeypatch.setattr(verifiers, "_diagonal_unmatched", diagonal_counted)
    theorem, bounds = _GOLDEN_CENSUS[key]
    assert _scope_json(theorem, None, bounds) == _golden_json(key)
    assert columns and len(computed) == sum(columns)


@pytest.mark.parametrize("key", sorted(_GOLDEN_CENSUS))
def test_trusted_ground_sets_equal_validated_ones_on_golden_scopes(monkeypatch, key):
    trusted, built = GroundSet._trusted.__func__, []

    def compared(cls, group, elements):
        ground, validated = trusted(cls, group, elements), GroundSet(group, elements)
        assert ground == validated and ground._index == validated._index
        built.append(ground)
        return ground

    monkeypatch.setattr(GroundSet, "_trusted", classmethod(compared))
    theorem, bounds = _GOLDEN_CENSUS[key]
    assert _scope_json(theorem, None, bounds) == _golden_json(key) and built


def test_cross_groups_equal_the_per_pair_loop():
    """Seeded random cross groups of sparse paving censuses over Z/7, Z/8 and Z/9:
    the column driver's checked pairs, counts and first failure equal the per-pair
    loop's, including groups whose first failing N sits mid-census."""
    rng = random.Random("cross groups")
    failing_at = []
    for _ in range(300):
        group = CyclicGroup(rng.choice([7, 8, 9]))
        rank = rng.randrange(1, 4)
        em = rng.sample(range(group.n), rng.randrange(rank, rank + 3))
        en = rng.sample(range(1, group.n), rng.randrange(rank, rank + 3))
        ground_m, ground_n = GroundSet(group, sorted(em)), GroundSet(group, sorted(en))
        m_census = Census("M", enumerate_sparse_paving(ground_m, rank))
        n_census = Census("N", enumerate_sparse_paving(ground_n, rank))
        got = verifiers._first_unmatched(SumTable(ground_m, ground_n), n_census, m_census)
        want = per_pair_unmatched(SumTable(ground_m, ground_n), n_census.members, m_census.members)
        assert got == want
        failing_at += [(ni, len(n_census.members)) for _, ni, _ in got[2]]
    assert any(0 < ni < size - 1 for ni, size in failing_at)
    assert 0 < len(failing_at) < 300


def test_diagonal_groups_equal_the_per_pair_loop():
    """sparse-sym's diagonal groups on Z/11 {1..5}: each member against itself, as one
    1x1 group per member, with every failing member reported."""
    group, failures = CyclicGroup(11), []
    for size in (4, 5):
        for combo in itertools.combinations(range(1, 6), size):
            ground = GroundSet(group, combo)
            for rank in (2, 3):
                census = Census("sparse paving", enumerate_sparse_paving(ground, rank))
                pairs = [
                    per_pair_unmatched(SumTable(ground, ground), [m], [m]) for m in census.members
                ]
                counts = {name: sum(c[name] for _, c, _ in pairs) for name in pairs[0][1]}
                found = [(k, k, mask) for k, (_, _, one) in enumerate(pairs) for _, _, mask in one]
                got = verifiers._diagonal_unmatched(SumTable(ground, ground), census)
                assert got == (len(pairs), counts, found)
                failures.append(len(found))
    assert max(failures) > 1 and sum(failures) > 2


def test_passing_census_scopes_never_run_the_search(monkeypatch):
    """The census loops, rank-criteria's included, decide by admissible targets
    alone: no search, no criterion scan."""

    def refused(*args):
        raise AssertionError("the census loop ran SumTable.match or SumTable.criterion")

    monkeypatch.setattr(verifiers.matching.SumTable, "match", refused)
    monkeypatch.setattr(verifiers.matching.SumTable, "criterion", refused)
    scopes = [
        _GOLDEN_CENSUS[key]
        for key in ("asy-1-5x5", "asy-n+1-13", "asy-order-win14", "asy-uniform-11")
    ]
    scopes += [("rank-criteria", {}), ("rank-criteria", {"universe": (1, 2, 3, 4, 5)})]
    for theorem, bounds in scopes:
        rec = verify(theorem, bounds=bounds)
        assert rec.passed and rec.instances_checked > 0


def test_equal_verdicts_share_one_text():
    first, second = (verify("sym-group", bounds={"group": CyclicGroup(7)}) for _ in range(2))
    assert first._text is second._text and first.to_json() == second.to_json()


def _sparse_paving_censuses_built(monkeypatch, theorem, bounds):
    """(ground size, rank) of each sparse paving census a passing verify call builds."""
    built = []
    enumerate_sparse_paving = verifiers.enumerate_sparse_paving

    def counted(ground, rank, **kwargs):
        built.append((len(ground), rank))
        return enumerate_sparse_paving(ground, rank, **kwargs)

    monkeypatch.setattr(verifiers, "enumerate_sparse_paving", counted)
    rec = verify(theorem, bounds=bounds)
    assert rec.passed and rec.instances_checked > 0
    return built


@pytest.mark.parametrize("cond", ["asy-1", "asy-2", "asy-3", "asy-4", "asy-coloopless"])
def test_asy_call_enumerates_each_sparse_paving_census_once(monkeypatch, cond):
    bounds = {"group": CyclicGroup(11), "ranks": (1, 2), "max_size": 5}
    built = _sparse_paving_censuses_built(monkeypatch, cond, bounds)
    assert built and len(built) == len(set(built))


def test_rank_criteria_enumerates_each_sparse_paving_census_once(monkeypatch):
    built = _sparse_paving_censuses_built(monkeypatch, "rank-criteria", {"ranks": (1, 2)})
    assert built and len(built) == len(set(built))


def test_fixed_counterexample_decides_one_basis(monkeypatch):
    searches = []
    match = verifiers.matching.SumTable.match

    def counted(table, *args):
        searches.append(None)
        return match(table, *args)

    monkeypatch.setattr(verifiers.matching.SumTable, "match", counted)
    assert verify("asy-counterexample", bounds={"n": 5}).passed
    assert len(searches) == 1


@pytest.mark.parametrize("rank", range(1, 6))
def test_no_partition_matroid_on_rank_plus_one_elements_is_strictly_paving(rank):
    """asy-order's N census is sparse paving: on r + 1 elements no paving matroid is more."""
    ground = GroundSet(IntegerWindow(0, 10), range(1, rank + 2))
    classes = {pm.paving_class() for pm in enumerate_partition_matroids(ground, rank)}
    assert classes and PAVING not in classes


@pytest.mark.parametrize("budget", [1, 3, 10])
def test_budget_on_a_census_scope_stays_exact(monkeypatch, budget):
    """A group's pairs are counted together once it is decided, so the budget
    raises at the group whose pairs cross it, and no later group is decided."""
    bounds = {"group": CyclicGroup(11), "ranks": (2,)}
    full = verify("asy-1", bounds=bounds).instances_checked
    assert verify("asy-1", bounds={**bounds, "budget": full}).instances_checked == full
    decided = []
    first_unmatched = verifiers._first_unmatched

    def counted(*args):
        got = first_unmatched(*args)
        decided.append(got[0])
        return got

    monkeypatch.setattr(verifiers, "_first_unmatched", counted)
    # Every group is decided, none replayed from the memo.
    monkeypatch.setattr(verifiers, "_decision_key", lambda *args: object())
    with pytest.raises(BudgetExceededError):
        verify("asy-1", bounds={**bounds, "budget": budget})
    assert sum(decided[:-1]) <= budget < sum(decided) < full


# -- census scopes ----------------------------------------------------------------

#: A small scope per census theorem.
_CENSUS_SCOPES = {
    **{
        cond: {"group": CyclicGroup(11), "ranks": (1, 2), "max_size": 4}
        for cond in ("asy-1", "asy-2", "asy-3", "asy-4", "asy-uniform", "asy-coloopless")
    },
    "asy-n+1": {"group": CyclicGroup(13), "ranks": (3,)},
    "asy-order": {"group": IntegerWindow(0, 14), "ranks": (1, 2)},
}


def _first_census_member(kind, ground, rank):
    try:
        return next(iter(verifiers._CENSUS_KINDS[kind][0](ground, rank)), None)
    except ValueError:  # the corank-1 census needs two elements
        return None


@pytest.mark.parametrize("theorem", sorted(_CENSUS_SCOPES))
def test_census_scope_decides_exactly_the_pairs_its_check_accepts(monkeypatch, theorem):
    """The scope builds one sum table per ground pair its row's check accepts, in order.

    The check runs on stand-ins: M uniform and N the first member of the N
    census, over every ground pair the universes and sizes allow.
    """
    built = []
    sum_table = verifiers.matching.SumTable

    def recording(ground_m, ground_n):
        built.append((ground_m.elements, ground_n.elements))
        return sum_table(ground_m, ground_n)

    monkeypatch.setattr(verifiers.matching, "SumTable", recording)
    rec = verify(theorem, bounds=_CENSUS_SCOPES[theorem])
    monkeypatch.undo()
    assert rec.passed

    group, bounds = _CENSUS_SCOPES[theorem]["group"], rec.bounds
    row = verifiers._CENSUS_THEOREMS[theorem]
    claim, n_kind = row.claim, row.n_kind
    check = verifiers._PAIR_CLAIMS[claim][1]
    universe_m = sorted(bounds.get("universe_m", bounds.get("universe")))
    universe_n = sorted(bounds.get("universe_n", bounds.get("universe")))
    max_size = bounds.get("max_size", max(len(universe_m), len(universe_n)))
    stand_in_n = functools.cache(
        lambda en, rank: _first_census_member(n_kind, GroundSet(group, en), rank)
    )
    accepted = []
    for rank in bounds["ranks"]:
        for em_size in range(rank, max_size + 1):
            for em in itertools.combinations(universe_m, em_size):
                m = UniformMatroid(GroundSet(group, em), rank)
                for en_size in range(rank, max_size + 1):
                    for en in itertools.combinations(universe_n, en_size):
                        n = stand_in_n(en, rank)
                        if n is None:
                            continue
                        try:
                            check(group, m, n)
                        except HypothesisViolation:
                            continue
                        accepted.append((em, en))
    assert accepted and built == accepted


@pytest.mark.parametrize("kind", sorted(verifiers._CENSUS_KINDS))
def test_every_census_member_meets_its_kinds_clauses(kind):
    members, clauses = verifiers._CENSUS_KINDS[kind]
    total = 0
    for size in range(2, 6):
        ground = GroundSet(CyclicGroup(11), range(1, size + 1))
        for rank in [size - 1] if kind == "corank-1" else range(1, size + 1):
            for member in members(ground, rank):
                total += 1
                assert member.rank_value == rank
                assert all(holds(member) for holds in clauses.values())
    assert total


def test_sparse_sym_decides_each_sparse_paving_member_once_inside_its_hypotheses(monkeypatch):
    """Every pair the scope hands the kernel meets _sparse_self_pair, one per census member."""
    group, universe = CyclicGroup(11), tuple(range(1, 6))
    decided = []
    unmatched = verifiers._unmatched

    def recording(run, groups):
        def seen():
            for table, census, m_census in groups:
                assert m_census is None  # a diagonal group: each member against itself
                decided.extend((m.on(table.ground_m), m.on(table.ground_n)) for m in census.members)
                yield table, census, m_census

        return unmatched(run, seen())

    monkeypatch.setattr(verifiers, "_unmatched", recording)
    rec = verify("sparse-sym", bounds={"group": group, "universe": universe})
    for m, n in decided:
        verifiers._sparse_self_pair(group, m, n)
    census = sum(
        len(verifiers.enumerate_sparse_paving(GroundSet(group, combo), rank))
        for size in (4, 5)
        for combo in itertools.combinations(universe, size)
        for rank in (2, 3)
    )
    assert rec.instances_checked == len(decided) == census == 127


# -- bounds schema ----------------------------------------------------------------

def test_schema_tables_cover_every_verifier_and_instance_mode():
    assert set(SCOPE_KEYS) == set(VERIFIERS)
    instance_theorems = {entry[0] for entry in verifiers._PAIR_CLAIMS.values()} - {None}
    assert set(INSTANCE_KEYS) == instance_theorems


@pytest.mark.parametrize("theorem", sorted(SCOPE_KEYS))
def test_scope_mode_refuses_an_unknown_bound(theorem):
    with pytest.raises(HypothesisViolation) as info:
        verify(theorem, bounds={"group": CyclicGroup(7), "bogus": 1})
    assert str(info.value) == f"unknown bound bogus: {known_keys(theorem, SCOPE_KEYS[theorem])}"


@pytest.mark.parametrize("theorem", sorted(INSTANCE_KEYS))
def test_instance_mode_refuses_an_unknown_bound(theorem):
    inst = {"group": {"kind": "cyclic", "n": 7}, "matroids": {}}
    bounds = {"m": "M", "n": "N", "bogus": 1} if theorem != "only-if-1" else {"m": "M", "bogus": 1}
    with pytest.raises(HypothesisViolation) as info:
        verify(theorem, instance=inst, bounds=bounds)
    assert str(info.value) == f"unknown bound bogus: {known_keys(theorem, INSTANCE_KEYS[theorem])}"


def test_a_missing_required_bound_comes_before_an_unknown_one():
    with pytest.raises(HypothesisViolation, match="missing bound group: kneser takes group"):
        verify("kneser", bounds={"bogus": 1})


def test_a_none_bound_counts_as_missing():
    assert verify("rado", bounds={"seed": None, "count": 5, "bogus": None}).bounds["seed"] == 0


@pytest.mark.parametrize("given, missing", [({"a": 2}, "x"), ({"x": 1}, "a")])
def test_only_if_2_needs_a_and_x_together(given, missing):
    with pytest.raises(HypothesisViolation, match=f"missing bound {missing}: only-if-2 takes a"):
        verify("only-if-2", bounds={"group": CyclicGroup(6), **given})


@pytest.mark.parametrize(
    "theorem, key, element",
    [("only-if-1", "universe", 3), ("asy-1", "universe_n", 5), ("sparse-sym", "universe", 2)],
)
def test_a_bare_element_is_a_one_element_universe(theorem, key, element):
    rec = verify(theorem, bounds={"group": CyclicGroup(7), key: element})
    assert rec.passed and rec.bounds[key] == [element]


def test_a_universe_may_be_any_iterable_of_elements():
    bounds = {"group": CyclicGroup(11), "sizes": 4, "ranks": 2}
    rec = verify("sparse-sym", bounds={**bounds, "universe": range(1, 5)})
    assert rec.bounds["universe"] == [1, 2, 3, 4]
    listed = verify("sparse-sym", bounds={**bounds, "universe": [1, 2, 3, 4]})
    assert record_json(rec) == record_json(listed)


def test_a_product_element_is_a_one_element_universe():
    group = ProductGroup([2, 4])
    rec = verify("only-if-1", bounds={"group": group, "universe": [0, 1]})
    assert rec.bounds["universe"] == [[0, 1]]
    rec = verify("only-if-1", bounds={"group": group, "universe": [[0, 0], [0, 1]]})
    assert rec.bounds["universe"] == [[0, 0], [0, 1]]


def test_transversal_1_records_the_sign_asked_for_and_the_signs_checked():
    rec = verify("transversal-1", bounds={"group": IntegerWindow(-10, 10), "sign": "negative"})
    assert rec.passed
    assert (rec.bounds["sign"], rec.bounds["signs"]) == ("negative", ["negative"])
