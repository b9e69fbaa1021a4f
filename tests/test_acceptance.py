"""Acceptance suite: one test per criterion, one printed verdict line each.

Run with ``pytest tests/test_acceptance.py -s`` to see the per-criterion
lines. Two criteria fail by design of honesty rather than by bug, and their
assertion messages carry the refuting instances:

* criterion 3: the sparse-paving self-matching claim has counterexamples
  (smallest: ground {1,2,3,4}, rank 2, circuit-hyperplane {3,4} - the basis
  {1,2} admits only {3,4} as a sum-avoiding target, which is dependent);
* criterion 7's containment bound |X| >= |A|+|B|+1 is refuted by
  A = B = {1} (only |X| >= |A|+|B| holds, which the suite verifies instead
  as a tracked extra).
"""

import itertools
import json
import time
from pathlib import Path

import pytest

from matchroid import (
    CyclicGroup,
    FreeMatroid,
    GroundSet,
    IntegerWindow,
    enumerate_partition_matroids,
    enumerate_sparse_paving,
    satisfies_ch_count_bound,
    verify,
)
from matchroid.cli import run
from matchroid.matroids import PAVING, SPARSE_PAVING
from matchroid.serialize import canonical_json
from conftest import write_instance

ASY_CONDITIONS = ("asy-1", "asy-2", "asy-3", "asy-4", "asy-uniform", "asy-coloopless")

_RECORDS = {}

#: Canonical verdict JSON (no runtime) of every _suite_table suite. A change
#: to it must be deliberate and named, with its reason, in CHANGES.md.
GOLDEN_VERDICTS = Path(__file__).parent / "golden" / "verdicts.json"


def _suite_table():
    """Every verifier suite the acceptance criteria run, keyed for reuse."""
    table = {
        "sym7": ("sym-group", {"group": CyclicGroup(7)}),
        "sym8": ("sym-group", {"group": CyclicGroup(8)}),
        "sparse-sym-full": (
            "sparse-sym",
            {
                "group": CyclicGroup(11),
                "universe": tuple(range(1, 11)),
                "sizes": (4, 5),
                "ranks": (2, 3),
            },
        ),
        "rado500": ("rado", {"seed": 0, "count": 500, "max_rank": 4, "max_ground": 8}),
        "kneser8": ("kneser", {"group": CyclicGroup(8)}),
        "kemperman7": ("kemperman", {"group": CyclicGroup(7)}),
        "eliahou7": ("eliahou", {"group": CyclicGroup(7)}),
        "eliahou8": ("eliahou", {"group": CyclicGroup(8)}),
        "critical11": ("critical", {"group": CyclicGroup(11)}),
        "lemma-prog-win": (
            "lemma-progression",
            {"group": IntegerWindow(-8, 8), "sizes": (3, 4, 5)},
        ),
        "lemma-prog-11": (
            "lemma-progression",
            {"group": CyclicGroup(11), "sizes": (3, 4, 5)},
        ),
    }
    for cond in ASY_CONDITIONS:
        for p in (11, 13):
            table[f"{cond}-{p}"] = (cond, {"group": CyclicGroup(p)})
    return table


def _record(key):
    if key not in _RECORDS:
        theorem, bounds = _suite_table()[key]
        _RECORDS[key] = verify(theorem, bounds=bounds)
    return _RECORDS[key]


def _report(criterion, ok, detail):
    print(f"\nACCEPTANCE {criterion}: {'PASS' if ok else 'FAIL'} - {detail}")


def test_criterion_01_symmetric_group_matching():
    start = time.perf_counter()
    rec7 = _record("sym7")
    rec8 = _record("sym8")
    elapsed = time.perf_counter() - start
    ok = (
        rec7.passed
        and rec8.passed
        and rec7.instances_checked == 127
        and rec8.instances_checked == 255
        and elapsed < 10
    )
    _report(1, ok, f"Z/7: {rec7.instances_checked}, Z/8: {rec8.instances_checked}, {elapsed:.1f}s")
    assert rec7.passed and rec7.instances_checked == 127
    assert rec8.passed and rec8.instances_checked == 255
    assert elapsed < 10


def _counterexample_instance(kind, n):
    ground = list(range(1, 2 * n + 1))
    blocks = [[i] for i in range(1, n)] + [list(range(n, 2 * n + 1))]
    transversal = {"kind": "partition", "blocks": blocks, "caps": [1] * n}
    matroids = {"N": {"ground": ground, "rep": transversal}}
    if kind == "sym":
        matroids["M"] = matroids["N"]
    else:
        matroids["M"] = {"ground": ground, "rep": {"kind": "uniform", "rank": n}}
    return {"group": {"kind": "zwindow", "lo": 0, "hi": 4 * n}, "matroids": matroids}


def test_criterion_02_counterexample_regressions(tmp_path, capsys):
    start = time.perf_counter()
    outcomes = []
    for kind, sizes in (("sym", (2, 3, 4)), ("asy", (2, 3))):
        for n in sizes:
            path = write_instance(tmp_path, _counterexample_instance(kind, n), f"{kind}{n}.json")
            code = run(["match", "--instance", path, "--m", "M", "--n", "N", "--json"])
            doc = json.loads(capsys.readouterr().out)
            outcomes.append(
                (kind, n, code == 1 and doc["failing_basis"] == list(range(1, n + 1)))
            )
    elapsed = time.perf_counter() - start
    ok = all(o[2] for o in outcomes) and elapsed < 5
    _report(2, ok, f"{len(outcomes)} regressions confirmed via exit 1, {elapsed:.1f}s")
    assert all(o[2] for o in outcomes), outcomes
    assert elapsed < 5


def test_criterion_03_sparse_paving_self_matching():
    start = time.perf_counter()
    rec = _record("sparse-sym-full")
    elapsed = time.perf_counter() - start
    failing = rec.extras.get("failing_matroids", 0)
    _report(
        3,
        rec.passed and elapsed < 120,
        f"{failing}/{rec.instances_checked} sparse paving matroids have an unmatchable basis, "
        f"{elapsed:.1f}s",
    )
    assert elapsed < 120
    assert rec.instances_checked == 16254
    assert rec.passed, (
        "the self-matching claim for sparse paving matroids fails on "
        f"{failing} of {rec.instances_checked} enumerated instances; smallest: "
        f"ground {rec.counterexample['m']['ground']}, rank 2, circuit-hyperplane "
        f"{rec.counterexample['m']['rep']['ch']}, basis {rec.counterexample['basis']} "
        "(its only sum-avoiding target inside the ground set is the circuit-hyperplane itself)"
    )


@pytest.mark.parametrize("cond", ASY_CONDITIONS)
def test_criterion_04_asymmetric_conditions(cond):
    start = time.perf_counter()
    total = 0
    for p in (11, 13):
        rec = _record(f"{cond}-{p}")
        assert rec.passed, f"{cond} failed over Z/{p}: {rec.counterexample}"
        total += rec.instances_checked
    elapsed = time.perf_counter() - start
    _report(f"4 ({cond})", elapsed < 300, f"{total} in-hypothesis pairs matched, {elapsed:.1f}s")
    assert elapsed < 300


def test_criterion_05_rado_equivalence():
    start = time.perf_counter()
    rec = _record("rado500")
    elapsed = time.perf_counter() - start
    ok = rec.passed and rec.instances_checked == 500 and elapsed < 60
    _report(
        5,
        ok,
        f"500 instances, {rec.extras.get('transversals', 0)} transversals / "
        f"{rec.extras.get('violations', 0)} re-verified violations, {elapsed:.1f}s",
    )
    assert rec.passed and rec.instances_checked == 500
    assert rec.extras["violations"] > 0
    assert elapsed < 60


def test_criterion_06_rank_criterion_soundness():
    # Suites 3 and 4 evaluate the criterion beside every transversal search;
    # their extras carry the tallies.
    holds = violations = 0
    for key in ["sparse-sym-full"] + [
        f"{cond}-{p}" for cond in ASY_CONDITIONS for p in (11, 13)
    ]:
        rec = _record(key)
        holds += rec.extras.get("criterion_holds", 0)
        violations += rec.extras.get("criterion_violations", 0)
    standalone = verify("rank-criteria", bounds={})
    ok = violations == 0 and holds > 0 and standalone.passed
    _report(6, ok, f"criterion held {holds} times across suites 3-4, {violations} violations")
    assert violations == 0
    assert holds > 0
    assert standalone.passed


def test_criterion_07_additive_theorems():
    start = time.perf_counter()
    kneser = _record("kneser8")
    kemperman = _record("kemperman7")
    eliahou7 = _record("eliahou7")
    eliahou8 = _record("eliahou8")
    critical = _record("critical11")
    elapsed = time.perf_counter() - start

    assert kneser.passed and kneser.instances_checked == 255 * 255
    assert kemperman.passed
    assert critical.passed
    # The corrected containment bound |X| >= |A|+|B| holds with no exceptions.
    assert eliahou7.extras["corrected_bound_failures"] == 0
    assert eliahou8.extras["corrected_bound_failures"] == 0
    ok = eliahou7.passed and eliahou8.passed and elapsed < 180
    _report(
        7,
        ok,
        f"kneser {kneser.instances_checked} pairs, critical {critical.instances_checked} pairs, "
        f"containment-bound failures {eliahou7.extras['claimed_bound_failures']}+"
        f"{eliahou8.extras['claimed_bound_failures']}, {elapsed:.1f}s",
    )
    assert elapsed < 180
    assert eliahou7.passed and eliahou8.passed, (
        "the containment bound |X| >= |A|+|B|+1 fails: with A = B = "
        f"{eliahou7.counterexample['a']} the union A u B u (A+B) has |A|+|B| elements; "
        "only |X| >= |A|+|B| holds (verified exhaustively with zero exceptions over "
        "Z/7 and Z/8 in the same run)"
    )


def test_criterion_08_translate_intersection():
    start = time.perf_counter()
    win = _record("lemma-prog-win")
    cyc = _record("lemma-prog-11")
    elapsed = time.perf_counter() - start
    ok = win.passed and cyc.passed and elapsed < 60
    _report(
        8, ok, f"window: {win.instances_checked}, Z/11: {cyc.instances_checked}, {elapsed:.1f}s"
    )
    assert win.passed and cyc.passed
    assert elapsed < 60


def _structural_census(size):
    ground = GroundSet(IntegerWindow(0, 16), range(1, size + 1))
    out = []
    for rank in range(1, size + 1):
        out.extend(enumerate_sparse_paving(ground, rank))
    out.extend(enumerate_partition_matroids(ground))
    out.append(FreeMatroid(ground))
    return ground, out


def test_criterion_09_matroid_structural_suite():
    start = time.perf_counter()
    total = 0
    for size in range(1, 7):
        ground, census = _structural_census(size)
        full = ground.full_mask
        for m in census:
            total += 1
            n = m.rank_value
            table = [m.rank_mask(mask) for mask in range(1 << size)]
            bases = m.bases_masks
            # Rank oracle agreement: closed form vs max overlap with a basis.
            for mask in range(1 << size):
                assert table[mask] == max((mask & b).bit_count() for b in bases)
            # Submodularity, on all pairs of subsets.
            for x in range(1 << size):
                tx = table[x]
                for y in range(x, 1 << size):
                    assert tx + table[y] >= table[x | y] + table[x & y]
            # Dual involution and complement bases.
            dual = m.dual()
            assert sorted(dual.dual().bases_masks) == sorted(bases)
            assert sorted(dual.bases_masks) == sorted(full & ~b for b in bases)
            # Classification runs its internal two-way sparse paving check.
            klass = m.paving_class()
            if klass == SPARSE_PAVING:
                assert satisfies_ch_count_bound(m)
            if klass in (PAVING, SPARSE_PAVING) and n >= 2:
                hyps = m.hyperplanes()
                for h in hyps:
                    assert len(h) >= n - 1
                for h1, h2 in itertools.combinations(hyps, 2):
                    assert len(h1 & h2) <= n - 2
    elapsed = time.perf_counter() - start
    ok = elapsed < 120
    _report(9, ok, f"{total} matroids from the enumerators checked, {elapsed:.1f}s")
    assert total > 1500
    assert elapsed < 120


def test_criterion_10_determinism(capsys):
    table = _suite_table()
    mismatches = []
    for key, (theorem, bounds) in table.items():
        first = _record(key)
        again = verify(theorem, bounds=bounds)
        if canonical_json(first.to_json()) != canonical_json(again.to_json()):
            mismatches.append(key)

    # CLI-level byte identity with a fixed seed.
    outs = []
    for _ in range(2):
        code = run(["verify", "rado", "--seed", "3", "--bounds", "count=50", "--json"])
        outs.append(capsys.readouterr().out)
        assert code == 0
    ok = not mismatches and outs[0] == outs[1]
    _report(10, ok, f"{len(table)} suites re-ran byte-identically")
    assert not mismatches, mismatches
    assert outs[0] == outs[1]


def test_golden_verdict_snapshot():
    golden = json.loads(GOLDEN_VERDICTS.read_text())
    assert sorted(golden) == sorted(_suite_table())
    drift = [
        key
        for key, expected in golden.items()
        if canonical_json(_record(key).to_json()) != canonical_json(expected)
    ]
    _report("golden", not drift, f"{len(golden) - len(drift)}/{len(golden)} suites match the snapshot")
    assert not drift, drift
