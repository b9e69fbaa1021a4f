"""The three exhaustive workloads: verifier scopes and their exact answers.

Each workload covers acceptance scopes (``_suite_table`` in
``tests/test_acceptance.py``) and ignores the seed. A scope is sent as
several ``matchroid.verify`` calls whose union is exactly the scope: one call
per ground set for sparse-sym, one per rank for the asy verifiers, one per
subset size for lemma-progression. The runner times every call and takes
each call's median over the passes of a run, so a burst of machine noise in
one pass does not move the result. The verdicts of a scope's calls add up to
the exact values below; the two refutations (sparse-sym, eliahou) are
expected answers.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

ASY = ("asy-1", "asy-2", "asy-3", "asy-4", "asy-uniform", "asy-coloopless")

# The smallest sparse-sym counterexample: rank 2 on {1,2,3,4} with
# circuit-hyperplane {3,4}; the basis {1,2} has no matched target.
_SPARSE_SYM_COUNTEREXAMPLE = {
    "kind": "matroid-pair",
    "m": {"ground": [1, 2, 3, 4], "rep": {"kind": "ch", "rank": 2, "ch": [[3, 4]]}},
    "basis": [1, 2],
}


@dataclass(frozen=True)
class Call:
    """One verify call; ``scope`` names the scope its verdict counts toward."""

    scope: str
    theorem: str
    bounds: dict


@dataclass(frozen=True)
class Scope:
    """The verdict a scope's calls must add up to, as a nested subset of
    ``{"checked", "passed", "extras", "counterexample"}``. Counts and extras
    are summed over the calls, ``passed`` is their conjunction, and the
    counterexample is the first one in call order."""

    name: str
    expect: dict
    recheck: bool = False


def _census_selfmatch(mr, tiny):
    group = mr.CyclicGroup(11)
    calls = [
        Call(
            "sparse-sym",
            "sparse-sym",
            {"group": group, "universe": combo, "sizes": (size,), "ranks": (2, 3)},
        )
        for size in (4, 5)
        for combo in itertools.combinations(range(1, 6 if tiny else 11), size)
    ]
    checked, failing, rado = (127, 8, 710) if tiny else (16254, 80, 124079)
    expect = {
        "checked": checked,
        "passed": False,
        "extras": {"failing_matroids": failing, "rado_calls": rado},
        "counterexample": _SPARSE_SYM_COUNTEREXAMPLE,
    }
    return calls, [Scope("sparse-sym", expect, recheck=True)]


_ASY_CHECKED = {
    "asy-1": 65292,
    "asy-2": 73904,
    "asy-3": 23796,
    "asy-4": 1397,
    "asy-uniform": 14982,
    "asy-coloopless": 4300,
}
_ASY_CHECKED_TINY = {
    "asy-1": 1950,
    "asy-2": 2013,
    "asy-3": 505,
    "asy-4": 40,
    "asy-uniform": 1832,
    "asy-coloopless": 500,
}


def _asy_battery(mr, tiny):
    bounds = {"group": mr.CyclicGroup(11)}
    ranks = (1, 2, 3)
    if tiny:
        bounds.update(universe_m=(0, 1, 2, 3, 4), universe_n=(1, 2, 3, 4, 5))
        ranks = (1, 2)
    checked = _ASY_CHECKED_TINY if tiny else _ASY_CHECKED
    calls = [Call(cond, cond, dict(bounds, ranks=(rank,))) for cond in ASY for rank in ranks]
    scopes = [Scope(cond, {"checked": checked[cond], "passed": True}) for cond in ASY]
    return calls, scopes


def _additive_exhaustive(mr, tiny):
    C, W = mr.CyclicGroup, mr.IntegerWindow
    if tiny:
        table = [
            ("kneser", C(4), {}, 225, None),
            ("critical", C(7), {}, 882, None),
            ("lemma-progression", W(-5, 5), {"sizes": (3, 4)}, 455, None),
            ("lemma-progression", C(7), {"sizes": (3, 4)}, 28, None),
            ("kemperman", C(4), {}, 184, None),
            ("eliahou", C(4), {}, 12, 8),
            ("eliahou", C(5), {}, 50, 26),
        ]
    else:
        table = [
            ("kneser", C(8), {}, 65025, None),
            ("critical", C(11), {}, 16940, None),
            ("lemma-progression", W(-8, 8), {"sizes": (3, 4, 5)}, 9116, None),
            ("lemma-progression", C(11), {"sizes": (3, 4, 5)}, 792, None),
            ("kemperman", C(7), {}, 11774, None),
            ("eliahou", C(7), {}, 602, 122),
            ("eliahou", C(8), {}, 1932, 228),
        ]
    calls, scopes = [], []
    for theorem, group, extra, checked, claimed_failures in table:
        name = f"{theorem} on {group!r}"
        if "sizes" in extra:
            calls += [Call(name, theorem, {"group": group, "sizes": (s,)}) for s in extra["sizes"]]
        else:
            calls.append(Call(name, theorem, {"group": group}))
        if claimed_failures is None:
            expect = {"checked": checked, "passed": True}
        else:
            # The claimed bound |X| >= |A|+|B|+1 is refuted by A = B = {1};
            # the corrected bound |X| >= |A|+|B| holds with no exception.
            expect = {
                "checked": checked,
                "passed": False,
                "extras": {
                    "claimed_bound_failures": claimed_failures,
                    "corrected_bound_failures": 0,
                },
                "counterexample": {"kind": "subset-pair", "a": [1], "b": [1]},
            }
        scopes.append(Scope(name, expect))
    return calls, scopes


BUILDERS = {
    "census-selfmatch": _census_selfmatch,
    "asy-battery": _asy_battery,
    "additive-exhaustive": _additive_exhaustive,
}


def build(name, mr, tiny=False):
    """The workload's verify calls, in order, and the scopes they add up to."""
    return BUILDERS[name](mr, tiny)


def combine(docs):
    """Add up the verdict JSON of one scope's calls, in call order."""
    total = {"checked": 0, "passed": True, "extras": {}, "counterexample": None}
    for doc in docs:
        total["checked"] += doc["checked"]
        total["passed"] = total["passed"] and doc["passed"]
        for key, value in doc["extras"].items():
            total["extras"][key] = total["extras"].get(key, 0) + value
        if total["counterexample"] is None:
            total["counterexample"] = doc.get("counterexample")
    return total


def mismatches(expect, actual, path="verdict"):
    """Paths where ``actual`` differs from ``expect`` (a nested subset match)."""
    if isinstance(expect, dict):
        if not isinstance(actual, dict):
            return [f"{path}: expected an object, got {actual!r}"]
        out = []
        for key, value in expect.items():
            if key not in actual:
                out.append(f"{path}.{key}: missing")
            else:
                out.extend(mismatches(value, actual[key], f"{path}.{key}"))
        return out
    if expect != actual:
        return [f"{path}: expected {expect!r}, got {actual!r}"]
    return []
