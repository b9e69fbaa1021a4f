import itertools
import json

import pytest

from matchroid import CyclicGroup, IntegerWindow, ProductGroup


@pytest.fixture
def c7():
    return CyclicGroup(7)


@pytest.fixture
def c11():
    return CyclicGroup(11)


@pytest.fixture
def window():
    return IntegerWindow(-10, 10)


@pytest.fixture
def small_groups():
    return [
        CyclicGroup(4),
        CyclicGroup(6),
        CyclicGroup(7),
        ProductGroup([2, 3]),
        ProductGroup([2, 2, 2]),
    ]


def write_instance(tmp_path, obj, name="instance.json"):
    path = tmp_path / name
    path.write_text(json.dumps(obj))
    return str(path)


@pytest.fixture
def sym_counterexample_file(tmp_path):
    """The transversal matroid on [4] that is not matched to itself."""
    return write_instance(
        tmp_path,
        {
            "group": {"kind": "zwindow", "lo": 0, "hi": 8},
            "matroids": {
                "M": {
                    "ground": [1, 2, 3, 4],
                    "rep": {"kind": "partition", "blocks": [[1], [2, 3, 4]], "caps": [1, 1]},
                },
                "U": {"ground": [1, 2, 3, 4], "rep": {"kind": "uniform", "rank": 2}},
            },
            "subsets": {"A": [1, 2, 3], "B": [1, 2, 3], "F1": [4], "F2": [3, 4]},
        },
    )


#: Theorem -> the bound keys its scope mode takes, in declaration order (the
#: README table under "--bounds" gives the same keys with their defaults).
SCOPE_KEYS = {
    "sym-group": ("group",),
    "only-if-1": ("group", "universe", "sizes", "ranks"),
    "only-if-2": ("group", "a", "x"),
    "sparse-sym": ("group", "universe", "sizes", "ranks"),
    **{
        cond: ("group", "universe_m", "universe_n", "ranks", "max_size")
        for cond in ("asy-1", "asy-2", "asy-3", "asy-4", "asy-uniform", "asy-coloopless")
    },
    "asy-order": ("group", "universe", "ranks"),
    "asy-n+1": ("group", "universe_m", "universe_n", "ranks"),
    "transversal-1": ("group", "blocks", "limit", "sign"),
    "transversal-2": ("group", "limit", "blocks"),
    "kneser": ("group",),
    "kemperman": ("group",),
    "eliahou": ("group",),
    "critical": ("group", "max_total"),
    "lemma-progression": ("group", "sizes"),
    "rado": ("seed", "count", "max_rank", "max_ground", "group"),
    "rank-criteria": ("group", "universe", "ranks"),
    "sym-counterexample": ("n", "group"),
    "asy-counterexample": ("n", "group"),
}

#: Theorem -> the bound keys its instance mode takes.
INSTANCE_KEYS = {
    **{
        theorem: ("m", "n")
        for theorem in (
            "asy-1", "asy-2", "asy-3", "asy-4", "asy-uniform", "asy-coloopless",
            "asy-n+1", "asy-order", "transversal-2",
        )
    },
    "only-if-1": ("m",),
    "transversal-1": ("m", "n", "sign"),
}


def known_keys(theorem, keys):
    return f"{theorem} takes {', '.join(keys)} and budget"


def brute_criterion(table, src_mask, n):
    """The rank criterion's first violating J over all 2^r - 1 index sets, or None.

    J runs by size, then lexicographically, over the source basis's hit rows;
    it violates when their common targets have rank above r - |J| in N.
    """
    rows = [table.hit[i] for i in range(len(table.hit)) if src_mask >> i & 1]
    for size in range(1, len(rows) + 1):
        for j in itertools.combinations(range(len(rows)), size):
            common = table.full
            for i in j:
                common &= rows[i]
            if n.rank_mask(common) > len(rows) - size:
                return j
    return None


def per_pair_unmatched(table, n_members, m_members):
    """The census group driver pair by pair: (checked, counts, failures) of every N
    against every M, N-major, stopping at the first unmatched basis.

    Each (N, basis) pair is decided once per N, by the augmenting-path search and
    the brute criterion scan, and the decision is shared across the M members;
    ``failures`` holds the one (M index, N index, basis mask) left unmatched, if any.
    """
    counts = dict.fromkeys(("rado_calls", "criterion_holds", "criterion_violations"), 0)
    checked = 0
    for ni, nn in enumerate(n_members):
        cache = {}
        for mi, mm in enumerate(m_members):
            checked += 1
            for mask in mm.bases_masks:
                ok = cache.get(mask)
                if ok is None:
                    ok = table.match(mask, nn) is not None
                    holds = brute_criterion(table, mask, nn) is None
                    counts["rado_calls"] += 1
                    counts["criterion_holds"] += holds
                    counts["criterion_violations"] += holds and not ok
                    cache[mask] = ok
                if not ok:
                    return checked, counts, [(mi, ni, mask)]
    return checked, counts, []
