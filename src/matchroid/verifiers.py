"""One executable verifier per theorem: hypotheses checked, conclusion asserted.

Each claim is defined once with its hypotheses: a subset predicate
(_SUBSET_CLAIMS) returns None outside them, and a matroid-pair claim's one row
in _PAIR_CLAIMS holds a check that raises HypothesisViolation and the expected
matching outcome; a census theorem's check (_census_check) reads its
hypotheses from its one row in _CENSUS_THEOREMS. Scopes read the same
definitions: _failures adds the weights of the candidates a predicate is
about, which one builder per scope makes from every subset at weight 1, or in
kneser, kemperman and critical from one subset per translation orbit weighted
by its size (_first_failure); _checked_pairs matches the pairs a check
accepts, and _census_scope decides whole censuses on the ground pairs a census
theorem's row accepts. The ordered theorems read their compatible order
straight from the Rectification, and transversal-1 is the bridge-free end (k=0
or k=c+1) of transversal-2's one bridge check, _bridge_index. A verifier runs
exhaustively over a declared, bounded scope or, for a theorem in _PAIR_CLAIMS,
on a single instance whose matroids the ``m`` and ``n`` bounds name; verify
alone dispatches the two modes and records each run, which a verifier only
fills. The outcome is a VerdictRecord; ``passed=False`` carries a
counterexample payload, which recheck_counterexample re-verifies standalone
whatever its kind. Two of the checked claims really are false and their
verifiers report that: sparse paving self-matching (see _verify_sparse_sym)
and the |X| >= |A|+|B|+1 containment bound (see _verify_eliahou). Everything
else holds on every scope this battery can enumerate.

Enumeration scopes draw ground sets from declared universes and matroids from
the censuses this package can enumerate: the sparse paving census, partition
matroids, and (on ground sets of size rank+1, where the basis-exchange axiom
is vacuous) every matroid outright. Scope bounds are recorded in the verdict,
and identical bounds reproduce identical records byte for byte.
"""

import collections
import functools
import inspect
import itertools
import json
import random
import sys
import time
import types

from . import additive, matching
from .additive import GroupSubset
from .errors import (
    BudgetExceededError,
    HypothesisViolation,
    InternalCheckError,
    UnknownTheoremError,
)
from .groups import (
    Group,
    IntegerWindow,
    Rectification,
    _int,
    generated_subgroup,
    group_from_json,
    rectify,
)
from .matroids import (
    BasisListMatroid,
    ChSparsePavingMatroid,
    FreeMatroid,
    GroundSet,
    NOT_PAVING,
    PartitionMatroid,
    SPARSE_PAVING,
    UniformMatroid,
    enumerate_partition_matroids,
    enumerate_sparse_paving,
)
from .serialize import (
    elem_to_json,
    elems_to_json,
    matroid_to_json,
    parse_instance_obj,
    witness_to_json,
)

#: inspect.signature, memoised: a Signature built per verify call slows short scopes by 3-7%.
_signature = functools.cache(inspect.signature)


class VerdictRecord:
    """Outcome of one verifier run: its verdict document and its runtime.

    The document holds theorem, checked, passed, bounds, extras, ``vacuous``
    when nothing was checked, and a counterexample exactly when passed is
    False, which recheck_counterexample re-verifies standalone. Equal bounds
    give equal counts. The document is kept as one compact JSON text and
    decoded on access, so a record costs a few hundred bytes rather than a
    tree of dicts; callers that collect a verdict per ground set hold
    thousands of them, and equal texts are interned into one object.
    """

    __slots__ = ("theorem", "instances_checked", "passed", "runtime_ms", "_text")

    def __init__(self, doc, runtime_ms):
        self.theorem = doc["theorem"]
        self.instances_checked = doc["checked"]
        self.passed = doc["passed"]
        self.runtime_ms = runtime_ms
        self._text = sys.intern(json.dumps(doc, separators=(",", ":")))

    bounds = property(lambda self: self.to_json()["bounds"])
    extras = property(lambda self: self.to_json()["extras"])
    counterexample = property(lambda self: self.to_json().get("counterexample"))

    def to_json(self, include_runtime=False):
        out = json.loads(self._text)
        if include_runtime:
            out["runtime_ms"] = round(self.runtime_ms, 3)
        return out


class _Run:
    """One verifier run: verify builds it, the verifier fills it, verify records it.

    The record's bounds are the group plus ``bounds`` in key order, tuples
    serialized as element lists and None values left out. A ``budget`` (the
    --budget flag; None for none) is stamped last, and incrementing the
    checked counter past it aborts the run with BudgetExceededError.
    """

    def __init__(self, theorem, budget, group, **bounds):
        self.theorem = theorem
        self.group = group
        self.bounds = {"group": group.to_json()}
        for k, v in sorted(bounds.items()):
            if v is not None:
                self.bounds[k] = [elem_to_json(x) for x in v] if isinstance(v, tuple) else v
        self.budget = budget
        if budget is not None:
            self.bounds["budget"] = budget
        self._checked = 0
        self.extras = {}
        self.counterexample = None
        self.start = time.perf_counter()

    @property
    def checked(self):
        return self._checked

    @checked.setter
    def checked(self, value):
        if self.budget is not None and value > self.budget:
            raise BudgetExceededError(
                f"instance budget {self.budget} exceeded by {self.theorem}"
            )
        self._checked = value

    def fail(self, payload):
        if self.counterexample is None:
            self.counterexample = payload

    def bump(self, key, amount=1):
        self.extras[key] = self.extras.get(key, 0) + amount

    def record(self):
        doc = {
            "theorem": self.theorem,
            "checked": self.checked,
            "passed": self.counterexample is None,
            "bounds": self.bounds,
            "extras": self.extras,
        }
        if not self.checked:
            doc["vacuous"] = True
        if self.counterexample is not None:
            doc["counterexample"] = self.counterexample
        return VerdictRecord(doc, (time.perf_counter() - self.start) * 1000.0)


# ---------------------------------------------------------------------------
# Compatible total orders
# ---------------------------------------------------------------------------


def build_ordered_context(m, n):
    """Order E(M) u E(N) u (E(M)+E(N)) u {0} compatibly, or report absence.

    The order is a Rectification: a <= b iff value(a) <= value(b), and an
    element is positive iff its value is. Integer windows always succeed
    with the identity map (the integers are totally ordered). Finite groups
    go through rectify, which decides: None means no compatible order
    exists. When the Freiman-2 maps of the domain leave more than one order
    up to reversal, none is picked and HypothesisViolation is raised.
    """
    if m.ground.group != n.ground.group:
        raise ValueError("matroids live over different groups")
    rect = _rectification(m.ground.group, m.ground.elements, n.ground.elements)
    return None if rect is None else _unique_order(rect)


def _rectification(g, em, en, orders=None):
    """The Rectification of E(M) u E(N) u (E(M)+E(N)) u {0}, or None when there is none.

    ``orders``, a dict one scope keeps for its own run, maps each domain of
    a finite group to its rectification (or None), so that ground pairs
    sharing a domain rectify it once.
    """
    sums = {g.add_exact(a, b) for a in em for b in en}
    domain = frozenset({*em, *en, *sums, g.zero()})
    if isinstance(g, IntegerWindow):
        return Rectification(g, {e: e for e in domain})
    if orders is None:
        return rectify(g, domain)
    if domain not in orders:
        orders[domain] = rectify(g, domain)
    return orders[domain]


def _unique_order(rect):
    """rect, unless it is None or its order is not unique up to reversal: HypothesisViolation."""
    if rect is None:
        raise HypothesisViolation(
            "compatible total order", "the domain has no Freiman-2 rectification"
        )
    if (rect.dimension or 0) > 1:
        raise HypothesisViolation(
            "compatible total order unique up to reversal",
            f"the Freiman-2 maps of the domain form a space of dimension {rect.dimension}",
        )
    return rect


# ---------------------------------------------------------------------------
# Bounds and scope plumbing
# ---------------------------------------------------------------------------
#
# A verifier's keyword-only parameters are its bounds and their defaults.
# Parsers (after the value) and function defaults take earlier bounds by name.


def _group(value):
    return value if isinstance(value, Group) else group_from_json(value)


def _finite_group(value):
    group = _group(value)
    if not group.is_finite():
        raise HypothesisViolation("finite group", f"{group!r} is not finite")
    return group


def _elem(value, group):
    """A group element; product elements may come as lists."""
    return group.check(tuple(value) if isinstance(value, list) else value)


def _elements(value, group):
    """A universe: a nonempty set of elements, or one element standing for itself alone."""
    single = tuple(value) if isinstance(value, list) else value
    if isinstance(value, int) or group.contains(single):
        return (_elem(value, group),)
    elems = tuple(_elem(v, group) for v in value)
    if not elems or len(set(elems)) < len(elems):
        raise ValueError(f"needs one or more distinct elements, not {value!r}")
    return elems


def _counts(value):
    """Sizes, ranks or block counts: one or more ints >= 1, a bare int for one."""
    counts = tuple(map(_int, (value,) if isinstance(value, (int, float, str)) else value))
    if not counts or min(counts) < 1:
        raise ValueError(f"needs one or more entries, each at least 1, not {value!r}")
    return counts


def _sign(value):
    if value not in ("positive", "negative"):
        raise HypothesisViolation("sign positive or negative", f"unknown sign {value!r}")
    return value


#: The bound every theorem takes besides its verifier's parameters; _parse_bounds reads it last.
_BUDGET = inspect.Parameter("budget", inspect.Parameter.KEYWORD_ONLY, default=None)

#: Bound key -> parser of a given value; ``m`` and ``n`` name an instance's matroids.
_PARSERS = {
    **dict.fromkeys("universe universe_m universe_n".split(), _elements),
    **dict.fromkeys("sizes ranks blocks".split(), _counts),
    **dict.fromkeys("max_total max_size limit seed count".split(), _int),
    **{"group": _group, "a": _elem, "x": _elem, "sign": _sign, "m": str, "n": str},
    "max_ground": functools.partial(_int, least=2),
    "budget": functools.partial(_int, least=0),
}


def _first_elements(limit, *, zero):
    """A nonempty universe default: the group's first ``limit`` elements, with or without 0."""

    def default(group):
        if group.kind == "product":  # at most 64 elements; the others are read lazily
            pool = group.elements()
        else:
            pool = range(group.n if group.is_finite() else group.hi + 1)
        elems = tuple(itertools.islice((e for e in pool if zero or e != group.zero()), limit))
        if not elems:
            raise ValueError(f"needs one or more distinct elements; none by default in {group!r}")
        return elems

    return default


_WITH_ZERO, _NONZERO = _first_elements(6, zero=True), _first_elements(6, zero=False)


def _call(fn, parsed, *value):
    """``fn(*value)`` with its further parameters read by name from ``parsed``."""
    code = getattr(fn, "__code__", None)
    names = code.co_varnames[len(value) : code.co_argcount] if code else ()
    return fn(*value, **{name: parsed[name] for name in names})


def _parse_bounds(theorem, fn, bounds):
    """The bounds ``fn`` declares plus ``budget``, parsed from ``bounds``.

    A None value counts as missing. The parameter's annotation, else
    _PARSERS by key, parses a value; a bad value or an empty default universe
    raises ValueError naming its key. A missing key without a default, then
    an undeclared key, raise HypothesisViolation naming it.
    """
    params = [p for p in _signature(fn).parameters.values() if p.kind is p.KEYWORD_ONLY]
    known = f"{theorem} takes {', '.join(p.name for p in params)} and budget"
    parsed = {}
    for p in (*params, _BUDGET):
        key, value = p.name, bounds.get(p.name)
        if value is None and p.default is p.empty:
            raise HypothesisViolation(f"missing bound {key}", known)
        try:
            if value is not None:
                parse = _PARSERS[key] if p.annotation is p.empty else p.annotation
                parsed[key] = _call(parse, parsed, value)
            else:
                parsed[key] = _call(p.default, parsed) if callable(p.default) else p.default
        except (TypeError, ValueError) as exc:
            raise ValueError(f"bound {key}: {exc}") from None
    unknown = sorted(k for k, v in bounds.items() if v is not None and k not in parsed)
    if unknown:
        raise HypothesisViolation(f"unknown bound {unknown[0]}", known)
    return parsed


def _subsets(pool, size):
    return itertools.combinations(sorted(pool), size)


def _nonempty_subsets(group, elems):
    """Every nonempty subset of ``elems`` as a GroupSubset, lazily, in mask order."""
    n = len(elems)
    for mask in range(1, 1 << n):
        yield GroupSubset(group, frozenset(elems[i] for i in range(n) if mask >> i & 1))


def _translation_orbits(group, subsets):
    """(representative, orbit size) for every translation orbit of ``subsets``.

    ``subsets`` yields a scope's GroupSubsets in its own order, closed under
    translation by every group element; the representative is the orbit's
    first member in that order. The orbit of A has |G|/|stabilizer(A)|
    members. Only the representatives are kept.
    """
    add, shifts = group.add, group.elements()
    bit = {e: 1 << i for i, e in enumerate(shifts)}
    seen = set()
    reps = []
    for sub in subsets:
        if sum(bit[x] for x in sub.elems) not in seen:
            orbit = {sum(bit[add(x, t)] for x in sub.elems) for t in shifts}
            seen |= orbit
            reps.append((sub, len(orbit)))
    return reps


# ---------------------------------------------------------------------------
# Matroid censuses used by exhaustive scopes
# ---------------------------------------------------------------------------


def corank1_census(ground):
    """Every loopless matroid of rank |E|-1 on the ground set.

    On a ground set of size n+1 the basis-exchange axiom holds for every
    nonempty family of n-subsets, so matroids correspond to subsets D (the
    dropped elements whose complements are bases) with |D| >= 2 for
    looplessness.
    """
    m = len(ground)
    if m < 2:
        raise ValueError("corank-1 census needs at least 2 elements")
    full = ground.full_mask
    out = []
    for size in range(2, m + 1):
        for drop in itertools.combinations(range(m), size):
            bases = [full ^ (1 << i) for i in drop]
            out.append(BasisListMatroid(ground, bases, _from_masks=True))
    return out


def _sparse_paving(matroid):
    return matroid.paving_class() == SPARSE_PAVING


#: Census kind -> (members(ground, rank) in emission order, {class clause: predicate}). Every
#: member meets its row's clauses, and _census_check asks them of M and N. The "paving" census
#: is the sparse paving one: asy-order admits only rank-r members on r + 1 elements, whose
#: duals have rank 1. Rows look enumerate_sparse_paving up at each call.
_CENSUS_KINDS = {
    "corank-1": (lambda ground, rank: corank1_census(ground), {}),
    "uniform": (
        lambda ground, rank: [UniformMatroid(ground, rank)],
        {"uniform": lambda m: m.rep == "uniform"},
    ),
    "sparse paving": (
        lambda ground, rank: enumerate_sparse_paving(ground, rank),
        {"sparse paving": _sparse_paving},
    ),
    "paving": (
        lambda ground, rank: enumerate_sparse_paving(ground, rank),
        {"paving": lambda m: m.paving_class() != NOT_PAVING},
    ),
    "coloopless": (
        lambda ground, rank: [m for m in enumerate_sparse_paving(ground, rank) if not m.coloops()],
        {"sparse paving": _sparse_paving, "coloopless": lambda m: not m.coloops()},
    ),
}


def _census_templates():
    """The census lookup of one verify call: kind, ground set, rank -> matching.Census.

    A census depends only on its kind, the ground-set size and the rank,
    which make its key, so each is built once per call, on the first ground
    set of its size, and serves every other one as index-level templates:
    the kernel reads only masks, ranks and the census's member bitsets, and
    _unmatched binds a member to its real ground set (Matroid.on) only to report it.
    """
    built = {}

    def census(kind, ground, rank):
        key = (kind, len(ground), rank)
        if key not in built:
            built[key] = matching.Census(key, _CENSUS_KINDS[kind][0](ground, rank))
        return built[key]

    return census


# ---------------------------------------------------------------------------
# Group-level and additive verifiers
# ---------------------------------------------------------------------------
#
# Each claim is a predicate on GroupSubsets, shared by its scope (through
# _failures) and by recheck_counterexample. A predicate returns None outside
# the claim's hypotheses, so a scope counts only the instances the claim is
# about, and a payload outside them never rechecks as a counterexample.


def _self_matchable(a):
    """A is matched to itself iff 0 is not in A; True when 0 is in A (a + 0 = a)."""
    if a.group.zero() in a:
        return True
    return matching.find_group_matching(a, a) is not None


def _kneser_holds(a, b):
    """The stabilizer witness satisfies both Kneser conditions."""
    try:
        additive.kneser_witness(a, b)
    except InternalCheckError:
        return False
    return True


def _unique_sum_bound(a, b):
    """|A+B| >= |A|+|B|-1; None when no sum is uniquely expressible."""
    counts = {}
    add = a.group.add
    for x in a.elems:
        for y in b.elems:
            s = add(x, y)
            counts[s] = counts.get(s, 0) + 1
    if 1 not in counts.values():
        return None
    return len(counts) >= len(a) + len(b) - 1


def _containment_slack(a, b):
    """|A u B u (A+B)| - |A| - |B|; None when 0 lies in that union."""
    add = a.group.add
    union = a.elems | b.elems | {add(x, y) for x in a.elems for y in b.elems}
    if a.group.zero() in union:
        return None
    return len(union) - len(a) - len(b)


def _containment_bound(a, b):
    """The claimed bound |X| >= |A|+|B|+1 for X = A u B u (A+B)."""
    slack = _containment_slack(a, b)
    return None if slack is None else slack >= 1


def _same_difference(a, b):
    """A and B are progressions with a common difference.

    None outside the critical-pair lemma: a cyclic group, |A|, |B| >= 2,
    |A|+|B|-1 <= p(G)-2 and (A, B) critical. These are tested only once the
    conclusion fails, so a scope whose candidates all meet them pays nothing.
    """
    if set(additive.progression_differences(a)) & set(additive.progression_differences(b)):
        return True
    g, sizes = a.group, (len(a), len(b))
    small = g.kind == "cyclic" and min(sizes) >= 2 and sum(sizes) + 1 <= g.min_subgroup_size()
    return False if small and additive.is_critical_pair(a, b) else None


def _torsion_free_or_prime(group):
    """G is torsion-free or cyclic of prime order (every finite group of prime order is cyclic)."""
    return not group.is_finite() or group.min_subgroup_size() == group.order()


def _translates_meet_in_zero(a):
    """The translates of A by its own elements meet exactly in {0}.

    None when A is a progression, or when the group is neither torsion-free
    nor cyclic of prime order.
    """
    g = a.group
    if not _torsion_free_or_prime(g) or additive.is_progression(a):
        return None
    return additive.translate_intersection(g, a.sorted()) == {g.zero()}


#: Claim text -> predicate, per subset payload kind.
_SUBSET_CLAIMS = {
    "group-subset": {
        "matchable to itself": _self_matchable,
        "translate intersection equals {0}": _translates_meet_in_zero,
    },
    "subset-pair": {
        "Kneser stabilizer conditions": _kneser_holds,
        "unique-sum lower bound": _unique_sum_bound,
        "containment lower bound |X| >= |A|+|B|+1": _containment_bound,
        "same-difference progressions": _same_difference,
    },
}


def _subset_payload(claim, a, b=None, **more):
    payload = {
        "kind": "group-subset" if b is None else "subset-pair",
        "group": a.group.to_json(),
        "a": elems_to_json(a.elems),
    }
    if b is not None:
        payload["b"] = elems_to_json(b.elems)
    payload["claim"] = claim
    payload.update(more)
    return payload


def _claim_predicate(claim):
    return next(table[claim] for table in _SUBSET_CLAIMS.values() if claim in table)


def _failures(run, claim, candidates):
    """Each candidate the claim fails on, adding the weight of every one inside its hypotheses.

    ``candidates`` yields (argument tuple, weight) for the claim's predicate
    in _SUBSET_CLAIMS, in the scope's enumeration order.
    """
    holds = _claim_predicate(claim)
    for args, weight in candidates:
        outcome = holds(*args)
        if outcome is not None:
            run.checked += weight
            if not outcome:
                yield args


def _first_failure(run, claim, candidates, subsets, orbits=False):
    """Make the claim's first failure over the scope the run's counterexample.

    ``candidates`` maps weighted subsets to the claim's weighted argument
    tuples; ``subsets()`` yields the scope in order. With ``orbits``, for a
    claim invariant under translating each argument, it first gets one subset
    per translation orbit, weighted by the orbit size, and counts them apart:
    if the claim holds on all, that count equals the plain scan's and is the
    run's. Otherwise the plain scan, every subset at weight 1, decides.
    """
    if orbits:
        tally = types.SimpleNamespace(checked=0)
        reps = _translation_orbits(run.group, subsets())
        if next(_failures(tally, claim, candidates(reps)), None) is None:
            run.checked += tally.checked
            return
    for args in _failures(run, claim, candidates((sub, 1) for sub in subsets())):
        run.fail(_subset_payload(claim, *args))
        break


def _pairs(weighted):
    """(pair, weight) for every ordered pair of weighted subsets, the weights multiplied."""
    return (((a, b), wa * wb) for (a, wa), (b, wb) in itertools.product(weighted, repeat=2))


def _finite_scope(group, max_order, what, *, with_zero=True):
    """Nonempty subsets of an exhaustive scope over a finite group.

    ``what`` names the enumerated objects with ``{}`` for the group order.
    With ``with_zero=False`` the subsets avoid 0.
    """
    order = group.order()
    if order > max_order:
        raise BudgetExceededError(f"{what.format(order)} exceed the exhaustive budget")
    pool = [e for e in group.elements() if with_zero or e != group.zero()]
    return list(_nonempty_subsets(group, pool))


def _verify_sym_group(run, *, group: _finite_group):
    """Symmetric group matching: A is matched to itself iff 0 is not in A."""
    subsets = _finite_scope(group, 16, "2^{} subsets")
    claim = "matchable to itself"
    _first_failure(run, claim, lambda weighted: (((a,), w) for a, w in weighted), lambda: subsets)


def _verify_subset_pairs(run, *, group: _finite_group):
    """kneser and kemperman: their claim on every pair of nonempty subsets, up to translation."""
    claim, max_order = {
        "kneser": ("Kneser stabilizer conditions", 10),
        "kemperman": ("unique-sum lower bound", 8),
    }[run.theorem]
    subsets = _finite_scope(group, max_order, "4^{} pairs")
    _first_failure(run, claim, _pairs, lambda: subsets, orbits=True)


def _verify_eliahou(run, *, group: _finite_group):
    """A, B and A+B inside X avoiding 0 force |X| >= |A| + |B| + 1.

    The asserted bound is the claimed one; it is refuted already by
    A = B = {1} (then A+B = {2} and X = {1, 2} has 2 < 3 elements). The run
    therefore enumerates the whole scope, reports the first counterexample,
    counts all failures, and additionally tallies the weaker bound
    |X| >= |A| + |B|, which does follow from the unique-sum inequality
    applied to A u {0} and B u {0} and holds with zero exceptions.
    """
    subsets = _finite_scope(group, 8, "4^{} pairs", with_zero=False)
    claim = "containment lower bound |X| >= |A|+|B|+1"
    run.extras["claimed_bound_failures"] = 0
    run.extras["corrected_bound_failures"] = 0
    for a, b in _failures(run, claim, _pairs((sub, 1) for sub in subsets)):
        run.extras["claimed_bound_failures"] += 1
        if _containment_slack(a, b) < 0:
            run.extras["corrected_bound_failures"] += 1
        run.fail(_subset_payload(claim, a, b))


def _verify_critical(
    run, *, group: _finite_group, max_total=lambda group: group.min_subgroup_size() - 1
):
    """Small critical pairs are progressions with one common difference."""
    p = group.min_subgroup_size()
    if group.kind != "cyclic":
        raise HypothesisViolation(
            "cyclic group scope", "the exhaustive critical-pair scope is cyclic"
        )

    def critical_pairs(weighted):
        # Only pairs inside the lemma's hypotheses reach it, sizes first.
        by_size = {}
        for sub, weight in weighted:
            by_size.setdefault(len(sub), []).append((sub, weight))
        for size_a in range(2, max_total):
            for size_b in range(2, max_total - size_a + 1):
                if size_a + size_b - 1 > p - 2:
                    continue
                for a, wa in by_size.get(size_a, ()):
                    for b, wb in by_size.get(size_b, ()):
                        if additive.is_critical_pair(a, b):
                            yield (a, b), wa * wb

    subsets = functools.partial(_nonempty_subsets, group, group.elements())
    _first_failure(run, "same-difference progressions", critical_pairs, subsets, orbits=True)


def _verify_lemma_progression(run, *, group, sizes=(3, 4, 5)):
    """Non-progressions have translate intersection exactly {0}."""
    if not _torsion_free_or_prime(group):
        raise HypothesisViolation("torsion-free or cyclic of prime order", f"{group!r} is neither")
    if group.is_finite() and max(sizes) >= group.order():
        raise HypothesisViolation("proper subset", "subset sizes must stay below the group order")
    pool = group.elements()
    claim = "translate intersection equals {0}"
    candidates = (
        ((GroupSubset(group, frozenset(combo)),), 1)
        for size in sizes
        for combo in _subsets(pool, size)
    )
    for (sub,) in _failures(run, claim, candidates):
        observed = additive.translate_intersection(group, sub.sorted())
        run.fail(_subset_payload(claim, sub, observed=elems_to_json(observed)))
        break


# ---------------------------------------------------------------------------
# Matroid matching verifiers
# ---------------------------------------------------------------------------
#
# A matroid-pair verifier states its hypotheses as a check(group, m, n) that
# raises HypothesisViolation or returns extras, and its scope either as a
# generator of (M, N) pairs, which _checked_pairs filters by that check, or
# as a generator of (SumTable, N census, M census) groups, which _unmatched
# decides; _census_scope builds those for a census theorem from the hypotheses
# in its _CENSUS_THEOREMS row. _instance_pair runs the check on one instance.


def _pair_payload(group, m, n, basis, claim, expect_matched=True):
    payload = {
        "kind": "matroid-pair",
        "group": group.to_json(),
        "m": matroid_to_json(m),
        "n": matroid_to_json(n),
        "expect_matched": expect_matched,
        "claim": claim,
    }
    if basis is not None:
        payload["basis"] = elems_to_json(basis)
    return payload


def _match_pair(run, m, n, claim, expect_matched=True):
    """Count the pair; record it as a counterexample unless the outcome is as expected."""
    run.checked += 1
    report = matching.match_matroid(m, n)
    if report.matched != expect_matched:
        run.fail(
            _pair_payload(run.group, m, n, report.failing_basis, claim, expect_matched)
        )
    return report.matched == expect_matched


#: Instance mode's bounds per theorem (None: every other), declared once for _signature.
_INSTANCE_BOUNDS = {
    "only-if-1": lambda *, m: None,
    "transversal-1": lambda *, m, n, sign="positive": None,
    None: lambda *, m, n: None,
}


def _instance_pair(theorem, instance, bounds):
    """The run of the theorem's _PAIR_CLAIMS entry on the instance's named matroids.

    The bounds are the names of M and N (only-if-1 is about M and itself),
    for transversal-1 the sign of the claim checked, and the budget. A
    theorem with no entry refuses the instance.
    """
    claims = [claim for claim, entry in _PAIR_CLAIMS.items() if entry[0] == theorem]
    if not claims:
        raise HypothesisViolation("no instance mode", f"{theorem} checks bounded scopes only")
    parsed = _parse_bounds(theorem, _INSTANCE_BOUNDS.get(theorem, _INSTANCE_BOUNDS[None]), bounds)
    claim = f"ordered transversal ({parsed['sign']})" if "sign" in parsed else claims[0]
    _, check, expect_matched = _PAIR_CLAIMS[claim]
    inst = parse_instance_obj(instance) if isinstance(instance, dict) else instance
    m = inst.matroid(parsed["m"])
    n = inst.matroid(parsed["n"]) if "n" in parsed else m
    extras = check(inst.group, m, n)
    run = _Run(theorem, parsed.pop("budget"), inst.group, **parsed)
    run.extras.update(extras or {})
    _match_pair(run, m, n, claim, expect_matched)
    return run


def _checked_pairs(run, claim, pairs):
    """Match each (M, N) pair inside the claim's hypotheses until one surprises.

    The claim's _PAIR_CLAIMS row gives both the filter (its check; pairs
    outside the hypotheses are skipped uncounted) and the expected outcome.
    A check's extras are tallied as ``key=value`` counters.
    """
    _, check, expect_matched = _PAIR_CLAIMS[claim]
    for m, n in pairs:
        try:
            extras = check(run.group, m, n)
        except HypothesisViolation:
            continue
        for item in (extras or {}).items():
            run.bump("%s=%s" % item)
        if not _match_pair(run, m, n, claim, expect_matched):
            break


def _verify_only_if_1(
    run, *, group: _finite_group, universe=_WITH_ZERO, sizes=(2, 3, 4), ranks=(1, 2, 3)
):
    """A matroid whose ground set contains 0 is never matched to itself.

    Each ground set gives its sparse paving matroids, rank by rank, then its
    partition matroids whose rank is in ``ranks``.
    """

    def pairs():
        for size in sizes:
            for combo in _subsets(universe, size):
                if group.zero() not in combo:
                    continue
                ground = GroundSet(group, combo)
                for rank in ranks:
                    if rank <= size:
                        yield from ((m, m) for m in enumerate_sparse_paving(ground, rank))
                for m in enumerate_partition_matroids(ground):
                    if m.rank_value in ranks:
                        yield m, m

    _checked_pairs(run, "not matched to itself", pairs())


def _require_self_pair(m, n):
    if matroid_to_json(n) != matroid_to_json(m):
        raise HypothesisViolation("N = M")


def _zero_in_ground(group, m, n):
    if group.zero() not in m.ground:
        raise HypothesisViolation("0 in E(M)", "ground set does not contain 0")
    _require_self_pair(m, n)


def _sparse_self_pair(group, m, n):
    """sparse-sym's hypotheses: M sparse paving, N = M and 0 not in E(M)."""
    if group.zero() in m.ground:
        raise HypothesisViolation("0 not in E(M)")
    _require_self_pair(m, n)
    if not _sparse_paving(m):
        raise HypothesisViolation("M sparse paving")


def _free_pair(group, a, x):
    """M free on <a> and N free on (<a> minus 0) plus x (nothing more for x in <a>)."""
    h = generated_subgroup(group, [a])
    n_elems = dict.fromkeys([*sorted(h - {group.zero()}), x])
    return FreeMatroid(GroundSet(group, sorted(h))), FreeMatroid(GroundSet(group, n_elems))


def _free_pair_on_subgroup(group, m, n):
    """only-if-2's hypotheses on a _free_pair.

    G is neither torsion-free nor cyclic of prime order, M is free on a
    cyclic subgroup <a> with 1 < |<a>| < |G|, and N is free on (<a> minus 0)
    plus an x outside <a>.
    """
    if _torsion_free_or_prime(group):
        raise HypothesisViolation(
            "group neither torsion-free nor cyclic of prime order",
            f"{group!r} is torsion-free or cyclic of prime order",
        )
    h, en = set(m.ground.elements), set(n.ground.elements)
    if m.rank_value != len(h) or not any(generated_subgroup(group, [a]) == h for a in h):
        raise HypothesisViolation("M free on a cyclic subgroup <a>")
    if not 1 < len(h) < group.order():
        raise HypothesisViolation("1 < order(a) < |G|", f"|<a>| = {len(h)} in {group!r}")
    outside = en - h
    if not outside:
        raise HypothesisViolation("x outside <a>", "E(N) lies in the subgroup")
    if n.rank_value != len(en) or len(outside) != 1 or en != h - {group.zero()} | outside:
        raise HypothesisViolation("N free on (<a> minus 0) plus x")


def _verify_only_if_2(run, *, group: _finite_group, a=None, x=None):
    """Non-torsion-free, non-prime-cyclic groups fail the matroid matching property.

    Reproduces the free-matroid construction over the cyclic subgroup
    generated by ``a`` plus an outside element ``x`` (every such pair without
    both bounds); the single bases must not be matched.
    """
    claim = "free matroid pair unmatchable"
    if (a is None) != (x is None):
        detail = "only-if-2 takes a and x together"
        raise HypothesisViolation(f"missing bound {'x' if x is None else 'a'}", detail)
    if a is not None:
        m, n = _free_pair(group, a, x)
        _free_pair_on_subgroup(group, m, n)
        _match_pair(run, m, n, claim, expect_matched=False)
        return
    run.bounds["scope"] = "all-pairs"
    elems = group.elements()
    _checked_pairs(run, claim, (_free_pair(group, a, x) for a in elems for x in elems))
    if not run.checked:
        raise HypothesisViolation(
            "group neither torsion-free nor cyclic of prime order",
            f"{group!r} admits no element of intermediate order",
        )


def _first_unmatched(table, n_census, m_census):
    """(checked, kernel counts, failures) of a cross group: every N against every M.

    Pairs run N-major up to the first (M index, N index, basis mask) unmatched. One
    column per M basis mask answers every N: the N before the first failing one
    pass every mask, so their counts are popcounts; only the failing one is replayed.
    """
    cols = {mask: table.column(mask, n_census) for mask in m_census.order}
    failing = n_census.full & ~functools.reduce(int.__and__, [ok for ok, _ in cols.values()], -1)
    bit = failing & -failing
    ni = bit.bit_length() - 1 if bit else len(n_census.members)
    held = sum([(holds & (1 << ni) - 1).bit_count() for _, holds in cols.values()])
    counts = {"rado_calls": ni * len(cols), "criterion_holds": held, "criterion_violations": 0}
    seen = set()
    for mi, mm in enumerate(m_census.members if bit else ()):
        mask = _replay(counts, mm.bases_masks, cols, bit, seen)
        if mask is not None:
            return ni * len(m_census.members) + mi + 1, counts, [(mi, ni, mask)]
    return ni * len(m_census.members), counts, []


def _diagonal_unmatched(table, census):
    """(checked, kernel counts, failures) of a diagonal group, from one column per basis
    mask: each member against itself to its first unmatched basis, each failing one once."""
    counts = dict.fromkeys(("rado_calls", "criterion_holds", "criterion_violations"), 0)
    cols, failures = {mask: table.column(mask, census) for mask in census.order}, []
    for k, member in enumerate(census.members):
        mask = _replay(counts, member.bases_masks, cols, 1 << k, set())
        if mask is not None:
            failures.append((k, k, mask))
    return len(census.members), counts, failures


def _replay(counts, masks, cols, bit, seen):
    """Tally the member at ``bit`` on each basis mask not yet ``seen``, in order, into
    the kernel counts, read from ``cols`` (mask -> (ok, holds)); the first unmatched."""
    for mask in masks:
        ok, holds = cols[mask]
        if mask not in seen:
            seen.add(mask)
            counts["rado_calls"] += 1
            counts["criterion_holds"] += bool(holds & bit)
            counts["criterion_violations"] += bool(holds & bit and not ok & bit)
        if not ok & bit:
            return mask
    return None


def _decision_key(table, n_key, m_key):
    """What a census group's decision depends on: both census keys and the hit rows."""
    return n_key, m_key, table.hit


def _unmatched(run, groups):
    """(M, N, basis elements) for each unmatched basis a census group reports.

    ``groups`` yields (SumTable of (E(M), E(N)), N census, M census), each
    census a matching.Census from _census_templates; an M census of None makes
    a diagonal group, which reports every failing member (_diagonal_unmatched),
    a cross group only its first (_first_unmatched). Deciding a group computes one
    column per basis mask of its M census (its census, if diagonal); groups with
    equal _decision_key decide alike, so each key is decided once per verify call.
    Every group adds its key's (checked, counts): ``checked`` and the extras count
    logical decisions, not columns; an extras key appears once nonzero. A group's
    pairs are counted once it is decided, so a budget raises at the group that
    crosses it. Failures are rebuilt on the group's ground sets.
    """
    memo = {}
    for table, n_census, m_census in groups:
        key = _decision_key(table, n_census.key, m_census and m_census.key)
        if key not in memo:
            memo[key] = (
                _diagonal_unmatched(table, n_census)
                if m_census is None
                else _first_unmatched(table, n_census, m_census)
            )
        checked, counts, failures = memo[key]
        run.checked += checked
        for name, amount in counts.items():
            if amount:
                run.bump(name, amount)
        for mi, ni, mask in failures:
            yield (
                (m_census or n_census).members[mi].on(table.ground_m),
                n_census.members[ni].on(table.ground_n),
                table.ground_m.elems_of(mask),
            )


def _verify_sparse_sym(run, *, group, universe=_NONZERO, sizes=(4, 5), ranks=(2, 3)):
    """Sparse paving matroids avoiding 0 are matched to themselves.

    The claim fails: the smallest counterexample is the rank-2 matroid on
    {1, 2, 3, 4} with circuit-hyperplane {3, 4} (over any group embedding
    these as distinct sums-avoiding elements; the integers and Z/11Z both
    work). Its basis {1, 2} admits only the target {3, 4}, which is the
    circuit-hyperplane. The run enumerates the whole declared scope,
    reports the first counterexample, and counts every failing matroid.
    """
    run.extras["failing_matroids"] = 0
    zero = group.zero()
    census = _census_templates()

    def groups():
        for size in sizes:
            for combo in _subsets(universe, size):
                if zero in combo:
                    continue
                ground = GroundSet._trusted(group, combo)
                table = matching.SumTable(ground, ground)
                for rank in ranks:
                    if rank <= size:
                        yield table, census("sparse paving", ground, rank), None

    for m, _, basis in _unmatched(run, groups()):
        run.extras["failing_matroids"] += 1
        run.fail(_pair_payload(group, m, m, basis, "sparse paving self-matching"))


def _equal_n_plus_1(em, en, n, p):
    """|E(M)| = |E(N)| = n+1 < p(G), the size condition of a corank-1 M."""
    return em == en == n + 1 < p


def _neither_progression(group, em):
    """E(M) is neither a progression nor a semi-progression."""
    kind = additive.classify_progression(GroupSubset(group, frozenset(em))).kind
    return kind == additive.NEITHER


def _translate_sizes(group, em, en, n_rank, orders):
    """|(-a + E(M)) cap E(N)| != n for every a in E(M)."""
    members = set(em)
    for a in members:
        if sum(1 for b in en if group.add_exact(a, b) in members) == n_rank:
            raise HypothesisViolation("|(-a + E(M)) cap E(N)| != n", f"violated at a = {a}")


def _positive_order(group, em, en, n_rank, orders):
    """A compatible total order exists and is unique up to reversal, E(M) and E(N)
    are positive in it, and max(E(M)) lies outside E(M)+E(N)."""
    v = _unique_order(_rectification(group, em, en, orders)).value
    if min(map(v, (*em, *en))) <= 0:
        # Mixed-sign ground sets are an open case; reject rather than assert.
        raise HypothesisViolation("E(M) and E(N) positive")
    if max(em, key=v) in {group.add_exact(a, b) for a in em for b in en}:
        raise HypothesisViolation("max(E(M)) outside E(M)+E(N)")


_CensusTheorem = collections.namedtuple(
    "_CensusTheorem", "claim m_kind n_kind size em pair finite", defaults=(None, None, False)
)

#: Census theorem -> (claim, M and N census kinds, hypotheses): ``size`` holds on (|E(M)|,
#: |E(N)|, n, p(G)), ``em`` (if any) on (group, E(M)), ``pair`` (if any) raises
#: HypothesisViolation unless (group, E(M), E(N), n, orders) meets it, ``orders`` being a
#: scope's memo for _rectification, and ``finite`` asks for a finite group.
_CENSUS_THEOREMS = {
    "asy-1": _CensusTheorem(
        "small ground set condition", "sparse paving", "sparse paving",
        size=lambda em, en, n, p: em < min(en - 1, p),
    ),
    "asy-2": _CensusTheorem(
        "non-progression, one-smaller ground set", "sparse paving", "sparse paving",
        size=lambda em, en, n, p: em == en - 1 and en < p,
        em=lambda group, em: not additive.is_progression(GroupSubset(group, frozenset(em))),
        finite=True,
    ),
    "asy-3": _CensusTheorem(
        "neither progression nor semi-progression, equal ground sets",
        "sparse paving", "sparse paving",
        size=lambda em, en, n, p: em == en and en < p, em=_neither_progression, finite=True,
    ),
    "asy-4": _CensusTheorem(
        "ground set smaller than |E(N)|-n-1", "sparse paving", "sparse paving",
        size=lambda em, en, n, p: em < en - n - 1,
    ),
    "asy-uniform": _CensusTheorem(
        "uniform target", "sparse paving", "uniform", size=lambda em, en, n, p: em <= en < p
    ),
    "asy-coloopless": _CensusTheorem(
        "coloopless sparse paving target", "corank-1", "coloopless", size=_equal_n_plus_1
    ),
    "asy-n+1": _CensusTheorem(
        "n+1 translate condition", "corank-1", "corank-1", size=_equal_n_plus_1,
        em=_neither_progression, pair=_translate_sizes, finite=True,
    ),
    "asy-order": _CensusTheorem(
        "order-based condition", "corank-1", "paving", size=_equal_n_plus_1, pair=_positive_order
    ),
}


def _census_check(theorem):
    """The hypothesis check(group, m, n) of a census theorem, read from its row.

    In order: equal positive ranks, 0 not in E(N), the row's finite group,
    size and E(M) conditions, the M and N kinds' _CENSUS_KINDS class clauses
    (a corank-1 M needs none: its size and a loopless parse make it one), and
    the row's pair condition.
    """
    row = _CENSUS_THEOREMS[theorem]

    def check(group, m, n):
        n_rank = m.rank_value
        if n.rank_value != n_rank or n_rank == 0:
            raise HypothesisViolation("equal positive ranks")
        if group.zero() in n.ground:
            raise HypothesisViolation("0 not in E(N)")
        if row.finite and not group.is_finite():
            raise HypothesisViolation("finite group")
        em, en = m.ground.elements, n.ground.elements
        if not row.size(len(em), len(en), n_rank, group.min_subgroup_size()):
            raise HypothesisViolation(f"{theorem} size condition")
        if row.em and not row.em(group, em):
            raise HypothesisViolation(f"{theorem} additive condition on E(M)")
        for name, kind, matroid in (("M", row.m_kind, m), ("N", row.n_kind, n)):
            for clause, holds in _CENSUS_KINDS[kind][1].items():
                if not holds(matroid):
                    raise HypothesisViolation(f"{name} {clause}")
        if row.pair:
            row.pair(group, em, en, n_rank, None)

    return check


def _census_scope(run, universe_m, universe_n, ranks, max_size):
    """Decide the run's theorem's censuses on every ground pair its row accepts.

    A row that needs a finite group refuses any other first. Ground sets come
    from the universes, sizes from [rank, max_size], in the order rank,
    |E(M)|, E(M), |E(N)|, E(N), so a budget stops at the same pair; the E(M)
    condition runs once per E(M), and asy-order's compatible order once per
    domain.
    """
    group, row = run.group, _CENSUS_THEOREMS[run.theorem]
    if row.finite:
        _finite_group(group)
    p = group.min_subgroup_size()
    zero = group.zero()
    census = _census_templates()
    orders = {}

    def groups():
        for n_rank in ranks:
            for em_size in range(n_rank, max_size + 1):
                sizes = [s for s in range(n_rank, max_size + 1) if row.size(em_size, s, n_rank, p)]
                if not sizes:
                    continue
                combos_n = [c for s in sizes for c in _subsets(universe_n, s) if zero not in c]
                for combo_m in _subsets(universe_m, em_size):
                    if row.em and not row.em(group, combo_m):
                        continue
                    ground_m = GroundSet._trusted(group, combo_m)
                    m_census = census(row.m_kind, ground_m, n_rank)
                    for combo_n in combos_n:
                        try:
                            if row.pair:
                                row.pair(group, combo_m, combo_n, n_rank, orders)
                        except HypothesisViolation:
                            continue
                        ground_n = GroundSet._trusted(group, combo_n)
                        n_census = census(row.n_kind, ground_n, n_rank)
                        yield matching.SumTable(ground_m, ground_n), n_census, m_census

    for mm, nn, basis in _unmatched(run, groups()):
        run.fail(_pair_payload(group, mm, nn, basis, row.claim))
        break


def _verify_census(
    run, *, group, universe_m=_WITH_ZERO, universe_n=_NONZERO, ranks=(1, 2, 3), max_size=6
):
    """asy-1 to asy-4, asy-uniform and asy-coloopless: the census over both universes."""
    _census_scope(run, universe_m, universe_n, ranks, max_size)


def _verify_asy_n_plus_1(
    run, *, group: _finite_group, universe_m=_WITH_ZERO, universe_n=_NONZERO, ranks=(3,)
):
    """Equal ground sets of size n+1 with the translate-size and non-semi hypotheses."""
    _census_scope(run, universe_m, universe_n, ranks, len(universe_m))


def _verify_asy_order(run, *, group, universe=_NONZERO, ranks=(1, 2)):
    """Order-based condition: positive ground sets, max(E(M)) outside the sumset."""
    if isinstance(group, IntegerWindow) and any(e <= 0 for e in universe):
        raise HypothesisViolation("positive universe", "universe must be positive")
    _census_scope(run, universe, universe, ranks, len(universe))


# ---------------------------------------------------------------------------
# Transversal matroid verifiers
# ---------------------------------------------------------------------------


def _transversal_matroid(group, blocks):
    """The transversal matroid with one element from each block."""
    ground = GroundSet(group, [e for b in blocks for e in b])
    return PartitionMatroid(ground, blocks, [1] * len(blocks))


def _runs_of_sizes(sorted_pool, sizes):
    """Split a sorted pool prefix into consecutive blocks of the given sizes."""
    cuts = list(itertools.accumulate(sizes, initial=0))
    for combo in itertools.combinations(sorted_pool, cuts[-1]):
        yield [list(combo[i:j]) for i, j in zip(cuts, cuts[1:])]


def _block_pairs(group, pool, profiles):
    """Transversal matroid pairs on consecutive runs of the sorted pool, per size profile."""
    for sizes in profiles:
        matroids = [_transversal_matroid(group, b) for b in _runs_of_sizes(pool, sizes)]
        yield from itertools.product(matroids, repeat=2)


def _strictly_decreasing_profiles(n_blocks, total_max):
    """Strictly decreasing size profiles s_1 > ... > s_n >= 1 with sum <= total_max."""
    profiles = itertools.combinations(range(total_max, 0, -1), n_blocks)
    return (p for p in profiles if sum(p) <= total_max)


def _verify_transversal_1(run, *, group, blocks=(2,), limit=6, sign=None):
    """Ordered transversal matroids with dominating block structure are matched."""
    if not isinstance(group, IntegerWindow):
        raise HypothesisViolation("exhaustive scope needs an integer window")
    run.bounds["signs"] = [sign] if sign else ["positive", "negative"]
    for sign in run.bounds["signs"]:
        if run.counterexample is not None:
            break
        if sign == "positive":
            pool, step = list(range(1, group.hi + 1))[:limit], 1
        else:
            pool, step = list(range(group.lo, 0))[-limit:], -1
        profiles = (p[::step] for nb in blocks for p in _strictly_decreasing_profiles(nb, limit))
        _checked_pairs(run, f"ordered transversal ({sign})", _block_pairs(group, pool, profiles))


def _bridge_index(group, m, n, bridges):
    """Extras {"k": k} for the first bridge index k the ordered-transversal hypotheses hold at.

    M and N are transversal with blocks E_1 < ... < E_c and E'_1 < ... < E'_c
    of equal sizes in the compatible order. At k, the blocks before E_k are
    negative and those after it positive, E_k = -E'_k, sizes rise up to k and
    fall after it, max E <= max E' unless k >= c, and min E' <= min E unless
    k <= 1. ``bridges(c)`` gives the indices to try: transversal-2 tries
    1..c; transversal-1 is the bridge-free end, k = 0 (every block positive)
    or k = c+1 (every block negative), and reports no extras. A single index
    tried names the clause that fails at it.
    """
    em, en = m.ground.elements, n.ground.elements
    v = _unique_order(_rectification(group, em, en)).value
    for matroid in (m, n):
        if not isinstance(matroid, PartitionMatroid) or not matroid.is_transversal:
            raise HypothesisViolation(
                "transversal matroid", "needs a partition matroid with all caps 1"
            )
    blocks_m = [sorted(b) for b in m.blocks()]
    blocks_n = [sorted(b) for b in n.blocks()]
    if len(blocks_m) != len(blocks_n):
        raise HypothesisViolation("equal block counts")
    sizes = [len(b) for b in blocks_m]
    if sizes != [len(b) for b in blocks_n]:
        raise HypothesisViolation("|E_i| = |E'_i| for all i")
    for blocks in (blocks_m, blocks_n):
        if any(max(map(v, b)) >= min(map(v, c)) for b, c in zip(blocks, blocks[1:])):
            raise HypothesisViolation("E_i strictly below E_j for i < j")
    count = len(sizes)
    pairs = [bm + bn for bm, bn in zip(blocks_m, blocks_n)]

    def failure(k):
        below = max(k - 1, 0)
        if any(v(e) >= 0 for b in pairs[:below] for e in b):
            return "E_i and E'_i negative for i < k"
        if any(v(e) <= 0 for b in pairs[k:] for e in b):
            return "E_i and E'_i positive for i > k"
        if 1 <= k <= count and set(blocks_m[k - 1]) != {
            group.sub_exact(group.zero(), e) for e in blocks_n[k - 1]
        }:
            return "E_k = -E'_k"
        if sizes[:below] != sorted(set(sizes[:below])):
            return "|E_i| < |E_j| for i < j < k"
        if sizes[k:] != sorted(set(sizes[k:]), reverse=True):
            return "|E_i| > |E_j| for k < i < j"
        if k < count and max(map(v, em)) > max(map(v, en)):
            return "max E below max E'"
        if k > 1 and min(map(v, en)) > min(map(v, em)):
            return "min E' below min E"
        return None

    ks = bridges(count)
    clause = "no index k satisfies the sign/size conditions"
    for k in ks:
        failed = failure(k)
        if failed is None:
            return {"k": k} if 1 <= k <= count else None
        if len(ks) == 1:
            clause = failed
    raise HypothesisViolation(clause)


def _verify_transversal_2(run, *, group, limit=4, blocks=(2,)):
    """Mixed-sign transversal matroids with a negated bridge block are matched."""
    if not isinstance(group, IntegerWindow):
        raise HypothesisViolation("exhaustive scope needs an integer window")
    pool = list(range(max(group.lo, -limit), 0)) + list(range(1, min(group.hi, limit) + 1))
    profiles = (sizes for nb in blocks for sizes in itertools.product(range(1, 3), repeat=nb))
    _checked_pairs(run, "mixed-sign transversal", _block_pairs(group, pool, profiles))


def _criterion_at_unmatched_basis(group, m, n):
    """rank-criteria's hypothesis: the rank criterion holds at an unmatched basis of M."""
    if m.rank_value != n.rank_value or m.rank_value == 0:
        raise HypothesisViolation("equal positive ranks")
    table = matching.SumTable(m.ground, n.ground)
    unmatched = (mask for mask in m.bases_masks if table.match(mask, n) is None)
    if not any(table.criterion(mask, n).holds for mask in unmatched):
        raise HypothesisViolation("rank criterion at an unmatched basis of M")


def _conclusion_only(group, m, n):
    """No hypothesis check: the claim is rechecked on its conclusion alone."""


#: Claim text -> (theorem, check(group, m, n), expected matching outcome) for
#: every matroid-pair claim. The check raises HypothesisViolation outside the
#: claim's hypotheses or returns extras; the single-pair scopes filter their
#: pairs by it (_checked_pairs), instance mode (_instance_pair) runs the rows
#: of its theorem, and recheck_counterexample runs every row. Theorem None
#: marks a claim without an instance mode, which _instance_pair never finds.
_PAIR_CLAIMS = {
    "not matched to itself": ("only-if-1", _zero_in_ground, False),
    "free matroid pair unmatchable": (None, _free_pair_on_subgroup, False),
    "sparse paving self-matching": (None, _sparse_self_pair, True),
    **{
        row.claim: (theorem, _census_check(theorem), True)
        for theorem, row in _CENSUS_THEOREMS.items()
    },
    **{
        claim: (theorem, functools.partial(_bridge_index, bridges=bridges), True)
        for claim, theorem, bridges in (
            ("ordered transversal (positive)", "transversal-1", lambda count: [0]),
            ("ordered transversal (negative)", "transversal-1", lambda count: [count + 1]),
            ("mixed-sign transversal", "transversal-2", lambda count: range(1, count + 1)),
        )
    },
    "criterion implies witness": (None, _criterion_at_unmatched_basis, True),
    "unmatchable basis [n]": (None, _conclusion_only, False),
}


# ---------------------------------------------------------------------------
# Rado and rank-criterion verifiers
# ---------------------------------------------------------------------------


def _random_matroid(rng, group, size, rank):
    ground = GroundSet(group, range(1, size + 1))
    style = rng.randrange(3)
    if style == 0:
        return UniformMatroid(ground, rank)
    if style == 1:
        blocks, pool = [], list(ground.elements)
        while pool:
            take = rng.randrange(1, len(pool) + 1)
            blocks.append(pool[:take])
            pool = pool[take:]
        caps = [rng.randrange(1, len(b) + 1) for b in blocks]
        return PartitionMatroid(ground, blocks, caps)
    chosen = []
    for cand in ground.masks_of_size(rank):
        if rng.random() < 0.4 and all(
            (cand & c).bit_count() <= rank - 2 for c in chosen
        ):
            chosen.append(cand)
    try:
        return ChSparsePavingMatroid(ground, rank, chosen, _from_masks=True)
    except ValueError:
        return UniformMatroid(ground, rank)


def _search_agrees(matroid, family, verdict):
    """The transversal search agrees with brute force."""
    brute = matching.rado_transversal_brute(family, matroid)
    return verdict.has_transversal == brute.has_transversal


def _transversal_independent(matroid, family, verdict):
    """A transversal the search returns is independent."""
    return not verdict.has_transversal or matroid.is_independent(verdict.transversal)


def _certificate_holds(matroid, family, verdict):
    """A violation J the search returns has rank(union of F_j, j in J) < |J|."""
    if verdict.has_transversal:
        return True
    union = set().union(*(family[i] for i in verdict.violation))
    return matroid.rank(union) < len(verdict.violation)


#: Claim text -> predicate on (N, family, search verdict) for rado-instance payloads.
_RADO_CLAIMS = {
    "search agrees with brute force": _search_agrees,
    "independent transversal": _transversal_independent,
    "violation certificate re-verifies": _certificate_holds,
}


def _oracle_rank(value):
    """rado's max_rank: 1 <= r <= 5, the ranks its brute-force oracle decides."""
    top = matching.BRUTE_FORCE_MAX_RANK
    if _int(value, least=1) > top:
        raise BudgetExceededError(f"bound max_rank: brute force refuses rank {value} > {top}")
    return value


def _verify_rado(
    run,
    *,
    seed=0,
    count=500,
    max_rank: _oracle_rank = 4,
    max_ground=8,
    group=lambda max_ground: IntegerWindow(0, 2 * max_ground),
):
    """Transversal search agrees with brute force; violation certificates re-verify."""
    missing = [e for e in range(1, max_ground + 1) if not group.contains(e)]
    if missing:
        raise HypothesisViolation("group holds 1..max_ground", f"{group!r} lacks {missing[0]}")
    rng = random.Random(seed)
    while run.checked < count:
        size = rng.randrange(2, max_ground + 1)
        n_matroid = _random_matroid(rng, group, size, rng.randrange(1, min(max_rank, size) + 1))
        rank = n_matroid.rank_value
        if rank > max_rank:
            continue
        elems = list(n_matroid.ground.elements)
        family = [
            frozenset(e for e in elems if rng.random() < 0.55) for _ in range(rank)
        ]
        verdict = matching.rado_transversal(family, n_matroid)
        run.checked += 1
        for claim, holds in _RADO_CLAIMS.items():
            if not holds(n_matroid, family, verdict):
                run.fail(
                    {
                        "kind": "rado-instance",
                        "group": group.to_json(),
                        "matroid": matroid_to_json(n_matroid),
                        "family": [elems_to_json(f) for f in family],
                        "claim": claim,
                    }
                )
                return
        run.bump("transversals" if verdict.has_transversal else "violations")


def _verify_rank_criteria(
    run, *, group=IntegerWindow(0, 12), universe=_first_elements(4, zero=False), ranks=(2,)
):
    """Wherever the rank criterion holds, a matched basis exists. One census column per
    basis of M = U(r, E(M)) answers every N; (N, basis) pairs read its bits N-major."""
    census = _census_templates()
    for n_rank in ranks:
        sizes = range(n_rank, len(universe) + 1)
        grounds = [GroundSet(group, combo) for size in sizes for combo in _subsets(universe, size)]
        for ground_m, ground_n in itertools.product(grounds, repeat=2):
            table = matching.SumTable(ground_m, ground_n)
            n_census = census("sparse paving", ground_n, n_rank)
            cols = {b: table.column(b, n_census) for b in ground_m.masks_of_size(n_rank)}
            for k, nn in enumerate(n_census.members):
                for src_mask, (ok, holds) in cols.items():
                    run.checked += 1
                    if not holds >> k & 1:
                        run.bump("criterion_fails")
                        continue
                    run.bump("criterion_holds")
                    if not ok >> k & 1:
                        m = UniformMatroid(ground_m, n_rank)
                        basis = ground_m.elems_of(src_mask)
                        nn = nn.on(ground_n)
                        run.fail(_pair_payload(group, m, nn, basis, "criterion implies witness"))
                        return


# ---------------------------------------------------------------------------
# Fixed counterexample reproductions
# ---------------------------------------------------------------------------


def _example_size(value):
    """The size n of a fixed counterexample: 2 <= n <= 5."""
    n = _int(value)
    if n < 2:
        raise HypothesisViolation("n >= 2")
    if n > 5:
        raise BudgetExceededError(f"counterexample reproduction refuses n = {n} > 5")
    return n


def _verify_example(run, *, n: _example_size = 2, group=lambda n: IntegerWindow(0, 4 * n)):
    """Re-run the fixed counterexample the run's theorem names; passed=True confirms it."""
    if group.kind not in ("cyclic", "zwindow"):
        raise HypothesisViolation("cyclic group or integer window", f"{group!r} is neither")
    if group.is_finite() and group.order() <= 4 * n:
        detail = f"|G| = {group.order()} wraps sums for n = {n}"
        raise HypothesisViolation("group order > 4n", detail)
    if not group.is_finite() and (group.hi < 2 * n or group.lo > 0):
        raise HypothesisViolation("window contains [1, 2n]")
    blocks = [[i] for i in range(1, n)] + [list(range(n, 2 * n + 1))]
    target = _transversal_matroid(group, blocks)
    m = target if run.theorem == "sym-counterexample" else UniformMatroid(target.ground, n)
    # [1..n] is the lexicographically first basis of M, so its failure is M's.
    basis = tuple(range(1, n + 1))
    witness = matching.match_basis(m, basis, target)
    run.checked = 1
    if witness is not None:
        payload = _pair_payload(group, m, target, basis, "unmatchable basis [n]", False)
        run.fail({**payload, "witness": witness_to_json(witness)})


# ---------------------------------------------------------------------------
# Registry
# ---------------------------------------------------------------------------


VERIFIERS = {
    "sym-group": _verify_sym_group,
    "only-if-1": _verify_only_if_1,
    "only-if-2": _verify_only_if_2,
    "sparse-sym": _verify_sparse_sym,
    "asy-1": _verify_census,
    "asy-2": _verify_census,
    "asy-3": _verify_census,
    "asy-4": _verify_census,
    "asy-uniform": _verify_census,
    "asy-coloopless": _verify_census,
    "asy-order": _verify_asy_order,
    "asy-n+1": _verify_asy_n_plus_1,
    "transversal-1": _verify_transversal_1,
    "transversal-2": _verify_transversal_2,
    "kneser": _verify_subset_pairs,
    "kemperman": _verify_subset_pairs,
    "eliahou": _verify_eliahou,
    "critical": _verify_critical,
    "lemma-progression": _verify_lemma_progression,
    "rado": _verify_rado,
    "rank-criteria": _verify_rank_criteria,
    "sym-counterexample": _verify_example,
    "asy-counterexample": _verify_example,
}


def verify(theorem_id, *, instance=None, bounds=None) -> VerdictRecord:
    """Run one registered verifier and return its record.

    ``bounds`` select the exhaustive scope; the verifier's keyword-only
    parameters are the keys it takes, and the verdict records them parsed.
    Every theorem also takes ``budget``, an int >= 0 capping the instances
    the run may check. verify parses the bounds, builds the _Run, lets the
    verifier fill it and records it. With an ``instance``, the ``m`` and
    ``n`` bounds name its matroids (only-if-1 takes ``m`` alone,
    transversal-1 also ``sign``) and _instance_pair fills the run of the
    theorem's _PAIR_CLAIMS entry on them. A theorem without an entry, then a
    missing bound, then an unknown key raise HypothesisViolation; a bad
    value raises ValueError naming its key.
    """
    fn = VERIFIERS.get(theorem_id)
    if fn is None:
        raise UnknownTheoremError(
            f"unknown theorem {theorem_id!r}; known: {', '.join(sorted(VERIFIERS))}"
        )
    bounds = bounds or {}
    if instance is not None:
        run = _instance_pair(theorem_id, instance, bounds)
    else:
        parsed = _parse_bounds(theorem_id, fn, bounds)
        run = _Run(theorem_id, parsed.pop("budget"), **parsed)
        fn(run, **parsed)
    return run.record()


def recheck_counterexample(payload) -> bool:
    """Re-verify a counterexample payload standalone.

    Returns True when the payload still witnesses the recorded failure: its
    instance lies inside the claim's hypotheses and the conclusion fails
    there; a payload outside the hypotheses returns False. A
    ``matroid-pair`` claim runs the check of its _PAIR_CLAIMS row and
    matches again against the row's expected outcome; only the fixed
    reproductions have no check and stay conclusion-only. The other
    kinds evaluate the predicate their claim names. An unknown kind, or a
    claim its kind does not know, raises ValueError.
    """
    kind, claim = payload.get("kind"), payload.get("claim")
    if kind == "matroid-pair" and claim in _PAIR_CLAIMS:
        _, check, expect_matched = _PAIR_CLAIMS[claim]
        inst = parse_instance_obj(
            {"group": payload["group"], "matroids": {"m": payload["m"], "n": payload["n"]}}
        )
        m, n = inst.matroid("m"), inst.matroid("n")
        try:
            check(inst.group, m, n)
        except HypothesisViolation:
            return False
        return matching.match_matroid(m, n).matched != expect_matched
    if kind == "rado-instance" and claim in _RADO_CLAIMS:
        names = [str(i) for i in range(len(payload["family"]))]
        inst = parse_instance_obj(
            {
                "group": payload["group"],
                "matroids": {"n": payload["matroid"]},
                "subsets": dict(zip(names, payload["family"])),
            }
        )
        n = inst.matroid("n")
        family = [inst.subset(name).elems for name in names]
        return not _RADO_CLAIMS[claim](n, family, matching.rado_transversal(family, n))
    holds = _SUBSET_CLAIMS.get(kind, {}).get(claim)
    if holds is None:
        raise ValueError(f"cannot recheck payload kind {kind!r} with claim {claim!r}")
    names = ("a",) if kind == "group-subset" else ("a", "b")
    inst = parse_instance_obj(
        {"group": payload["group"], "subsets": {k: payload[k] for k in names}}
    )
    return holds(*(inst.subset(k) for k in names)) is False
