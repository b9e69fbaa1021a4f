"""Sumsets and additive classification of subsets of an abelian group.

Covers sumset/stabilizer machinery, stabilizer witnesses for the Kneser
addition inequality, critical-pair detection, progression and
semi-progression recognition, Chowla sets, and the translate-intersection
operation used against non-progressions.

Conventions: the length of a progression equals the set size, a singleton is
a progression with difference 0, and every 2-set {a, b} is the progression
(a, b-a). Consequently every set of at most 3 elements is a progression or a
semi-progression, so predicates conditioned on "neither" are vacuous below
size 4. On integer windows, progression differences and the classification
search are computed in exact integer arithmetic; a reported difference may
lie outside the window (it is a description of the set inside the modelled
group of integers, not a stored ground element).
"""

from __future__ import annotations

from dataclasses import dataclass

from .errors import InternalCheckError, WindowOverflowError
from .groups import Group, IntegerWindow


@dataclass(frozen=True)
class GroupSubset:
    """A finite subset of a group.

    ``GroupSubset.of`` validates the elements; the plain constructor trusts
    its caller, which the scopes use for subsets of elements already checked.
    """

    group: Group
    elems: frozenset

    @classmethod
    def of(cls, group, elements):
        elems = frozenset(elements)
        for e in elems:
            group.check(e)
        return cls(group, elems)

    def __len__(self):
        return len(self.elems)

    def __iter__(self):
        return iter(sorted(self.elems))

    def __contains__(self, e):
        return e in self.elems

    def sorted(self):
        return tuple(sorted(self.elems))


@dataclass(frozen=True)
class ProgressionForm:
    """The set {initial, initial+difference, ..., initial+(length-1)*difference}."""

    initial: object
    difference: object
    length: int

    def generate(self, group):
        out = [self.initial]
        cur = self.initial
        for _ in range(self.length - 1):
            cur = group.add_exact(cur, self.difference)
            out.append(cur)
        return tuple(out)

    def matches(self, group, elems) -> bool:
        gen = self.generate(group)
        return len(set(gen)) == self.length and set(gen) == set(elems)


PROGRESSION = "progression"
SEMI_PROGRESSION = "semi-progression"
NEITHER = "neither"


@dataclass(frozen=True)
class ProgressionReport:
    """Outcome of classify_progression: kind, witness form, removed element (semi only)."""

    kind: str
    form: ProgressionForm | None = None
    removed: object = None

    @property
    def is_progression(self):
        return self.kind == PROGRESSION

    @property
    def is_semi_progression(self):
        return self.kind == SEMI_PROGRESSION


@dataclass(frozen=True)
class KneserWitness:
    """Stabilizer witness for the sumset lower bound |A+B| >= |A|+|B|-|H|."""

    a: GroupSubset
    b: GroupSubset
    sum: GroupSubset
    subgroup: frozenset

    def check(self) -> bool:
        g = self.a.group
        if len(self.sum) < len(self.a) + len(self.b) - len(self.subgroup):
            return False
        shifted = {
            g.add_exact(s, h) for s in self.sum.elems for h in self.subgroup
        }
        return shifted == set(self.sum.elems)


def _require_same_group(*subsets):
    g = subsets[0].group
    for s in subsets[1:]:
        if s.group != g:
            raise ValueError("subsets live in different groups")
    return g


def sumset(a: GroupSubset, b: GroupSubset) -> GroupSubset:
    """The set {x + y : x in A, y in B}. Window sums must stay representable."""
    g = _require_same_group(a, b)
    out = {g.add(x, y) for x in a.elems for y in b.elems}
    return GroupSubset(g, frozenset(out))


def iterated_sumset(a: GroupSubset, n: int) -> GroupSubset:
    """The n-fold sumset A + A + ... + A, n >= 1."""
    if n < 1:
        raise ValueError(f"fold count must be >= 1, got {n}")
    acc = a
    for _ in range(n - 1):
        acc = sumset(acc, a)
    return acc


def stabilizer(s: GroupSubset) -> frozenset:
    """{g in G : g + S = S}; always a subgroup. Integer windows give {0}."""
    g = s.group
    if isinstance(g, IntegerWindow):
        return frozenset({0})
    target = set(s.elems)
    return frozenset(
        h for h in g.elements() if {g.add(h, x) for x in target} == target
    )


def kneser_witness(a: GroupSubset, b: GroupSubset) -> KneserWitness:
    """Stabilizer of A+B, with both Kneser conditions verified before returning."""
    if not a.elems or not b.elems:
        raise ValueError("Kneser witness needs nonempty subsets")
    s = sumset(a, b)
    h = stabilizer(s)
    witness = KneserWitness(a, b, s, h)
    if not witness.check():
        raise InternalCheckError(
            f"Kneser conditions fail for A={a.sorted()}, B={b.sorted()}"
        )
    return witness


def _progression_pairs(a: GroupSubset):
    """Every difference x for which A is an x-progression, paired with its least start.

    A neighbour of a0 = min(A) in the progression is some b in A, so x is
    b - a0 or a0 - b: 2(k-1) candidates, each kept with its negative. The
    starts of an x-progression are the s with s - x not in A: exactly one, or
    none when A is a whole cycle of <x>, which every element starts. So one
    O(k) walk decides each candidate, O(k^2) group operations in all.
    """
    g, elems = a.group, a.elems
    if len(elems) <= 1:
        return [(e, g.zero()) for e in elems]
    a0 = min(elems)
    candidates = {}
    for b in elems - {a0}:
        x, back = g.sub_exact(b, a0), g.sub_exact(a0, b)
        candidates[x], candidates[back] = back, x
    pairs = []
    for x, back in candidates.items():
        starts = [s for s in elems if g.add_exact(s, back) not in elems]
        if len(starts) > 1:
            continue
        cur = start = starts[0] if starts else a0
        walk = {cur}
        for _ in range(len(elems) - 1):
            cur = g.add_exact(cur, x)
            walk.add(cur)
        if walk == elems:
            pairs.append((start, x))
    return pairs


def progression_differences(a: GroupSubset):
    """All differences x for which A is an x-progression, sorted."""
    if not a.elems:
        raise ValueError("progression search needs a nonempty set")
    return tuple(sorted(x for _, x in _progression_pairs(a)))


def _first_progression_form(a: GroupSubset):
    pairs = _progression_pairs(a)
    if not pairs:
        return None
    start, x = min(pairs)
    return ProgressionForm(start, x, len(a.elems))


def classify_progression(a: GroupSubset) -> ProgressionReport:
    """Progression takes priority over semi-progression; ties break lexicographically.

    The reported form is the least (initial, difference) pair; a
    semi-progression reports the least removable element first, then the
    least form of the remainder.
    """
    if not a.elems:
        raise ValueError("classification needs a nonempty set")
    form = _first_progression_form(a)
    if form is not None:
        return ProgressionReport(PROGRESSION, form)
    for removed in sorted(a.elems):
        rest = GroupSubset(a.group, a.elems - {removed})
        form = _first_progression_form(rest)
        if form is not None:
            return ProgressionReport(SEMI_PROGRESSION, form, removed)
    return ProgressionReport(NEITHER)


def is_progression(a: GroupSubset) -> bool:
    return _first_progression_form(a) is not None


def is_chowla(a: GroupSubset) -> bool:
    """Every element's order is at least |A| + 1."""
    if not a.elems:
        raise ValueError("Chowla test needs a nonempty set")
    bound = len(a.elems) + 1
    return all(a.group.element_order(e) >= bound for e in a.elems)


def is_critical_pair(a: GroupSubset, b: GroupSubset) -> bool:
    """|A+B| = |A| + |B| - 1 and the sumset is not the whole group."""
    g = _require_same_group(a, b)
    s = sumset(a, b)
    if len(s) != len(a) + len(b) - 1:
        return False
    return not g.is_finite() or len(s) < g.order()


def translate_intersection(group, ordered_elems):
    """Intersection of the translates -a_i + A over the first n of n+1 elements.

    ``ordered_elems`` fixes the order; the order decides which translates are
    intersected. Always contains 0. Computed exactly; on integer windows a
    result element outside the window raises WindowOverflowError (possible
    only for progression-shaped inputs on lopsided windows).
    """
    elems = tuple(ordered_elems)
    if len(elems) != len(set(elems)) or len(elems) < 2:
        raise ValueError("need at least two distinct elements in a fixed order")
    for e in elems:
        group.check(e)
    target = set(elems)
    heads = elems[:-1]
    result = None
    for a in heads:
        translate = {group.sub_exact(v, a) for v in target}
        result = translate if result is None else result & translate
    if isinstance(group, IntegerWindow):
        for e in result:
            if not group.contains(e):
                raise WindowOverflowError(e, group.lo, group.hi)
    return frozenset(result)
