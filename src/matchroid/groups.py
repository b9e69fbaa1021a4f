"""Abelian group arithmetic: cyclic groups, small products, and bounded integer windows.

Elements are plain values: ``int`` for cyclic groups and integer windows,
``tuple[int, ...]`` for product groups. Canonical form is unique, so ``==`` on
elements is group equality. Groups are frozen dataclasses: assigning to a
parameter raises, and two groups are equal (and hash alike) exactly when
their kind and parameters agree. Every operation is a pure function.

The infinite group of integers is modelled as a bounded window ``[lo, hi]``.
Arithmetic whose true result leaves the window raises
:class:`~matchroid.errors.WindowOverflowError` rather than wrapping. The
``*_exact`` variants compute in the modelled group itself (plain integer
arithmetic for windows) and never raise; they are meant for membership tests
against window-contained sets, where an escaping sum is simply not a member.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass, field

from .errors import InternalCheckError, WindowOverflowError

INFINITE = math.inf


def _int(value, *, least=None):
    """An int from outside; a bool, float or string is refused, never truncated."""
    if type(value) is not int or least is not None and value < least:
        floor = "" if least is None else f" >= {least}"
        raise ValueError(f"needs an int{floor}, not {value!r}")
    return value


class Group:
    """Common interface of the three group kinds."""

    kind = "abstract"

    # -- arithmetic ---------------------------------------------------------

    def zero(self):
        raise NotImplementedError

    def add(self, a, b):
        raise NotImplementedError

    def neg(self, a):
        raise NotImplementedError

    def sub(self, a, b):
        return self.add(a, self.neg(b))

    # Exact variants: identical to the checked ones except on integer
    # windows, where they use unbounded integer arithmetic.
    def add_exact(self, a, b):
        return self.add(a, b)

    def sub_exact(self, a, b):
        return self.sub(a, b)

    def sum_in(self, a, b, members):
        """Whether a + b lies in ``members`` (a set of valid elements)."""
        return self.add_exact(a, b) in members

    # -- structure ----------------------------------------------------------

    def contains(self, a) -> bool:
        raise NotImplementedError

    def check(self, a):
        """Validate an element strictly (no canonicalisation) and return it."""
        if not self.contains(a):
            raise ValueError(f"{a!r} is not a canonical element of {self}")
        return a

    def is_finite(self) -> bool:
        raise NotImplementedError

    def order(self):
        """Number of elements, or INFINITE for the integer window."""
        raise NotImplementedError

    def elements(self):
        """All elements in canonical sorted order (window: the representable slice)."""
        raise NotImplementedError

    def element_order(self, a):
        """Least k >= 1 with k*a = 0, or INFINITE."""
        raise NotImplementedError

    def min_subgroup_size(self):
        """Smallest cardinality of a nonzero subgroup; INFINITE if torsion-free.

        For a finite group this is the smallest prime dividing the order.
        """
        raise NotImplementedError

    def subgroups(self):
        """All subgroups, ordered by (size, sorted element list). Finite groups only."""
        raise NotImplementedError

    def to_json(self):
        raise NotImplementedError


@dataclass(frozen=True, repr=False)
class CyclicGroup(Group):
    """The integers modulo n, for n >= 2. Elements are ints in [0, n)."""

    kind = "cyclic"
    n: int

    def __post_init__(self):
        if _int(self.n) < 2:
            raise ValueError(f"cyclic group order must be an integer >= 2, got {self.n!r}")

    def zero(self):
        return 0

    def add(self, a, b):
        return (a + b) % self.n

    def neg(self, a):
        return (-a) % self.n

    def contains(self, a):
        return isinstance(a, int) and not isinstance(a, bool) and 0 <= a < self.n

    def is_finite(self):
        return True

    def order(self):
        return self.n

    def elements(self):
        return tuple(range(self.n))

    def element_order(self, a):
        return self.n // math.gcd(self.n, a)

    def min_subgroup_size(self):
        return _smallest_prime_factor(self.n)

    def subgroups(self):
        return _enumerate_subgroups(self)

    def to_json(self):
        return {"kind": "cyclic", "n": self.n}

    def __repr__(self):
        return f"CyclicGroup({self.n})"


@dataclass(frozen=True, repr=False)
class ProductGroup(Group):
    """A direct product of cyclic groups. Elements are tuples, one coordinate per factor.

    Desk-scale limits: at most 3 factors, total order at most 64.
    """

    kind = "product"

    MAX_FACTORS = 3
    MAX_ORDER = 64
    factors: tuple

    def __post_init__(self):
        factors = tuple(self.factors)  # the CLI passes a generator
        object.__setattr__(self, "factors", factors)
        if not factors or any(_int(f) < 2 for f in factors):
            raise ValueError(f"product factors must be integers >= 2, got {factors!r}")
        if len(factors) > self.MAX_FACTORS:
            raise ValueError(f"at most {self.MAX_FACTORS} factors supported, got {len(factors)}")
        if math.prod(factors) > self.MAX_ORDER:
            raise ValueError(f"total order {math.prod(factors)} exceeds {self.MAX_ORDER}")

    def zero(self):
        return (0,) * len(self.factors)

    def add(self, a, b):
        return tuple((x + y) % f for x, y, f in zip(a, b, self.factors))

    def neg(self, a):
        return tuple((-x) % f for x, f in zip(a, self.factors))

    def contains(self, a):
        return (
            isinstance(a, tuple)
            and len(a) == len(self.factors)
            and all(isinstance(x, int) and 0 <= x < f for x, f in zip(a, self.factors))
        )

    def is_finite(self):
        return True

    def order(self):
        return math.prod(self.factors)

    def elements(self):
        return tuple(itertools.product(*(range(f) for f in self.factors)))

    def element_order(self, a):
        return math.lcm(*(f // math.gcd(f, x) for x, f in zip(a, self.factors)))

    def min_subgroup_size(self):
        return _smallest_prime_factor(self.order())

    def subgroups(self):
        return _enumerate_subgroups(self)

    def to_json(self):
        return {"kind": "product", "factors": list(self.factors)}

    def __repr__(self):
        return f"ProductGroup({self.factors})"


@dataclass(frozen=True, repr=False)
class IntegerWindow(Group):
    """A bounded slice [lo, hi] of the integers, with lo <= 0 <= hi.

    Models the torsion-free group of integers on finitely many elements.
    Checked arithmetic raises WindowOverflowError when the true result leaves
    the window; there is never silent wraparound.
    """

    kind = "zwindow"
    lo: int
    hi: int

    def __post_init__(self):
        if not _int(self.lo) <= 0 <= _int(self.hi):
            raise ValueError(f"window [{self.lo}, {self.hi}] must contain 0")

    def _fit(self, v):
        if not self.lo <= v <= self.hi:
            raise WindowOverflowError(v, self.lo, self.hi)
        return v

    def zero(self):
        return 0

    def add(self, a, b):
        return self._fit(a + b)

    def neg(self, a):
        return self._fit(-a)

    def sub(self, a, b):
        return self._fit(a - b)

    def add_exact(self, a, b):
        return a + b

    def sub_exact(self, a, b):
        return a - b

    def contains(self, a):
        return isinstance(a, int) and not isinstance(a, bool) and self.lo <= a <= self.hi

    def is_finite(self):
        return False

    def order(self):
        return INFINITE

    def elements(self):
        return tuple(range(self.lo, self.hi + 1))

    def element_order(self, a):
        return 1 if a == 0 else INFINITE

    def min_subgroup_size(self):
        return INFINITE

    def subgroups(self):
        raise ValueError("subgroup enumeration is unsupported for integer windows")

    def to_json(self):
        return {"kind": "zwindow", "lo": self.lo, "hi": self.hi}

    def __repr__(self):
        return f"IntegerWindow({self.lo}, {self.hi})"


def group_from_json(obj):
    """Build a group from its JSON object form."""
    if not isinstance(obj, dict) or "kind" not in obj:
        raise ValueError(f"group JSON must be an object with a 'kind', got {obj!r}")
    kind = obj["kind"]
    if kind == "cyclic":
        return CyclicGroup(obj["n"])
    if kind == "product":
        return ProductGroup(obj["factors"])
    if kind == "zwindow":
        return IntegerWindow(obj["lo"], obj["hi"])
    raise ValueError(f"unknown group kind {kind!r}")


def _smallest_prime_factor(n):
    for p in range(2, n + 1):
        if p * p > n:
            break
        if n % p == 0:
            return p
    return n


def generated_subgroup(group, generators):
    """Closure of a generator set under addition (finite groups)."""
    elems = {group.zero()}
    frontier = list(elems)
    gens = list(generators)
    while frontier:
        nxt = []
        for s in frontier:
            for g in gens:
                t = group.add(s, g)
                if t not in elems:
                    elems.add(t)
                    nxt.append(t)
        frontier = nxt
    return frozenset(elems)


def is_subgroup(group, elems) -> bool:
    """Exhaustive closure check: contains 0, closed under + and negation."""
    s = set(elems)
    zero = group.zero()
    if zero not in s:
        return False
    return all(group.sub_exact(zero, a) in s for a in s) and all(
        group.add_exact(a, b) in s for a in s for b in s
    )


def _enumerate_subgroups(group):
    """All subgroups of a finite group, by breadth-first closure growth."""
    trivial = frozenset({group.zero()})
    found = {trivial}
    queue = [trivial]
    universe = group.elements()
    while queue:
        h = queue.pop()
        for g in universe:
            if g in h:
                continue
            k = generated_subgroup(group, set(h) | {g})
            if k not in found:
                found.add(k)
                queue.append(k)
    return sorted(found, key=lambda s: (len(s), sorted(s)))


# ---------------------------------------------------------------------------
# Rectification: Freiman isomorphisms of order 2 onto sets of integers.
# ---------------------------------------------------------------------------


@dataclass(frozen=True, eq=False)
class Rectification:
    """An injective map from a subset of a group onto integers preserving 2-sums.

    Invariants: 0 is in the domain and maps to 0, and for all a, b, c, d in the
    domain, a+b = c+d in the group exactly when map(a)+map(b) = map(c)+map(d)
    in the integers. The map induces a total order on its domain (a <= b iff
    map(a) <= map(b)) that is compatible with addition wherever sums stay in
    the domain.

    ``dimension`` is the dimension k, computed by :func:`rectify`, of the
    space of Freiman-2 maps of the domain fixing 0: the order is unique up to
    reversal exactly when k <= 1. None for a map given outright or a window.
    """

    group: Group
    mapping: dict = field(repr=False)
    dimension: int | None = None

    def value(self, a):
        return self.mapping[a]

    def is_freiman2(self) -> bool:
        """Check the order-2 sum-preservation invariant in O(|domain|^2).

        With 0 fixed and the map injective, the invariant says exactly that
        group pair-sums and integer pair-sums correspond one to one.
        """
        if self.mapping.get(self.group.zero()) != 0:
            return False
        if len(set(self.mapping.values())) != len(self.mapping):
            return False
        g, m = self.group, self.mapping
        pairs = {
            (g.add_exact(a, b), m[a] + m[b])
            for a, b in itertools.combinations_with_replacement(m, 2)
        }
        return len(pairs) == len({s for s, _ in pairs}) == len({t for _, t in pairs})

    def order_compatible(self) -> bool:
        """Whenever a <= b and a+c, b+c stay in the domain, a+c <= b+c."""
        dom = list(self.mapping)
        g, m = self.group, self.mapping
        for a, b, c in itertools.product(dom, repeat=3):
            if m[a] > m[b]:
                continue
            ac, bc = g.add_exact(a, c), g.add_exact(b, c)
            if ac in m and bc in m and m[ac] > m[bc]:
                return False
        return True


def _null_space(rows, n):
    """An integer basis of the rational null space of integer rows of length n.

    Fraction-free Gauss-Jordan elimination: each pivot column is cleared
    from every other row, and rows are divided by their gcd to stay small.
    """
    reduced = []  # (pivot column, row), each row zero at the other pivots
    for col in range(n):
        pivot = next((r for r in rows if r[col]), None)
        if pivot is None:
            continue

        def clear(r):
            if not r[col]:
                return r
            r = [pivot[col] * x - r[col] * y for x, y in zip(r, pivot)]
            g = math.gcd(*r) or 1
            return [x // g for x in r]

        rows = [c for r in rows if r is not pivot and any(c := clear(r))]
        reduced = [(c, clear(r)) for c, r in reduced] + [(col, pivot)]

    scale = math.lcm(*(r[c] for c, r in reduced))
    basis = []
    for free in sorted(set(range(n)) - {c for c, _ in reduced}):
        v = [0] * n
        v[free] = scale
        for c, r in reduced:
            v[c] = -r[free] * scale // r[c]
        basis.append(v)
    return basis


def rectify(group, elems):
    """Find a Freiman-2 rectification of ``elems`` together with 0, or None.

    Integer windows are already sets of integers: the identity map is
    returned. Over a finite group the answer is exact linear algebra (Tao and
    Vu, Additive Combinatorics, section 5.3): the Freiman-2 homomorphisms of
    D = elems u {0} fixing 0 solve x_a + x_b = x_c + x_d for each a+b = c+d,
    a rational space with basis v_1..v_k. A rectification is a solution that
    keeps the sum classes of D+D apart; none exists exactly when two classes
    agree under every v_i. Otherwise x = sum of M**i * v_(i+1) for the
    smallest M >= 2 that keeps them apart, divided by its gcd and signed so
    that the smallest nonzero element of D is positive; ``dimension`` is k.
    """
    elems = set(elems)
    for e in elems:
        group.check(e)
    if isinstance(group, IntegerWindow):
        return Rectification(group, {e: e for e in elems | {0}})

    domain = [group.zero()] + sorted(elems - {group.zero()})
    n = len(domain)
    classes = {}
    for i, j in itertools.combinations_with_replacement(range(n), 2):
        classes.setdefault(group.add(domain[i], domain[j]), []).append((i, j))
    # x_0 = 0, and each pair of a sum class has the value of its first pair.
    rows = [[int(j == 0) for j in range(n)]] + [
        [(j == a) + (j == b) - (j == c) - (j == d) for j in range(n)]
        for (a, b), *rest in classes.values()
        for c, d in rest
    ]
    basis = _null_space(rows, n)

    reps = [pairs[0] for pairs in classes.values()]
    if len({tuple(v[a] + v[b] for v in basis) for a, b in reps}) < len(reps):
        return None
    for base in itertools.count(2):
        x = [sum(v[j] * base**i for i, v in enumerate(basis)) for j in range(n)]
        if len({x[a] + x[b] for a, b in reps}) == len(reps):
            break
    d = math.gcd(*x) or 1
    if n > 1 and x[1] < 0:
        d = -d
    rect = Rectification(group, {e: x[i] // d for i, e in enumerate(domain)}, len(basis))
    if not rect.is_freiman2():  # guards the linear algebra itself
        raise InternalCheckError("rectification returned an invalid map")
    return rect
