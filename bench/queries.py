"""The cli-queries workload: a seeded stream of small ``cli.run`` requests.

The pool of distinct queries follows a fixed schedule of shapes (command and
group kind), so every seed asks for the same mix of work; the seed picks the
groups, ground sets, matroids and subsets. Each query that reads an instance
gets its own instance file, written during set-up. The stream replays seeded
permutations of the pool, so every query recurs and its repeats must print
byte-identical output.

The oracles below decide each distinct query after the timed region:
``match_basis_brute`` over every basis and ``rado_transversal_brute`` for
the matching commands (ranks stay at most 5, the brute-force limit), and
direct enumeration for the additive commands. Witnesses are re-checked with
this file's own group arithmetic and rank functions.
"""

from __future__ import annotations

import itertools
import json
import math
import random
from dataclasses import dataclass

# Command and group kind of each slot; the pool repeats this schedule.
SHAPES = (
    ("match", "cyclic"),
    ("match", "product"),
    ("match", "window"),
    ("match-basis", "cyclic"),
    ("match-basis", "product"),
    ("match-basis", "window"),
    ("rado", "cyclic"),
    ("rado", "product"),
    ("rado", "window"),
    ("group-match", "cyclic"),
    ("group-match", "product"),
    ("group-match", "window"),
    ("classify", "cyclic"),
    ("classify", "product"),
    ("classify", "window"),
    ("sumset", "cyclic"),
    ("sumset", "product"),
    ("sumset", "window"),
    ("reproduce", "window"),
    ("reproduce", "cyclic"),
    ("asy-order", "cyclic"),
)

_PRIMES = (11, 13, 17, 19, 23)
_PRODUCTS = ((3, 5), (2, 3, 5), (4, 6), (3, 3, 3))
_WINDOW = {"kind": "zwindow", "lo": -40, "hi": 40}
_WINDOW_POOL = tuple(v for v in range(-12, 13) if v != 0)
# asy-order on Z/p with E(M) = E(N) = {a, a+d}: sets whose sums admit a
# positive rectification that the bounded search finds quickly.
_ASY_ORDER_PRIMES = (101, 103, 107)
_ASY_ORDER_SETS = ((1, 2), (1, 3), (2, 4), (2, 6), (3, 6))


@dataclass(frozen=True)
class Query:
    """One distinct request: its argv, its instance (if any), what to expect."""

    command: str
    argv: tuple
    instance: dict | None = None
    params: dict | None = None


# -- group arithmetic ----------------------------------------------------------


class Arith:
    """Group arithmetic on JSON group specs, independent of matchroid."""

    def __init__(self, spec):
        self.spec = spec
        self.kind = spec["kind"]

    def elem(self, value):
        return tuple(value) if isinstance(value, list) else value

    def zero(self):
        return tuple(0 for _ in self.spec["factors"]) if self.kind == "product" else 0

    def add(self, a, b):
        if self.kind == "cyclic":
            return (a + b) % self.spec["n"]
        if self.kind == "product":
            return tuple((x + y) % f for x, y, f in zip(a, b, self.spec["factors"]))
        return a + b

    def sub(self, a, b):
        if self.kind == "cyclic":
            return (a - b) % self.spec["n"]
        if self.kind == "product":
            return tuple((x - y) % f for x, y, f in zip(a, b, self.spec["factors"]))
        return a - b

    def order(self, a):
        if a == self.zero():
            return 1
        if self.kind == "cyclic":
            n = self.spec["n"]
            return n // math.gcd(n, a)
        if self.kind == "product":
            return math.lcm(*(f // math.gcd(f, x) for x, f in zip(a, self.spec["factors"])))
        return math.inf

    def pool(self):
        if self.kind == "cyclic":
            return list(range(1, self.spec["n"]))
        if self.kind == "product":
            elems = itertools.product(*(range(f) for f in self.spec["factors"]))
            return [e for e in elems if any(e)]
        return list(_WINDOW_POOL)


def _to_json(e):
    return list(e) if isinstance(e, tuple) else e


def _json_list(elems):
    return [_to_json(e) for e in sorted(elems)]


# -- matroid specs -------------------------------------------------------------


def rank_of(arith, rep, subset):
    """Rank of ``subset`` in the matroid described by the JSON ``rep``."""
    s = set(subset)
    kind = rep["kind"]
    if kind == "uniform":
        return min(len(s), rep["rank"])
    if kind == "free":
        return len(s)
    if kind == "partition":
        return sum(
            min(len(s & {arith.elem(e) for e in block}), cap)
            for block, cap in zip(rep["blocks"], rep["caps"])
        )
    if kind == "ch":
        r = rep["rank"]
        if len(s) < r:
            return len(s)
        if len(s) == r and any(s == {arith.elem(e) for e in h} for h in rep["ch"]):
            return r - 1
        return r
    if kind == "bases":
        return max(len(s & {arith.elem(e) for e in b}) for b in rep["list"])
    raise ValueError(f"unknown matroid kind {kind!r}")


def bases_of(arith, ground, rep, rank):
    """Every basis, in lexicographic order of the sorted ground set."""
    return [
        combo
        for combo in itertools.combinations(sorted(ground), rank)
        if rank_of(arith, rep, combo) == rank
    ]


def _partition_rep(rng, ground, rank):
    elems = list(ground)
    rng.shuffle(elems)
    n_blocks = rng.randint(1, rank)
    cuts = sorted(rng.sample(range(1, len(elems)), n_blocks - 1))
    blocks = [elems[i:j] for i, j in zip([0] + cuts, cuts + [len(elems)])]
    caps = [1] * n_blocks
    for _ in range(rank - n_blocks):
        room = [i for i, b in enumerate(blocks) if caps[i] < len(b)]
        caps[rng.choice(room)] += 1
    return {"kind": "partition", "blocks": [_json_list(b) for b in blocks], "caps": caps}


def _ch_rep(rng, ground, rank):
    m = len(ground)
    chosen = []
    for _ in range(rng.randint(1, 3)):
        cand = set(rng.sample(sorted(ground), rank))
        fits = all(len(cand & c) <= rank - 2 for c in chosen)
        if fits and (len(chosen) + 1) * max(rank + 1, m - rank + 1) <= math.comb(m, rank):
            chosen.append(cand)
    return {"kind": "ch", "rank": rank, "ch": [_json_list(c) for c in chosen]}


def _matroid_rep(rng, arith, ground, rank):
    kind = rng.choice(("uniform", "partition", "ch", "bases"))
    if kind == "ch" and (rank < 2 or len(ground) == rank):
        kind = "uniform"
    if kind == "bases" and math.comb(len(ground), rank) > 20:
        kind = "partition"
    if kind == "uniform":
        return {"kind": "uniform", "rank": rank}
    if kind == "partition":
        return _partition_rep(rng, ground, rank)
    if kind == "ch":
        return _ch_rep(rng, ground, rank)
    source = _ch_rep(rng, ground, rank) if rank >= 2 else {"kind": "uniform", "rank": rank}
    listed = bases_of(arith, ground, source, rank)
    return {"kind": "bases", "list": [_json_list(b) for b in listed]}


def _loopless(arith, ground, rep, rank):
    covered = set()
    for b in bases_of(arith, ground, rep, rank):
        covered.update(b)
    return covered == set(ground)


def _random_matroid(rng, arith, pool, rank, size):
    while True:
        ground = rng.sample(pool, size)
        rep = _matroid_rep(rng, arith, ground, rank)
        if _loopless(arith, ground, rep, rank):
            return {"ground": _json_list(ground), "rep": rep}


# -- pool generation ----------------------------------------------------------


def _group_spec(rng, kind):
    if kind == "cyclic":
        return {"kind": "cyclic", "n": rng.choice(_PRIMES)}
    if kind == "product":
        return {"kind": "product", "factors": list(rng.choice(_PRODUCTS))}
    return dict(_WINDOW)


def _elem_arg(elems):
    # Product elements are JSON arrays, so they are separated by ';'.
    if elems and isinstance(elems[0], list):
        return ";".join(json.dumps(e, separators=(",", ":")) for e in elems)
    return ",".join(str(e) for e in elems)


class _Sizes:
    """Sizes for the k-th query of a shape, read as mixed-radix digits of k.

    Every seed gets the same sizes, so the seeds differ only in the elements
    they draw and the latency tail does not hinge on one seed's sizes.
    """

    def __init__(self, k):
        self.k = k

    def pick(self, options):
        self.k, i = divmod(self.k, len(options))
        return options[i]


def _make_query(rng, sizes, command, group_kind, path):
    if command == "reproduce":
        example = sizes.pick(("sym-counterexample", "asy-counterexample"))
        n = sizes.pick((2, 3, 4))
        argv = ["reproduce", example, "--n", str(n), "--json"]
        params = {"example": example, "n": n, "group": None}
        if group_kind == "cyclic":
            p = rng.choice((17, 19, 23, 29, 31))
            argv[4:4] = ["--group", f"cyclic:{p}"]
            params["group"] = {"kind": "cyclic", "n": p}
        return Query(command, tuple(argv), None, params)

    if command == "asy-order":
        a, d = sizes.pick(_ASY_ORDER_SETS)
        ground = [a, a + d]
        m = {"ground": ground, "rep": {"kind": "uniform", "rank": 1}}
        instance = {
            "group": {"kind": "cyclic", "n": rng.choice(_ASY_ORDER_PRIMES)},
            "matroids": {"M": m, "N": m},
        }
        argv = ("verify", "asy-order", "--instance", path, "--bounds", "m=M,n=N", "--json")
        return Query(command, argv, instance)

    group = _group_spec(rng, group_kind)
    arith = Arith(group)
    pool = arith.pool()
    instance = {"group": group}
    if command in ("match", "match-basis"):
        if command == "match":
            rank = sizes.pick((2, 3, 4))
            grounds = [min(rank + sizes.pick((1, 2, 3)), 8) for _ in range(2)]
        else:
            rank = sizes.pick((2, 3, 4, 5))
            grounds = [min(rank + sizes.pick((1, 3, 5)), 10) for _ in range(2)]
        mj = _random_matroid(rng, arith, pool, rank, grounds[0])
        nj = _random_matroid(rng, arith, pool, rank, grounds[1])
        instance["matroids"] = {"M": mj, "N": nj}
        argv = [command, "--instance", path, "--m", "M", "--n", "N"]
        params = {"rank": rank}
        if command == "match-basis":
            ground = [arith.elem(e) for e in mj["ground"]]
            basis = rng.choice(bases_of(arith, ground, mj["rep"], rank))
            # '=' keeps a leading negative element from reading as an option.
            argv.append(f"--basis={_elem_arg(_json_list(basis))}")
            params["basis"] = _json_list(basis)
        return Query(command, tuple(argv + ["--json"]), instance, params)

    if command == "rado":
        rank = sizes.pick((2, 3, 4, 5))
        nj = _random_matroid(rng, arith, pool, rank, min(rank + sizes.pick((1, 3, 5)), 10))
        ground = [arith.elem(e) for e in nj["ground"]]
        family = [rng.sample(ground, rng.randint(1, 3)) for _ in range(rank)]
        instance["matroids"] = {"N": nj}
        instance["subsets"] = {f"F{i}": _json_list(f) for i, f in enumerate(family)}
        names = ",".join(f"F{i}" for i in range(rank))
        argv = ("rado", "--instance", path, "--n", "N", "--family", names, "--json")
        return Query(command, argv, instance, {"rank": rank})

    if command == "group-match":
        size = sizes.pick((3, 4, 5, 6))
        a = rng.sample(pool + [arith.zero()], size)
        b = rng.sample(pool, size)
        instance["subsets"] = {"A": _json_list(a), "B": _json_list(b)}
        argv = ("group-match", "--instance", path, "--a", "A", "--b", "B", "--json")
        return Query(command, argv, instance)

    if command == "classify":
        instance["subsets"] = {"S": _json_list(rng.sample(pool, sizes.pick((3, 4, 5, 6))))}
        argv = ("classify", "--instance", path, "--set", "S", "--json")
        return Query(command, argv, instance)

    if command == "sumset":
        fold = sizes.pick((None, 2, 3))
        a = rng.sample(pool, sizes.pick((2, 4, 6)))
        if fold is None:
            b = rng.sample(pool, sizes.pick((2, 4, 6)))
            instance["subsets"] = {"A": _json_list(a), "B": _json_list(b)}
            argv = ("sumset", "--instance", path, "--a", "A", "--b", "B", "--json")
            return Query(command, argv, instance, {"fold": None})
        instance["subsets"] = {"A": _json_list(a)}
        argv = ("sumset", "--instance", path, "--a", "A", "--fold", str(fold), "--json")
        return Query(command, argv, instance, {"fold": fold})

    raise ValueError(f"unknown command {command!r}")


def build(seed, workdir, per_shape):
    """Generate the pool and write its instance files into ``workdir``."""
    rng = random.Random(seed)
    workdir.mkdir(parents=True, exist_ok=True)
    pool = []
    for i in range(per_shape * len(SHAPES)):
        command, group_kind = SHAPES[i % len(SHAPES)]
        path = workdir / f"q{i}.json"
        sizes = _Sizes(i // len(SHAPES))
        query = _make_query(rng, sizes, command, group_kind, str(path))
        if query.instance is not None:
            path.write_text(json.dumps(query.instance), encoding="utf-8")
        pool.append(query)
    return pool


def stream(seed, size):
    """Endless seeded order of pool indices: one permutation per round."""
    rng = random.Random(seed ^ 0x5EED)
    while True:
        order = list(range(size))
        rng.shuffle(order)
        yield from order


# -- oracles -------------------------------------------------------------------


def check(mr, query, code, stdout):
    """Problems with one answer (empty when exit code and output are right)."""
    try:
        doc = json.loads(stdout)
    except ValueError:
        return [f"exit {code}, stdout is not one JSON document: {stdout[:200]!r}"]
    checker = _CHECKERS[query.command]
    expected_code, problems = checker(mr, query, doc)
    if code != expected_code:
        problems.append(f"exit {code}, expected {expected_code}")
    return problems


def _witness_problems(arith, mj, nj, source, witness):
    problems = []
    em = {arith.elem(e) for e in mj["ground"]}
    en = {arith.elem(e) for e in nj["ground"]}
    src = [arith.elem(e) for e in witness["source"]]
    tgt = [arith.elem(e) for e in witness["target"]]
    rank = len(source)
    if src != list(source):
        problems.append(f"witness source {src} is not the basis {list(source)}")
    if len(set(tgt)) != rank or not set(tgt) <= en or rank_of(arith, nj["rep"], tgt) != rank:
        problems.append(f"witness target {tgt} is not a basis of N")
    if any(arith.add(a, b) in em for a, b in zip(src, tgt)):
        problems.append(f"witness sums of {src} and {tgt} meet E(M)")
    if witness["perm"] != list(range(rank)):
        problems.append(f"witness perm {witness['perm']} is not the identity")
    return problems


def _brute_matched(mr, instance, basis):
    inst = mr.parse_instance_obj(instance)
    m, n = inst.matroid("M"), inst.matroid("N")
    return mr.match_basis_brute(m, list(basis), n) is not None


def _check_match(mr, query, doc):
    arith = Arith(query.instance["group"])
    mj, nj = query.instance["matroids"]["M"], query.instance["matroids"]["N"]
    rank = query.params["rank"]
    ground = [arith.elem(e) for e in mj["ground"]]
    inst = mr.parse_instance_obj(query.instance)
    m, n = inst.matroid("M"), inst.matroid("N")
    bases = bases_of(arith, ground, mj["rep"], rank)
    ok = {b: mr.match_basis_brute(m, list(b), n) is not None for b in bases}
    failing = next((b for b in bases if not ok[b]), None)
    matched = failing is None
    problems = []
    if doc.get("matched") != matched:
        problems.append(f"matched {doc.get('matched')}, oracle {matched}")
    want_failing = None if failing is None else _json_list(failing)
    if doc.get("failing_basis") != want_failing:
        problems.append(f"failing_basis {doc.get('failing_basis')}, oracle {want_failing}")
    entries = doc.get("witnesses") or []
    if sorted(e["basis"] for e in entries) != [_json_list(b) for b in bases]:
        problems.append("witness entries do not list every basis of M once")
    for entry in entries:
        basis = tuple(sorted(arith.elem(e) for e in entry["basis"]))
        if (entry["witness"] is not None) != ok.get(basis, False):
            problems.append(f"basis {entry['basis']}: witness presence disagrees with brute force")
        elif entry["witness"] is not None:
            problems += _witness_problems(arith, mj, nj, basis, entry["witness"])
    return (0 if matched else 1), problems


def _check_match_basis(mr, query, doc):
    arith = Arith(query.instance["group"])
    mj, nj = query.instance["matroids"]["M"], query.instance["matroids"]["N"]
    basis = tuple(arith.elem(e) for e in query.params["basis"])
    matched = _brute_matched(mr, query.instance, basis)
    problems = []
    if doc.get("matched") != matched:
        problems.append(f"matched {doc.get('matched')}, oracle {matched}")
    elif matched:
        problems += _witness_problems(arith, mj, nj, basis, doc["witness"])
    return (0 if matched else 1), problems


def _check_rado(mr, query, doc):
    arith = Arith(query.instance["group"])
    nj = query.instance["matroids"]["N"]
    rank = query.params["rank"]
    family_json = [query.instance["subsets"][f"F{i}"] for i in range(rank)]
    family = [{arith.elem(e) for e in f} for f in family_json]
    inst = mr.parse_instance_obj(query.instance)
    brute = mr.rado_transversal_brute([inst.subset(f"F{i}").elems for i in range(rank)], inst.matroid("N"))
    problems = []
    if brute.has_transversal:
        t = doc.get("transversal")
        if t is None:
            problems.append(f"no transversal reported; oracle found {brute.transversal}")
        else:
            t = [arith.elem(e) for e in t]
            if (
                len(t) != rank
                or len(set(t)) != rank
                or any(e not in f for e, f in zip(t, family))
                or rank_of(arith, nj["rep"], t) != rank
            ):
                problems.append(f"transversal {t} is not an independent transversal")
        return 0, problems
    if doc.get("violation") != list(brute.violation):
        problems.append(f"violation {doc.get('violation')}, oracle {list(brute.violation)}")
    j = brute.violation
    union = set().union(*(family[i] for i in j))
    if rank_of(arith, nj["rep"], union) >= len(j):
        problems.append(f"oracle violation {j} does not violate the rank condition")
    return 1, problems


def _check_group_match(mr, query, doc):
    arith = Arith(query.instance["group"])
    a = [arith.elem(e) for e in query.instance["subsets"]["A"]]
    b = [arith.elem(e) for e in query.instance["subsets"]["B"]]
    a_set = set(a)
    matched = any(
        all(arith.add(x, y) not in a_set for x, y in zip(a, perm))
        for perm in itertools.permutations(b)
    )
    problems = []
    if doc.get("matched") != matched:
        problems.append(f"matched {doc.get('matched')}, oracle {matched}")
    elif matched:
        pairs = [(arith.elem(x), arith.elem(y)) for x, y in doc["pairs"]]
        if sorted(p[0] for p in pairs) != sorted(a) or sorted(p[1] for p in pairs) != sorted(b):
            problems.append("pairs are not a bijection from A to B")
        if any(arith.add(x, y) in a_set for x, y in pairs):
            problems.append("a paired sum lies in A")
    return (0 if matched else 1), problems


def _progression_forms(arith, elems):
    elems = set(elems)
    k = len(elems)
    if k == 1:
        return [(next(iter(elems)), arith.zero())]
    diffs = {arith.sub(y, x) for x in elems for y in elems if x != y}
    # k terms that cover k elements are distinct.
    return [
        (start, x) for start in elems for x in diffs if _generate(arith, start, x, k) == elems
    ]


def _generate(arith, start, diff, k):
    out, cur = {start}, start
    for _ in range(k - 1):
        cur = arith.add(cur, diff)
        out.add(cur)
    return out


def _check_classify(mr, query, doc):
    arith = Arith(query.instance["group"])
    elems = {arith.elem(e) for e in query.instance["subsets"]["S"]}
    if _progression_forms(arith, elems):
        kind = "progression"
    elif any(_progression_forms(arith, elems - {r}) for r in elems):
        kind = "semi-progression"
    else:
        kind = "neither"
    problems = []
    if doc.get("kind") != kind:
        problems.append(f"kind {doc.get('kind')}, oracle {kind}")
    elif kind != "neither":
        form = doc["progression"]
        target = elems
        if kind == "semi-progression":
            target = elems - {arith.elem(doc["removed"])}
        got = _generate(arith, arith.elem(form["a"]), arith.elem(form["x"]), form["k"])
        if got != target or form["k"] != len(target):
            problems.append(f"form {form} does not generate {sorted(target)}")
    chowla = all(arith.order(e) >= len(elems) + 1 for e in elems)
    if doc.get("chowla") != chowla:
        problems.append(f"chowla {doc.get('chowla')}, oracle {chowla}")
    if doc.get("set") != _json_list(elems):
        problems.append("set field differs from the input set")
    return 0, problems


def _check_sumset(mr, query, doc):
    arith = Arith(query.instance["group"])
    a = {arith.elem(e) for e in query.instance["subsets"]["A"]}
    if query.params["fold"] is None:
        b = {arith.elem(e) for e in query.instance["subsets"]["B"]}
        want = {arith.add(x, y) for x in a for y in b}
    else:
        want = set(a)
        for _ in range(query.params["fold"] - 1):
            want = {arith.add(x, y) for x in want for y in a}
    problems = []
    if doc.get("sumset") != _json_list(want):
        problems.append(f"sumset {doc.get('sumset')}, oracle {_json_list(want)}")
    return 0, problems


def _check_reproduce(mr, query, doc):
    n = query.params["n"]
    ground = list(range(1, 2 * n + 1))
    blocks = [[i] for i in range(1, n)] + [list(range(n, 2 * n + 1))]
    transversal = {"ground": ground, "rep": {"kind": "partition", "blocks": blocks, "caps": [1] * n}}
    source = transversal
    if query.params["example"] == "asy-counterexample":
        source = {"ground": ground, "rep": {"kind": "uniform", "rank": n}}
    group = query.params["group"] or {"kind": "zwindow", "lo": 0, "hi": 4 * n}
    instance = {"group": group, "matroids": {"M": source, "N": transversal}}
    confirmed = not _brute_matched(mr, instance, range(1, n + 1))
    problems = []
    if doc.get("theorem") != query.params["example"] or doc.get("checked") != 1:
        problems.append(f"unexpected verdict header {doc.get('theorem')}/{doc.get('checked')}")
    if doc.get("passed") != confirmed:
        problems.append(f"passed {doc.get('passed')}, oracle {confirmed}")
    return (0 if confirmed else 1), problems


def _check_asy_order(mr, query, doc):
    arith = Arith(query.instance["group"])
    mj = query.instance["matroids"]["M"]
    ground = [arith.elem(e) for e in mj["ground"]]
    bases = bases_of(arith, ground, mj["rep"], mj["rep"]["rank"])
    matched = all(_brute_matched(mr, query.instance, b) for b in bases)
    problems = []
    if doc.get("theorem") != "asy-order" or doc.get("checked") != 1:
        problems.append(f"unexpected verdict header {doc.get('theorem')}/{doc.get('checked')}")
    if doc.get("passed") != matched:
        problems.append(f"passed {doc.get('passed')}, oracle {matched}")
    return (0 if matched else 1), problems


_CHECKERS = {
    "match": _check_match,
    "match-basis": _check_match_basis,
    "rado": _check_rado,
    "group-match": _check_group_match,
    "classify": _check_classify,
    "sumset": _check_sumset,
    "reproduce": _check_reproduce,
    "asy-order": _check_asy_order,
}
