"""Command-line frontend.

Subcommands: match, match-basis, group-match, classify, sumset, rado, verify,
reproduce, enumerate. Exit codes: 0 operation succeeded / verdict passed;
1 verdict failed or matching absent (a valid negative answer); 2 usage or
input error (including hypothesis violations); 3 budget exceeded; 4 internal
error (a failed invariant check or any unexpected exception: a bug, never bad input).

With --json exactly one JSON document is written to stdout, with sorted keys
and no volatile fields, so identical invocations (same --seed, same bounds)
produce byte-identical output; --timing opts runtime back in.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
import traceback

from . import verifiers
from .additive import classify_progression, is_chowla, iterated_sumset, sumset
from .errors import BudgetExceededError, InstanceError, InternalCheckError, MatchroidError
from .groups import CyclicGroup, IntegerWindow, ProductGroup
from .matching import (
    find_group_matching,
    match_basis,
    match_matroid,
    rado_transversal,
)
from .matroids import enumerate_sparse_paving, GroundSet
from .serialize import (
    canonical_json,
    elems_to_json,
    group_matching_to_json,
    match_report_to_json,
    matroid_to_json,
    parse_elem,
    parse_instance,
    progression_report_to_json,
    rado_verdict_to_json,
    witness_to_json,
)

EXIT_OK = 0
EXIT_NEGATIVE = 1
EXIT_USAGE = 2
EXIT_BUDGET = 3
EXIT_INTERNAL = 4


def parse_group_spec(text):
    """Parse a compact group spec: cyclic:7 | product:2x3 | zwindow:-8:8."""
    parts = text.split(":")
    kind = parts[0]
    try:
        if kind == "cyclic" and len(parts) == 2:
            return CyclicGroup(int(parts[1]))
        if kind == "product" and len(parts) == 2:
            return ProductGroup(int(f) for f in parts[1].split("x"))
        if kind == "zwindow" and len(parts) == 3:
            return IntegerWindow(int(parts[1]), int(parts[2]))
    except ValueError as exc:
        raise argparse.ArgumentTypeError(f"bad group spec {text!r}: {exc}") from None
    raise argparse.ArgumentTypeError(
        f"bad group spec {text!r}; expected cyclic:N, product:AxB, or zwindow:LO:HI"
    )


def _parse_bound_value(value):
    number = re.fullmatch(r"(-?\d+)(?:-(-?\d+))?", value)
    if number:
        lo, hi = number.groups()
        return int(lo) if hi is None else tuple(range(int(lo), int(hi) + 1))
    if ":" in value and value.split(":")[0] in ("cyclic", "product", "zwindow"):
        return parse_group_spec(value)
    if "|" in value:
        return tuple(_parse_bound_value(v) for v in value.split("|"))
    if value.startswith("["):
        return json.loads(value)
    return value


def parse_bounds(text):
    """Parse --bounds k=v,k=v. Values: ints, ranges lo-hi, lists a|b, group specs, JSON."""
    out = {}
    if not text:
        return out
    # Only commas outside brackets split: a "]" follows the others before the next "=".
    for item in re.split(r",(?=[^\]=]*(?:=|$))", text):
        if "=" not in item:
            raise argparse.ArgumentTypeError(f"bad bounds entry {item!r}; expected k=v")
        key, value = item.split("=", 1)
        key = key.strip()
        if key == "g":
            key = "group"
        out[key] = _parse_bound_value(value.strip())
    return out


def _parse_elem_arg(group, text, field):
    if text.startswith("["):
        return parse_elem(group, json.loads(text), field)
    return parse_elem(group, int(text), field)


def _split_elem_list(text):
    # Product-group elements are JSON arrays containing commas, so element
    # lists may use ';' as the separator instead.
    sep = ";" if ";" in text else ","
    return [part.strip() for part in text.split(sep) if part.strip()]


def _emit(args, doc, human_lines):
    if args.json:
        sys.stdout.write(canonical_json(doc) + "\n")
    else:
        for line in human_lines:
            sys.stdout.write(line + "\n")


def _cmd_match(args):
    inst = parse_instance(args.instance)
    m = inst.matroid(args.m)
    n = inst.matroid(args.n)
    report = match_matroid(m, n)
    doc = match_report_to_json(report)
    if args.mutual:
        back = match_matroid(n, m)
        doc["mutual"] = report.matched and back.matched
    lines = [f"matched: {report.matched}"]
    if report.failing_basis is not None:
        lines.append(f"failing basis: {sorted(report.failing_basis)}")
    _emit(args, doc, lines)
    return EXIT_OK if report.matched else EXIT_NEGATIVE


def _cmd_match_basis(args):
    inst = parse_instance(args.instance)
    m = inst.matroid(args.m)
    n = inst.matroid(args.n)
    basis = [
        _parse_elem_arg(inst.group, b, "--basis")
        for b in _split_elem_list(args.basis)
    ]
    witness = match_basis(m, basis, n)
    if witness is None:
        _emit(args, {"matched": False, "witness": None}, ["no matched basis"])
        return EXIT_NEGATIVE
    doc = {"matched": True, "witness": witness_to_json(witness)}
    pairs = ", ".join(
        f"{a}+{b}" for a, b in zip(witness.source, witness.target)
    )
    _emit(args, doc, [f"matched via {pairs}"])
    return EXIT_OK


def _cmd_group_match(args):
    inst = parse_instance(args.instance)
    a = inst.subset(args.a)
    b = inst.subset(args.b)
    matching_found = find_group_matching(a, b)
    if matching_found is None:
        _emit(args, {"matched": False, "pairs": None}, ["no group matching"])
        return EXIT_NEGATIVE
    doc = {"matched": True}
    doc.update(group_matching_to_json(matching_found))
    lines = [f"{x} -> {y}" for x, y in matching_found.pairs]
    _emit(args, doc, lines)
    return EXIT_OK


def _cmd_classify(args):
    inst = parse_instance(args.instance)
    subset = inst.subset(args.set)
    report = classify_progression(subset)
    doc = progression_report_to_json(report)
    doc["chowla"] = is_chowla(subset)
    doc["set"] = elems_to_json(subset.elems)
    lines = [f"kind: {report.kind}"]
    if report.form is not None:
        lines.append(
            f"form: a={report.form.initial} x={report.form.difference} k={report.form.length}"
        )
    if report.removed is not None:
        lines.append(f"removed: {report.removed}")
    lines.append(f"chowla: {doc['chowla']}")
    _emit(args, doc, lines)
    return EXIT_OK


def _cmd_sumset(args):
    inst = parse_instance(args.instance)
    a = inst.subset(args.a)
    if args.fold:
        result = iterated_sumset(a, args.fold)
    else:
        result = sumset(a, inst.subset(args.b))
    doc = {"sumset": elems_to_json(result.elems)}
    _emit(args, doc, [f"sumset: {sorted(result.elems)}"])
    return EXIT_OK


def _cmd_rado(args):
    inst = parse_instance(args.instance)
    n = inst.matroid(args.n)
    family = [inst.subset(name).elems for name in args.family.split(",")]
    verdict = rado_transversal(family, n)
    doc = rado_verdict_to_json(verdict)
    if verdict.has_transversal:
        _emit(args, doc, [f"transversal: {list(verdict.transversal)}"])
        return EXIT_OK
    _emit(args, doc, [f"violation: J = {list(verdict.violation)}"])
    return EXIT_NEGATIVE


def _cmd_verify(args):
    bounds = parse_bounds(args.bounds or "")
    bounds.setdefault("seed", args.seed)
    bounds.setdefault("budget", args.budget)
    instance = parse_instance(args.instance) if args.instance else None
    record = verifiers.verify(args.theorem, instance=instance, bounds=bounds)
    doc = record.to_json(include_runtime=args.timing)
    lines = [
        f"{record.theorem}: {'passed' if record.passed else 'FAILED'} "
        f"({record.instances_checked} instances, {record.runtime_ms:.0f} ms)"
    ]
    _emit(args, doc, lines)
    return EXIT_OK if record.passed else EXIT_NEGATIVE


def _cmd_reproduce(args):
    record = verifiers.verify(args.example, bounds={"n": args.n, "group": args.group})
    doc = record.to_json(include_runtime=args.timing)
    lines = [
        f"{record.theorem} (n={args.n}): "
        f"{'confirmed' if record.passed else 'NOT REPRODUCED'}"
    ]
    _emit(args, doc, lines)
    return EXIT_OK if record.passed else EXIT_NEGATIVE


def _cmd_enumerate(args):
    if args.instance:
        inst = parse_instance(args.instance)
        group = inst.group
        elems = sorted(inst.subset(args.set).elems)
    else:
        group = args.group
        if group is None:
            raise InstanceError("schema-violation", "--group", "group or instance required")
        elems = [
            _parse_elem_arg(group, e, "--elements")
            for e in _split_elem_list(args.elements)
        ]
    ground = GroundSet(group, elems)
    census = enumerate_sparse_paving(ground, args.rank)
    doc = {
        "count": len(census),
        "ground": elems_to_json(ground.elements),
        "rank": args.rank,
        "matroids": [matroid_to_json(m) for m in census],
    }
    lines = [f"{len(census)} sparse paving matroids of rank {args.rank}"]
    _emit(args, doc, lines)
    return EXIT_OK


def build_parser():
    parser = argparse.ArgumentParser(
        prog="matchroid",
        description="Matchings between matroids over abelian groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def common(p, instance_required=True):
        p.add_argument("--instance", required=instance_required, help="instance JSON file")
        p.add_argument("--json", action="store_true", help="emit one JSON document")

    p = sub.add_parser("match", help="decide whether M is matched to N")
    common(p)
    p.add_argument("--m", required=True)
    p.add_argument("--n", required=True)
    p.add_argument("--mutual", action="store_true", help="also check N to M")
    p.set_defaults(fn=_cmd_match)

    p = sub.add_parser("match-basis", help="match one basis of M into N")
    common(p)
    p.add_argument("--m", required=True)
    p.add_argument("--n", required=True)
    p.add_argument("--basis", required=True, help="comma-separated elements")
    p.set_defaults(fn=_cmd_match_basis)

    p = sub.add_parser("group-match", help="group-level matching from A to B")
    common(p)
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)
    p.set_defaults(fn=_cmd_group_match)

    p = sub.add_parser("classify", help="progression/semi-progression/Chowla report")
    common(p)
    p.add_argument("--set", required=True)
    p.set_defaults(fn=_cmd_classify)

    p = sub.add_parser("sumset", help="sumset A+B or n-fold sumset")
    common(p)
    p.add_argument("--a", required=True)
    p.add_argument("--b")
    p.add_argument("--fold", type=int, help="compute the n-fold sumset of A instead")
    p.set_defaults(fn=_cmd_sumset)

    p = sub.add_parser("rado", help="independent transversal of named subsets in N")
    common(p)
    p.add_argument("--n", required=True)
    p.add_argument("--family", required=True, help="comma-separated subset names")
    p.set_defaults(fn=_cmd_rado)

    p = sub.add_parser("verify", help="run a theorem verifier")
    p.add_argument("theorem", help="theorem identifier, e.g. sym-group")
    common(p, instance_required=False)
    p.add_argument("--bounds", help="k=v,... exhaustive scope bounds (g=cyclic:7)")
    p.add_argument("--seed", type=int, help="seed for randomized suites")
    p.add_argument("--budget", type=int, help="cap on the instances the run may check (exit 3 past it)")
    p.add_argument("--timing", action="store_true", help="include runtime_ms in JSON")
    p.set_defaults(fn=_cmd_verify)

    p = sub.add_parser("reproduce", help="re-run a fixed counterexample")
    p.add_argument("example", choices=["sym-counterexample", "asy-counterexample"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--group", type=parse_group_spec)
    p.add_argument("--json", action="store_true")
    p.add_argument("--timing", action="store_true")
    p.set_defaults(fn=_cmd_reproduce)

    p = sub.add_parser("enumerate", help="sparse paving census on a ground set")
    p.add_argument("--instance")
    p.add_argument("--set", help="subset name to use as the ground set")
    p.add_argument("--group", type=parse_group_spec)
    p.add_argument("--elements", help="comma-separated ground elements")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--json", action="store_true")
    p.set_defaults(fn=_cmd_enumerate)

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        return args.fn(args)
    except BudgetExceededError as exc:
        sys.stderr.write(f"budget exceeded: {exc}\n")
        return EXIT_BUDGET
    except InternalCheckError as exc:
        sys.stderr.write(f"internal error: {exc}\n")
        return EXIT_INTERNAL
    except (MatchroidError, ValueError, argparse.ArgumentTypeError) as exc:
        sys.stderr.write(f"error: {exc}\n")
        return EXIT_USAGE
    except Exception as exc:
        sys.stderr.write(f"internal error: {type(exc).__name__}: {exc}\n")
        traceback.print_exc()
        return EXIT_INTERNAL


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
