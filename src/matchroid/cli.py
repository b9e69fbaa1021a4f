"""Command-line frontend.

Subcommands: match, match-basis, group-match, classify, sumset, rado, verify,
reproduce, enumerate. Exit codes: 0 operation succeeded / verdict passed;
1 verdict failed or matching absent (a valid negative answer); 2 usage or
input error (including hypothesis violations); 3 budget exceeded; 4 internal
error (a failed invariant check or any unexpected exception: a bug, never bad input).

With --json exactly one JSON document is written to stdout, with sorted keys
and no volatile fields, so identical invocations (same --seed, same bounds)
produce byte-identical output; --timing opts runtime back in.

Each subcommand is a handler `(args, inst) -> (ok, doc, lines)`: it computes
the answer, its JSON document and its human-readable lines, and does no I/O.
`run` alone loads --instance (`inst` is None when there is none), writes
`doc` or `lines` to stdout, and maps `ok` and the errors to the exit code.
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


def _parse_elem_list(group, text, field):
    # Product-group elements are JSON arrays containing commas, so element
    # lists may use ';' as the separator instead.
    parts = [part.strip() for part in text.split(";" if ";" in text else ",")]
    return [
        parse_elem(group, json.loads(part) if part.startswith("[") else int(part), field)
        for part in parts if part
    ]


def _given(value, option, when):
    """An option's value; None, the option left out, is refused naming it."""
    if value is None:
        raise InstanceError("schema-violation", option, f"required {when}")
    return value


def _cmd_match(args, inst):
    m = inst.matroid(args.m)
    n = inst.matroid(args.n)
    report = match_matroid(m, n)
    doc = match_report_to_json(report)
    if args.mutual:
        doc["mutual"] = match_matroid(n, m).matched and report.matched
    lines = [f"matched: {report.matched}"]
    if report.failing_basis is not None:
        lines.append(f"failing basis: {sorted(report.failing_basis)}")
    return report.matched, doc, lines


def _cmd_match_basis(args, inst):
    m = inst.matroid(args.m)
    n = inst.matroid(args.n)
    witness = match_basis(m, _parse_elem_list(inst.group, args.basis, "--basis"), n)
    if witness is None:
        return False, {"matched": False, "witness": None}, ["no matched basis"]
    pairs = ", ".join(f"{a}+{b}" for a, b in zip(witness.source, witness.target))
    return True, {"matched": True, "witness": witness_to_json(witness)}, [f"matched via {pairs}"]


def _cmd_group_match(args, inst):
    matching_found = find_group_matching(inst.subset(args.a), inst.subset(args.b))
    if matching_found is None:
        return False, {"matched": False, "pairs": None}, ["no group matching"]
    doc = {"matched": True, **group_matching_to_json(matching_found)}
    return True, doc, [f"{x} -> {y}" for x, y in matching_found.pairs]


def _cmd_classify(args, inst):
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
    return True, doc, lines


def _cmd_sumset(args, inst):
    a = inst.subset(args.a)
    if args.fold is not None:
        result = iterated_sumset(a, args.fold)
    else:
        result = sumset(a, inst.subset(_given(args.b, "--b", "without --fold")))
    return True, {"sumset": elems_to_json(result.elems)}, [f"sumset: {sorted(result.elems)}"]


def _cmd_rado(args, inst):
    n = inst.matroid(args.n)
    family = [inst.subset(name).elems for name in args.family.split(",")]
    verdict = rado_transversal(family, n)
    if verdict.has_transversal:
        line = f"transversal: {list(verdict.transversal)}"
    else:
        line = f"violation: J = {list(verdict.violation)}"
    return verdict.has_transversal, rado_verdict_to_json(verdict), [line]


def _cmd_verify(args, inst):
    bounds = parse_bounds(args.bounds)
    bounds.setdefault("seed", args.seed)
    bounds.setdefault("budget", args.budget)
    record = verifiers.verify(args.theorem, instance=inst, bounds=bounds)
    doc = record.to_json(include_runtime=args.timing)
    outcome = ("passed" if record.passed else "FAILED") + (", vacuous" if "vacuous" in doc else "")
    line = (
        f"{record.theorem}: {outcome} "
        f"({record.instances_checked} instances, {record.runtime_ms:.0f} ms)"
    )
    return record.passed, doc, [line]


def _cmd_reproduce(args, inst):
    record = verifiers.verify(args.example, bounds={"n": args.n, "group": args.group})
    outcome = "confirmed" if record.passed else "NOT REPRODUCED"
    line = f"{record.theorem} (n={args.n}): {outcome}"
    return record.passed, record.to_json(include_runtime=args.timing), [line]


def _cmd_enumerate(args, inst):
    if inst is not None:
        group = inst.group
        elems = sorted(inst.subset(_given(args.set, "--set", "with --instance")).elems)
    elif args.group is None:
        raise InstanceError("schema-violation", "--group", "group or instance required")
    else:
        group = args.group
        text = _given(args.elements, "--elements", "with --group")
        elems = _parse_elem_list(group, text, "--elements")
    ground = GroundSet(group, elems)
    census = enumerate_sparse_paving(ground, args.rank)
    doc = {
        "count": len(census),
        "ground": elems_to_json(ground.elements),
        "rank": args.rank,
        "matroids": [matroid_to_json(m) for m in census],
    }
    return True, doc, [f"{len(census)} sparse paving matroids of rank {args.rank}"]


def build_parser():
    parser = argparse.ArgumentParser(
        prog="matchroid",
        description="Matchings between matroids over abelian groups.",
    )
    sub = parser.add_subparsers(dest="command", required=True)

    def command(name, fn, help, instance=True):
        """A subparser for fn; instance is --instance's `required`, None for no common options."""
        p = sub.add_parser(name, help=help)
        p.set_defaults(fn=fn)
        if instance is not None:
            p.add_argument("--instance", required=instance, help="instance JSON file")
            p.add_argument("--json", action="store_true", help="emit one JSON document")
        return p

    p = command("match", _cmd_match, "decide whether M is matched to N")
    p.add_argument("--m", required=True)
    p.add_argument("--n", required=True)
    p.add_argument("--mutual", action="store_true", help="also check N to M")

    p = command("match-basis", _cmd_match_basis, "match one basis of M into N")
    p.add_argument("--m", required=True)
    p.add_argument("--n", required=True)
    p.add_argument("--basis", required=True, help="comma-separated elements")

    p = command("group-match", _cmd_group_match, "group-level matching from A to B")
    p.add_argument("--a", required=True)
    p.add_argument("--b", required=True)

    p = command("classify", _cmd_classify, "progression/semi-progression/Chowla report")
    p.add_argument("--set", required=True)

    p = command("sumset", _cmd_sumset, "sumset A+B or n-fold sumset")
    p.add_argument("--a", required=True)
    p.add_argument("--b")
    p.add_argument("--fold", type=int, help="compute the n-fold sumset of A instead")

    p = command("rado", _cmd_rado, "independent transversal of named subsets in N")
    p.add_argument("--n", required=True)
    p.add_argument("--family", required=True, help="comma-separated subset names")

    p = command("verify", _cmd_verify, "run a theorem verifier", instance=False)
    p.add_argument("theorem", help="theorem identifier, e.g. sym-group")
    p.add_argument("--bounds", help="k=v,... exhaustive scope bounds (g=cyclic:7)")
    p.add_argument("--seed", type=int, help="seed for randomized suites")
    p.add_argument("--budget", type=int, help="cap on the instances the run may check (exit 3 past it)")
    p.add_argument("--timing", action="store_true", help="include runtime_ms in JSON")

    p = command("reproduce", _cmd_reproduce, "re-run a fixed counterexample", instance=None)
    p.add_argument("example", choices=["sym-counterexample", "asy-counterexample"])
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--group", type=parse_group_spec)
    p.add_argument("--json", action="store_true")
    p.add_argument("--timing", action="store_true")

    p = command("enumerate", _cmd_enumerate, "sparse paving census on a ground set", instance=None)
    p.add_argument("--instance")
    p.add_argument("--set", help="subset name to use as the ground set")
    p.add_argument("--group", type=parse_group_spec)
    p.add_argument("--elements", help="comma-separated ground elements")
    p.add_argument("--rank", type=int, required=True)
    p.add_argument("--json", action="store_true")

    return parser


def run(argv=None) -> int:
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return EXIT_USAGE if exc.code not in (0, None) else EXIT_OK
    try:
        inst = parse_instance(args.instance) if getattr(args, "instance", None) else None
        ok, doc, lines = args.fn(args, inst)
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
    sys.stdout.write(canonical_json(doc) + "\n" if args.json else "".join(f"{x}\n" for x in lines))
    return EXIT_OK if ok else EXIT_NEGATIVE


def main():
    sys.exit(run())


if __name__ == "__main__":
    main()
