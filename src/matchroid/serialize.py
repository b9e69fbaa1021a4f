"""JSON schemas: groups, matroids, subsets, instance files, reports.

Instance files carry a group, named matroids and named subsets:

    {"group": {"kind": "cyclic", "n": 7},
     "matroids": {"M": {"ground": [1, 2, 3], "rep": {"kind": "uniform", "rank": 2}}},
     "subsets": {"A": [1, 2]}}

Elements are serialized as integers (cyclic and window groups) or arrays of
integers (product groups). File input is validated strictly: an element
outside the canonical range is an error, never silently reduced.
"""

from __future__ import annotations

import json
from dataclasses import dataclass

from .additive import GroupSubset
from .errors import InstanceError
from .groups import ProductGroup, group_from_json
from .matroids import (
    BasisListMatroid,
    ChSparsePavingMatroid,
    FreeMatroid,
    GroundSet,
    PartitionMatroid,
    UniformMatroid,
)


@dataclass
class InstanceFile:
    """Parsed instance: one group, named matroids, named element subsets."""

    group: object
    matroids: dict
    subsets: dict

    def matroid(self, name):
        try:
            return self.matroids[name]
        except KeyError:
            raise InstanceError(
                "schema-violation", f"matroids.{name}", "no matroid with this name"
            ) from None

    def subset(self, name):
        try:
            return self.subsets[name]
        except KeyError:
            raise InstanceError(
                "schema-violation", f"subsets.{name}", "no subset with this name"
            ) from None


def parse_group(obj, field="group"):
    try:
        return group_from_json(obj)
    except (ValueError, KeyError, TypeError) as exc:
        raise InstanceError("schema-violation", field, str(exc)) from None


def parse_elem(group, value, field):
    """Strictly validate one serialized element against the group."""
    if isinstance(group, ProductGroup):
        if not isinstance(value, list):
            raise InstanceError(
                "schema-violation", field, f"product element must be an array, got {value!r}"
            )
        elem = tuple(value)
    else:
        elem = value
    if not group.contains(elem):
        raise InstanceError(
            "element-out-of-group",
            field,
            f"{value!r} is not a canonical element of {group!r}",
        )
    return elem


def parse_elems(group, values, field):
    if not isinstance(values, list):
        raise InstanceError("schema-violation", field, "expected an array of elements")
    return [parse_elem(group, v, f"{field}[{i}]") for i, v in enumerate(values)]


def elem_to_json(elem):
    return list(elem) if isinstance(elem, tuple) else elem


def elems_to_json(elems):
    return [elem_to_json(e) for e in sorted(elems)]


def parse_matroid(group, obj, field):
    if not isinstance(obj, dict):
        raise InstanceError("schema-violation", field, "matroid must be an object")
    if "ground" not in obj or "rep" not in obj:
        raise InstanceError(
            "schema-violation", field, "matroid needs 'ground' and 'rep' fields"
        )
    elems = parse_elems(group, obj["ground"], f"{field}.ground")
    try:
        ground = GroundSet(group, elems)
    except ValueError as exc:
        raise InstanceError("invariant-violation", f"{field}.ground", str(exc)) from None
    rep = obj["rep"]
    if not isinstance(rep, dict) or "kind" not in rep:
        raise InstanceError(
            "schema-violation", f"{field}.rep", "rep must be an object with a 'kind'"
        )
    kind = rep["kind"]

    def array(key):
        value = rep[key]
        if not isinstance(value, list):
            raise InstanceError("schema-violation", f"{field}.rep.{key}", "expected an array")
        return value

    def elem_lists(key):
        return [
            parse_elems(group, v, f"{field}.rep.{key}[{i}]") for i, v in enumerate(array(key))
        ]

    try:
        if kind == "uniform":
            return UniformMatroid(ground, rep["rank"])
        if kind == "free":
            return FreeMatroid(ground)
        if kind == "bases":
            return BasisListMatroid(ground, elem_lists("list"))
        if kind == "ch":
            chs = elem_lists("ch")  # a bad list is reported before a missing rank
            return ChSparsePavingMatroid(ground, rep["rank"], chs)
        if kind == "partition":
            return PartitionMatroid(ground, elem_lists("blocks"), array("caps"))
    except InstanceError:
        raise
    except KeyError as exc:
        raise InstanceError(
            "schema-violation", f"{field}.rep", f"missing field {exc}"
        ) from None
    except ValueError as exc:
        raise InstanceError("invariant-violation", f"{field}.rep", str(exc)) from None
    raise InstanceError("schema-violation", f"{field}.rep.kind", f"unknown kind {kind!r}")


def matroid_to_json(matroid):
    return {
        "ground": elems_to_json(matroid.ground.elements),
        "rep": matroid.to_json(),
    }


def parse_instance_obj(obj) -> InstanceFile:
    if not isinstance(obj, dict):
        raise InstanceError("schema-violation", "$", "instance must be a JSON object")
    if "group" not in obj:
        raise InstanceError("schema-violation", "group", "missing group")
    group = parse_group(obj["group"])
    matroids = {}
    for name, spec in _named(obj, "matroids"):
        matroids[name] = parse_matroid(group, spec, f"matroids.{name}")
    subsets = {}
    for name, values in _named(obj, "subsets"):
        elems = parse_elems(group, values, f"subsets.{name}")
        if len(set(elems)) != len(elems):
            raise InstanceError(
                "invariant-violation", f"subsets.{name}", "duplicate elements"
            )
        subsets[name] = GroupSubset(group, frozenset(elems))
    return InstanceFile(group, matroids, subsets)


def _named(obj, key):
    """The (name, value) entries of the optional object ``obj[key]``."""
    named = {} if obj.get(key) is None else obj[key]
    if not isinstance(named, dict):
        raise InstanceError("schema-violation", key, "expected an object of named entries")
    return named.items()


def parse_instance(path) -> InstanceFile:
    """Load and validate an instance file; all invariants re-checked."""
    try:
        with open(path, "r", encoding="utf-8") as fh:
            obj = json.load(fh)
    except OSError as exc:
        raise InstanceError("schema-violation", str(path), f"cannot read: {exc}") from None
    except json.JSONDecodeError as exc:
        raise InstanceError(
            "schema-violation", str(path), f"invalid JSON at line {exc.lineno}: {exc.msg}"
        ) from None
    return parse_instance_obj(obj)


def canonical_json(obj) -> str:
    """Stable, byte-reproducible JSON (sorted keys, no whitespace drift)."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"))


def group_matching_to_json(matching):
    return {
        "pairs": [[elem_to_json(a), elem_to_json(b)] for a, b in matching.pairs]
    }


def witness_to_json(witness):
    return {
        "source": [elem_to_json(e) for e in witness.source],
        "target": [elem_to_json(e) for e in witness.target],
        "perm": list(witness.perm),
    }


def match_report_to_json(report):
    entries = []
    for basis in sorted(report.witnesses, key=lambda b: sorted(b)):
        w = report.witnesses[basis]
        entries.append(
            {
                "basis": elems_to_json(basis),
                "witness": witness_to_json(w) if w is not None else None,
            }
        )
    return {
        "matched": report.matched,
        "failing_basis": (
            elems_to_json(report.failing_basis)
            if report.failing_basis is not None
            else None
        ),
        "witnesses": entries,
    }


def rado_verdict_to_json(verdict):
    if verdict.has_transversal:
        return {
            "transversal": [elem_to_json(e) for e in verdict.transversal],
            "violation": None,
        }
    return {"transversal": None, "violation": list(verdict.violation)}


def progression_report_to_json(report):
    out = {"kind": report.kind}
    if report.form is not None:
        out["progression"] = {
            "a": elem_to_json(report.form.initial),
            "x": elem_to_json(report.form.difference),
            "k": report.form.length,
        }
    if report.removed is not None:
        out["removed"] = elem_to_json(report.removed)
    return out
