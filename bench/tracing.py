"""Per-layer tracing for the benchmark's traced run.

The tracer wraps public functions of the matchroid modules from outside the
package: nothing under ``src/`` knows about it. Wrappers are installed on
every module attribute that holds the original function, because several
modules import functions by name (``cli`` imports ``match_basis`` and
``canonical_json``, ``verifiers`` imports ``enumerate_sparse_paving`` and
``rectify``); patching only the defining module would leave those callers
unwrapped and their counts at 0. Methods are wrapped on every class that
defines them, since ``rank_mask`` and the group arithmetic are overridden per
subclass.

Spanned functions record a span (name, start, end, parent, request id) kept
in memory and written out by ``write_spans``. A request is one top-level
call: one ``verify`` in the exhaustive workloads, one ``cli.run`` query in
``cli-queries``. Self time is a span's duration minus the time its child
spans cover. Hot leaf functions are only counted, which keeps the tracing
overhead bounded; their time stays in the self time of their caller.
"""

from __future__ import annotations

import gzip
import sys
import time
from array import array

# (metric prefix, module, function): wrapped with a span, reported as
# <prefix>.calls and <prefix>.self_s.
SPANNED = (
    ("groups.rectify", "groups", "rectify"),
    ("matroids.enumerate_sparse_paving", "matroids", "enumerate_sparse_paving"),
    ("matching.match_basis", "matching", "match_basis"),
    ("matching.rado_transversal", "matching", "rado_transversal"),
    ("matching.rank_criterion", "matching", "rank_criterion"),
    ("matching.match_matroid", "matching", "match_matroid"),
    ("matching.find_group_matching", "matching", "find_group_matching"),
    ("additive.sumset", "additive", "sumset"),
    ("additive.kneser_witness", "additive", "kneser_witness"),
    ("additive.progression_differences", "additive", "progression_differences"),
    ("additive.is_progression", "additive", "is_progression"),
    ("additive.classify_progression", "additive", "classify_progression"),
    ("additive.translate_intersection", "additive", "translate_intersection"),
    ("verifiers.verify", "verifiers", "verify"),
    ("serialize.parse_instance", "serialize", "parse_instance"),
    ("serialize.canonical_json", "serialize", "canonical_json"),
    ("cli.build_parser", "cli", "build_parser"),
    ("cli.run", "cli", "run"),
)

# (metric prefix, module, base class, method): counted on the base class and
# on every subclass that overrides the method; reported as <prefix>.calls.
COUNTED = (
    ("groups.sum_in", "groups", "Group", "sum_in"),
    ("groups.add", "groups", "Group", "add"),
    ("groups.add_exact", "groups", "Group", "add_exact"),
    ("matroids.rank_mask", "matroids", "Matroid", "rank_mask"),
    ("matroids.mask_of", "matroids", "GroundSet", "mask_of"),
    ("matroids.elems_of", "matroids", "GroundSet", "elems_of"),
)

# Counts derived from return values, keyed by the span that produces them.
DERIVED_COUNTS = (
    "matroids.enumerate_sparse_paving.emitted",
    "matching.rado_transversal.transversals",
    "serialize.canonical_json.bytes",
    "verifiers.checked",
    "verifiers.rado_calls",
    "verifiers.criterion_holds",
)


def metric_specs():
    """Every per-layer metric as (name, unit, better), in report order."""
    specs = []
    for prefix, _, _ in SPANNED:
        specs.append((f"{prefix}.calls", "count", "lower"))
        specs.append((f"{prefix}.self_s", "s", "lower"))
    for prefix, _, _, _ in COUNTED:
        specs.append((f"{prefix}.calls", "count", "lower"))
    specs += [
        ("matroids.enumerate_sparse_paving.emitted", "count", "lower"),
        ("matching.rado_transversal.transversal_ratio", "ratio", "higher"),
        ("serialize.canonical_json.bytes", "bytes", "lower"),
        ("verifiers.checked", "count", "higher"),
        ("verifiers.rado_calls", "count", "lower"),
        ("verifiers.criterion_holds", "count", "higher"),
        ("verifiers.searches_per_instance", "ratio", "lower"),
        ("trace.overhead_ratio", "ratio", "lower"),
    ]
    return specs


def _package_modules():
    return [
        mod
        for name, mod in sorted(sys.modules.items())
        if mod is not None and (name == "matchroid" or name.startswith("matchroid."))
    ]


def _subclasses(cls):
    out = [cls]
    for sub in cls.__subclasses__():
        out.extend(_subclasses(sub))
    return out


class Tracer:
    """Installs counting and span wrappers; collects one traced region at a time."""

    def __init__(self):
        self._names = [prefix for prefix, _, _ in SPANNED]
        self._patches = []
        self.reset()

    def reset(self):
        """Start a fresh traced region: zero every count, drop recorded spans."""
        self.calls = {prefix: 0 for prefix, _, _ in SPANNED}
        self.calls.update({prefix: 0 for prefix, _, _, _ in COUNTED})
        self.self_s = {prefix: 0.0 for prefix, _, _ in SPANNED}
        self.derived = {name: 0 for name in DERIVED_COUNTS}
        self._stack = []
        self._request = -1
        self._origin = time.perf_counter()
        self.span_name = array("i")
        self.span_parent = array("i")
        self.span_request = array("i")
        self.span_start = array("d")
        self.span_end = array("d")

    # -- installation -------------------------------------------------------

    def install(self, mr):
        modules = _package_modules()
        for prefix, module, func in SPANNED:
            original = getattr(getattr(mr, module), func)
            self._patch_everywhere(modules, original, self._span(prefix, original))
        for prefix, module, base, method in COUNTED:
            for cls in _subclasses(getattr(getattr(mr, module), base)):
                if method in cls.__dict__:
                    original = cls.__dict__[method]
                    self._patches.append((cls, method, original))
                    setattr(cls, method, self._count(prefix, original))

    def uninstall(self):
        for owner, attr, original in reversed(self._patches):
            setattr(owner, attr, original)
        self._patches = []

    def _patch_everywhere(self, modules, original, wrapper):
        found = False
        for mod in modules:
            for attr, value in list(vars(mod).items()):
                if value is original:
                    self._patches.append((mod, attr, original))
                    setattr(mod, attr, wrapper)
                    found = True
        if not found:
            raise RuntimeError(f"no module attribute holds {original!r}")

    # -- wrappers -----------------------------------------------------------

    def _count(self, prefix, fn):
        tracer = self

        def counted(*args, **kwargs):
            tracer.calls[prefix] += 1
            return fn(*args, **kwargs)

        counted.__wrapped__ = fn
        return counted

    def _span(self, prefix, fn):
        tracer = self
        name_id = self._names.index(prefix)
        on_result = _RESULT_HOOKS.get(prefix)

        def spanned(*args, **kwargs):
            stack = tracer._stack
            if stack:
                parent = stack[-1][0]
            else:
                parent = -1
                tracer._request += 1
            index = len(tracer.span_start)
            frame = [index, 0.0]
            stack.append(frame)
            tracer.calls[prefix] += 1
            start = time.perf_counter()
            tracer.span_start.append(start - tracer._origin)
            tracer.span_end.append(0.0)
            tracer.span_name.append(name_id)
            tracer.span_parent.append(parent)
            tracer.span_request.append(tracer._request)
            try:
                result = fn(*args, **kwargs)
            finally:
                end = time.perf_counter()
                stack.pop()
                duration = end - start
                tracer.span_end[index] = end - tracer._origin
                tracer.self_s[prefix] += duration - frame[1]
                if stack:
                    stack[-1][1] += duration
            if on_result is not None:
                on_result(tracer.derived, result)
            return result

        spanned.__wrapped__ = fn
        return spanned

    # -- results ------------------------------------------------------------

    def counts(self):
        """Every deterministic count of the region: must repeat exactly."""
        out = {f"{name}.calls": n for name, n in self.calls.items()}
        out.update(self.derived)
        return out

    def metrics(self, overhead_ratio):
        values = {}
        for prefix, _, _ in SPANNED:
            values[f"{prefix}.calls"] = self.calls[prefix]
            values[f"{prefix}.self_s"] = self.self_s[prefix]
        for prefix, _, _, _ in COUNTED:
            values[f"{prefix}.calls"] = self.calls[prefix]
        d = self.derived
        rado = self.calls["matching.rado_transversal"]
        values["matroids.enumerate_sparse_paving.emitted"] = d[
            "matroids.enumerate_sparse_paving.emitted"
        ]
        values["matching.rado_transversal.transversal_ratio"] = (
            d["matching.rado_transversal.transversals"] / rado if rado else 0.0
        )
        values["serialize.canonical_json.bytes"] = d["serialize.canonical_json.bytes"]
        values["verifiers.checked"] = d["verifiers.checked"]
        values["verifiers.rado_calls"] = d["verifiers.rado_calls"]
        values["verifiers.criterion_holds"] = d["verifiers.criterion_holds"]
        values["verifiers.searches_per_instance"] = (
            d["verifiers.rado_calls"] / d["verifiers.checked"]
            if d["verifiers.checked"]
            else 0.0
        )
        values["trace.overhead_ratio"] = overhead_ratio
        return {
            name: {"value": values[name], "unit": unit}
            for name, unit, _ in metric_specs()
        }

    def write_spans(self, path):
        """Write the recorded spans as gzipped TSV, one span per line."""
        path.parent.mkdir(parents=True, exist_ok=True)
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("span\tparent\trequest\tname\tstart_s\tend_s\n")
            for i in range(len(self.span_start)):
                fh.write(
                    f"{i}\t{self.span_parent[i]}\t{self.span_request[i]}\t"
                    f"{self._names[self.span_name[i]]}\t"
                    f"{self.span_start[i]:.9f}\t{self.span_end[i]:.9f}\n"
                )


def _on_census(derived, result):
    derived["matroids.enumerate_sparse_paving.emitted"] += len(result)


def _on_rado(derived, result):
    derived["matching.rado_transversal.transversals"] += result.has_transversal


def _on_json(derived, result):
    derived["serialize.canonical_json.bytes"] += len(result.encode("utf-8"))


def _on_verdict(derived, record):
    derived["verifiers.checked"] += record.instances_checked
    derived["verifiers.rado_calls"] += record.extras.get("rado_calls", 0)
    derived["verifiers.criterion_holds"] += record.extras.get("criterion_holds", 0)


_RESULT_HOOKS = {
    "matroids.enumerate_sparse_paving": _on_census,
    "matching.rado_transversal": _on_rado,
    "serialize.canonical_json": _on_json,
    "verifiers.verify": _on_verdict,
}
