"""Benchmark for matchroid: one workload per process, timed or traced.

    python3 bench/run.py --workload census-selfmatch --seed 1 --seconds 20 --trace 0

Workloads: census-selfmatch, asy-battery and additive-exhaustive run fixed
verifier scopes through ``matchroid.verify``; cli-queries sends a seeded
stream of in-process ``matchroid.cli.run([... "--json"])`` requests from one
client in a closed loop. Everything runs in this one process, on one thread.

``--trace 0`` measures the end-to-end metrics with no instrumentation.
``--trace 1`` runs a fixed amount of work once untraced and twice with the
per-layer wrappers of ``tracing.py``, reports the per-layer metrics of the
first traced pass, the tracing overhead, and fails the run if the two traced
passes disagree on any count. Every answer is checked after the timed region
(see ``suites.py`` and ``queries.py``). The last line of stdout is one JSON
object with the keys correct, attempted, failed and metrics.
"""

from __future__ import annotations

import argparse
import importlib
import io
import itertools
import json
import os
import platform
import resource
import shutil
import statistics
import sys
import time
from pathlib import Path

import queries
import suites
import tracing

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT_DIR = BENCH_DIR / "out"

WORKLOADS = ("census-selfmatch", "asy-battery", "additive-exhaustive", "cli-queries")
# Set-up (fresh import plus input generation) is repeated and its median
# reported, so that a single slow import does not decide setup_s.
SETUP_REPEATS = 7
# In timed runs, a scope shorter than this is repeated within each pass.
MIN_SCOPE_S = 0.3
# Distinct queries per shape of queries.SHAPES, and queries per traced pass.
POOL_PER_SHAPE = {"full": 48, "tiny": 1}
TRACE_QUERIES = {"full": 1000, "tiny": 20}

END_TO_END = (
    ("setup_s", "s"),
    ("instances_per_s", "1/s"),
    ("queries_per_s", "1/s"),
    ("query_ms_p50", "ms"),
    ("query_ms_p99", "ms"),
    ("peak_rss_mb", "MB"),
)


def _fresh_import():
    """Import matchroid from scratch, as a new process would."""
    for name in [n for n in sys.modules if n == "matchroid" or n.startswith("matchroid.")]:
        del sys.modules[name]
    mr = importlib.import_module("matchroid")
    importlib.import_module("matchroid.cli")
    if Path(mr.__file__).resolve().parent != SRC / "matchroid":
        raise ImportError(f"matchroid was imported from {mr.__file__}, not from {SRC}")
    return mr


def _percentile(values, pct):
    if len(values) == 1:
        return values[0]
    return statistics.quantiles(values, n=100, method="inclusive")[pct - 1]


def _verdict_text(record):
    return json.dumps(record.to_json(), sort_keys=True, separators=(",", ":"))


class Outcome:
    """Tally of attempted and failed operations, with the reasons."""

    def __init__(self):
        self.attempted = 0
        self.failed = 0
        self.problems = []

    def fail(self, count, problem):
        self.failed += count
        if len(self.problems) < 20 and problem not in self.problems:
            self.problems.append(problem)


# -- exhaustive workloads ---------------------------------------------------------


def _verify_pass(mr, calls, min_scope_s=0.0):
    """One pass: for each call, the (verdict or exception, seconds) of its runs.

    A scope whose calls take less than ``min_scope_s`` is run again until they
    have, so that short scopes get enough samples for a steady median.
    """
    out = [[] for _ in calls]
    for _, group in itertools.groupby(range(len(calls)), key=lambda i: calls[i].scope):
        indices = list(group)
        spent = 0.0
        while not out[indices[0]] or spent < min_scope_s:
            for i in indices:
                start = time.perf_counter()
                try:
                    verdict = mr.verify(calls[i].theorem, bounds=calls[i].bounds)
                except Exception as exc:  # reported as a failed operation
                    verdict = exc
                elapsed = time.perf_counter() - start
                out[i].append((verdict, elapsed))
                spent += elapsed
    return out


def _check_passes(mr, calls, scopes, passes, outcome):
    """Each scope adds up to its exact values; every run of a call repeats its verdict."""
    bad = {}
    for scope in scopes:
        mine = [runs[0][0] for call, runs in zip(calls, passes[0]) if call.scope == scope.name]
        raised = [v for v in mine if isinstance(v, Exception)]
        if raised:
            bad[scope.name] = f"raised {raised[0]!r}"
            continue
        total = suites.combine(v.to_json() for v in mine)
        problems = suites.mismatches(scope.expect, total)
        if scope.recheck and not problems and not mr.recheck_counterexample(
            total["counterexample"]
        ):
            problems.append("the counterexample does not recheck")
        bad[scope.name] = "; ".join(problems)
    first = [None] * len(calls)
    for done in passes:
        for i, (call, runs) in enumerate(zip(calls, done)):
            for verdict, _ in runs:
                outcome.attempted += 1
                if isinstance(verdict, Exception):
                    outcome.fail(1, f"{call.scope}: raised {verdict!r}")
                    continue
                text = _verdict_text(verdict)
                first[i] = first[i] or text
                if bad[call.scope]:
                    outcome.fail(1, f"{call.scope}: {bad[call.scope]}")
                elif text != first[i]:
                    outcome.fail(1, f"{call.scope}: a verdict differs between runs")


def _exhaustive_timed(mr, calls, scopes, seconds, outcome):
    passes = []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        passes.append(_verify_pass(mr, calls, MIN_SCOPE_S))
    rss = _peak_rss_mb()
    _check_passes(mr, calls, scopes, passes, outcome)
    # Each call takes its median time over all its runs. A query here is one
    # verifier scope, the unit a user waits for: the sum of its calls' times.
    scope_s = {}
    for i, call in enumerate(calls):
        median_s = statistics.median(dt for done in passes for _, dt in done[i])
        scope_s[call.scope] = scope_s.get(call.scope, 0.0) + median_s
    total_s = sum(scope_s.values())
    checked = sum(
        runs[0][0].instances_checked
        for runs in passes[0]
        if not isinstance(runs[0][0], Exception)
    )
    ms = [x * 1000.0 for x in scope_s.values()]
    metrics = {
        "instances_per_s": checked / total_s,
        "queries_per_s": len(scope_s) / total_s,
        "query_ms_p50": statistics.median(ms),
        "query_ms_p99": _percentile(ms, 99),
        "peak_rss_mb": rss,
    }
    runs = sum(len(r) for done in passes for r in done)
    samples = f"{len(passes)} passes, {runs} verify runs of {len(calls)} calls"
    return metrics, f"{samples} in {len(scope_s)} scopes"


def _exhaustive_traced(mr, calls, scopes, outcome, spans_path):
    t0 = time.perf_counter()
    passes = [_verify_pass(mr, calls)]
    untraced = time.perf_counter() - t0
    tracer = tracing.Tracer()
    tracer.install(mr)
    try:
        t0 = time.perf_counter()
        passes.append(_verify_pass(mr, calls))
        traced = time.perf_counter() - t0
        metrics, counts = tracer.metrics(traced / untraced), tracer.counts()
        tracer.write_spans(spans_path)
        tracer.reset()
        passes.append(_verify_pass(mr, calls))
        again = tracer.counts()
    finally:
        tracer.uninstall()
    _check_passes(mr, calls, scopes, passes, outcome)
    _check_counts(counts, again, outcome)
    return metrics, f"1 untraced and 2 traced passes of {len(calls)} verify calls"


def _check_counts(first, second, outcome):
    differing = sorted(k for k in first if first[k] != second[k])
    if differing:
        outcome.fail(1, f"traced counts differ between identical passes: {differing}")


# -- cli-queries -----------------------------------------------------------------


class QueryLog:
    """First output of every distinct query, and how often each recurred."""

    def __init__(self):
        self.first = {}
        self.seen = {}
        self.differing = 0

    def loop(self, mr, pool, order, seconds=None):
        """Send the queries in ``order``; returns ([(index, seconds)], wall s)."""
        latencies = []
        saved = sys.stdout, sys.stderr
        start = time.perf_counter()
        try:
            for index in order:
                out, err = io.StringIO(), io.StringIO()
                sys.stdout, sys.stderr = out, err
                t0 = time.perf_counter()
                try:
                    code = mr.cli.run(list(pool[index].argv))
                except Exception as exc:  # reported as a failed operation
                    code = f"raised {exc!r}"
                t1 = time.perf_counter()
                sys.stdout, sys.stderr = saved
                latencies.append((index, t1 - t0))
                result = (code, out.getvalue(), err.getvalue())
                if self.first.setdefault(index, result)[:2] != result[:2]:
                    self.differing += 1
                self.seen[index] = self.seen.get(index, 0) + 1
                if seconds is not None and t1 - start >= seconds:
                    break
        finally:
            sys.stdout, sys.stderr = saved
        return latencies, time.perf_counter() - start

    def check(self, mr, pool, outcome):
        outcome.attempted += sum(self.seen.values())
        if self.differing:
            outcome.fail(self.differing, f"{self.differing} repeated queries printed different output")
        for index, (code, stdout, stderr) in sorted(self.first.items()):
            problems = queries.check(mr, pool[index], code, stdout)
            if problems:
                argv = " ".join(pool[index].argv)
                outcome.fail(
                    self.seen[index], f"{argv}: {'; '.join(problems)} {stderr.strip()}"
                )


def _queries_timed(mr, pool, seed, seconds, outcome):
    log = QueryLog()
    timings, _ = log.loop(mr, pool, queries.stream(seed, len(pool)), seconds)
    rss = _peak_rss_mb()
    log.check(mr, pool, outcome)
    per_query = {}
    for index, dt in timings:
        per_query.setdefault(index, []).append(dt)
    # Each distinct query takes its median latency over its repeats, which
    # keeps one-off stalls of a shared machine out of the tail.
    ms = [statistics.median(v) * 1000.0 for v in per_query.values()]
    return {
        "instances_per_s": len(ms) * 1000.0 / sum(ms),
        "queries_per_s": len(ms) * 1000.0 / sum(ms),
        "query_ms_p50": statistics.median(ms),
        "query_ms_p99": _percentile(ms, 99),
        "peak_rss_mb": rss,
    }, f"{len(timings)} queries over {len(ms)} distinct"


def _queries_traced(mr, pool, seed, count, outcome, spans_path):
    order = list(itertools.islice(queries.stream(seed, len(pool)), count))
    log = QueryLog()
    _, untraced = log.loop(mr, pool, order)
    tracer = tracing.Tracer()
    tracer.install(mr)
    try:
        _, traced = log.loop(mr, pool, order)
        metrics, counts = tracer.metrics(traced / untraced), tracer.counts()
        tracer.write_spans(spans_path)
        tracer.reset()
        log.loop(mr, pool, order)
        again = tracer.counts()
    finally:
        tracer.uninstall()
    log.check(mr, pool, outcome)
    _check_counts(counts, again, outcome)
    return metrics, f"{count} queries, once untraced and twice traced"


# -- driver ------------------------------------------------------------------------


def _peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def _git_commit():
    """The checked-out commit, read from .git without starting git."""
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return "unknown"


def run(workload, seed, seconds, trace, scope="full"):
    """Run one workload; returns (result object, human-readable lines)."""
    tiny = scope == "tiny"
    workdir = OUT_DIR / f"instances-{os.getpid()}"
    spans_path = OUT_DIR / f"spans-{workload}-seed{seed}.tsv.gz"
    outcome = Outcome()
    setup_times = []
    try:
        for _ in range(SETUP_REPEATS):
            t0 = time.perf_counter()
            mr = _fresh_import()
            if workload == "cli-queries":
                inputs = queries.build(seed, workdir, POOL_PER_SHAPE[scope])
            else:
                inputs = suites.build(workload, mr, tiny)
            setup_times.append(time.perf_counter() - t0)
        if workload == "cli-queries":
            if trace:
                metrics, samples = _queries_traced(
                    mr, inputs, seed, TRACE_QUERIES[scope], outcome, spans_path
                )
            else:
                metrics, samples = _queries_timed(mr, inputs, seed, seconds, outcome)
        elif trace:
            metrics, samples = _exhaustive_traced(mr, *inputs, outcome, spans_path)
        else:
            metrics, samples = _exhaustive_timed(mr, *inputs, seconds, outcome)
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    if trace:
        reported = metrics
    else:
        metrics["setup_s"] = statistics.median(setup_times)
        reported = {name: {"value": metrics[name], "unit": unit} for name, unit in END_TO_END}
    context = {
        "workload": workload,
        "seed": seed,
        "seconds": seconds,
        "trace": trace,
        "scope": scope,
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": _git_commit(),
        "load": "one process, one thread, one closed-loop client",
        "samples": samples,
    }
    lines = [f"context {json.dumps(context, sort_keys=True)}"]
    lines += [f"{name} {m['value']:.6g} {m['unit']}" for name, m in reported.items()]
    frac = outcome.failed / outcome.attempted if outcome.attempted else 1.0
    lines.append(f"failed_frac {frac:.6g} ({outcome.failed} of {outcome.attempted} operations)")
    lines += [f"problem: {p}" for p in outcome.problems]
    result = {
        "correct": outcome.failed == 0 and outcome.attempted > 0,
        "attempted": outcome.attempted,
        "failed": outcome.failed,
        "metrics": reported,
    }
    return result, lines


def main(argv=None):
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--scope",
        choices=("full", "tiny"),
        default="full",
        help="tiny shrinks every workload for the harness smoke test",
    )
    args = parser.parse_args(argv)
    if not (SRC / "matchroid" / "__init__.py").is_file():
        sys.stderr.write(f"matchroid sources not found under {SRC}\n")
        return 2
    sys.path.insert(0, str(SRC))
    result, lines = run(args.workload, args.seed, args.seconds, args.trace, args.scope)
    for line in lines:
        print(line)
    print(json.dumps(result, sort_keys=True))
    return 0


if __name__ == "__main__":
    sys.exit(main())
