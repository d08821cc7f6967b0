"""Traced in-process runs of linematch CLI operations.

The tracer rebinds, from outside the library, the public names each layer
is called through (`linematch.cli.read_cohort_csv`,
`linematch.matching.sort_items`, `json.dumps`, the `KPartition.tuples`
property, ...) to wrappers that record spans.  Spans stay in memory as
[name, parent, start, end] and are reduced to per-layer totals and self
times (a span minus its children) after each op.  No library file changes.

Run as a script, it alternates untraced and traced ops in one process for
the given number of seconds and prints one JSON object:

    PYTHONPATH=src python3 perfbench/trace.py --out OUT --seconds 10 \\
        --argvs '[["match", "--input", "cohort.csv", "--k", "2"]]'
"""

from __future__ import annotations

import argparse
import contextlib
import hashlib
import json
import statistics
import time
from collections import Counter, defaultdict
from pathlib import Path

ROOT_SPAN = "cli.main"


class Tracer:
    """Span recorder plus the patches that feed it; `restore` undoes them."""

    def __init__(self) -> None:
        self.spans: list[list] = []
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._patches: list[tuple[object, str, object]] = []

    def _enter(self, name: str) -> list:
        parent = self._stack[-1] if self._stack else -1
        self._stack.append(len(self.spans))
        span = [name, parent, time.perf_counter(), 0.0]
        self.spans.append(span)
        return span

    def _exit(self, span: list) -> None:
        span[3] = time.perf_counter()
        self._stack.pop()

    @contextlib.contextmanager
    def span(self, name: str):
        span = self._enter(name)
        try:
            yield
        finally:
            self._exit(span)

    def wrap(self, fn, name: str, count=None):
        """Wrap `fn` in a span; `count(result)` adds to counts[count key]."""
        enter, exit_, counts = self._enter, self._exit, self.counts
        key, counter = count if count else (None, None)

        def traced(*args, **kwargs):
            span = enter(name)
            try:
                result = fn(*args, **kwargs)
            finally:
                exit_(span)
            if key:
                counts[key] += counter(result)
            return result

        return traced

    def patch(self, owner, attr: str, name: str, count=None) -> None:
        original = getattr(owner, attr)
        self._patches.append((owner, attr, original))
        setattr(owner, attr, self.wrap(original, name, count))

    def patch_lazy_property(self, cls, attr: str, cache_slot: str, name: str) -> None:
        """Span only the accesses that materialize the lazily cached value."""
        prop = cls.__dict__[attr]
        fget, materialize = prop.fget, self.wrap(prop.fget, name)

        def traced(obj):
            if getattr(obj, cache_slot) is None:
                return materialize(obj)
            return fget(obj)

        self._patches.append((cls, attr, prop))
        setattr(cls, attr, property(traced))

    def restore(self) -> None:
        while self._patches:
            owner, attr, original = self._patches.pop()
            setattr(owner, attr, original)

    def totals(self) -> tuple[dict[str, float], dict[str, float]]:
        """Per span name: total time (outermost spans of that name only) and
        self time (each span minus the time its direct children cover)."""
        spans = self.spans
        child_time = [0.0] * len(spans)
        for _, parent, start, end in spans:
            if parent >= 0:
                child_time[parent] += end - start
        total: dict[str, float] = defaultdict(float)
        self_time: dict[str, float] = defaultdict(float)
        for i, (name, parent, start, end) in enumerate(spans):
            self_time[name] += end - start - child_time[i]
            while parent >= 0 and spans[parent][0] != name:
                parent = spans[parent][1]
            if parent < 0:
                total[name] += end - start
        return total, self_time


def install(tracer: Tracer) -> None:
    """Rebind every layer boundary the benchmark reports on."""
    import json as json_module

    import linematch.cli as cli
    import linematch.core as core
    import linematch.matching as matching
    import linematch.oracle as oracle

    for name in ("cmd_match", "cmd_certify", "cmd_bench"):
        tracer.patch(cli, name, f"cli.{name}")
    tracer.patch(cli, "read_cohort_csv", "cli.read_cohort_csv",
                 ("cli.read_cohort_csv.rows", len))
    tracer.patch(json_module, "dumps", "cli.json_dumps")
    tracer.patch(cli, "match_line", "matching.match_line")
    tracer.patch(cli, "balance_columns", "matching.balance_columns",
                 ("matching.balance_columns.groups",
                  lambda r: len(r.column_assignment)))
    for owner in (matching, oracle):
        tracer.patch(owner, "sort_items", "core.sort_items")
    for owner in (cli, matching):
        tracer.patch(owner, "within_distance", "core.within_distance",
                     ("core.within_distance.calls", lambda r: 1))
    tracer.patch_lazy_property(core.KPartition, "tuples", "_tuples",
                               "core.KPartition.tuples")
    for name in ("certify_abs", "certify_sq"):
        tracer.patch(cli, name, f"certify.{name}",
                     (f"certify.{name}.entries", lambda r: r.entry_count))
    tracer.patch(cli, "certificate_render", "certify.certificate_render",
                 ("certify.certificate_render.bytes", len))
    tracer.patch(cli, "brute_force_partition", "oracle.brute_force_partition",
                 ("oracle.brute_force_partition.calls", lambda r: 1))
    for name in ("greedy_match", "brute_force_assignment"):
        tracer.patch(cli, name, f"oracle.{name}")
    for name in ("local_search_2tuple", "hierarchical_triple_match",
                 "triangle_matching"):
        tracer.patch(cli, name, f"heuristics.{name}")
    for name in ("match_sorted", "tripartite_lower_bound", "heuristic_ratio_bound"):
        tracer.patch(cli, name, f"multipartite.{name}")


TIMED = (
    "cli.read_cohort_csv", "core.sort_items", "matching.match_line",
    "core.within_distance", "core.KPartition.tuples",
    "matching.balance_columns", "cli.json_dumps", "certify.certify_abs",
    "certify.certify_sq", "certify.certificate_render",
    "oracle.brute_force_partition", "oracle.greedy_match",
    "oracle.brute_force_assignment", "heuristics.local_search_2tuple",
    "heuristics.hierarchical_triple_match", "heuristics.triangle_matching",
)
COUNTED = (
    "cli.read_cohort_csv.rows", "core.within_distance.calls",
    "matching.balance_columns.groups", "certify.certify_abs.entries",
    "certify.certify_sq.entries", "certify.certificate_render.bytes",
    "oracle.brute_force_partition.calls",
)


def layer_metrics(tracer: Tracer) -> dict[str, float]:
    """Per-layer metrics of one traced op, keyed as in BENCHMARK.json."""
    total, self_time = tracer.totals()
    out = {f"{name}.s": total.get(name, 0.0) for name in TIMED}
    out.update({name: float(tracer.counts.get(name, 0)) for name in COUNTED})
    out["matching.match_line.self_s"] = self_time.get("matching.match_line", 0.0)
    ml = total.get("matching.match_line", 0.0)
    out["matching.match_line.nonsort_share"] = (
        out["matching.match_line.self_s"] / ml if ml else 0.0)
    for name in ("main", "cmd_match", "cmd_certify", "cmd_bench"):
        out[f"cli.{name}.self_s"] = self_time.get(f"cli.{name}", 0.0)
    out["multipartite.s"] = sum(
        t for name, t in total.items() if name.startswith("multipartite."))
    out["trace.self_sum_s"] = sum(self_time.values())
    return out


def run_op(argvs: list[list[str]], out: str, tracer: Tracer | None) -> float:
    """Run one op in-process, call i's stdout to `out`.i; wall seconds."""
    from linematch.cli import main

    codes, elapsed = [], 0.0
    for i, argv in enumerate(argvs):
        with open(f"{out}.{i}", "w", encoding="utf-8") as fh, \
                contextlib.redirect_stdout(fh):
            start = time.perf_counter()
            if tracer is None:
                codes.append(main(argv))
            else:
                with tracer.span(ROOT_SPAN):
                    codes.append(main(argv))
            elapsed += time.perf_counter() - start
    if any(codes):
        raise SystemExit(f"op exited with codes {codes}")
    return elapsed


def _digest(out: str, calls: int) -> tuple[str, int]:
    data = b"".join(Path(f"{out}.{i}").read_bytes() for i in range(calls))
    return hashlib.sha256(data).hexdigest(), len(data)


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--out", required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--argvs", required=True, help="JSON list of CLI argv lists")
    args = parser.parse_args()
    argvs = json.loads(args.argvs)

    untraced, traced, per_op, digests = [], [], [], Counter()
    start = time.perf_counter()
    while len(traced) < 2 or time.perf_counter() - start < args.seconds:
        untraced.append(run_op(argvs, args.out, None))
        untraced_digest = _digest(args.out, len(argvs))
        tracer = Tracer()
        install(tracer)
        try:
            traced.append(run_op(argvs, args.out, tracer))
        finally:
            tracer.restore()
        traced_digest = _digest(args.out, len(argvs))
        digests[untraced_digest] += 1
        digests[traced_digest] += 1
        metrics = layer_metrics(tracer)
        metrics["cli.output_bytes"] = float(traced_digest[1])
        per_op.append(metrics)

    print(json.dumps({
        "untraced_s": untraced,
        "traced_s": traced,
        "layers": {name: statistics.median(m[name] for m in per_op)
                   for name in per_op[0]},
        "digests": [[d, n, c] for (d, n), c in digests.items()],
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
