"""Batch command line: match cohort files, print certificates, run benchmarks.

`certify` and `bench` import their modules on first use (`_ON_USE`), so
`match` loads only `core` and `matching`.

A command returns 0, or 1 for a certificate entry that failed verification,
and raises on every other failure; `main` prints the error as one `error:`
line on stderr and exits with its code from `_EXIT_CODES`, the one table of
exit codes (README, "Exit codes").
"""

from __future__ import annotations

import argparse
import csv
import importlib
import io
import json
import math
import os
import random
import re
import sys
import time
from itertools import chain, repeat
from json.encoder import encode_basestring_ascii

from .core import (
    DEFAULT_BUDGET,
    Cohort,
    EnumerationBudgetError,
    ScoredItem,
    SizeError,
    ValidationError,
    WeightKind,
    check_certified_k,
    within_distance,  # unused; perfbench/trace.py rebinds this name to count calls
)
from .matching import balance_columns, match_line

# the names `certify` and `bench` run, by the module that defines them: each
# command imports its modules on first use, so `match` loads none of them
_ON_USE = {
    "certify": ("certificate_chunks", "certificate_render", "certify_abs",
                "certify_sq"),
    "heuristics": ("hierarchical_triple_match", "local_search_2tuple",
                   "points_from_coords", "triangle_matching"),
    "multipartite": ("heuristic_ratio_bound", "instance_from_scores",
                     "match_sorted", "tripartite_lower_bound"),
    "oracle": ("TRIPARTITE_ORACLE_MAX_N", "brute_force_assignment",
               "brute_force_partition", "greedy_match"),
}
_MODULE_OF = {name: module for module, names in _ON_USE.items() for name in names}


def __getattr__(name: str):
    """Resolve an on-use name and bind it here, as if imported at the top."""
    try:
        module = _MODULE_OF[name]
    except KeyError:
        raise AttributeError(f"module {__name__!r} has no attribute {name!r}") from None
    value = getattr(importlib.import_module(f".{module}", __package__), name)
    globals()[name] = value
    return value


def _bind(*modules: str) -> None:
    """Bind the on-use names of `modules` that are not bound yet, so a name
    rebound from outside (a test double, a tracer) stays what is called."""
    bound = globals()
    for module in modules:
        for name in _ON_USE[module]:
            if name not in bound:
                __getattr__(name)


SCHEMA_VERSION = 2
# certificates with more splits are not collected and report progress on
# stderr; collected ones are streamed from the state table's halves
COLLECT_LIMIT = 1_000_000
_FULL_RANGE = {WeightKind.ABS: 16, WeightKind.SQ: 8}  # --full-range: k = 2..these

EXIT_OK = 0
EXIT_CERT_FAILED = 1
EXIT_BAD_CSV = 2
EXIT_BAD_SIZE = 3
EXIT_BAD_RANGE = 4
EXIT_BUDGET = 5

# rows per chunk the match writers render and write: bounds their memory
# beyond the columns themselves
BATCH_ROWS = 4096


# the keys of the config block match and bench documents echo, in order,
# each with the value echoed by a subcommand that does not take the option
# (both take subcommand, k, weight and format)
_ECHO = {"subcommand": None, "input": None, "k": None, "weight": None,
         "balance": False, "format": None, "seed": 0, "budget": DEFAULT_BUDGET,
         "full_range": False}


def config_echo(cfg: argparse.Namespace) -> dict:
    """The config block of a match or bench document."""
    echo = {key: getattr(cfg, key, absent) for key, absent in _ECHO.items()}
    echo["weight"] = cfg.weight.value
    return echo


class CsvError(Exception):
    pass


def read_cohort_csv(path: str) -> Cohort:
    """Parse an `id,score` CSV into a Cohort, naming the offending line on
    any malformation, bytes that are not UTF-8 included.  A leading UTF-8
    byte-order mark and blank rows are skipped.  A bad row is named by its
    last physical line, so a quoted id that spans lines counts every line it
    spans."""
    try:
        fh = open(path, "r", encoding="utf-8-sig", newline="")
    except OSError as exc:
        raise CsvError(f"cannot open {path}: {exc}") from exc
    try:
        with fh:
            reader = csv.reader(fh)
            try:
                header = next(reader)
            except StopIteration:
                raise CsvError(f"{path}: empty file, expected header 'id,score'")
            if [h.strip() for h in header] != ["id", "score"]:
                raise CsvError(
                    f"{path}: line 1: expected header 'id,score', got {','.join(header)!r}"
                )

            def bad_row(message: str) -> CsvError:
                return CsvError(f"{path}: line {reader.line_num}: {message}")

            ids: list[str] = []
            scores: list[float] = []
            seen: set[str] = set()
            for row in reader:
                if not row:
                    continue
                if len(row) != 2:
                    raise bad_row(f"expected 2 fields, got {len(row)}")
                item_id = row[0].strip()
                if not item_id:
                    raise bad_row("empty id")
                if item_id in seen:
                    raise bad_row(f"duplicate id {item_id!r}")
                try:
                    score = float(row[1])
                except ValueError:
                    raise bad_row(f"score {row[1]!r} is not a number")
                if not math.isfinite(score):
                    raise bad_row(f"non-finite score {row[1]!r}")
                seen.add(item_id)
                ids.append(item_id)
                scores.append(score)
    except csv.Error as exc:
        # a field over csv.field_size_limit(), say
        raise CsvError(f"{path}: line {reader.line_num}: {exc}") from None
    except UnicodeDecodeError:
        with open(path, "rb") as raw:
            # the first line whose bytes do not survive a UTF-8 round trip
            line_no = next(n for n, line in enumerate(raw, start=1)
                           if line.decode("utf-8", "replace").encode() != line)
        raise CsvError(f"{path}: line {line_no}: not valid UTF-8") from None
    return Cohort(ids, scores)


def _emit(text: str, out) -> None:
    out.write(text)
    if not text.endswith("\n"):
        out.write("\n")


def cmd_match(cfg: argparse.Namespace, out=None) -> int:
    out = out or sys.stdout
    cohort = read_cohort_csv(cfg.input)
    partition = match_line(cohort, cfg.k, cfg.weight)
    slots = column_means = None
    if cfg.balance:
        balanced = balance_columns(partition)
        slots = _member_slots(balanced.column_assignment, cfg.k)
        column_means = balanced.column_means
    if cfg.format == "json":
        _match_json(cfg, partition, slots, column_means, out)
    else:
        _match_csv(partition, slots, out)
    return EXIT_OK


def _chunks(partition):
    """(first group, end group, first row, end row) of each output chunk:
    BATCH_ROWS rows, or one group when a group is larger."""
    k, n = partition.k, partition.n
    step = max(1, BATCH_ROWS // k)
    for start in range(0, n, step):
        stop = min(start + step, n)
        yield start, stop, start * k, stop * k


_NEEDS_QUOTES = re.compile('[,"\r\n]').search


def _csv_field(text: str) -> str:
    """text as a CSV field: quoted, quotes doubled, if it has , " or a line break."""
    return '"' + text.replace('"', '""') + '"' if _NEEDS_QUOTES(text) else text


def _match_csv(partition, slots, out) -> None:
    """The match CSV, `group,id,score,slot,within` rows filled from one `%`
    template, one chunk of rows per write.  Numbers print as `str`, as
    csv.writer prints them; a group's index and `within` are rendered once
    for its k rows.  A chunk's ids are quoted one by one only when their
    concatenation holds a character that needs quoting."""
    ids, scores, _ = partition.columns()
    within = partition.group_within
    k = partition.k
    out.write("group,id,score,slot,within\n")
    row = "%s,%s,%s,,%s\n" if slots is None else "%s,%s,%s,%s,%s\n"
    width = row.count("%s")
    for start, stop, a, b in _chunks(partition):
        fields = [None] * ((b - a) * width)
        fields[0::width] = chain.from_iterable(
            map(repeat, map(str, range(start, stop)), repeat(k)))
        chunk_ids = ids[a:b]
        fields[1::width] = (map(_csv_field, chunk_ids)
                            if _NEEDS_QUOTES("".join(chunk_ids)) else chunk_ids)
        fields[2::width] = scores[a:b]
        if slots is not None:
            fields[3::width] = slots[a:b]
        fields[width - 1::width] = chain.from_iterable(
            map(repeat, map(str, within[start:stop]), repeat(k)))
        out.write(row * (b - a) % tuple(fields))


def _member_slots(assignment, k: int) -> list[int]:
    """Each member's slot, members in group order: the inverse of its
    group's slot-to-member permutation."""
    inverse = {perm: [perm.index(pos) for pos in range(k)] for perm in set(assignment)}
    return [slot for perm in assignment for slot in inverse[perm]]


_JSON_NONFINITE = {"nan": "NaN", "inf": "Infinity", "-inf": "-Infinity"}


def _json_numbers(values) -> list[str]:
    """Ints and floats as json.dumps renders them."""
    return [_JSON_NONFINITE.get(r, r) for r in map(repr, values)]


def _json_array(body: str, indent: str) -> str:
    """An indent=2 JSON array around its rendered, indented and comma-joined
    elements, closing at `indent`."""
    return f"[\n{body}\n{indent}]" if body else "[]"


def _match_json(cfg: argparse.Namespace, partition, slots, column_means, out) -> None:
    """Write the match document, byte-for-byte what `json.dumps(doc,
    indent=2)` plus a newline prints for {schema_version, config, groups,
    total_within, column_means (with --balance)}, one chunk of groups per
    write.  Only the small head goes through json.dumps; each group fills a
    fixed template, ids are escaped by the C string encoder."""
    k = partition.k
    ids, scores, _ = partition.columns()
    within = partition.group_within
    member = '        {\n          "id": %s,\n          "score": %s'
    if slots is not None:
        member += ',\n          "slot": %s'
    member += "\n        }"
    template = ('    {\n      "index": %s,\n      "members": [\n'
                + ",\n".join([member] * k)
                + '\n      ],\n      "within": %s\n    }')
    head = json.dumps(
        {"schema_version": SCHEMA_VERSION, "config": config_echo(cfg)}, indent=2
    )
    out.write(head[: -len("\n}")] + ',\n  "groups": [')
    for start, stop, a, b in _chunks(partition):
        # scores are finite (the reader and match_line reject the others),
        # so their repr is already JSON; only within can be non-finite
        columns = [list(map(encode_basestring_ascii, ids[a:b])),
                   list(map(repr, scores[a:b]))]
        if slots is not None:
            columns.append(slots[a:b])
        # one run of fields per group: index, each member's columns, within
        run = 2 + k * len(columns)
        fields = [None] * ((stop - start) * run)
        fields[0::run] = range(start, stop)
        for pos in range(k):
            for c, column in enumerate(columns):
                fields[1 + pos * len(columns) + c :: run] = column[pos::k]
        fields[run - 1 :: run] = _json_numbers(within[start:stop])
        out.write(("\n" if start == 0 else ",\n")
                  + ",\n".join([template] * (stop - start)) % tuple(fields))
    parts = ["\n  ]" if partition.n else "]", ',\n  "total_within": ',
             *_json_numbers([partition.total_within])]
    if column_means is not None:
        means = ",\n".join("    " + x for x in _json_numbers(column_means))
        parts += [',\n  "column_means": ', _json_array(means, "  ")]
    parts.append("\n}\n")
    out.write("".join(parts))


def _progress(k: int, weight: WeightKind, err):
    """A certifier progress callback writing one stderr line per call (done,
    rate, ETA) for a certificate of more than COLLECT_LIMIT splits."""
    start = time.perf_counter()

    def report(done: int, total: int) -> None:
        if total <= COLLECT_LIMIT:
            return
        rate = done / max(time.perf_counter() - start, 1e-9)
        err.write(f"certify k={k} weight={weight.value}: {done}/{total} splits, "
                  f"{rate:.0f} splits/s, eta {(total - done) / rate:.0f} s\n")
        err.flush()

    return report


def cmd_certify(cfg: argparse.Namespace, out=None, err=None) -> int:
    if not cfg.full_range and cfg.k < 2:
        raise ValidationError("certify needs --k >= 2 or --full-range")
    _bind("certify")
    out = out or sys.stdout
    err = err or sys.stderr
    certifier = certify_abs if cfg.weight is WeightKind.ABS else certify_sq
    ks = range(2, _FULL_RANGE[cfg.weight] + 1) if cfg.full_range else [cfg.k]
    all_ok = True
    for k in ks:
        # the verdict; splits are enumerated only to list failures
        cert = certifier(k, collect=False, progress=_progress(k, cfg.weight, err))
        if cfg.full_range or cert.entry_count > COLLECT_LIMIT:
            _emit(certificate_render(cert), out)
        else:
            for chunk in certificate_chunks(cert):
                out.write(chunk)
        all_ok = all_ok and cert.verified
    return EXIT_OK if all_ok else EXIT_CERT_FAILED


def _ratio(cost: float, reference: float) -> float:
    if reference == 0:
        return 1.0 if cost == 0 else math.inf
    return cost / reference


def _gen_scores(rng: random.Random, count: int, dist: str) -> list[float]:
    if dist == "uniform-real":
        return [round(rng.uniform(0, 100), 6) for _ in range(count)]
    return [rng.randint(0, 100) for _ in range(count)]


def cmd_bench(cfg: argparse.Namespace, out=None) -> int:
    check_certified_k(cfg.k)
    _bind("heuristics", "multipartite", "oracle")
    out = out or sys.stdout
    rng = random.Random(cfg.seed)

    line_specs: list[tuple[str, list[float]]] = []
    if cfg.k == 3:
        line_specs.append(("canonical", [1, 3, 4, 5, 8, 9]))
    for n in cfg.line_sizes:
        for rep in range(cfg.instances):
            line_specs.append(
                (f"n{n}r{rep}", _gen_scores(rng, n * cfg.k, cfg.dist))
            )

    line_rows = []
    for name, scores in line_specs:
        n = len(scores) // cfg.k
        items = [ScoredItem(f"i{i}", s, i) for i, s in enumerate(scores)]
        # the oracle refuses an instance over budget before any work; its
        # column is then null, and an error only under --oracle
        try:
            oracle_cost = brute_force_partition(
                items, cfg.k, cfg.weight, budget=cfg.budget
            ).total_within
        except EnumerationBudgetError:
            if cfg.oracle:
                raise
            oracle_cost = None
        matched = match_line(items, cfg.k, cfg.weight)
        greedy = greedy_match(items, cfg.k, cfg.weight, budget=cfg.budget)
        local = local_search_2tuple(greedy, cfg.weight, budget=cfg.budget)
        hier_cost = None
        if cfg.k == 3 and cfg.weight is WeightKind.ABS and n and not (n & (n - 1)):
            points = points_from_coords([[s] for s in scores])
            hier_cost = hierarchical_triple_match(points).cost
        reference = oracle_cost if oracle_cost is not None else matched.total_within
        row = {
            "family": "line",
            "instance": name,
            "k": cfg.k,
            "n": n,
            "scores": scores,
            "optimal": oracle_cost,
            "match_line": matched.total_within,
            "greedy": greedy.total_within,
            "local_search": local.total_within,
            "hierarchical": hier_cost,
            "ratio_match_line": _ratio(matched.total_within, reference),
            "ratio_greedy": _ratio(greedy.total_within, reference),
            "ratio_local_search": _ratio(local.total_within, reference),
        }
        line_rows.append(row)

    tri_rows = []
    for n in cfg.tri_sizes:
        for rep in range(cfg.instances):
            parts = [_gen_scores(rng, n, cfg.dist) for _ in range(3)]
            instance = instance_from_scores(parts, cfg.weight)
            oracle_cost = None
            if n <= TRIPARTITE_ORACLE_MAX_N and math.factorial(n) ** 2 <= cfg.budget:
                oracle_cost = brute_force_assignment(instance).weight
            elif cfg.oracle:
                raise EnumerationBudgetError(
                    f"tripartite oracle limited to "
                    f"n<={TRIPARTITE_ORACLE_MAX_N} within budget, requested n={n}"
                )
            sorted_m = match_sorted(instance)
            triangle = triangle_matching(instance)
            bound = tripartite_lower_bound(instance)
            tri_rows.append(
                {
                    "family": "tripartite",
                    "instance": f"n{n}r{rep}",
                    "n": n,
                    "parts": parts,
                    "optimal": oracle_cost,
                    "match_sorted": sorted_m.weight,
                    "triangle": triangle.weight,
                    "lower_bound": bound,
                    "ratio_triangle_to_bound": heuristic_ratio_bound(
                        instance, triangle
                    ),
                }
            )

    if cfg.format == "json":
        doc = {
            "schema_version": SCHEMA_VERSION,
            "config": config_echo(cfg),
            "line_instances": line_rows,
            "tripartite_instances": tri_rows,
        }
        _emit(json.dumps(doc, indent=2), out)
    else:
        buf = io.StringIO()
        writer = csv.writer(buf, lineterminator="\n")
        cols = [
            "family", "instance", "k", "n", "optimal", "match_line", "greedy",
            "local_search", "hierarchical", "match_sorted", "triangle",
            "lower_bound", "ratio_match_line", "ratio_greedy",
            "ratio_local_search", "ratio_triangle_to_bound",
        ]
        writer.writerow(cols)
        for row in line_rows + tri_rows:
            writer.writerow([
                "" if row.get(c) is None else row.get(c, "") for c in cols
            ])
        out.write(buf.getvalue())
    return EXIT_OK


def _parse_sizes(text: str) -> tuple[int, ...]:
    try:
        sizes = tuple(int(part) for part in text.split(",") if part.strip())
    except ValueError:
        raise argparse.ArgumentTypeError(f"bad size list {text!r}")
    if not sizes or any(s < 1 for s in sizes):
        raise argparse.ArgumentTypeError(f"sizes must be positive, got {text!r}")
    return sizes


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="linematch",
        description="Minimal-cost k-group matching of scored items on a line.",
    )
    sub = parser.add_subparsers(dest="subcommand", required=True)

    p_match = sub.add_parser("match", help="group a cohort CSV into k-tuples")
    p_match.add_argument("--input", required=True, help="CSV with header id,score")
    p_match.add_argument("--k", type=int, required=True, help="group size (>= 2)")
    p_match.add_argument("--balance", action="store_true",
                         help="assign members to slots with near-equal means")

    p_cert = sub.add_parser("certify", help="print exchange-inequality certificates")
    p_cert.add_argument("--k", type=int, default=0)
    p_cert.add_argument("--full-range", action="store_true", help=(
        "the per-k certificates for "
        + ", ".join(f"{kind.value} k <= {top}" for kind, top in _FULL_RANGE.items())))

    p_bench = sub.add_parser("bench", help="benchmark heuristics against bounds")
    p_bench.add_argument("--k", type=int, default=3, help="group size for line instances")
    p_bench.add_argument("--line-sizes", type=_parse_sizes, default=(2, 4),
                         help="comma list of group counts per line instance")
    p_bench.add_argument("--tri-sizes", type=_parse_sizes, default=(2, 4, 6),
                         help="comma list of per-part sizes for tripartite instances")
    p_bench.add_argument("--instances", type=int, default=3,
                         help="instances per size")
    p_bench.add_argument("--dist", choices=["uniform-int", "uniform-real"],
                         default="uniform-int")
    p_bench.add_argument("--oracle", action="store_true",
                         help="require exact oracle columns (exit 5 if over budget)")
    p_bench.add_argument("--seed", type=int, default=0)
    p_bench.add_argument("--budget", type=int, default=DEFAULT_BUDGET,
                         help="max enumerations for oracle/greedy searches")

    for p in (p_match, p_cert, p_bench):
        p.add_argument("--weight", choices=[kind.value for kind in WeightKind], default="abs",
                       help="pairwise distance inside a group")
    for p in (p_match, p_bench):
        p.add_argument("--format", choices=["json", "csv"], default="json")
    return parser


def config_from_args(args: argparse.Namespace) -> argparse.Namespace:
    """The run's config: the parsed arguments, with `weight` a WeightKind."""
    args.weight = WeightKind(args.weight)
    return args


# the exit code of each error a command raises.  Every ValidationError is a
# k below 2: the CSV reader rejects the scores match_line would.
_EXIT_CODES = {
    CsvError: EXIT_BAD_CSV,
    SizeError: EXIT_BAD_SIZE,
    ValidationError: EXIT_BAD_RANGE,
    EnumerationBudgetError: EXIT_BUDGET,
}


def main(argv=None) -> int:
    cfg = config_from_args(build_parser().parse_args(argv))
    # looked up at each call, so a command rebound on this module is the one run
    command = globals()[f"cmd_{cfg.subcommand}"]
    try:
        return command(cfg)
    except tuple(_EXIT_CODES) as exc:
        _emit(f"error: {exc}", sys.stderr)
        return _EXIT_CODES[type(exc)]


def run() -> None:
    try:
        code = main()
        sys.stdout.flush()
    except BrokenPipeError:
        # the reader of stdout left early (`linematch match ... | head`): no
        # traceback, and stdout goes to devnull so the flush at exit cannot
        # fail again
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
        code = EXIT_OK
    raise SystemExit(code)


if __name__ == "__main__":
    run()
