"""Independent checks of linematch CLI output.

None of these call the library: expected values come from the benchmark's
own sort of the generated scores, `math.fsum` of the pairwise definition,
binomial counts and the output's own numbers.  Each check returns a list of
error messages; an empty list means the output passed.
"""

from __future__ import annotations

import csv
import io
import json
import math
from itertools import combinations

REL_TOL = 1e-9
MAX_ERRORS = 5
SQ_CERTIFIED_MAX_K = 8


def _pairwise(scores: list[float], weight: str) -> list[float]:
    if weight == "abs":
        return [abs(x - y) for x, y in combinations(scores, 2)]
    return [(x - y) * (x - y) for x, y in combinations(scores, 2)]


def _close(got: float, want: float) -> bool:
    return math.isclose(got, want, rel_tol=REL_TOL, abs_tol=0.0)


def _groups_from_csv(text: str) -> list[dict]:
    rows = list(csv.reader(io.StringIO(text)))
    if not rows or rows[0] != ["group", "id", "score", "slot", "within"]:
        raise ValueError(f"bad CSV header {rows[:1]!r}")
    groups: list[dict] = []
    for g, item_id, score, slot, within in rows[1:]:
        if not groups or groups[-1]["index"] != int(g):
            groups.append({"index": int(g), "members": [],
                           "within": float(within)})
        elif float(within) != groups[-1]["within"]:
            raise ValueError(f"group {g}: rows disagree on within")
        member = {"id": item_id, "score": float(score)}
        if slot != "":
            member["slot"] = int(slot)
        groups[-1]["members"].append(member)
    return groups


def check_match(output: bytes, workload, ids: list[str],
                scores: list[float]) -> list[str]:
    """Groups are consecutive blocks of the (score, row) sort; ids, scores,
    per-group and total costs and slot permutations are all right."""
    k, weight = workload.k, workload.weight
    text = output.decode("utf-8")
    doc = None
    try:
        if workload.format == "json":
            doc = json.loads(text)
            groups = doc["groups"]
        else:
            groups = _groups_from_csv(text)
    except (ValueError, KeyError) as exc:
        return [f"unparseable output: {exc}"]

    errors: list[str] = []
    if doc is not None:
        cfg = doc.get("config", {})
        for key, want in (("k", k), ("weight", weight),
                          ("balance", workload.balance)):
            if cfg.get(key) != want:
                errors.append(f"config {key}={cfg.get(key)!r}, expected {want!r}")
    order = sorted(range(len(scores)), key=lambda i: (scores[i], i))
    if len(groups) * k != len(order):
        return errors + [f"{len(groups)} groups of {k} for {len(order)} rows"]

    all_terms: list[float] = []
    for gi, group in enumerate(groups):
        if len(errors) >= MAX_ERRORS:
            break
        block = order[gi * k:(gi + 1) * k]
        members = group["members"]
        if group["index"] != gi:
            errors.append(f"group {gi}: index {group['index']}")
        if sorted(m["id"] for m in members) != sorted(ids[i] for i in block):
            errors.append(f"group {gi}: members are not sorted block {gi}")
            continue
        by_id = {ids[i]: scores[i] for i in block}
        if any(m["score"] != by_id[m["id"]] for m in members):
            errors.append(f"group {gi}: a score does not round-trip")
        slots = [m.get("slot") for m in members]
        if workload.balance and sorted(s for s in slots if s is not None) != list(range(k)):
            errors.append(f"group {gi}: slots {slots} are not a permutation")
        if not workload.balance and any(s is not None for s in slots):
            errors.append(f"group {gi}: slot present without --balance")
        terms = _pairwise([scores[i] for i in block], weight)
        all_terms.extend(terms)
        if not _close(group["within"], math.fsum(terms)):
            errors.append(f"group {gi}: within {group['within']!r} != "
                          f"fsum {math.fsum(terms)!r}")
    if doc is not None and not errors:
        want = math.fsum(all_terms)
        if not _close(doc["total_within"], want):
            rel = abs(doc["total_within"] - want) / want
            errors.append(f"total_within {doc['total_within']!r} != fsum "
                          f"{want!r} (relative error {rel:.2e})")
    return errors


def check_certify(calls, outputs: list[bytes]) -> list[str]:
    """Every header is verified with entries = C(2k-1, k-1); collected
    certificates have one OK line per entry."""
    errors: list[str] = []
    for call, output in zip(calls, outputs):
        lines = output.decode("utf-8").splitlines()
        if "--full-range" in call:
            expected_ks = list(range(2, SQ_CERTIFIED_MAX_K + 1))
            weight = "sq"
        else:
            expected_ks = [int(call[call.index("--k") + 1])]
            weight = "abs"
        headers = [i for i, line in enumerate(lines) if line.startswith("k=")]
        if len(headers) != len(expected_ks):
            errors.append(f"{' '.join(call)}: {len(headers)} headers, "
                          f"expected {len(expected_ks)}")
            continue
        bounds = headers[1:] + [len(lines)]
        for k, start, end in zip(expected_ks, headers, bounds):
            entries = math.comb(2 * k - 1, k - 1)
            want = f"k={k} weight={weight} entries={entries} verified=true"
            if lines[start] != want:
                errors.append(f"header {lines[start]!r}, expected {want!r}")
                continue
            body = lines[start + 1:end]
            if body == [f"({entries} entries not collected)"]:
                continue
            if len(body) != entries:
                errors.append(f"k={k}: {len(body)} entry lines, expected {entries}")
            elif not all(line.endswith(" OK") for line in body):
                errors.append(f"k={k}: an entry line is not OK")
    return errors


def _sorted_chunk_cost(scores: list[float], k: int) -> float:
    ordered = sorted(scores)
    return math.fsum(
        t for i in range(0, len(ordered), k)
        for t in _pairwise(ordered[i:i + k], "abs")
    )


def check_bench(output: bytes) -> list[str]:
    """Optimality and ratio claims of a `bench --k 3` JSON document."""
    try:
        doc = json.loads(output.decode("utf-8"))
        lines, tris = doc["line_instances"], doc["tripartite_instances"]
    except (ValueError, KeyError) as exc:
        return [f"unparseable output: {exc}"]

    def le(a: float, b: float) -> bool:
        return a <= b or _close(a, b)

    errors: list[str] = []
    if not lines or lines[0]["instance"] != "canonical" or (
            lines[0]["optimal"], lines[0]["greedy"]) != (14, 20):
        errors.append("canonical instance is not optimal=14, greedy=20")
    for row in lines:
        name = row["instance"]
        own = _sorted_chunk_cost(row["scores"], row["k"])
        if not _close(row["match_line"], own):
            errors.append(f"{name}: match_line {row['match_line']} != {own}")
        best = row["optimal"] if row["optimal"] is not None else own
        if row["optimal"] is not None and not _close(row["match_line"], best):
            errors.append(f"{name}: match_line {row['match_line']} != "
                          f"optimal {best}")
        if not le(best, row["greedy"]) or not le(best, row["local_search"]):
            errors.append(f"{name}: a heuristic beats the optimum {best}")
        if not le(row["local_search"], row["greedy"]):
            errors.append(f"{name}: local search is worse than its greedy start")
    for row in tris:
        name = row["instance"]
        if row["optimal"] is None or not _close(row["match_sorted"], row["optimal"]):
            errors.append(f"{name}: match_sorted {row['match_sorted']} != "
                          f"optimal {row['optimal']}")
        if not le(row["ratio_triangle_to_bound"], 2.0):
            errors.append(f"{name}: triangle ratio {row['ratio_triangle_to_bound']} > 2")
    return errors[:MAX_ERRORS]
