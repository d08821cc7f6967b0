"""Workloads of the linematch CLI benchmark.

A workload fixes what one operation (op) is: the `linematch` invocations it
runs, in order, and the inputs they read.  Inputs are generated from the
seed into the cache directory once, outside every timed region; the CLI
only ever sees the generated files.
"""

from __future__ import annotations

import os
import random
from dataclasses import dataclass, field
from pathlib import Path

from checks import check_bench, check_certify, check_match


@dataclass
class Prepared:
    """What one run of a workload needs: CLI argument lists and check data."""

    argvs: list[list[str]]
    inputs: dict = field(default_factory=dict)
    ids: list[str] = field(default_factory=list)
    scores: list[float] = field(default_factory=list)


def _tie_share(scores: list[float]) -> float:
    """Share of rows whose score equals the score of some other row."""
    counts: dict[float, int] = {}
    for s in scores:
        counts[s] = counts.get(s, 0) + 1
    return sum(c for c in counts.values() if c > 1) / len(scores)


@dataclass(frozen=True)
class MatchWorkload:
    """`linematch match` on one generated `id,score` cohort file."""

    name: str
    why: str
    n: int
    k: int
    weight: str
    format: str
    balance: bool
    scores: str  # "uniform01" (full precision), "int1000" or "age1dp"

    def params(self, seed: int) -> dict:
        return {"subcommand": "match", "n": self.n, "k": self.k,
                "weight": self.weight, "format": self.format,
                "balance": self.balance, "scores": self.scores, "seed": seed}

    def _score_texts(self, rng: random.Random) -> list[str]:
        if self.scores == "uniform01":
            return [repr(rng.random()) for _ in range(self.n)]
        if self.scores == "int1000":
            return [str(rng.randrange(1000)) for _ in range(self.n)]
        return [f"{rng.uniform(18, 90):.1f}" for _ in range(self.n)]

    def prepare(self, cache: Path, seed: int) -> Prepared:
        path = cache / f"{self.name}-n{self.n}-s{seed}.csv"
        ids = [f"p{i:07d}" for i in range(self.n)]
        texts = self._score_texts(random.Random(f"{self.name}/{seed}"))
        if not path.is_file():
            tmp = path.with_suffix(f".tmp{os.getpid()}")
            with open(tmp, "w", encoding="utf-8", newline="") as fh:
                fh.write("id,score\n")
                fh.writelines(f"{i},{t}\n" for i, t in zip(ids, texts))
            os.replace(tmp, path)
        scores = [float(t) for t in texts]
        argv = ["match", "--input", str(path), "--k", str(self.k),
                "--weight", self.weight, "--format", self.format]
        if self.balance:
            argv.append("--balance")
        inputs = {"file": path.name, "bytes": path.stat().st_size,
                  "rows": self.n, "tie_share": _tie_share(scores)}
        return Prepared([argv], inputs, ids, scores)

    def check(self, prepared: Prepared, outputs: list[bytes]) -> list[str]:
        return check_match(outputs[0], self, prepared.ids, prepared.scores)


@dataclass(frozen=True)
class CertifyWorkload:
    """A fixed sequence of `linematch certify` calls; the seed is unused."""

    name: str
    why: str
    calls: tuple[tuple[str, ...], ...]

    def params(self, seed: int) -> dict:
        return {"subcommand": "certify",
                "calls": [" ".join(c) for c in self.calls], "seed": seed}

    def prepare(self, cache: Path, seed: int) -> Prepared:
        return Prepared([["certify", *c] for c in self.calls])

    def check(self, prepared: Prepared, outputs: list[bytes]) -> list[str]:
        return check_certify(self.calls, outputs)


@dataclass(frozen=True)
class BenchWorkload:
    """`linematch bench`, which generates its own instances from --seed."""

    name: str
    why: str
    args: tuple[str, ...]

    def params(self, seed: int) -> dict:
        return {"subcommand": "bench", "args": " ".join(self.args), "seed": seed}

    def prepare(self, cache: Path, seed: int) -> Prepared:
        return Prepared([["bench", *self.args, "--seed", str(seed)]])

    def check(self, prepared: Prepared, outputs: list[bytes]) -> list[str]:
        return check_bench(outputs[0])


WORKLOADS = {w.name: w for w in [
    MatchWorkload(
        "pairs_propensity",
        "k=2 abs propensity pairs, full-precision U(0,1) floats, JSON: "
        "parse, sort, k=2 fast path, per-group cost, indented JSON",
        n=500_000, k=2, weight="abs", format="json", balance=False,
        scores="uniform01"),
    MatchWorkload(
        "pairs_int",
        "k=2 abs pairs on integer scores 0..999 with JSON output: the k=2 "
        "fast path, per-group cost and the indented JSON encoder",
        n=60_000, k=2, weight="abs", format="json", balance=False,
        scores="int1000"),
    MatchWorkload(
        "quads_balanced_sq",
        "k=4 sq balanced factorial slots on tied one-decimal ages, CSV: "
        "balance_columns and the sq kernel, no JSON",
        n=40_000, k=4, weight="sq", format="csv", balance=True,
        scores="age1dp"),
    CertifyWorkload(
        "certify_sweep",
        "abs certificate k=9 collected and rendered, plus the sq k=2..8 "
        "sweep: split enumeration, exact factoring and rendering",
        calls=(("--k", "9"), ("--full-range", "--weight", "sq"))),
    BenchWorkload(
        "oracle_bench",
        "bench k=3: branch-and-bound, greedy and local search at n=16, "
        "hierarchy, tripartite oracle; seed-stable work",
        args=("--k", "3", "--dist", "uniform-real", "--line-sizes", "4,16",
              "--tri-sizes", "5", "--instances", "6",
              "--budget", "1000000000000")),
]}
