"""Benchmark of the linematch CLI, end to end and layer by layer.

Run from the root of a checkout:

    python3 perfbench/run.py --workload quads_balanced_sq --seed 0 \\
        --seconds 25 --trace 0

With --trace 0 it runs the CLI the way users do, one `python3 -m linematch`
subprocess per call, one op at a time (a closed loop with one client), and
reports the end-to-end metrics of BENCHMARK.json.  With --trace 1 it runs
the same ops in one traced in-process child (perfbench/trace.py) and
reports the per-layer metrics.  Every op's stdout is hashed and checked by
perfbench/checks.py.  The second-to-last stdout line is the full record
(environment, parameters, inputs, samples, digests); the last line is the
summary {"correct", "attempted", "failed", "metrics"}.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import signal
import statistics
import subprocess
import sys
import time
from collections import Counter
from dataclasses import dataclass
from pathlib import Path

from workloads import WORKLOADS

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SRC = ROOT / "src"
CACHE = ROOT / ".perfbench_cache"
MIN_OPS = 3
# Seconds perfbench/calibrate.py takes on the reference host (2-vCPU Xeon
# VM at 2.1 GHz, Python 3.11: the 10th percentile over seven minutes).
# Set-up and op times are reported scaled to that speed, which cancels most
# of the host-speed drift of a shared machine.
CAL_REF_S = 0.17


@dataclass
class Op:
    wall_s: float
    cpu_s: float
    peak_rss_mb: float
    codes: list[int]
    digest: str
    nbytes: int


def git_commit(root: Path) -> str | None:
    """HEAD's commit read from .git without running git, or None."""
    git = root / ".git"
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
    return None


def environment() -> dict:
    return {
        "python": platform.python_version(),
        "platform": platform.platform(),
        "nproc": len(os.sched_getaffinity(0)),
        "commit": git_commit(ROOT),
    }


def run_timed(cmd: list[str], env: dict, out, err) -> tuple[int, float, float, float]:
    """Run `cmd` to completion; (exit code, wall s, user+sys cpu s, peak MB)."""
    start = time.perf_counter()
    proc = subprocess.Popen(cmd, stdout=out, stderr=err, env=env, cwd=ROOT)
    try:
        _, status, usage = os.wait4(proc.pid, 0)
    except BaseException:
        proc.kill()
        proc.wait()
        raise
    wall = time.perf_counter() - start
    proc.returncode = os.waitstatus_to_exitcode(status)
    return (proc.returncode, wall, usage.ru_utime + usage.ru_stime,
            usage.ru_maxrss / 1024)


def run_op(argvs: list[list[str]], env: dict, out_path: Path,
           err_path: Path) -> tuple[Op, list[bytes]]:
    op = Op(0.0, 0.0, 0.0, [], "", 0)
    digest = hashlib.sha256()
    outputs = []
    for argv in argvs:
        with open(out_path, "wb") as out, open(err_path, "wb") as err:
            code, wall, cpu, rss = run_timed(
                [sys.executable, "-m", "linematch", *argv], env, out, err)
        op.wall_s += wall
        op.cpu_s += cpu
        op.peak_rss_mb = max(op.peak_rss_mb, rss)
        op.codes.append(code)
        data = out_path.read_bytes()
        digest.update(data)
        op.nbytes += len(data)
        outputs.append(data)
        if code:
            tail = err_path.read_text(errors="replace")[-500:]
            print(f"linematch {' '.join(argv)} exited {code}: {tail}",
                  file=sys.stderr)
    op.digest = digest.hexdigest()
    return op, outputs


def import_seconds(env: dict) -> float:
    """Wall seconds for a fresh interpreter to import linematch.cli."""
    code, wall, _, _ = run_timed([sys.executable, "-c", "import linematch.cli"],
                                 env, subprocess.DEVNULL, None)
    if code:
        raise SystemExit(f"importing linematch.cli exited {code}")
    return wall


def calibration(env: dict) -> tuple[float, float]:
    """(wall s, cpu s) of the fixed reference program perfbench/calibrate.py."""
    code, wall, cpu, _ = run_timed([sys.executable, str(HERE / "calibrate.py")],
                                   env, subprocess.DEVNULL, None)
    if code:
        raise SystemExit(f"calibration exited {code}")
    return wall, cpu


def at_reference_speed(values: list[float], cal: list[float]) -> list[float]:
    """Scale sample i by CAL_REF_S over the mean of the calibrations that
    bracket it (cal[i] just before, cal[i + 1] just after)."""
    return [v * 2 * CAL_REF_S / (cal[i] + cal[i + 1]) for i, v in enumerate(values)]


def median_entry(values: list[float], unit: str) -> dict:
    return {"value": statistics.median(values), "unit": unit, "n": len(values)}


def measure(workload, prepared, seconds: float, env: dict, scratch: Path):
    """Untraced closed loop: end-to-end metrics, verdicts and op records."""
    out_path, err_path = scratch.with_suffix(".out"), scratch.with_suffix(".err")
    import_seconds(env)  # warm-up: byte-compiles the package once
    setup: list[float] = []
    cal: list[tuple[float, float]] = []
    ops: list[Op] = []
    verdicts: dict[str, list[str]] = {}
    start = time.perf_counter()
    while len(ops) < MIN_OPS or time.perf_counter() - start < seconds:
        cal.append(calibration(env))
        setup.append(import_seconds(env))
        op, outputs = run_op(prepared.argvs, env, out_path, err_path)
        ops.append(op)
        if op.digest not in verdicts:
            verdicts[op.digest] = (workload.check(prepared, outputs)
                                   if not any(op.codes) else [f"exit codes {op.codes}"])
    cal.append(calibration(env))
    cal_wall = [wall for wall, _ in cal]
    samples = {
        "setup_raw_s": setup,
        "op_s": [o.wall_s for o in ops],
        "op_cpu_s": [o.cpu_s for o in ops],
        "peak_rss_mb": [o.peak_rss_mb for o in ops],
        "stdout_sha256": [o.digest for o in ops],
        "stdout_bytes": [o.nbytes for o in ops],
        "calibration_s": cal_wall,
        "calibration_cpu_s": [cpu for _, cpu in cal],
    }
    samples["setup_s"] = at_reference_speed(setup, cal_wall)
    samples["op_ref_s"] = at_reference_speed(samples["op_s"], cal_wall)
    samples["op_cpu_ref_s"] = at_reference_speed(samples["op_cpu_s"],
                                                 samples["calibration_cpu_s"])
    metrics = {name: median_entry(samples[name], unit) for name, unit in (
        ("setup_s", "s"), ("op_ref_s", "s"), ("op_cpu_ref_s", "s"),
        ("peak_rss_mb", "MB"), ("setup_raw_s", "s"), ("op_s", "s"),
        ("op_cpu_s", "s"), ("calibration_s", "s"))}
    metrics["op_s_p50"] = metrics.pop("op_s")
    outputs = Counter((o.digest, o.nbytes) for o in ops)
    return metrics, samples, outputs, verdicts


def measure_traced(workload, prepared, seconds: float, env: dict, scratch: Path):
    """Traced in-process child: per-layer metrics, verdicts and op records."""
    out_path = scratch.with_suffix(".out")
    proc = subprocess.run(
        [sys.executable, str(HERE / "trace.py"), "--out", str(out_path),
         "--seconds", str(seconds), "--argvs", json.dumps(prepared.argvs)],
        env=env, cwd=ROOT, stdout=subprocess.PIPE, text=True, check=False)
    if proc.returncode:
        raise SystemExit(f"traced run exited {proc.returncode}")
    child = json.loads(proc.stdout.strip().splitlines()[-1])
    outputs = [Path(f"{out_path}.{i}").read_bytes()
               for i in range(len(prepared.argvs))]
    digest = hashlib.sha256(b"".join(outputs)).hexdigest()
    verdicts = {digest: workload.check(prepared, outputs)}
    metrics = {name: {"value": value} for name, value in child["layers"].items()}
    overhead = (statistics.median(child["traced_s"])
                - statistics.median(child["untraced_s"]))
    metrics["trace_overhead_s"] = {"value": overhead}
    samples = {"traced_s": child["traced_s"], "untraced_s": child["untraced_s"]}
    outputs = Counter({(d, n): c for d, n, c in child["digests"]})
    return metrics, samples, outputs, verdicts


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    args = parser.parse_args()
    # turn SIGTERM into SystemExit so a running CLI child is killed and reaped
    signal.signal(signal.SIGTERM, lambda signum, frame: sys.exit(128 + signum))

    if not (SRC / "linematch" / "cli.py").is_file():
        print(f"error: no linematch sources under {SRC}", file=sys.stderr)
        return 2
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]

    workload = WORKLOADS[args.workload]
    CACHE.mkdir(exist_ok=True)
    env = dict(os.environ, PYTHONPATH=str(SRC))
    scratch = CACHE / f"run-{os.getpid()}"
    prepared = workload.prepare(CACHE, args.seed)
    try:
        run = measure_traced if args.trace else measure
        metrics, samples, outputs, verdicts = run(
            workload, prepared, args.seconds, env, scratch)
    finally:
        for leftover in CACHE.glob(f"{scratch.name}.*"):
            leftover.unlink()

    reference = outputs.most_common(1)[0][0][0]
    attempted = sum(outputs.values())
    failed = sum(count for (digest, _), count in outputs.items()
                 if digest != reference or verdicts.get(digest, ["not checked"]))
    missing = [m["name"] for m in wanted if m["name"] not in metrics]
    if missing:
        raise SystemExit(f"metrics not measured: {missing}")
    for m in wanted:
        metrics[m["name"]]["unit"] = m["unit"]
    record = {
        "workload": workload.name,
        "why": workload.why,
        "seed": args.seed,
        "trace": args.trace,
        "seconds": args.seconds,
        "environment": environment(),
        "params": workload.params(args.seed),
        "inputs": prepared.inputs,
        "metrics": {**metrics, "error_rate": {
            "value": failed / attempted, "unit": "ratio", "n": attempted}},
        "samples": samples,
        "outputs": [{"sha256": d, "bytes": n, "ops": c,
                     "errors": verdicts.get(d, ["not checked"])}
                    for (d, n), c in outputs.items()],
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": failed == 0,
        "attempted": attempted,
        "failed": failed,
        "metrics": {m["name"]: {"value": metrics[m["name"]]["value"],
                                "unit": m["unit"]} for m in wanted},
    }))
    return 0


if __name__ == "__main__":
    raise SystemExit(main())
