#!/usr/bin/env python3
"""copulamix benchmark: one workload, closed loop, in one process.

    python3 perfbench/run.py --workload study_long --seed 1 --seconds 50 --trace 0

The checkout is the directory above this one: the benchmark imports copulamix
from its ``src/`` and reads ``configs/table4.json`` and ``BENCHMARK.json``.
Each operation starts when the previous one returns.  The workload's
operations run in rounds while the next round, at the pace so far, ends
within ``--seconds`` (at least two rounds), and every output is checked after
its round.

With ``--trace 0`` the result carries the end-to-end metrics, taken without
tracing.  With ``--trace 1`` untraced and traced rounds alternate
and the result carries the per-layer metrics of the traced rounds.  The
second-to-last line of standard output is the run record (environment, rounds,
failures); the last line is the result.  Exits 2 without a result when the
directory above holds no copulamix checkout.
"""

from __future__ import annotations

import argparse
import ctypes
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from dataclasses import dataclass, field
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
CONFIG = ROOT / "configs" / "table4.json"
SPEC = ROOT / "BENCHMARK.json"
PROBE = Path(__file__).with_name("setup_probe.py")
WORKLOADS = ("study_long", "study_short", "mixing")
SETUP_SAMPLES = 5
MIN_ROUNDS = 2


@dataclass
class Round:
    traced: bool
    wall: float = 0.0
    cpu: float = 0.0
    op_seconds: list = field(default_factory=list)
    errors: list = field(default_factory=list)  # per op: exception type and message, or None
    problems: list = field(default_factory=list)  # per op: failed checks
    digests: list = field(default_factory=list)
    layers: dict = field(default_factory=dict)  # traced rounds: per-layer values
    counts: dict = field(default_factory=dict)  # traced rounds: counts that must repeat

    def failed(self, i: int) -> bool:
        return self.errors[i] is not None or bool(self.problems[i])


def cap_blas_threads() -> None:
    """Keep OpenBLAS at or below the cores this process may use; set before numpy loads."""
    cores = len(os.sched_getaffinity(0))
    current = os.environ.get("OPENBLAS_NUM_THREADS", "")
    if not current.isdigit() or not 1 <= int(current) <= cores:
        os.environ["OPENBLAS_NUM_THREADS"] = str(cores)


def openblas_threads() -> dict:
    """Thread count of every OpenBLAS this process has loaded."""
    found = {}
    with open("/proc/self/maps") as fh:
        libs = sorted({line.split()[-1] for line in fh if "openblas" in line.lower()})
    for lib in libs:
        handle = ctypes.CDLL(lib)
        for symbol in ("scipy_openblas_get_num_threads64_", "scipy_openblas_get_num_threads",
                       "openblas_get_num_threads64_", "openblas_get_num_threads"):
            fn = getattr(handle, symbol, None)
            if fn is not None:
                fn.restype = ctypes.c_int
                found[Path(lib).name] = fn()
                break
    return found


def environment() -> dict:
    import numpy
    import scipy

    model = platform.processor()
    with open("/proc/cpuinfo") as fh:
        for line in fh:
            if line.startswith("model name"):
                model = line.split(":", 1)[1].strip()
                break
    return {
        "nproc": os.cpu_count(),
        "cores_available": len(os.sched_getaffinity(0)),
        "cpu_model": model,
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "scipy": scipy.__version__,
        "openblas_threads": openblas_threads(),
        "OPENBLAS_NUM_THREADS": os.environ["OPENBLAS_NUM_THREADS"],
    }


def setup_seconds(workload: str) -> float:
    done = subprocess.run([sys.executable, str(PROBE), workload], cwd=ROOT,
                          capture_output=True, text=True, timeout=120, check=True)
    return float(done.stdout.split()[-1])


def run_round(ops, traced: bool, tracer=None, capture=None) -> Round:
    """Run every operation once, back to back, then check the outputs.

    With ``capture``, the batch row of each operation's ``sample_row`` is
    kept and compared with ``sample_chain``.
    """
    from copulamix import quadrature

    import workloads

    rnd = Round(traced)
    outputs = []
    rows = {}
    if tracer is not None:
        tracer.reset()
        cache0 = quadrature.unit_rule.cache_info()
        tracer.install()
    cpu0, start = time.process_time(), time.perf_counter()
    try:
        for i, op in enumerate(ops):
            if capture is not None:
                capture.start(op.sample_row)
            t0 = time.perf_counter()
            try:
                out, err = op.call(), None
            except Exception as exc:  # a failed operation is recorded; the run goes on
                out, err = None, f"{type(exc).__name__}: {exc}"
            rnd.op_seconds.append(time.perf_counter() - t0)
            outputs.append((out, err))
            if capture is not None and op.sample_row is not None:
                rows[i] = capture.row
    finally:
        rnd.wall, rnd.cpu = time.perf_counter() - start, time.process_time() - cpu0
        if tracer is not None:
            tracer.uninstall()
    if tracer is not None:
        cache1 = quadrature.unit_rule.cache_info()
        rnd.layers = tracer.values(cache1.hits - cache0.hits, cache1.misses - cache0.misses)
        rnd.counts = tracer.repeating_counts()
    for op, (out, err) in zip(ops, outputs):
        rnd.errors.append(err)
        if err is not None:
            rnd.problems.append([])
            rnd.digests.append(err.split(":")[0])
            continue
        try:
            rnd.problems.append(op.check(out))
            rnd.digests.append(op.digest(out))
        except Exception as exc:
            rnd.problems.append([f"{op.label}: check raised {type(exc).__name__}: {exc}"])
            rnd.digests.append(None)
    for i, row in rows.items():
        if rnd.errors[i] is None:
            rnd.problems[i] += workloads.check_row(ops[i], row)
    return rnd


def schedule(trace: bool, seconds: float, rounds: list):
    """Whether the next round is traced, or None once the run has measured enough.

    Untraced runs take at least MIN_ROUNDS rounds; traced runs start with one
    untraced and two traced rounds, then add untraced-traced pairs.  A round
    starts only if, at the pace so far, it ends within ``seconds``.
    """
    elapsed = sum(r.wall for r in rounds)
    if not trace:
        if len(rounds) < MIN_ROUNDS or elapsed + rounds[-1].wall <= seconds:
            return False
        return None
    if len(rounds) < 3:
        return len(rounds) > 0
    if rounds[-1].traced:
        pair = rounds[-2].wall + rounds[-1].wall
        return False if elapsed + pair <= seconds else None
    return True


def measure(ops, trace: bool, seconds: float, step_names: dict, workload: str) -> tuple:
    """Run rounds as scheduled; later rounds must repeat the first one's outputs.

    Untraced runs also time a fresh set-up before every round and after the
    last, so that set-up samples span the same stretch of time as the rounds.
    Returns the rounds and the set-up samples.
    """
    import tracing
    import workloads

    rounds: list = []
    setup: list = []
    while (traced := schedule(trace, seconds, rounds)) is not None:
        if not trace:
            setup.append(setup_seconds(workload))
        tracer = tracing.Tracer(step_names) if traced else None
        if not rounds:
            with workloads.RowCapture() as capture:
                rounds.append(run_round(ops, traced, tracer, capture))
            continue
        rnd = run_round(ops, traced, tracer)
        for i, op in enumerate(ops):
            if rnd.digests[i] != rounds[0].digests[i]:
                rnd.problems[i].append(f"{op.label}: output differs from the first round")
        rounds.append(rnd)
    while not trace and len(setup) < SETUP_SAMPLES:
        setup.append(setup_seconds(workload))
    return rounds, setup


def metrics_of(rounds, setup: list, trace: bool) -> dict:
    untraced = [r for r in rounds if not r.traced]
    if trace:
        traced = [r for r in rounds if r.traced]
        metrics = {name: statistics.fmean(r.layers[name] for r in traced) for name in traced[0].layers}
        metrics["process.peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
        metrics["process.cpu_s"] = statistics.median(r.cpu for r in untraced)
        metrics["trace.overhead_ratio"] = (statistics.median(r.wall for r in traced)
                                           / statistics.median(r.wall for r in untraced))
        return metrics
    return {
        "setup_s": statistics.median(setup),
        "wall_s": statistics.median(r.wall for r in untraced),
    }


def op_medians(rounds) -> dict:
    """Per operation that succeeded in some untraced round: its median time over them."""
    untraced = [r for r in rounds if not r.traced]
    times: dict = {}
    for r in untraced:
        for i, t in enumerate(r.op_seconds):
            if not r.failed(i):
                times.setdefault(i, []).append(t)
    return {i: statistics.median(ts) for i, ts in times.items()}


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description="copulamix benchmark")
    parser.add_argument("--workload", choices=WORKLOADS, required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args(argv)

    if not ((ROOT / "src" / "copulamix" / "__init__.py").is_file() and CONFIG.is_file()
            and SPEC.is_file()):
        print(f"perfbench: {ROOT} is not a copulamix checkout (needs src/copulamix, "
              "configs/table4.json and BENCHMARK.json)", file=sys.stderr)
        return 2
    cap_blas_threads()
    sys.path.insert(0, str(ROOT / "src"))
    import copulamix
    from copulamix.config import load_config

    import workloads

    if Path(copulamix.__file__).resolve().parent != ROOT / "src" / "copulamix":
        print(f"perfbench: imported copulamix from {copulamix.__file__}", file=sys.stderr)
        return 2

    cfg = load_config(CONFIG)
    workloads.warm_up(args.workload, cfg)
    out_dir = ROOT / ".bench_build" / "perfbench" / f"run-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.build(args.workload, args.seed, cfg, out_dir)
        rounds, setup = measure(ops, bool(args.trace), args.seconds, workloads.step_names(cfg),
                                args.workload)
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)

    problems = [p for r in rounds for ps in r.problems for p in ps]
    counts = [r.counts for r in rounds if r.traced]
    if any(c != counts[0] for c in counts):
        problems.append(f"counts differ between traced rounds: {counts}")
    metrics = metrics_of(rounds, setup, bool(args.trace))
    declared = json.loads(SPEC.read_text())["per_layer" if args.trace else "end_to_end"]
    unit_of = {m["name"]: m["unit"] for m in declared}
    if set(unit_of) != set(metrics):
        problems.append(f"metrics {sorted(metrics)} are not the ones BENCHMARK.json declares")
    attempted = len(ops) * len(rounds)
    failed = sum(r.failed(i) for r in rounds for i in range(len(ops)))
    failures = {}
    for r in rounds:
        for op, err, probs in zip(ops, r.errors, r.problems):
            if err is not None or probs:
                failures.setdefault(op.label, err or "check failed")

    op_times = {ops[i].label: t for i, t in op_medians(rounds).items()}
    op_p50 = statistics.median(op_times.values()) if op_times else None
    for name, value in metrics.items():
        print(f"{name:32s} {value:16.6g} {unit_of.get(name, '')}", file=sys.stderr)
    if op_p50 is not None:
        print(f"{'op_p50_s':32s} {op_p50:16.6g} s (median of {len(op_times)} operations' medians)",
              file=sys.stderr)
    print(f"{'failed_ratio':32s} {failed / attempted:16.6g} ({failed} of {attempted} operations)",
          file=sys.stderr)
    for label, err in failures.items():
        print(f"failed: {label}: {err}", file=sys.stderr)
    for problem in problems:
        print(f"problem: {problem}", file=sys.stderr)
    record = {
        "workload": args.workload, "seed": args.seed, "seconds": args.seconds, "trace": args.trace,
        "environment": environment(),
        "setup_samples_s": setup,
        "rounds": [{"traced": r.traced, "wall_s": r.wall, "cpu_s": r.cpu} for r in rounds],
        "operations_per_round": len(ops),
        "op_p50_s": op_p50,
        "op_median_s": op_times,
        "failed_ratio": failed / attempted,
        "failures": failures,
        "problems": problems,
        "counts": counts[0] if counts else None,
    }
    print(json.dumps({"record": record}))
    print(json.dumps({
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit_of.get(name, "?")} for name, value in metrics.items()},
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
