#!/usr/bin/env python3
"""The repository benchmark: one workload per run, every output checked.

    python3 perfbench/run.py --workload figures --seed 1 --seconds 30 --trace 0

Run from the root of a source checkout; the package is imported from
src/ (the active kernel backend of that tree is recorded).  Workloads:
figures, solve-mix, oracle-gate (see workloads.py and BENCHMARK.json).

--trace 0 measures the end-to-end metrics with tracing off.  The first
pass runs every operation once; later passes repeat every operation that
took at most SLOW_FACTOR times the first pass's median.  A run makes
MIN_PASSES passes, and more while the next pass, at the pace of the last
one, ends within --seconds of the first pass's start.  (A pass of figures
or oracle-gate takes 17-25 s on one 2.1 GHz x86-64 vCPU, so those two
measure for two passes whenever --seconds is shorter.)  While it
measures, a host-speed meter times a fixed calibration loop every 20 ms
(see hostspeed.py), and every run of an operation is also stated at the
reference host speed.  An operation's latency is the median of its runs.
The gated latency, op_ms_gmean_norm, is the geometric mean over the
operations of their median runs at the reference host speed, so every
operation counts in proportion to its own change and the drift of a
shared host's speed cancels out.  The same mean of the times as measured
(op_ms_gmean), and their percentiles, are reported beside it.  Set-up
time is the median over SETUP_PROBES fresh processes, from process start
until the first operation is ready, each at the reference host speed
measured inside that process.

--trace 1 runs every operation untraced, traced and untraced again and
reports the per-layer metrics of the traced runs (see tracer.py); the
traced outputs must equal the untraced ones, and the span counts must add
up.

Human-readable results go to stdout, the full record (with its stamp) to
.bench_out/, and the last stdout line is one JSON object:
{"correct", "attempted", "failed", "metrics"}.  attempted and failed count
operations, not runs of them, so they depend on the seed alone.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path

import hostspeed

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"

SETUP_PROBES = 5
SLOW_FACTOR = 10.0
MIN_PASSES = 2

END_TO_END_UNITS = {
    "setup_s": "s",
    "ok_frac": "frac",
    "peak_rss_mb": "MB",
    "op_ms_gmean_norm": "ms",
}

PER_LAYER_UNITS = {
    "specfun.recip_gamma_log.calls": "count",
    "specfun.recip_gamma_log.self_s": "s",
    "models.char.calls": "count",
    "models.char.self_s": "s",
    "models.char.us_per_eval": "us",
    "models.char.other_evals": "count",
    "rootfind.solve.calls": "count",
    "rootfind.solve.s": "s",
    "rootfind.errors": "count",
    "rootfind.levels": "count",
    "rootfind.scan.calls": "count",
    "rootfind.scan.self_s": "s",
    "rootfind.scan.evals": "count",
    "rootfind.scan.rescans": "count",
    "rootfind.refine.calls": "count",
    "rootfind.refine.self_s": "s",
    "rootfind.refine.evals": "count",
    "rootfind.evals_per_level": "evals/level",
    "sweep.sweep_levels.s": "s",
    "sweep.points": "count",
    "sweep.point_ms_p50": "ms",
    "sweep.detect.self_s": "s",
    "sweep.golden_probes": "count",
    "sweep.gap_fallbacks": "count",
    "sweep.crossings": "count",
    "oracle.oracle_levels.calls": "count",
    "oracle.oracle_levels.self_s": "s",
    "oracle.eig.calls": "count",
    "oracle.eig.self_s": "s",
    "oracle.eig.grid_points": "count",
    "oracle.regrowths": "count",
    "kernels.sturm.calls": "count",
    "kernels.sturm.shifts": "count",
    "kernels.sturm.shift_points": "count",
    "kernels.sturm.s": "s",
    "kernels.sturm.ns_per_shift_point": "ns",
    "kernels.sturm.bytes_computed": "B",
    "oracle.wronskian.calls": "count",
    "oracle.wronskian.self_s": "s",
    "kernels.rk4.calls": "count",
    "kernels.rk4.nodes": "count",
    "kernels.rk4.s": "s",
    "kernels.rk4.ns_per_node": "ns",
    "cli.main.s": "s",
    "cli.self_s": "s",
    "trace.overhead_frac": "frac",
    "trace.traced_s": "s",
    "trace.untraced_s": "s",
}


def parse_args(argv: list[str]) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, default=30.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if not args.seconds > 0:
        parser.error("--seconds must be positive")
    return args


def import_program():
    """Put src/ first on the path and import the program and workloads."""
    if not (SRC / "dwcross" / "__init__.py").is_file():
        raise SystemExit(f"error: no program source at {SRC / 'dwcross'}")
    # One thread: numeric libraries must not start worker pools.
    for var in ("OMP_NUM_THREADS", "OPENBLAS_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ[var] = "1"
    sys.path.insert(0, str(SRC))
    import workloads

    return workloads


def setup_probe(args: argparse.Namespace) -> None:
    """Child of measure_setup: get ready for the first operation, then
    report the seconds the meter's ticks took and its host-speed factor."""
    with hostspeed.HostMeter() as meter:
        start = time.perf_counter()
        workloads = import_program()
        workloads.WORKLOADS[args.workload](args.seed, OUT / "probe")
        end = time.perf_counter()
    print("ready", meter.spent(start, end), meter.factor(start, end), flush=True)


def measure_setup(args: argparse.Namespace) -> tuple[list[float], list[float]]:
    """Set-up seconds of SETUP_PROBES fresh processes, as measured and at
    the reference host speed."""
    times, scaled = [], []
    cmd = [
        sys.executable, str(Path(__file__).resolve()), "--workload", args.workload,
        "--seed", str(args.seed), "--setup-probe",
    ]
    for _ in range(SETUP_PROBES):
        start = time.perf_counter()
        with subprocess.Popen(cmd, stdout=subprocess.PIPE, text=True, cwd=ROOT) as proc:
            line = proc.stdout.readline().split()
            ready = time.perf_counter()
            proc.stdout.read()
        if proc.returncode != 0 or len(line) != 3 or line[0] != "ready":
            raise RuntimeError(f"set-up probe failed (exit {proc.returncode}, said {line!r})")
        own = ready - start - float(line[1])
        times.append(own)
        scaled.append(own * float(line[2]))
    return times, scaled


def run_op(workloads, op) -> tuple[float, float, object]:
    """(start, end, output) of one run of op."""
    start = time.perf_counter()
    try:
        output = op.run()
    except Exception as exc:  # an operation that raises counts as failed
        output = workloads.Raised(type(exc).__name__, str(exc))
    return start, time.perf_counter(), output


def measure(workloads, ops, seconds: float):
    """Closed loop: a full first pass, then more passes over the operations
    that are not slow outliers: up to MIN_PASSES in all, then while the
    next one fits in `seconds`.

    Returns, per operation, the seconds of each run as measured (less the
    meter's ticks inside it), the same at the reference host speed, and
    the outputs."""
    spans: list[list[tuple[float, float]]] = [[] for _ in ops]
    outputs: list[list[object]] = [[] for _ in ops]

    def run(i: int) -> float:
        start, end, output = run_op(workloads, ops[i])
        spans[i].append((start, end))
        outputs[i].append(output)
        return end - start

    with hostspeed.HostMeter() as meter:
        start = time.perf_counter()
        first = [run(i) for i in range(len(ops))]
        limit = SLOW_FACTOR * statistics.median(first)
        repeat = [i for i, t in enumerate(first) if t <= limit]
        passes, pass_s = 1, sum(first[i] for i in repeat)
        while repeat and (
            passes < MIN_PASSES or time.perf_counter() - start + pass_s <= seconds
        ):
            pass_start = time.perf_counter()
            for i in repeat:
                run(i)
            passes, pass_s = passes + 1, time.perf_counter() - pass_start

    samples = [[e - s - meter.spent(s, e) for s, e in row] for row in spans]
    scaled = [
        [t * meter.factor(s, e) for t, (s, e) in zip(times, row)]
        for times, row in zip(samples, spans)
    ]
    return samples, scaled, outputs


def check_outputs(ops, outputs) -> tuple[list[list[str | None]], list[str]]:
    """Verdict of every execution (None = correct), and inconsistencies:
    an operation whose repeated runs gave different outputs."""
    verdicts, problems = [], []
    for op, outs in zip(ops, outputs):
        cache: dict[str, str | None] = {}
        row = []
        for out in outs:
            key = repr(out)
            if key not in cache:
                cache[key] = op.check(out)
            row.append(cache[key])
        if len(cache) > 1:
            problems.append(f"{op.kind} {op.label}: {len(cache)} different outputs across runs")
        verdicts.append(row)
    return verdicts, problems


def src_digest() -> str:
    digest = hashlib.sha256()
    for path in sorted((SRC / "dwcross").rglob("*")):
        if path.is_file() and "__pycache__" not in path.parts:
            digest.update(str(path.relative_to(SRC)).encode())
            digest.update(path.read_bytes())
    return digest.hexdigest()[:16]


def git_revision() -> str | None:
    if not (ROOT / ".git").exists():
        return None
    try:
        done = subprocess.run(
            ["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True, text=True, check=True
        )
    except (OSError, subprocess.CalledProcessError):
        return None
    return done.stdout.strip()


def stamp(args: argparse.Namespace, workloads) -> dict:
    import dwcross
    import numpy

    out = {
        "workload": args.workload,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "git_revision": git_revision(),
        "src_sha256_16": src_digest(),
        "python": platform.python_version(),
        "numpy": numpy.__version__,
        "kernel_backend": dwcross.kernel_backend,
        "nproc": os.cpu_count(),
        "machine": platform.machine(),
    }
    if args.workload == "solve-mix":
        out.update(workloads.deck_shares(args.seed))
    return out


def count_failures(verdicts) -> tuple[int, int]:
    """(operations attempted, operations failed).  An operation fails when
    any of its runs fails its check.  Both counts depend on the seed alone,
    not on how many runs of each operation fit in the measured time."""
    failed = sum(any(v is not None for v in row) for row in verdicts)
    return len(verdicts), failed


# Summary names of the per-pass totals of each kind of operation.
PASS_TOTALS = {"detect": "figures_s", "compare": "compare_s", "certify": "certify_s"}


def summarize(ops, samples, scaled, verdicts) -> tuple[dict, dict]:
    """End-to-end metrics over each operation's median run, and the
    human-readable totals behind them."""
    typical = [statistics.median(s) for s in samples]
    percentiles = statistics.quantiles(typical, n=100, method="inclusive")
    attempted, failed = count_failures(verdicts)
    metrics = {
        "ok_frac": 1.0 - failed / attempted,
        "peak_rss_mb": resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0,
        "op_ms_gmean_norm": 1e3 * statistics.geometric_mean(
            statistics.median(s) for s in scaled
        ),
    }
    # The measured times are reported, not gated: on a shared host their
    # run-to-run spread exceeds any bound the benchmark may set, and the
    # quantiles' more so (a median of an even number of operations ignores
    # all but two of them).
    human: dict = {
        "passes": max(len(s) for s in samples),
        "op_ms_gmean": 1e3 * statistics.geometric_mean(typical),
        "host_slowdown": statistics.median(
            n / r for s, c in zip(samples, scaled) for n, r in zip(s, c)
        ),
        "op_ms_p50": 1e3 * statistics.median(typical),
        "op_ms_p90": 1e3 * percentiles[89],
        "op_ms_p95": 1e3 * percentiles[94],
        "percentile_samples": len(typical),
    }
    if len(ops) <= 16:
        human["runs_per_op"] = [len(s) for s in samples]
        human["median_s"] = {f"{op.kind}:{op.label}": t for op, t in zip(ops, typical)}
    for kind, name in PASS_TOTALS.items():
        if any(op.kind == kind for op in ops):
            human[name] = sum(t for op, t in zip(ops, typical) if op.kind == kind)
    if any(op.kind == "solve" for op in ops):
        runs = [t for s in samples for t in s]
        human["solves_per_s"] = len(runs) / sum(runs)
    return metrics, human


def traced_run(workloads, ops):
    """Per-layer metrics, the [untraced, traced, untraced] outputs of every
    operation, the self-check failures, and the tracer holding the spans.

    Each operation runs untraced, traced and untraced again, so the
    tracing overhead compares runs made moments apart, and the first run
    absorbs any warm-up."""
    from tracer import Tracer

    tracer = Tracer()
    outputs, untraced_s, traced_s, problems = [], 0.0, 0.0, []
    for i, op in enumerate(ops):
        start, end, plain = run_op(workloads, op)
        before = end - start
        tracer.op_id = i
        tracer.install()
        try:
            start, end, traced = run_op(workloads, op)
        finally:
            tracer.uninstall()
        traced_s += end - start
        start, end, again = run_op(workloads, op)
        untraced_s += min(before, end - start)
        outputs.append([plain, traced, again])
        if repr(traced) != repr(plain):
            problems.append(f"{op.kind} {op.label}: traced output differs from untraced output")

    metrics, more = tracer.per_layer()
    metrics["trace.untraced_s"] = untraced_s
    metrics["trace.traced_s"] = traced_s
    metrics["trace.overhead_frac"] = traced_s / untraced_s - 1.0
    return metrics, outputs, problems + more, tracer


def main(argv: list[str]) -> int:
    args = parse_args(argv)
    if args.setup_probe:
        setup_probe(args)
        return 0
    workloads = import_program()
    if args.workload not in workloads.WORKLOADS:
        raise SystemExit(
            f"error: unknown workload {args.workload!r} "
            f"(expected one of {', '.join(workloads.WORKLOADS)})"
        )
    workdir = OUT / f"work-{os.getpid()}"
    workdir.mkdir(parents=True, exist_ok=True)
    try:
        ops = workloads.WORKLOADS[args.workload](args.seed, workdir)
        if args.trace:
            metrics, outputs, problems, tracer = traced_run(workloads, ops)
            verdicts, more = check_outputs(ops, outputs)
            problems += more
            human = {}
            units = PER_LAYER_UNITS
            tracer.write(OUT / f"spans-{args.workload}.npz")
        else:
            setup, setup_scaled = measure_setup(args)
            samples, scaled, outputs = measure(workloads, ops, args.seconds)
            verdicts, problems = check_outputs(ops, outputs)
            metrics, human = summarize(ops, samples, scaled, verdicts)
            metrics["setup_s"] = statistics.median(setup_scaled)
            human["setup_samples_s"] = setup
            human["setup_samples_s_at_reference"] = setup_scaled
            units = END_TO_END_UNITS
    finally:
        shutil.rmtree(workdir, ignore_errors=True)

    attempted, failed = count_failures(verdicts)
    human = {
        "operations": attempted,
        "failed_operations": failed,
        "fail_frac": failed / attempted,
        "executions": sum(len(row) for row in verdicts),
        "failed_executions": sum(v is not None for row in verdicts for v in row),
        **human,
    }
    reasons = sorted({v for row in verdicts for v in row if v is not None})
    record = {
        "stamp": stamp(args, workloads),
        "correct": not problems,
        "problems": problems,
        "attempted": attempted,
        "failed": failed,
        "summary": human,
        "metrics": {k: {"value": metrics[k], "unit": u} for k, u in units.items()},
        "failure_reasons": reasons,
    }
    OUT.mkdir(exist_ok=True)
    path = OUT / f"result-{args.workload}-seed{args.seed}-trace{args.trace}.json"
    path.write_text(json.dumps(record, indent=1) + "\n", encoding="utf-8")

    print(f"# {args.workload} seed={args.seed} trace={args.trace} -> {path.relative_to(ROOT)}")
    for key, value in record["stamp"].items():
        print(f"stamp.{key} = {value}")
    for key, value in human.items():
        print(f"summary.{key} = {value}")
    for key, entry in record["metrics"].items():
        print(f"{key} = {entry['value']:.6g} {entry['unit']}")
    for reason in reasons:
        print(f"failed: {reason}")
    for problem in problems:
        print(f"problem: {problem}")
    print(json.dumps({
        "correct": record["correct"],
        "attempted": attempted,
        "failed": failed,
        "metrics": record["metrics"],
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
