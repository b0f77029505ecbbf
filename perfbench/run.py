"""fermatsieve benchmark: one seeded workload per invocation.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1

Run from the repository root.  Every op goes through the user-facing entry
point, ``fermatsieve.cli.main(argv)``, called in-process with stdout
captured; each result is checked against the benchmark's own trial-division
oracle after the op's timer stops.  The loop is closed with one client: the
next op starts when the previous one returns.

--trace 0 splits S seconds of op time into PARTS parts, each a fresh
process (part.py) that sets up and then runs the next stretch of the same
seeded op stream; the parts pool their ops.  Each op's time is scaled to a
nominal host speed by a reference timed around it (reference.py), because
the shared machines this runs on change speed in steps of up to half that
last from seconds to minutes.  Throughput is ops over the pooled scaled op
time and the latency percentiles are over the pooled scaled ops.  setup_s
is the median of the parts' scaled set-up times (from the part's start to
its first timed op: the program's cold import, drawing the first block of
inputs and one untimed warm-up op; see part.py).  The report line gives
these four unscaled too, and the median host factor.  peak_rss_mb is the
largest peak RSS of any part.  The report line also gives
the largest RSS a part held before its warm-up op, so that the share of
peak_rss_mb the ops add shows.

--trace 1 runs, in this process, each op of a fixed prefix of the stream
once untraced and once traced (see tracing.py) and reports the per-layer
metrics, the tracing overhead, and ``arith.is_perfect_square.ns_per_call``
from a separate micro-run; the spans go to perfbench/out/.

stdout: a report line (all end-to-end metrics including error_rate, op
count, input digest and property shares, machine metadata), then the result
line: correct, attempted, failed and the metrics BENCHMARK.json names.
"""

import argparse
import hashlib
import json
import math
import os
import platform
import statistics
import subprocess
import sys
from collections import Counter
from itertools import islice
from pathlib import Path
from time import perf_counter

from checks import Checker, shares
from harness import Run, prepare
from loader import load_program, use_sources
from oracle import Oracle
from reference import REF_NOMINAL_S
from tracing import LAYER_METRICS, Tracer, discriminant_sample, square_test_ns
from workloads import OUT_DIR, WORKLOADS

STARTED = perf_counter()

HERE = Path(__file__).resolve().parent
PARTS = 8
MIN_OPS = 100  # so that at least ten latencies lie beyond p90
HARD_STOP_S = 150.0  # start no part or op this long after start, whatever MIN_OPS says
TRACE_BLOCKS_PER_S = 0.2  # traced-run length: whole blocks per --seconds

END_TO_END = {
    "throughput_ops_s": "ops/s",
    "latency_p50_ms": "ms",
    "latency_p90_ms": "ms",
    "setup_s": "s",
    "peak_rss_mb": "MiB",
}


class PartFailed(Exception):
    pass


def timed(workload, seed: int, seconds: int) -> dict:
    """Run the parts one after another and pool what they measured."""
    listed = ("latencies", "scaled", "refs", "failures", "warmup_errors", "setups",
              "scaled_setups", "log2_balance")
    pooled = {key: [] for key in listed}
    pooled.update(props=Counter(), before_warmup_rss_kib=0, peak_rss_kib=0)
    for _ in range(PARTS):
        left = HARD_STOP_S - (perf_counter() - STARTED)
        if left <= 0:
            break
        command = [
            sys.executable, str(HERE / "part.py"), "--workload", workload.name,
            "--seed", str(seed), "--start", str(len(pooled["latencies"])),
            "--seconds", repr(seconds / PARTS), "--min-ops", str(math.ceil(MIN_OPS / PARTS)),
            "--deadline", repr(left),
        ]
        proc = subprocess.run(command, capture_output=True, text=True, timeout=left + 25)
        lines = proc.stdout.splitlines()
        if proc.returncode != 0 or not lines:
            raise PartFailed(f"part exited {proc.returncode}: {proc.stderr[-2000:]}")
        part = json.loads(lines[-1])
        for key in listed:
            pooled[key] += part[key]
        pooled["props"].update(part["props"])
        for key in ("before_warmup_rss_kib", "peak_rss_kib"):
            pooled[key] = max(pooled[key], part[key])
    return pooled


def latency_metrics(latencies: list[float]) -> dict:
    return {
        "throughput_ops_s": len(latencies) / sum(latencies),
        "latency_p50_ms": statistics.median(latencies) * 1e3,
        "latency_p90_ms": statistics.quantiles(latencies, n=10, method="inclusive")[8] * 1e3,
    }


def digest(ops) -> str:
    """Hash of the ops' inputs, so that runs can be matched."""
    h = hashlib.sha256()
    for op in ops:
        h.update(repr(op).encode() + b"\n")
    return h.hexdigest()


def traced(program, ops, run: Run, oracle: Oracle, seed: int, out_path: Path) -> dict:
    """Run each op untraced and traced, alternating which goes first so
    that warm-up effects cancel out of the overhead."""
    tracer = Tracer(program)
    untraced_s = traced_s = 0.0
    for i, op in enumerate(ops):
        if perf_counter() - STARTED >= HARD_STOP_S:
            break
        for traced_side in (False, True) if i % 2 == 0 else (True, False):
            if not traced_side:
                untraced_s += run.do(program["cli"], op)
                continue
            bytes_before = run.output_bytes
            with tracer.tracing(i):
                traced_s += run.do(program["cli"], op)
            tracer.counts["output_bytes"] += run.output_bytes - bytes_before
    tracer.write(out_path)
    sample = discriminant_sample(ops, oracle, seed)
    metrics = tracer.layer_metrics(square_test_ns(program["arith"].is_perfect_square, sample))
    metrics["trace.ops"] = len(ops)
    metrics["trace.overhead_s"] = traced_s - untraced_s
    metrics["trace.overhead_share"] = (traced_s - untraced_s) / untraced_s
    return metrics


def machine() -> dict:
    return {
        "nproc": os.cpu_count(),
        "cpus_usable": len(os.sched_getaffinity(0)),
        "python": platform.python_version(),
        "implementation": platform.python_implementation(),
        "platform": platform.platform(),
    }


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=int, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = parser.parse_args()
    if args.seconds < 1:
        parser.error("--seconds must be >= 1")
    if not use_sources():
        print("error: no fermatsieve sources under src/", file=sys.stderr)
        return 2
    OUT_DIR.mkdir(exist_ok=True)

    workload = WORKLOADS[args.workload]
    oracle = Oracle()
    strata = workload.strata(oracle)

    if args.trace:
        program = load_program()
        ops, rc, out = prepare(program, workload, args.seed, strata)
        warmup_error = Checker(oracle).check(workload.warmup, rc, out)
        blocks = max(1, round(TRACE_BLOCKS_PER_S * args.seconds))
        prefix = list(islice(ops, blocks * len(strata)))
        run = Run(Checker(oracle))
        out_path = OUT_DIR / f"trace-{workload.name}-seed{args.seed}.json"
        metrics = traced(program, prefix, run, oracle, args.seed, out_path)
        units = LAYER_METRICS
        measured = {
            "latencies": run.latencies, "failures": run.failures,
            "warmup_errors": [warmup_error] if warmup_error else [],
            "props": run.checker.props, "log2_balance": run.checker.log2_balance,
        }
        inputs = prefix
        notes = {}
    else:
        try:
            measured = timed(workload, args.seed, args.seconds)
        except (PartFailed, subprocess.TimeoutExpired, ValueError) as exc:
            print(f"error: {exc}", file=sys.stderr)
            return 1
        metrics = {
            **latency_metrics(measured["scaled"]),
            "setup_s": statistics.median(measured["scaled_setups"]),
            "peak_rss_mb": measured["peak_rss_kib"] / 1024,
        }
        units = END_TO_END
        inputs = islice(workload.ops(args.seed, strata), len(measured["latencies"]))
        notes = {
            "unscaled": {
                **latency_metrics(measured["latencies"]),
                "setup_s": statistics.median(measured["setups"]),
            },
            "host_factor": statistics.median(measured["refs"]) / REF_NOMINAL_S,
            "setup_runs_s": measured["setups"],
            "before_warmup_rss_mb": measured["before_warmup_rss_kib"] / 1024,
        }

    attempted = len(measured["latencies"])
    failed = len(measured["failures"])
    warmup_errors = measured["warmup_errors"]
    result = {
        "correct": failed == 0 and not warmup_errors,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": metrics[name], "unit": unit} for name, unit in units.items()},
    }
    report = {
        "workload": workload.name,
        "seed": args.seed,
        "seconds": args.seconds,
        "trace": args.trace,
        "ops": attempted,
        "metrics": {**result["metrics"], "error_rate": {"value": failed / attempted, "unit": "fraction"}},
        **notes,
        "inputs": {"digest": digest(inputs), **shares(measured["props"], measured["log2_balance"])},
        "failures": [f"warm-up: {e}" for e in warmup_errors[:1]] + measured["failures"][:5],
        "machine": machine(),
    }
    print(json.dumps(report, sort_keys=True))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
