"""Machinery shared by timed parts and traced runs: prepare a loaded
program and run ops through its command-line entry point."""

import io
from contextlib import redirect_stderr, redirect_stdout
from itertools import chain, islice
from time import perf_counter

from checks import Checker
from workloads import LEDGER, argv


def call(cli, op):
    """Run one op through cli.main; (exit code or exception, stdout, seconds)."""
    args = argv(op)
    if op.kind == "audit":
        LEDGER.unlink(missing_ok=True)
    out = io.StringIO()
    start = perf_counter()
    try:
        with redirect_stdout(out), redirect_stderr(io.StringIO()):
            rc = cli.main(args)
    except Exception as exc:  # the op failed; record it and keep measuring
        rc = exc
    return rc, out.getvalue(), perf_counter() - start


def prepare(program: dict, workload, seed: int, strata, start: int = 0):
    """Draw the first block of inputs from op `start` on and run the
    untimed warm-up op.  Returns (op stream, warm-up exit code, its stdout)."""
    stream = workload.ops(seed, strata)
    first = list(islice(stream, start, start + len(strata)))
    rc, out, _ = call(program["cli"], workload.warmup)
    return chain(first, stream), rc, out


class Run:
    """Latencies, failures and output size of the ops run so far."""

    def __init__(self, checker: Checker):
        self.checker = checker
        self.latencies: list[float] = []
        self.failures: list[str] = []
        self.output_bytes = 0

    def do(self, cli, op) -> float:
        rc, out, elapsed = call(cli, op)
        self.latencies.append(elapsed)
        self.output_bytes += len(out.encode())
        if op.kind == "audit" and LEDGER.exists():
            self.output_bytes += LEDGER.stat().st_size
        error = self.checker.check(op, rc, out)
        if error:
            self.failures.append(error)
        return elapsed
