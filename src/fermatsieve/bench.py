"""Candidate-count and wall-time comparison of factoring strategies.

Each strategy times one call: a trial-division loop, fermat_factor, or
for the QuadInterval strategies sieve_enumerate, the paper's scan up to
its first witness: QuadInterval with no filter primes, and
QuadIntervalQRFiltered with the QR classes of the odd primes up to 97.
factor runs neither scan (quadform.factor_pairs).
Candidate counts are exact and deterministic, and come from the last
timed call: from its result, or for the QuadInterval strategies from the
count record that the call's own scan fills (arith.square_centers); wall
times are median-of-k on a monotonic clock and are reported, never
asserted.  A candidate is whatever a strategy pays for: a trial divisor,
a center of the plain scan up to its hit or its budget, or a sieve index
that survives the residue filters and the square screens and so reaches
the exact square test, up to the first pair.  The paper's heuristic skips
are no strategy: they prune no scan, and factor --heuristic-filters
drops their pairs from its sound answer (quadform.heuristic_pairs).
"""

import enum
import statistics
import time
from typing import NamedTuple

from . import arith, fermat_generic, quadform

__all__ = ["Strategy", "BenchRow", "run_bench"]


class Strategy(str, enum.Enum):
    TRIAL_DIVISION = "TrialDivision"
    PLAIN_FERMAT = "PlainFermat"
    QUAD_INTERVAL = "QuadInterval"
    QUAD_INTERVAL_QR = "QuadIntervalQRFiltered"


class BenchRow(NamedTuple):
    """One strategy's exact candidate count and median wall time on one target."""

    strategy: str
    target_n: int
    N: int
    candidates_examined: int
    found: bool
    pair: tuple[int, int] | None
    elapsed_ns: int


def _run_trial_division(t: quadform.QuadTarget):
    divisors = range(3, arith.isqrt(t.N) + 1, 2)
    for count, d in enumerate(divisors, 1):
        if t.N % d == 0:
            return count, (d, t.N // d)
    return len(divisors), None


#: Centers the PlainFermat strategy scans before it gives up.  It covers
#: every count tests pin (at most 1538261545, at n = 100000), and a scan
#: that spends it takes about 1.6 s (about 1 ns a center; shared 2-vCPU
#: VM, Python 3.11).
_PLAIN_FERMAT_BUDGET = 1_600_000_000


def _measure(strategy: Strategy, t: quadform.QuadTarget):
    """(the call run_bench times, outcome) for one strategy on target t:
    outcome(result) gives the (candidates, pair) of the call's result."""
    if strategy is Strategy.TRIAL_DIVISION:
        return lambda: _run_trial_division(t), lambda result: result
    if strategy is Strategy.PLAIN_FERMAT:

        def centers(split):
            # its candidates are the centers from ceil(sqrt(N)) up to the
            # split; run_bench admits composite targets only, so a scan
            # that ends without one has spent its budget
            if split is fermat_generic.Verdict.BUDGET_EXHAUSTED:
                return _PLAIN_FERMAT_BUDGET, None
            return split.c - arith.ceil_sqrt(t.N) + 1, (split.a, split.b)

        return lambda: fermat_generic.fermat_factor(t.N, _PLAIN_FERMAT_BUDGET), centers
    primes = () if strategy is Strategy.QUAD_INTERVAL else quadform.default_filter_primes(t)
    counts = {}  # the scan's count record, refilled by each timed call

    def tested(pairs):
        return counts["tested"], (pairs[0].a, pairs[0].b) if pairs else None

    return lambda: quadform.sieve_enumerate(t, primes, counts=counts), tested


def run_bench(targets, strategies=None, repetitions: int = 5) -> list[BenchRow]:
    """Benchmark each strategy on each composite target N = 4n^2 + 1.

    strategies holds Strategy members or their names, None for all of
    them.  Every argument is checked before anything is timed: an unknown
    strategy, repetitions < 1, a generator n < 1, a prime target and a
    target N >= arith.PRIME_TEST_EXACT_BELOW, which arith.is_prime
    refuses, raise ValueError up front.  PlainFermat fails when the split
    lies past its _PLAIN_FERMAT_BUDGET centers, reporting that budget as
    its count; a failed row has found=False and no pair.  TrialDivision,
    QuadInterval and QuadIntervalQRFiltered always succeed on a composite
    target.
    """
    try:
        chosen = list(Strategy) if strategies is None else [Strategy(s) for s in strategies]
    except ValueError:
        names = ", ".join(s.value for s in Strategy)
        raise ValueError(f"strategies must come from: {names}") from None
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    targets = [quadform.make_target(n) for n in targets]
    for t in targets:
        if arith.is_prime(t.N):
            raise ValueError(f"target n={t.n}: N={t.N} is prime; nothing to factor")
    rows = []
    for t in targets:
        for strategy in chosen:
            run, outcome = _measure(strategy, t)
            timings = []
            for _ in range(repetitions):
                start = time.perf_counter_ns()
                result = run()
                timings.append(time.perf_counter_ns() - start)
            count, pair = outcome(result)
            rows.append(
                BenchRow(
                    strategy=strategy.value,
                    target_n=t.n,
                    N=t.N,
                    candidates_examined=count,
                    found=pair is not None,
                    pair=pair,
                    elapsed_ns=int(statistics.median(timings)),
                )
            )
    return rows
