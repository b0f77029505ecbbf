"""Candidate-count and wall-time comparison of factoring strategies.

Candidate counts are exact and deterministic; wall times are median-of-k
on a monotonic clock and are reported, never asserted.  A candidate is
whatever a strategy pays for: a trial divisor, a center of the plain
scan up to its hit, or a sieve index that survives the residue filters.
"""

import enum
import statistics
import time
from dataclasses import dataclass

from . import arith, fermat_generic, quadform

__all__ = ["Strategy", "BenchRow", "run_bench"]


class Strategy(str, enum.Enum):
    TRIAL_DIVISION = "TrialDivision"
    PLAIN_FERMAT = "PlainFermat"
    QUAD_INTERVAL = "QuadInterval"
    QUAD_INTERVAL_QR = "QuadIntervalQRFiltered"
    QUAD_INTERVAL_HEURISTIC = "QuadIntervalHeuristicFiltered"


@dataclass(frozen=True)
class BenchRow:
    strategy: str
    target_n: int
    N: int
    candidates_examined: int
    found: bool
    pair: tuple[int, int] | None
    elapsed_ns: int


def _run_trial_division(t: quadform.QuadTarget):
    N = t.N
    count = 0
    d = 3
    while d * d <= N:
        count += 1
        if N % d == 0:
            return count, (d, N // d)
        d += 2
    return count, None


def _run_quad_interval(t, filter_primes, use_heuristic_filters):
    count = 0
    for cand in quadform.iter_candidates(t, filter_primes, use_heuristic_filters):
        count += 1
        if cand.root is not None:
            pair = quadform.pair_from_candidate(t, cand)
            return count, (pair.a, pair.b)
    return count, None


def _runner(strategy: Strategy, t: quadform.QuadTarget):
    if strategy is Strategy.TRIAL_DIVISION:
        return lambda: _run_trial_division(t)
    if strategy is Strategy.PLAIN_FERMAT:

        def plain_fermat():
            # run_bench admits composite targets only, so the scan splits N;
            # its candidates are the centers from ceil(sqrt(N)) up to the split
            split = fermat_generic.fermat_factor(t.N)
            return split.c - arith.ceil_sqrt(t.N) + 1, (split.a, split.b)

        return plain_fermat
    if strategy is Strategy.QUAD_INTERVAL:
        return lambda: _run_quad_interval(t, (), False)
    primes = quadform.default_filter_primes(t)
    if strategy is Strategy.QUAD_INTERVAL_QR:
        return lambda: _run_quad_interval(t, primes, False)
    if strategy is Strategy.QUAD_INTERVAL_HEURISTIC:
        return lambda: _run_quad_interval(t, primes, True)
    raise ValueError(f"unknown strategy {strategy}")


def run_bench(targets, strategies=None, repetitions: int = 5) -> list[BenchRow]:
    """Benchmark each strategy on each composite target N = 4n^2 + 1.

    Prime targets are rejected up front.  The unsound heuristic-filtered
    strategy may legitimately fail to find a pair (it can skip every true
    witness); the others always succeed on a composite target.
    """
    if repetitions < 1:
        raise ValueError("repetitions must be >= 1")
    chosen = list(strategies) if strategies is not None else list(Strategy)
    rows = []
    for n in targets:
        t = quadform.make_target(n)
        if arith.is_prime(t.N):
            raise ValueError(f"target n={n}: N={t.N} is prime; nothing to factor")
        for strategy in chosen:
            run = _runner(Strategy(strategy), t)
            count, pair = run()
            timings = []
            for _ in range(repetitions):
                start = time.perf_counter_ns()
                run()
                timings.append(time.perf_counter_ns() - start)
            rows.append(
                BenchRow(
                    strategy=Strategy(strategy).value,
                    target_n=n,
                    N=t.N,
                    candidates_examined=count,
                    found=pair is not None,
                    pair=pair,
                    elapsed_ns=int(statistics.median(timings)),
                )
            )
    return rows
