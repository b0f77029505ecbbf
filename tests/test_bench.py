"""Tests for the strategy benchmark (counts asserted, times only reported)."""

import time

import pytest

from fermatsieve import bench, fermat_generic, quadform
from fermatsieve.bench import Strategy


def rows_by_strategy(rows, n):
    return {r.strategy: r for r in rows if r.target_n == n}


def test_spec_count_examples():
    rows = bench.run_bench([4, 9], [Strategy.QUAD_INTERVAL], repetitions=1)
    assert rows[0].candidates_examined == 1  # N=65: interval is {1}
    assert rows[1].candidates_examined == 1  # N=325: first u=2 hits immediately


def test_trial_division_counts():
    rows = bench.run_bench([4], [Strategy.TRIAL_DIVISION], repetitions=1)
    assert rows[0].candidates_examined == 2  # d=3 misses, d=5 hits
    assert rows[0].pair == (5, 13)


def test_qr_filter_never_examines_more_and_finds_same_pair():
    targets = [4, 9, 16, 30, 56]
    rows = bench.run_bench(
        targets, [Strategy.QUAD_INTERVAL, Strategy.QUAD_INTERVAL_QR], repetitions=1
    )
    for n in targets:
        by = rows_by_strategy(rows, n)
        plain = by[Strategy.QUAD_INTERVAL.value]
        filtered = by[Strategy.QUAD_INTERVAL_QR.value]
        assert filtered.candidates_examined <= plain.candidates_examined
        assert filtered.pair == plain.pair
        assert plain.found and filtered.found


def test_sound_strategies_always_find():
    sound = [
        Strategy.TRIAL_DIVISION,
        Strategy.PLAIN_FERMAT,
        Strategy.QUAD_INTERVAL,
        Strategy.QUAD_INTERVAL_QR,
    ]
    for row in bench.run_bench([4, 9, 16, 30, 56], sound, repetitions=1):
        assert row.found
        assert row.pair[0] * row.pair[1] == row.N


def test_sieve_counts_run_to_the_first_witness():
    # N = 13 * 3076923077: the paper's scan runs to the (13, N/13) split's
    # u = 192307693, its first witness; the square screens pass 69184 of its
    # u to the square test, and the QR filters with the screens 13
    rows = bench.run_bench(
        [100000], [Strategy.QUAD_INTERVAL, Strategy.QUAD_INTERVAL_QR], repetitions=1
    )
    assert [r.candidates_examined for r in rows] == [69184, 13]
    assert [r.pair for r in rows] == [(13, 3076923077)] * 2
    # n = 30: the scan visits u = 8 to 18, the screens drop all but its
    # witness u = 18, and the record keeps the whole first block, 8 to 45
    (row,) = bench.run_bench([30], [Strategy.QUAD_INTERVAL], repetitions=1)
    counts = {}  # the scan's count record; with no filter primes it keeps every u
    t = quadform.make_target(30)
    assert [p.witness_u for p in quadform.sieve_enumerate(t, counts=counts)] == [18]
    assert counts == {"kept": 38, "tested": 1}
    assert (row.candidates_examined, row.pair) == (1, (13, 277))


#: (TrialDivision, PlainFermat, QuadInterval, QuadIntervalQRFiltered)
#: candidate counts; the QR classes that the square screens imply would
#: drop none of these candidates
_PINNED_COUNTS = {
    4: (2, 1, 1, 1),
    9: (2, 1, 1, 1),
    16: (2, 1, 1, 1),
    30: (6, 85, 1, 1),
    56: (2, 17, 1, 1),
    3013: (326, 22105, 1, 1),
    3021: (2, 457, 1, 1),
    100000: (6, 1538261545, 69184, 13),
}


def test_candidate_counts_pinned():
    rows = bench.run_bench(list(_PINNED_COUNTS), repetitions=1)
    got = {}
    for row in rows:
        got.setdefault(row.target_n, []).append(row.candidates_examined)
    assert [r.strategy for r in rows[:4]] == [s.value for s in Strategy]
    assert {n: tuple(counts) for n, counts in got.items()} == _PINNED_COUNTS


def test_plain_fermat_stops_at_its_budget():
    # N = 5 * 73 * 1095890630137: the most balanced split, (365, N/365), lies
    # about 5.5 * 10^11 centers past sqrt(N)
    start = time.perf_counter()
    (row,) = bench.run_bench([10000001], [Strategy.PLAIN_FERMAT], repetitions=1)
    assert time.perf_counter() - start < 10
    assert (row.found, row.pair, row.candidates_examined) == (False, None, bench._PLAIN_FERMAT_BUDGET)


def test_plain_fermat_matches_module_result():
    for n in (4, 9, 16, 30, 56):
        rows = bench.run_bench([n], [Strategy.PLAIN_FERMAT], repetitions=1)
        out = fermat_generic.fermat_factor(rows[0].N)
        assert rows[0].pair == (out.a, out.b)


def test_counts_are_deterministic():
    one = bench.run_bench([4, 9, 16], None, repetitions=1)
    two = bench.run_bench([4, 9, 16], None, repetitions=1)
    key = lambda rows: [(r.strategy, r.target_n, r.candidates_examined, r.found) for r in rows]
    assert key(one) == key(two)


def test_rejects_prime_target():
    with pytest.raises(ValueError):
        bench.run_bench([5], None, repetitions=1)  # N = 101 is prime


def test_rejects_bad_repetitions():
    with pytest.raises(ValueError):
        bench.run_bench([4], None, repetitions=0)


def test_row_shape():
    (row,) = bench.run_bench([4], [Strategy.QUAD_INTERVAL], repetitions=3)
    assert row.N == 65 and row.target_n == 4
    assert row.strategy == "QuadInterval"
    assert row.elapsed_ns >= 0
