"""Tests for the plain difference-of-squares baseline."""

import pytest

from fermatsieve import arith, fermat_generic
from fermatsieve.fermat_generic import Verdict


def test_worked_example_9797():
    out = fermat_generic.fermat_factor(9797)
    assert (out.c, out.d, out.a, out.b) == (99, 2, 97, 101)


def test_small_examples():
    out = fermat_generic.fermat_factor(15)
    assert (out.c, out.d, out.a, out.b) == (4, 1, 3, 5)
    out = fermat_generic.fermat_factor(25)
    assert (out.c, out.d, out.a, out.b) == (5, 0, 5, 5)
    out = fermat_generic.fermat_factor(9)
    assert (out.a, out.b) == (3, 3)


def test_rejects_bad_input():
    for bad in (7, 8, 10, 0, -9):
        with pytest.raises(ValueError):
            fermat_generic.fermat_factor(bad)


def test_prime_verdicts():
    for p in (11, 13, 17, 101, 99991):
        assert fermat_generic.fermat_factor(p) is Verdict.PRIME


def test_budget():
    # 99993 = 3 * 33331 needs the scan to walk from 317 to 16667
    n = 99993
    assert fermat_generic.fermat_factor(n, step_budget=100) is Verdict.BUDGET_EXHAUSTED
    out = fermat_generic.fermat_factor(n, step_budget=20000)
    assert (out.a, out.b) == (3, 33331)
    # a budget larger than the full scan still yields the prime verdict
    assert fermat_generic.fermat_factor(9973, step_budget=10**9) is Verdict.PRIME
    assert fermat_generic.fermat_factor(n, step_budget=0) is Verdict.BUDGET_EXHAUSTED
    with pytest.raises(ValueError):
        fermat_generic.fermat_factor(n, step_budget=-3)


def _balanced_divisor(N):
    """Largest divisor of N that is <= sqrt(N), by descending trial division."""
    for d in range(arith.isqrt(N), 2, -1):
        if N % d == 0:
            return d
    return None


def test_exhaustive_sweep_to_1e5():
    """Every odd N in [9, 1e5]: valid minimal split or a correct prime verdict."""
    for N in range(9, 100001, 2):
        out = fermat_generic.fermat_factor(N)
        balanced = _balanced_divisor(N)
        if out is Verdict.PRIME:
            assert balanced is None, N
            continue
        assert out.a * out.b == N, N
        assert 1 < out.a <= out.b
        assert out.c * out.c - out.d * out.d == N
        assert N % out.a == 0
        # first hit is the most balanced split: a is the largest divisor <= sqrt(N)
        assert out.a == balanced, N
        assert out.c == (balanced + N // balanced) // 2, N
