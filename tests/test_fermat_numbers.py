"""Tests for the Fermat-number divisor machinery.

F_5 = 641 * 6700417 and F_6 = 274177 * 67280421310721 are the desk-scale
workhorses; both factorizations are re-derived here by search and by
direct big-integer arithmetic, never assumed.
"""

import math
import tracemalloc

import pytest

from fermatsieve import arith
from fermatsieve import fermat_numbers as fn


F5_PAIR = (641, 6700417)
F6_PAIR = (274177, 67280421310721)


def _forbid_F_n(monkeypatch):
    """Make every read of FermatTarget.value fail the test."""

    def built(t):
        raise AssertionError(f"F_{t.index_n} was built")

    monkeypatch.setattr(fn.FermatTarget, "value", property(built))


def test_make_fermat_examples():
    assert fn.make_fermat(0).value == 3
    assert fn.make_fermat(5).value == 4294967297
    assert fn.make_fermat(6).value == 18446744073709551617
    t = fn.make_fermat(5)
    assert t.divisor_step == 128 and t.center_step == 8192
    with pytest.raises(ValueError):
        fn.make_fermat(-1)


@pytest.mark.parametrize("index", [fn.MAX_INDEX + 1, 10**9])
def test_make_fermat_refuses_past_the_cap_before_building(index):
    # the steps of F_(10^9) alone, 2^(10^9 + 2) and 2^(2 * 10^9 + 3), are
    # about 360 MiB
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"<= {fn.MAX_INDEX}"):
            fn.make_fermat(index)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"peak {peak} bytes"


def test_known_pairs_multiply_back():
    assert F5_PAIR[0] * F5_PAIR[1] == fn.make_fermat(5).value
    assert F6_PAIR[0] * F6_PAIR[1] == fn.make_fermat(6).value


def test_lucas_check_examples():
    t5 = fn.make_fermat(5)
    hit = fn.lucas_check(t5, 5)
    assert (hit.divisor, hit.residue) == (641, 0)
    miss = fn.lucas_check(t5, 1)
    assert miss.divisor == 129 and miss.residue != 0

    t6 = fn.make_fermat(6)
    hit = fn.lucas_check(t6, 1071)
    assert (hit.divisor, hit.residue) == (274177, 0)


def test_lucas_check_preconditions():
    with pytest.raises(ValueError):
        fn.lucas_check(fn.make_fermat(3), 1)
    with pytest.raises(ValueError):
        fn.lucas_check(fn.make_fermat(5), 0)


def test_membership_equivalence_f5():
    # residue 0 <=> the progression member really divides F_5
    t = fn.make_fermat(5)
    for s in range(1, 1001):
        cand = fn.lucas_check(t, s)
        assert (cand.residue == 0) == (t.value % cand.divisor == 0), s
    # the search's batched 2^(2^n) = -1 (mod d) accepts exactly the s whose
    # residue in the paper's form is 0, at every index and at budgets on
    # both sides of the first batch boundary k; past the cap (3 at index 4,
    # 511 at index 5) the search stops at the cap
    for n in range(4, fn.MAX_INDEX + 1):
        t = fn.make_fermat(n)
        cap = (1 << fn.divisor_cap_bits(t)) - 1
        k = fn._batch_end(t.divisor_step, 1)
        checked = [s for s in range(1, min(cap, 10000) + 1) if fn.lucas_check(t, s).residue == 0]
        for budget in (0, 1, k - 1, k, k + 1, 2 * k + 1, 10000):
            expected = [s for s in checked if s <= budget]
            assert [h.s for h in fn.lucas_divisors(t, budget)] == expected, (n, budget)


def test_lucas_search_examples():
    t5 = fn.make_fermat(5)
    assert [h.s for h in fn.lucas_search(t5, 100)] == [5]
    assert fn.lucas_search(t5, 3) == []
    t6 = fn.make_fermat(6)
    assert [(h.s, h.divisor) for h in fn.lucas_search(t6, 10**4)] == [(1071, 274177)]
    # known small factors of F_9, F_11 and F_12
    assert [(h.s, h.divisor) for h in fn.lucas_search(fn.make_fermat(9), 1184)] == [
        (1184, 2424833)
    ]
    assert [(h.s, h.divisor) for h in fn.lucas_search(fn.make_fermat(11), 119)] == [
        (39, 319489),
        (119, 974849),
    ]
    assert [(h.s, h.divisor) for h in fn.lucas_search(fn.make_fermat(12), 1588)] == [
        (7, 114689),
        (1588, 26017793),
    ]


def test_lucas_search_cap():
    # the scan never goes past sqrt(F_n): the cofactor 6700417 (s = 52347)
    # is deliberately out of range no matter how large s_max is
    t5 = fn.make_fermat(5)
    assert [h.s for h in fn.lucas_search(t5, 10**6)] == [5]


def test_divisor_cap_closed_form():
    # the closed form agrees with the square-root formula it replaces
    for n in range(4, 17):
        t = fn.make_fermat(n)
        assert (1 << fn.divisor_cap_bits(t)) - 1 == (arith.isqrt(t.value - 1) >> (n + 2)) - 1, n
    with pytest.raises(ValueError):
        fn.divisor_cap_bits(fn.make_fermat(3))


def test_lucas_divisors_is_lazy():
    # the first divisor of F_6 arrives without testing the rest of the budget
    hits = fn.lucas_divisors(fn.make_fermat(6), 10**9)
    assert next(hits).s == 1071


def test_lucas_divisors_takes_a_budget_past_sys_maxsize():
    # the member range of 2^70 indices has no len(); batches never take it
    assert next(fn.lucas_divisors(fn.make_fermat(9), 2**70)).s == 1184


def test_lucas_search_never_builds_F_n(monkeypatch):
    # F_30 is a 2^30-bit integer; membership is tested mod each candidate
    _forbid_F_n(monkeypatch)
    assert fn.lucas_search(fn.make_fermat(30), 10) == []


def test_searches_reject_negative_budgets():
    with pytest.raises(ValueError):
        fn.lucas_divisors(fn.make_fermat(6), -3)  # at the call, not at the first hit
    with pytest.raises(ValueError):
        fn.lambda_search(fn.make_fermat(5), -3)
    out = fn.lambda_search(fn.make_fermat(5), 0)
    assert (out.hits, out.exhausted, out.examined, out.skipped) == ([], True, 0, 0)


def test_lambda_interval():
    assert fn.lambda_interval(fn.make_fermat(5)) == (8, 4096)
    assert fn.lambda_interval(fn.make_fermat(6))[1] == 1 << 41
    with pytest.raises(ValueError):
        fn.lambda_interval(fn.make_fermat(4))


def test_lambda_interval_ceil_sqrt_closed_form(monkeypatch):
    # F_n is one past the square of 2^(2^(n-1)), so lam_min needs no isqrt
    for n in range(5, 17):
        t = fn.make_fermat(n)
        assert fn._ceil_sqrt(t) == arith.ceil_sqrt(t.value), n
    _forbid_F_n(monkeypatch)
    assert fn.lambda_interval(fn.make_fermat(30))[0] == 1 << ((1 << 29) - 63)


def test_lambda_search_counts_match_a_plain_scan():
    t = fn.make_fermat(7)
    primes = [p for p in arith.primes_up_to(97) if p % 4 == 3]
    out = fn.lambda_search(t, 300000, filters=True)
    lam_min, _ = fn.lambda_interval(t)
    examined = sum(
        1
        for lam in range(lam_min, lam_min + 300000)
        if lam % 4 != 2 and lam % 3 == 1 and all(lam % p for p in primes)
    )
    assert (out.examined, out.skipped) == (examined, 300000 - examined)
    assert out.hits == [] and out.exhausted


def test_lambda_search_f5():
    t = fn.make_fermat(5)
    out = fn.lambda_search(t, 10**4)
    assert [h.lam for h in out.hits] == [409]
    hit = out.hits[0]
    assert (hit.center - hit.root, hit.center + hit.root) == F5_PAIR
    assert not out.exhausted  # 10^4 covers the whole interval [8, 4096)


def test_lambda_search_filters_do_not_change_f5():
    t = fn.make_fermat(5)
    plain = fn.lambda_search(t, 10**4)
    filtered = fn.lambda_search(t, 10**4, filters=True)
    assert [h.lam for h in plain.hits] == [h.lam for h in filtered.hits] == [409]
    assert filtered.skipped > 0
    assert filtered.examined + filtered.skipped == plain.examined


def test_lambda_search_raises_on_a_root_that_does_not_split(monkeypatch, capsys):
    # the check of each hit is no assert, which python -O would strip: a
    # square test that hands back a wrong root is an internal error, and
    # the fermat command exits 3 on it
    from fermatsieve import cli

    monkeypatch.setattr(arith, "is_perfect_square", lambda x: math.isqrt(x) if x >= 0 else None)
    with pytest.raises(ArithmeticError, match="does not split F_5"):
        fn.lambda_search(fn.make_fermat(5), 10**4)
    assert cli.main(["fermat", "--index", "5", "--mode", "lambda"]) == 3
    out, err = capsys.readouterr()
    assert out == "" and err.startswith("internal inconsistency: the square root at lam=")


def test_lambda_search_budget_exhausted():
    t = fn.make_fermat(5)
    out = fn.lambda_search(t, 100)
    assert out.hits == [] and out.exhausted
    assert out.examined == 100


def test_lambda_search_rejects_small_index():
    with pytest.raises(ValueError):
        fn.lambda_search(fn.make_fermat(4), 100)


def test_lambda_search_rejects_an_index_past_the_cap_before_building_F_n(monkeypatch):
    _forbid_F_n(monkeypatch)
    with pytest.raises(ValueError, match=f"<= {fn.LAMBDA_MAX_INDEX}"):
        fn.lambda_search(fn.make_fermat(fn.LAMBDA_MAX_INDEX + 1), 10000)


def test_lambda_search_refuses_past_its_cap_before_building_its_bounds():
    # at index 30, lambda_interval's bounds are 2^29- and 2^30-bit integers
    t = fn.make_fermat(fn.MAX_INDEX)
    tracemalloc.start()
    try:
        with pytest.raises(ValueError, match=f"<= {fn.LAMBDA_MAX_INDEX}"):
            fn.lambda_search(t, 10)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 1 << 20, f"peak {peak} bytes"


def test_lambda_search_takes_exact_roots_only_past_every_square_screen(monkeypatch):
    # at the largest index each exact root is of a discriminant of about
    # 2^20 bits; every square screen runs in the kernel before it
    calls = []
    exact = arith.is_perfect_square
    monkeypatch.setattr(arith, "is_perfect_square", lambda x: calls.append(x) or exact(x))
    out = fn.lambda_search(fn.make_fermat(20), 10000)
    assert out.hits == [] and out.exhausted
    assert len(calls) == 3


def test_lambda_of_pair_f5():
    t = fn.make_fermat(5)
    lam = fn.lambda_of_pair(t, *F5_PAIR)
    assert lam == 409
    assert lam % 3 == 1 and lam % 4 != 2


def test_lambda_of_pair_f6():
    t = fn.make_fermat(6)
    lam = fn.lambda_of_pair(t, *F6_PAIR)
    lam_min, lam_sup = fn.lambda_interval(t)
    assert lam_min <= lam < lam_sup
    assert t.center_step * lam + 1 == (F6_PAIR[0] + F6_PAIR[1]) // 2


def test_lambda_of_pair_agrees_with_search():
    t = fn.make_fermat(5)
    searched = fn.lambda_search(t, 10**4).hits[0].lam
    assert searched == fn.lambda_of_pair(t, *F5_PAIR)


def test_lambda_of_pair_rejects_bad_pairs():
    t = fn.make_fermat(5)
    with pytest.raises(ValueError):
        fn.lambda_of_pair(t, 640, t.value // 640)
    with pytest.raises(ValueError):
        fn.lambda_of_pair(t, 6700417, 641)  # misordered
    with pytest.raises(ValueError):
        fn.lambda_of_pair(t, 1, t.value)  # trivial
