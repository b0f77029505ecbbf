"""Tests for the candidate sieve on N = 4n^2 + 1.

Ground truth throughout comes from the trial-division oracle in the audit
module, never from the sieve itself.
"""

import math
import time
from collections import Counter
from fractions import Fraction

import pytest

from fermatsieve import arith, audit, cli, quadform


def composite_targets(limit):
    for n in range(1, limit + 1):
        t = quadform.make_target(n)
        if len(audit.oracle_factorize(t.N)) > 1:
            yield t


def test_make_target_examples():
    t = quadform.make_target(4)
    assert (t.N, t.parity, t.m, t.offset) == (65, "even", 2, 1)
    t = quadform.make_target(9)
    assert (t.N, t.parity, t.m, t.offset) == (325, "odd", 4, 3)
    t = quadform.make_target(1)
    assert (t.N, t.parity, t.m) == (5, "odd", 0)


def test_make_target_rejects_zero():
    with pytest.raises(ValueError):
        quadform.make_target(0)


def test_target_decomposition_identity():
    for n in range(1, 500):
        t = quadform.make_target(n)
        assert t.N == 4 * n * n + 1
        if t.offset == 1:
            assert t.n == 2 * t.m and t.N == 16 * t.m**2 + 1
        else:
            assert t.n == 2 * t.m + 1 and t.N == 4 * (2 * t.m + 1) ** 2 + 1
        assert t.N % 4 == 1
        assert arith.is_perfect_square(t.N) is None


def test_u_range_holds_the_integers_of_u_interval():
    for n in range(1, 5001):
        t = quadform.make_target(n)
        u_min, u_sup = quadform.u_interval(t)
        span = quadform.u_range(t)
        if u_min >= u_sup:
            assert len(span) == 0, n
        else:
            assert span.start == u_min and span.stop - 1 < u_sup <= span.stop, n


def test_u_interval_examples():
    t = quadform.make_target(4)  # N = 65
    assert quadform.u_interval(t) == (1, Fraction(3, 2))
    assert list(quadform.u_range(t)) == [1]

    t = quadform.make_target(9)  # N = 325
    assert quadform.u_interval(t) == (2, Fraction(31, 4))
    assert list(quadform.u_range(t)) == [2, 3, 4, 5, 6, 7]

    t = quadform.make_target(1)  # N = 5, prime: empty range
    u_min, u_sup = quadform.u_interval(t)
    assert u_min >= u_sup
    assert len(quadform.u_range(t)) == 0


def test_try_candidate_examples():
    t65 = quadform.make_target(4)
    cand = quadform.try_candidate(t65, 1)
    assert (cand.center, cand.disc, cand.root) == (9, 16, 4)

    t325 = quadform.make_target(9)
    cand = quadform.try_candidate(t325, 2)
    assert (cand.center, cand.disc, cand.root) == (19, 36, 6)
    cand = quadform.try_candidate(t325, 3)
    assert (cand.center, cand.disc, cand.root) == (27, 404, None)


def test_pair_from_candidate_examples():
    t65 = quadform.make_target(4)
    pair = quadform.pair_from_candidate(t65, quadform.try_candidate(t65, 1))
    assert (pair.a, pair.b, pair.witness_u, pair.d) == (5, 13, 1, 4)

    t325 = quadform.make_target(9)
    pair = quadform.pair_from_candidate(t325, quadform.try_candidate(t325, 2))
    assert (pair.a, pair.b) == (13, 25)
    pair = quadform.pair_from_candidate(t325, quadform.try_candidate(t325, 4))
    assert (pair.a, pair.b, pair.d) == (5, 65, 30)


def test_pair_from_candidate_rejects_rootless():
    t = quadform.make_target(9)
    with pytest.raises(ValueError):
        quadform.pair_from_candidate(t, quadform.try_candidate(t, 3))


def test_pair_from_candidate_rejects_trivial_split():
    # N = 37 prime: its only square center is (1+37)/2 = 19 at u = 2,
    # outside the interval; feeding it in by hand must be refused.
    t = quadform.make_target(3)
    cand = quadform.try_candidate(t, 2)
    assert cand.root == 18
    with pytest.raises(ValueError):
        quadform.pair_from_candidate(t, cand)


def marked(marks) -> set:
    """The residues r whose byte marks[r] is set."""
    return {r for r, mark in enumerate(marks) if mark}


def test_admissible_residue_examples():
    t65 = quadform.make_target(4)
    assert marked(quadform.admissible_residues_parametric(t65, 7)) == {1, 2, 3, 4}
    assert marked(quadform.admissible_residues_qr(t65, 7)) == {1, 2, 3, 4}
    assert marked(quadform.admissible_residues_parametric(t65, 3)) == {1}
    assert marked(quadform.admissible_residues_qr(t65, 3)) == {1}

    t325 = quadform.make_target(9)
    param = marked(quadform.admissible_residues_parametric(t325, 7))
    assert param == marked(quadform.admissible_residues_qr(t325, 7))
    # both true witnesses of 325 must be admissible
    assert 2 % 7 in param and 4 % 7 in param


def test_admissible_residue_rejections():
    t65 = quadform.make_target(4)
    with pytest.raises(ValueError):
        quadform.admissible_residues_parametric(t65, 2)
    with pytest.raises(ValueError):
        quadform.admissible_residues_parametric(t65, 5)  # 5 | 65
    with pytest.raises(ValueError):
        quadform.admissible_residues_qr(t65, 5)


@pytest.mark.parametrize("p", [1, 9, 15, -3])
@pytest.mark.parametrize(
    "residues", [quadform.admissible_residues_parametric, quadform.admissible_residues_qr]
)
def test_admissible_residues_reject_a_modulus_that_is_no_odd_prime(residues, p):
    # N = 401 is prime, so no p here divides it
    with pytest.raises(ValueError, match="odd prime"):
        residues(quadform.make_target(10), p)


def test_qr_residues_match_eulers_criterion():
    # the QR set, read off the square-residue table, against Euler's
    # criterion: a is a square or zero mod the odd prime p exactly when
    # a^((p - 1)/2) is 0 or 1 mod p
    primes = arith.primes_up_to(199)[1:]
    for n in range(1, 301):
        t = quadform.make_target(n)
        for p in primes:
            if t.N % p == 0:
                continue
            half = (p - 1) // 2
            expected = {
                r for r in range(p) if pow((8 * r + t.offset) ** 2 - t.N, half, p) in (0, 1)
            }
            assert marked(quadform.admissible_residues_qr(t, p)) == expected, (n, p)


def test_filter_duality_small_sweep():
    primes = [p for p in arith.primes_up_to(61) if p != 2]
    for n in range(1, 121):
        t = quadform.make_target(n)
        for p in primes:
            if t.N % p == 0:
                continue
            assert quadform.admissible_residues_parametric(
                t, p
            ) == quadform.admissible_residues_qr(t, p), (n, p)


def test_qr_kill_classes_complement_admissible_residues():
    # the classes the sieve drops are exactly the residues the QR form
    # rejects, the set the duality tests tie to the parametric form
    primes = [p for p in arith.primes_up_to(97) if p != 2]
    for n in range(1, 501):
        t = quadform.make_target(n)
        for p in primes:
            if t.N % p == 0:
                continue
            rejected = set(range(p)) - marked(quadform.admissible_residues_qr(t, p))
            ((period, alive),) = arith.nonsquare_classes(
                t.N, quadform.CENTER_STEP, t.offset, [p]
            )
            dropped = {r for r in range(period) if not alive >> r & 1}
            assert (period, dropped) == (p, rejected), (n, p)


def test_default_filter_primes_excludes_divisors():
    t = quadform.make_target(9)  # 325 = 5^2 * 13
    primes = quadform.default_filter_primes(t)
    assert 5 not in primes and 13 not in primes and 2 not in primes
    assert primes[0] == 3 and primes[-1] == 97


def test_sieve_examples():
    t65 = quadform.make_target(4)
    pairs = quadform.sieve_enumerate(t65, [3, 7])
    assert [(p.a, p.b, p.witness_u) for p in pairs] == [(5, 13, 1)]

    t325 = quadform.make_target(9)
    pairs = quadform.sieve_enumerate(t325, (), want_all=True)
    assert [(p.a, p.b, p.witness_u) for p in pairs] == [(13, 25, 2), (5, 65, 4)]

    t37 = quadform.make_target(3)
    assert quadform.sieve_enumerate(t37, ()) == []  # prime verdict


def test_sieve_trial_division_path():
    # A caller-supplied filter prime that divides N prunes nothing; the scan
    # still finds the pair.
    t65 = quadform.make_target(4)
    pairs = quadform.sieve_enumerate(t65, [5])
    assert [(p.a, p.b, p.witness_u, p.d) for p in pairs] == [(5, 13, 1, 4)]


def test_sieve_filter_prime_dividing_n_keeps_smallest_u_first():
    # N = 325 = 5^2 * 13: the filter prime 5 divides N, which must neither
    # hide the most balanced pair (13, 25) at u = 2 nor the rest of want_all
    t325 = quadform.make_target(9)
    pairs = quadform.sieve_enumerate(t325, (3, 5))
    assert [(p.a, p.b, p.witness_u) for p in pairs] == [(13, 25, 2)]
    pairs = quadform.sieve_enumerate(t325, (3, 5), want_all=True)
    assert [(p.a, p.b, p.witness_u) for p in pairs] == [(13, 25, 2), (5, 65, 4)]
    # every discriminant is a square mod 5 | N, so its QR class keeps every u
    classes = arith.nonsquare_classes(t325.N, quadform.CENTER_STEP, t325.offset, [5])
    assert classes == [(5, 31)]


def test_residue_marks_refuse_a_prime_past_the_bound_before_building(monkeypatch):
    # 1048583 is the first prime above 2^20: a sweep would cost O(p) and
    # the QR class a p-bit int, so neither builder may start
    def unbuilt(*args):
        raise AssertionError("marks built for a prime past PRIME_BOUND_MAX")

    monkeypatch.setattr(arith, "mod_inv", unbuilt)
    monkeypatch.setattr(arith, "nonsquare_classes", unbuilt)
    t = quadform.make_target(4)
    assert arith.is_prime(1048583) and 1048583 > arith.PRIME_BOUND_MAX
    message = f"must be an odd prime <= {arith.PRIME_BOUND_MAX}, not 1048583"
    for build in (quadform.admissible_residues_parametric, quadform.admissible_residues_qr):
        with pytest.raises(ValueError, match=message):
            build(t, 1048583)


def test_sieve_rejects_even_filter_prime():
    t = quadform.make_target(4)
    with pytest.raises(ValueError):
        quadform.sieve_enumerate(t, [2, 3])


def test_heuristic_filters_can_lose_the_only_witness():
    # N = 3601 = 13 * 277 has the single witness u = 18, and 18 = 0 (mod 3),
    # so the u != 0 (mod p) skip for p = 3 discards it.
    t = quadform.make_target(30)
    primes = quadform.default_filter_primes(t)
    assert quadform.sieve_enumerate(t, primes) != []
    assert quadform.heuristic_pairs(t, primes) == []
    assert quadform.heuristic_pairs(t, primes, want_all=True) == []


def test_heuristic_filters_can_change_the_found_pair():
    # N = 325: witness u=2 has 4u+1 = 9 = 0 (mod 3); the heuristic skip
    # rejects it and the scan falls through to u=4.
    t = quadform.make_target(9)
    primes = quadform.default_filter_primes(t)
    plain = quadform.sieve_enumerate(t, primes)
    heuristic = quadform.heuristic_pairs(t, primes)
    assert [(p.a, p.b) for p in plain] == [(13, 25)]
    assert [(p.a, p.b) for p in heuristic] == [(5, 65)]


def _every_qr_class_scan(t, primes, want_all):
    """The pairs of a whole-interval scan with the heuristic skips and the
    QR class of every filter prime: the skips, built here as kill classes,
    drop u over the whole interval, and a square discriminant is kept only
    if it is a square or 0 modulo every filter prime (Euler's criterion)."""
    skip = (lambda p: -pow(4, -1, p) % p) if t.offset == 3 else (lambda p: 0)
    skips = [arith.kill_class(p, (skip(p),)) for p in primes if p % 4 == 3]
    span = quadform.u_range(t)
    pairs = []
    for u, _ in arith.square_centers(t.N, quadform.CENTER_STEP, t.offset, span.start, span.stop, skips):
        cand = quadform.try_candidate(t, u)
        if all(pow(cand.disc, (p - 1) // 2, p) in (0, 1) for p in primes):
            pairs.append(quadform.pair_from_candidate(t, cand))
            if not want_all:
                break
    return pairs


def test_heuristic_scan_keeps_the_pairs_of_every_qr_class():
    # heuristic_pairs scans nothing of its own: it filters the sound answer.
    # Every pair's u lies in the paper's interval and a QR class never drops
    # a square discriminant, so its pairs are those a whole-interval scan
    # with the skips and every QR class would leave, in the same order
    for n in range(1, 700):
        t = quadform.make_target(n)
        primes = quadform.default_filter_primes(t, 2000)
        got = quadform.heuristic_pairs(t, primes, want_all=True)
        assert got == _every_qr_class_scan(t, primes, True), n
    for n in (3001, 3013):
        t = quadform.make_target(n)
        for bound in (5000, 20000):
            primes = quadform.default_filter_primes(t, bound)
            assert quadform.heuristic_pairs(t, primes) == _every_qr_class_scan(t, primes, False)


def test_heuristic_filters_at_a_large_prime_bound_finish_quickly(capsys):
    # a QR class for every odd prime up to 20000 took 6.6 s to build here
    start = time.perf_counter()
    assert cli.main(["factor", "--n", "3001", "--heuristic-filters", "--prime-bound", "20000", "--json"]) == 0
    assert time.perf_counter() - start < 2.0
    assert '"verdict": "composite"' in capsys.readouterr().out


def test_each_class_reaches_the_kernel_once(monkeypatch):
    # the square screens imply the QR classes of the default filter primes
    # that divide a screen modulus (3 and 7 | 63, 13 | 65, 11 and 17 to 37),
    # so filter_kills builds only those of 41 to 97, and the kernel gets
    # each of them and each screen once
    reached = []
    kernel = arith.sieve_progression

    def recorded(start, stop, kills=(), *rest):
        reached.append(list(kills))
        return kernel(start, stop, kills, *rest)

    monkeypatch.setattr(arith, "sieve_progression", recorded)
    t = quadform.make_target(3001)  # N = 36024005 = 5 * 7204801
    primes = quadform.default_filter_primes(t)
    quadform.sieve_enumerate(t, primes)
    filters = quadform.filter_kills(t, primes)
    step, offset = quadform.CENTER_STEP, t.offset
    screens = arith.nonsquare_classes(t.N, step, offset)
    assert filters == arith.nonsquare_classes(t.N, step, offset, [p for p in primes if p > 37])
    assert reached == [filters + screens]
    assert len(primes) == 23 and len(filters) == 13 and len(set(reached[0])) == 13 + 10


def test_qr_filters_never_change_results():
    for t in composite_targets(300):
        primes = quadform.default_filter_primes(t)
        unfiltered = quadform.sieve_enumerate(t, (), want_all=True)
        filtered = quadform.sieve_enumerate(t, primes, want_all=True)
        assert unfiltered == filtered, t.n
        assert unfiltered, t.n


def test_qr_filters_keep_first_pair_full_range():
    # the full desk-scale range in first-hit mode (want_all sweeps the
    # entire interval and is exercised on the smaller range above)
    for t in composite_targets(2000):
        primes = quadform.default_filter_primes(t)
        unfiltered = quadform.sieve_enumerate(t, ())
        filtered = quadform.sieve_enumerate(t, primes)
        assert unfiltered == filtered, t.n
        assert filtered, t.n


def _full_interval_pairs(t):
    """want_all pairs of an unfiltered scan over the paper's whole interval."""
    span = quadform.u_range(t)
    screens = arith.nonsquare_classes(t.N, quadform.CENTER_STEP, t.offset)
    pairs = []
    for u in arith.sieve_progression(span.start, span.stop, screens):
        cand = quadform.try_candidate(t, u)
        if cand.root is not None:
            pairs.append(quadform.pair_from_candidate(t, cand))
    return pairs


def _as_tuples(pairs):
    return [(p.a, p.b, p.witness_u, p.d) for p in pairs]


def _oracle_pairs(t):
    """Every proper pair (a, b) of N as _as_tuples gives it, ascending in
    u = ((a+b)/2 - offset)/8 with gap d = (b-a)/2, from the oracle's pairs."""
    oracle = [] if t.n == 1 else audit.proper_factor_pairs(t.N)
    return [(a, b, ((a + b) // 2 - t.offset) // 8, (b - a) // 2) for a, b in reversed(oracle)]


def test_sieve_enumerate_stops_at_the_five_split_with_every_pair():
    # every pair's center lies at or below the (5, N/5) split's, about
    # halfway through the paper's interval, so the scan's stop loses none:
    # its pairs are the oracle's, and to n = 1000 a whole-interval scan's
    for n in range(1, 3001):
        t = quadform.make_target(n)
        pairs = quadform.sieve_enumerate(t, (), want_all=True)
        assert _as_tuples(pairs) == _oracle_pairs(t), n
        assert quadform.sieve_enumerate(t, ()) == pairs[:1], n
        if n <= 1000:
            assert pairs == _full_interval_pairs(t), n


@pytest.fixture
def no_scan(monkeypatch):
    """The paper's scan and the kernel under it raise when called."""

    def scan(*args, **kwargs):
        raise AssertionError("a scan ran")

    for module, name in (
        (quadform, "sieve_enumerate"),
        (quadform, "compositeness_witness"),
        (arith, "square_centers"),
        (arith, "sieve_progression"),
    ):
        monkeypatch.setattr(module, name, scan)


def _split_recorder(monkeypatch):
    """Record each _lehman_split call as (cofactor, factor returned)."""
    split = quadform._lehman_split
    calls = []

    def recorded(c):
        calls.append((c, split(c)))
        return calls[-1][1]

    monkeypatch.setattr(quadform, "_lehman_split", recorded)
    return calls


def _assert_factor_pairs_match_the_oracle(monkeypatch, generators):
    """factor_pairs gives the oracle's pairs, the first or all of them;
    returns its Lehman splits as a set of (n, cofactor, factor returned)."""
    calls = _split_recorder(monkeypatch)
    splits = set()
    for n in generators:
        t = quadform.make_target(n)
        expected = _oracle_pairs(t)
        for want_all in (False, True):
            got = _as_tuples(quadform.factor_pairs(t, want_all=want_all))
            assert got == (expected if want_all else expected[:1]), (n, want_all)
        splits |= {(n, *call) for call in calls}
        calls.clear()
    return splits


def test_factor_pairs_match_the_oracle_below_5000(monkeypatch, no_scan):
    hard = {n for n, _, _ in _assert_factor_pairs_match_the_oracle(monkeypatch, range(1, 5000))}
    # the hard cases: N = p*q, or p^2, times the factors up to N^(1/3)
    assert 3013 in hard and 3021 in hard  # 653 * 55609, 5 * 821 * 8893
    assert sum(3000 <= n < 5000 for n in hard) == 427


def test_factor_pairs_match_the_oracle_near_1e5_and_1e7(monkeypatch, no_scan):
    near_1e5 = range(10**5 - 100, 10**5 + 100)
    # 5 * 73 * 1095890630137, a prime N, and the hard 17 * 37 * 575401 * 1105193,
    # 5 * 2570437 * 31123181 and 5 * 1181 * 129197 * 524309 (each a cofactor
    # of two primes above N^(1/3))
    near_1e7 = (10**7 + 1, 10000013, 9999993, 10000011, 9999996)
    splits = _assert_factor_pairs_match_the_oracle(monkeypatch, [*near_1e5, *near_1e7])
    hard = {n for n, _, _ in splits}
    assert {9999993, 10000011, 9999996} <= hard and 10**7 + 1 not in hard


def test_factor_pairs_split_only_the_hard_cofactors(monkeypatch, no_scan):
    calls = _split_recorder(monkeypatch)
    # easy: the cofactor is 1 or a prime decided exactly (325 = 5^2 * 13,
    # then 365 * 1095890630137 and a prime N)
    for n in (9, 10**7 + 1, 10000013):
        quadform.factor_pairs(quadform.make_target(n))
    assert calls == []
    # 36312677 = 653 * 55609, both above N^(1/3) = 331
    assert _as_tuples(quadform.factor_pairs(quadform.make_target(3013))) == [
        (653, 55609, 3516, 27478)
    ]
    # 5 * 821 * 8893: the cofactor 821 * 8893 is composite after the 5
    assert [p.a for p in quadform.factor_pairs(quadform.make_target(3021), want_all=True)] == [
        4105, 821, 5
    ]
    assert calls == [(36312677, 55609), (821 * 8893, 821)]


def test_factor_pairs_prove_a_cofactor_past_the_exact_test_prime(monkeypatch, no_scan):
    # N = 4 * 1000012^2 + 1 is prime; with the exact test moved below it, as
    # past psi_13 (a real N there costs minutes of division and Lehman
    # search), no division up to N^(1/3) splits it, and the Lehman split
    # finding no factor is factor_pairs' prime verdict
    calls = _split_recorder(monkeypatch)
    monkeypatch.setattr(arith, "PRIME_TEST_EXACT_BELOW", 1 << 40)
    t = quadform.make_target(1000012)
    assert t.N >= arith.PRIME_TEST_EXACT_BELOW
    assert quadform.factor_pairs(t, want_all=True) == []
    assert calls == [(t.N, 1)]


@pytest.mark.parametrize("n", [19, 3013, 3021, 9999993])
def test_factor_pairs_run_no_scan(monkeypatch, no_scan, n):
    # 1445 = 5 * 17^2 (a p^2 cofactor), 653 * 55609, 5 * 821 * 8893 and
    # 17 * 37 * 575401 * 1105193: want_all and the heuristic skips choose
    # which pairs are returned, never what is searched
    calls = _split_recorder(monkeypatch)
    t = quadform.make_target(n)
    first = quadform.factor_pairs(t)
    assert quadform.factor_pairs(t, want_all=True)[:1] == first
    quadform.heuristic_pairs(t, quadform.default_filter_primes(t), want_all=True)
    assert len(calls) == 3 and len(set(calls)) == 1


def test_lehman_split_matches_the_oracle():
    # the cofactor of two primes above N^(1/3) of every hard n in
    # [3000, 5000), of n = 9999996 (129197 * 524309) and of n = 19 (17^2)
    cases = 0
    for n in [*range(3000, 5000), 9999996, 19]:
        t = quadform.make_target(n)
        big = [p for p in audit.oracle_factorize(t.N) if p**3 > t.N]
        if len(big) == 2:
            assert quadform._lehman_split(big[0] * big[1]) in big, n
            assert [quadform._lehman_split(p) for p in big] == [1, 1], n
            cases += 1
    assert cases == 427 + 2
    assert quadform._lehman_split(17 * 17) == 17


def test_factor_pairs_split_every_undecided_cofactor(monkeypatch, no_scan):
    # with only the cofactor 1 decided, every n whose division leaves more
    # goes to the Lehman split, which meets each outcome: N prime, another
    # prime cofactor (no factor either way), p^2 and p*q
    monkeypatch.setattr(arith, "PRIME_TEST_EXACT_BELOW", 2)
    splits = _assert_factor_pairs_match_the_oracle(monkeypatch, range(1, 3000))
    outcomes = Counter(
        ("N prime" if c == 4 * n * n + 1 else "prime") if g == 1 else "p^2" if g * g == c else "p*q"
        for n, c, g in splits
    )
    assert outcomes == {"N prime": 557, "prime": 1747, "p*q": 643, "p^2": 5}


def test_compositeness_witness_examples():
    assert quadform.compositeness_witness(quadform.make_target(4)).u == 1
    assert quadform.compositeness_witness(quadform.make_target(5)) is None  # 101
    assert quadform.compositeness_witness(quadform.make_target(9)).u == 2
    # 145 = 5 * 29: the only witness is the (5, N/5) split, the last u scanned
    assert quadform.compositeness_witness(quadform.make_target(6)).u == 2


def test_compositeness_witness_matches_candidate_arithmetic():
    for n in range(1, 200):
        t = quadform.make_target(n)
        w = quadform.compositeness_witness(t)
        if w is not None:
            assert w == quadform.try_candidate(t, w.u)


def _reference_witness(t):
    """The unsieved per-u scan: every u of the interval goes to the square test."""
    span = quadform.u_range(t)
    if not span:
        return None
    center = quadform.CENTER_STEP * span.start + t.offset
    disc = center * center - t.N
    for u in span:
        root = arith.is_perfect_square(disc)
        if root is not None:
            return quadform.Candidate(u=u, center=center, disc=disc, root=root)
        disc += 16 * center + 64
        center += 8
    return None


def test_compositeness_witness_matches_unsieved_scan():
    for n in range(1, 401):
        t = quadform.make_target(n)
        assert quadform.compositeness_witness(t) == _reference_witness(t), n


def test_compositeness_witness_stops_at_the_five_split(monkeypatch):
    stops = []
    real = arith.square_centers

    def spy(N, step, offset, start, stop, *rest):
        stops.append(stop)
        return real(N, step, offset, start, stop, *rest)

    monkeypatch.setattr(arith, "square_centers", spy)
    t = quadform.make_target(1402)  # N prime: the scan runs to its end
    assert quadform.compositeness_witness(t) is None
    center = (5 + t.N // 5) // 2  # of the (5, N/5) split, rounded down
    assert stops == [(center - t.offset) // quadform.CENTER_STEP + 1]


def test_compositeness_witness_is_the_smallest_pair_index():
    # the expected u comes from the oracle's pairs, not from any scan
    for n in range(1, 2001):
        t = quadform.make_target(n)
        pairs = audit.proper_factor_pairs(t.N)
        w = quadform.compositeness_witness(t)
        assert (w is None) == (not pairs) == arith.is_prime(t.N), n
        if pairs:
            assert w.u == min(quadform.derive_u(t, a, b) for a, b in pairs), n


def test_primality_agreement_small_sweep():
    for n in range(1, 300):
        t = quadform.make_target(n)
        assert (quadform.compositeness_witness(t) is None) == arith.is_prime(t.N)


def test_derive_u_examples():
    assert quadform.derive_u(quadform.make_target(4), 5, 13) == 1
    t325 = quadform.make_target(9)
    assert quadform.derive_u(t325, 13, 25) == 2
    assert quadform.derive_u(t325, 5, 65) == 4


def test_derive_u_rejects_bad_pairs():
    t = quadform.make_target(4)
    with pytest.raises(ValueError):
        quadform.derive_u(t, 3, 21)  # 63 != 65
    with pytest.raises(ValueError):
        quadform.derive_u(t, 1, 65)  # trivial
    with pytest.raises(ValueError):
        quadform.derive_u(t, 13, 5)  # misordered


def test_derive_u_cross_derivation_sweep():
    # derive_u asserts the small-factor identity internally; sweeping all
    # oracle pairs exercises it for both parities.
    for t in composite_targets(300):
        for a, b in audit.proper_factor_pairs(t.N):
            u = quadform.derive_u(t, a, b)
            u_min, u_sup = quadform.u_interval(t)
            assert u_min <= u < u_sup, (t.n, a, b)


def test_all_proper_factors_are_1_mod_4():
    for t in composite_targets(300):
        for a, b in audit.proper_factor_pairs(t.N):
            assert a % 4 == 1 and b % 4 == 1, (t.n, a, b)


def test_pair_reconstruction_identity():
    for t in composite_targets(200):
        for pair in quadform.sieve_enumerate(t, (), want_all=True):
            center = quadform.CENTER_STEP * pair.witness_u + t.offset
            assert (center - pair.d) * (center + pair.d) == t.N
            assert center * center - pair.d * pair.d == t.N
            assert pair.a * pair.b == t.N


def test_witness_monotonicity():
    for t in composite_targets(200):
        pairs = quadform.sieve_enumerate(t, (), want_all=True)
        centers = [quadform.CENTER_STEP * p.witness_u + t.offset for p in pairs]
        gaps = [p.d for p in pairs]
        assert centers == sorted(centers)
        assert all(x < y for x, y in zip(gaps, gaps[1:]))


def test_factor_pairs_at_9999996_within_10_ms():
    # N = 5 * 1181 * 129197 * 524309: division to N^(1/3) and the Lehman
    # split of 129197 * 524309 take about 2 ms
    t = quadform.make_target(9999996)
    best = float("inf")
    for _ in range(5):
        start = time.perf_counter()
        quadform.factor_pairs(t, want_all=True)
        best = min(best, time.perf_counter() - start)
    assert best < 0.010, f"took {best * 1000:.1f} ms"
