"""Tests for the oracle and the claim-audit harness."""

import hashlib
import itertools
import json
import sys
import time

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fermatsieve import arith, audit, fermat_numbers, quadform
from fermatsieve.audit import ClaimId, Violation
from test_quadform import marked

F5_PAIR = (641, 6700417)

#: One real instance per claim on which the claim holds: (n, pair, index,
#: modulus), n being the Fermat index for F- and L2-claims.
HOLDING = {
    ClaimId.E1: (4, (5, 13), 1, None),
    ClaimId.E2: (4, (5, 13), 1, None),
    ClaimId.E3: (4, (5, 13), 1, 3),
    ClaimId.E4: (4, (5, 13), 1, 3),
    ClaimId.E5A_N: (6, (5, 29), 2, 4),
    # every pair with m even violates E5a_m (up to n = 200 at least); here
    # m = 17 is odd, so the claim says nothing although u != 2 (mod 4)
    ClaimId.E5A_M: (34, (25, 185), 13, 4),
    ClaimId.E5B_N: (4, (5, 13), 1, 4),
    ClaimId.E5B_M: (4, (5, 13), 1, 4),
    ClaimId.E6_N: (4, (5, 13), 1, 3),
    ClaimId.E6_M: (4, (5, 13), 1, 3),
    ClaimId.O1: (9, (5, 65), 4, None),
    ClaimId.O2: (9, (5, 65), 4, None),
    ClaimId.O3: (9, (5, 65), 4, 3),
    ClaimId.O4: (9, (5, 65), 4, 3),
    ClaimId.L1: (4, (5, 13), 1, None),
    ClaimId.CE: (4, (5, 13), 1, None),
    ClaimId.CO: (9, (5, 65), 4, None),
    ClaimId.F1: (5, F5_PAIR, 409, None),
    ClaimId.F2: (5, F5_PAIR, 409, None),
    ClaimId.F3: (5, F5_PAIR, 409, 3),
    ClaimId.F4: (5, F5_PAIR, 409, 4),
    ClaimId.F5: (5, F5_PAIR, 409, 3),
    ClaimId.L2: (5, F5_PAIR, 5, None),  # 641 = 2^7 * 5 + 1
}

#: sha256 of the ledger that test_ledger_bytes_pinned serializes, as the
#: hand-written audit loops wrote it before the claim registry replaced them.
LEDGER_SHA256 = "db417acfc108a8ad781faa44183915503278fb8905dce60242f60c25618239f4"
#: The same over n <= 2000, as written before the witness scan gained its
#: prime screens and the admissible sets their shared cache.
LEDGER_2000_SHA256 = "dea798ed3adee4c3ff7145860a579ab58510c9eb1488c291864a745e86dba162"


def report_map(reports):
    return {r.claim: r for r in reports}


def test_oracle_factorize_examples():
    assert audit.oracle_factorize(325) == [5, 5, 13]
    assert audit.oracle_factorize(9797) == [97, 101]
    assert audit.oracle_factorize(101) == [101]
    assert audit.oracle_factorize(2) == [2]
    with pytest.raises(ValueError):
        audit.oracle_factorize(1)


def test_oracle_reconstruction_exhaustive_small():
    for N in range(2, 20001):
        factors = audit.oracle_factorize(N)
        product = 1
        for p in factors:
            product *= p
        assert product == N
        assert factors == sorted(factors)


def test_oracle_reconstruction_sampled_large():
    # deterministic samples across the full desk-scale range
    for N in range(10**6 + 3, 2 * 10**7, 99991):
        factors = audit.oracle_factorize(N)
        product = 1
        for p in factors:
            product *= p
        assert product == N


def test_oracle_factors_are_prime():
    def dumb_prime(x):
        return x >= 2 and all(x % d for d in range(2, int(x**0.5) + 1))

    for N in (325, 9797, 3601, 12545, 65537, 2 * 3 * 5 * 7 * 11 * 13):
        assert all(dumb_prime(p) for p in audit.oracle_factorize(N))


def _wheel_factorize(N):
    """Plain 2*3*5 wheel trial division, one member at a time."""
    factors = []
    for p in (2, 3, 5):
        while N % p == 0:
            factors.append(p)
            N //= p
    d, steps = 7, itertools.cycle((4, 2, 4, 2, 4, 6, 2, 6))
    while d * d <= N:
        while N % d == 0:
            factors.append(d)
            N //= d
        d += next(steps)
    if N > 1:
        factors.append(N)
    return factors


@settings(max_examples=150, deadline=None)
@given(st.integers(2, 2**44))
# squares and products of the members at chunk edges: 7 and 121 open and
# close the first chunk, 127 opens the second
@example(7 * 7)
@example(121 * 121)
@example(121 * 127)
@example(7 * 121 * 127 * 241 * 247)
# 65521 closes the last chunk whose product is kept, and 65527 = 7 * 9361
# opens the first one past it
@example(65521 * 65521)
@example(65521 * 65527)
# prime powers
@example(7**15)
@example(127**6)
@example(65521**3)
@example(3**27 * 5**2)
# just past the square of the kept prefix, with the primes 65537 and 65539
@example(65527**2 + 2)
@example(65537**2)
@example(65537 * 65539)
@example(2**32 + 15)
def test_oracle_equals_a_plain_wheel(N):
    assert audit.oracle_factorize(N) == _wheel_factorize(N)


def test_oracle_keeps_its_chunk_products_bounded():
    # 65537 and 65539 are the first primes past 2^16: the division runs
    # through every chunk whose product is kept, and on past them
    assert audit.oracle_factorize(65537 * 65539) == [65537, 65539]
    products = audit._chunk_products
    assert all(products) and 7 + 120 * (len(products) - 1) + audit._CHUNK[-1] < 2**16
    assert sys.getsizeof(products) + sum(map(sys.getsizeof, products)) < 128 * 1024


def test_proper_factor_pairs_examples():
    assert audit.proper_factor_pairs(325) == [(5, 65), (13, 25)]
    assert audit.proper_factor_pairs(65) == [(5, 13)]
    assert audit.proper_factor_pairs(37) == []
    assert audit.proper_factor_pairs(36) == [(2, 18), (3, 12), (4, 9), (6, 6)]


def test_l1_witness():
    t65 = quadform.make_target(4)
    b = audit.l1_witness(t65)
    assert b == 1 and 65 % (4 * b + 1) == 0
    # prime even-generator target: no witness
    assert audit.l1_witness(quadform.make_target(2)) is None  # N = 17
    with pytest.raises(ValueError):
        audit.l1_witness(quadform.make_target(9))  # odd generator


def test_audit_o3_contains_the_known_violation():
    reports = audit.audit_claims(1, 50, {ClaimId.O3}, 50)
    (report,) = reports
    hits = [
        v
        for v in report.violations
        if (v.n, v.N, v.pair, v.u, v.modulus) == (9, 325, (13, 25), 2, 3)
    ]
    assert len(hits) == 1
    assert report.instances_tested > 0


def test_audit_e3_violation_at_n30():
    reports = audit.audit_claims(30, 30, {ClaimId.E3}, 50)
    (report,) = reports
    assert [(v.N, v.pair, v.u, v.modulus) for v in report.violations] == [
        (3601, (13, 277), 18, 3)
    ]


def test_audit_structural_claims_clean_small_range():
    claims = {c for c in audit.STRUCTURAL_CLAIMS}
    for report in audit.audit_claims(1, 200, claims, 97):
        assert report.violations == [], report.claim
        assert report.instances_tested > 0


def test_audit_e6_single_instance_at_n4():
    reports = report_map(audit.audit_claims(4, 4, {ClaimId.E6_N, ClaimId.E6_M}, 97))
    for claim in (ClaimId.E6_N, ClaimId.E6_M):
        assert reports[claim].instances_tested == 1
        assert reports[claim].violations == []


def test_e5_both_directions_have_counterexamples():
    # N = 65 (u = 1): the positive direction (u = 2 mod 4) fails, the
    # negative one holds.
    reports = report_map(
        audit.audit_claims(4, 4, {ClaimId.E5A_N, ClaimId.E5B_N}, 97)
    )
    assert len(reports[ClaimId.E5A_N].violations) == 1
    assert reports[ClaimId.E5B_N].violations == []
    # N = 145 (u = 2): the other way around.
    reports = report_map(
        audit.audit_claims(6, 6, {ClaimId.E5A_N, ClaimId.E5B_N}, 97)
    )
    assert reports[ClaimId.E5A_N].violations == []
    assert len(reports[ClaimId.E5B_N].violations) == 1
    # m-reading: n = 6 has odd m = 3, so neither claim has an instance.
    reports = report_map(
        audit.audit_claims(6, 6, {ClaimId.E5A_M, ClaimId.E5B_M}, 97)
    )
    assert reports[ClaimId.E5A_M].instances_tested == 0
    assert reports[ClaimId.E5B_M].instances_tested == 0


def test_membership_claims_never_violated_small_range():
    reports = audit.audit_claims(1, 150, {ClaimId.E4, ClaimId.O4}, 97)
    for report in reports:
        assert report.violations == []
        assert report.instances_tested > 0


def test_every_violation_reverifies():
    reports = audit.audit_claims(1, 100, None, 97)
    total = 0
    for report in reports:
        for v in report.violations:
            assert audit.verify_violation(report.claim, v), (report.claim, v)
            total += 1
    assert total > 0  # the range does contain counterexamples


def test_audit_raises_when_a_violation_fails_replay(monkeypatch):
    # the audit replays its own ledger before it returns, for any caller
    monkeypatch.setattr(audit, "verify_violation", lambda claim, v: False)
    with pytest.raises(ArithmeticError, match="re-verification") as info:
        audit.audit_claims(1, 50, {ClaimId.O3})
    assert "O3" in str(info.value)


def test_per_target_record_replays_by_the_pair_and_modulus_rule(monkeypatch):
    # L1 is made once per target, yet its record's pair must still multiply
    # to N and its modulus must be None, the only one it is checked at
    monkeypatch.setattr(audit, "l1_witness", lambda t: None)
    (report,) = audit.audit_claims(4, 4, {ClaimId.L1})
    (v,) = report.violations
    assert (v.pair, v.u, v.modulus) == ((5, 13), 1, None)
    assert audit.verify_violation(ClaimId.L1, v)
    assert not audit.verify_violation(ClaimId.L1, v._replace(modulus=5))
    assert not audit.verify_violation(ClaimId.L1, v._replace(pair=(5, 14)))


@pytest.fixture(scope="module")
def small_ledger():
    """Violations of the audits over n <= 100 and F_5, F_6, by claim."""
    reports = audit.audit_claims(1, 100) + audit.audit_fermat([5, 6])
    return {r.claim: r.violations for r in reports if r.violations}


def test_corrupted_violation_fails_reverification(small_ledger):
    good = Violation(n=9, N=325, pair=(13, 25), u=2, modulus=3, detail="")
    assert audit.verify_violation(ClaimId.O3, good)
    for bad in (
        Violation(n=9, N=325, pair=(13, 25), u=3, modulus=3, detail=""),  # wrong u
        Violation(n=9, N=325, pair=(13, 26), u=2, modulus=3, detail=""),  # wrong pair
        Violation(n=9, N=325, pair=(13, 25), u=2, modulus=7, detail=""),  # wrong p
        Violation(n=9, N=326, pair=(13, 25), u=2, modulus=3, detail=""),  # wrong N
    ):
        assert not audit.verify_violation(ClaimId.O3, bad)
    # u = 45 is 0 modulo each of these, but E3 is checked at primes p = 3 (mod 4) only
    e3 = Violation(n=48, N=9217, pair=(13, 709), u=45, modulus=3, detail="")
    assert audit.verify_violation(ClaimId.E3, e3)
    for p in (None, 1, 5, 15):
        assert not audit.verify_violation(ClaimId.E3, e3._replace(modulus=p)), p
    # u = 6 = 0 (mod 3), but n = 11 is odd and E3 is an even-generator claim
    assert not audit.verify_violation(ClaimId.E3, Violation(11, 485, (5, 97), 6, 3, ""))
    # 257 = 2^7 * 2 + 1 does not divide F_5, but (257, 16711681) is no pair of F_5
    l2 = Violation(n=5, N=2**32 + 1, pair=(257, 16711681), u=2, modulus=None, detail="")
    assert not audit.verify_violation(ClaimId.L2, l2)

    assert set(small_ledger) == {
        ClaimId.E3, ClaimId.E5A_N, ClaimId.E5A_M, ClaimId.E5B_N, ClaimId.O3
    }
    for claim, violations in small_ledger.items():
        v = violations[0]
        assert audit.verify_violation(claim, v), claim
        a, b = v.pair
        bad = [
            v._replace(u=v.u + (v.modulus or 1)),  # same u mod p: only the index check fails
            v._replace(pair=(a, b + 1)),
            v._replace(N=v.N + 1),
        ]
        if v.modulus is not None:
            # p + 2 is a modulus the claim is never checked at: p = 3 (mod 4)
            # gives 1 (mod 4), and the fixed modulus 4 gives 6
            bad.append(v._replace(modulus=v.modulus + 2))
        for corrupted in bad:
            assert not audit.verify_violation(claim, corrupted), (claim, corrupted)


@pytest.mark.parametrize("claim", list(ClaimId), ids=lambda c: c.value)
def test_holding_instance_does_not_replay(claim):
    n, (a, b), index, modulus = HOLDING[claim]
    center = (a + b) // 2
    if claim is ClaimId.L2:
        N, expected = 2 ** 2 ** n + 1, (a - 1) >> (n + 2)  # a = 2^(n+2) s + 1
    elif claim in audit.FERMAT_CLAIMS:
        N, expected = 2 ** 2 ** n + 1, (center - 1) >> (2 * n + 3)  # center = 2^(2n+3) lam + 1
    else:
        offset = 1 if n % 2 == 0 else 3
        N, expected = 4 * n * n + 1, (center - offset) // 8  # center = 8u + offset
    assert a * b == N and index == expected  # a real pair, recorded under its index
    assert not audit.verify_violation(claim, Violation(n, N, (a, b), index, modulus, ""))


def test_trivial_pair_does_not_replay():
    # (1, F_5) and (-1, -F_5) are no proper pairs: L2's index rejects them
    # instead of handing s = 0 or s = -1 to the membership check
    F5 = 2**32 + 1
    assert audit.verify_violation(ClaimId.L2, Violation(5, F5, (1, F5), 0, None, "")) is False
    assert audit.verify_violation(ClaimId.L2, Violation(5, F5, (-1, -F5), -1, None, "")) is False


@pytest.mark.parametrize("claim", sorted(audit.FERMAT_CLAIMS, key=lambda c: c.value))
@pytest.mark.parametrize("n", [fermat_numbers.MAX_INDEX + 1, 40])
def test_replay_never_builds_f_n_past_the_cap(monkeypatch, claim, n):
    # F_31 is a 256 MiB integer and F_40 a 128 GiB one: refuse the record
    value = fermat_numbers.FermatTarget.value

    def capped(t):
        if t.index_n > fermat_numbers.MAX_INDEX:
            raise AssertionError(f"built F_{t.index_n}")
        return value.fget(t)

    monkeypatch.setattr(fermat_numbers.FermatTarget, "value", property(capped))
    v = Violation(n, 2 ** 2 ** 5 + 1, (641, 6700417), 5, None, "")
    assert audit.verify_violation(claim, v) is False


def _reference_audit(targets, claims, odd_primes):
    """[claim id, instances, violations] per claim, each instance (index,
    modulus) judged by its own predicate call, in table order."""
    tallies = {c.id: [0, []] for c in claims}
    for x in targets:
        for c in claims:
            if c.family != x.family or not c.applies(x):
                continue
            moduli = c.moduli
            if callable(moduli):  # picked one prime at a time
                moduli = [p for p in odd_primes if c.moduli([p])(x) == [p]]
            for pair in x.pairs if c.index else [None]:
                index = c.index(x, *pair) if pair else None
                for p in moduli:
                    tallies[c.id][0] += 1
                    for q, detail in c.violated(x, index, (p,)):
                        record = (pair, index) if pair else x.target_record()
                        tallies[c.id][1].append(Violation(x.n, x.N, *record, q, detail))
    return [[i, *tally] for i, tally in tallies.items()]


@pytest.mark.parametrize("prime_bound", [97, 211])
def test_audit_equals_a_per_instance_reference(prime_bound):
    odd_primes = arith.primes_up_to(prime_bound)[1:]
    reports = audit.audit_claims(1, 300, None, prime_bound)
    generators = [audit._Generator(n) for n in range(1, 301)]
    quad = [c for c in audit.CLAIMS if c.family != "fermat"]
    expected = _reference_audit(generators, quad, odd_primes)
    assert [[r.claim.value, r.instances_tested, r.violations] for r in reports] == expected
    assert any(r.violations for r in reports)
    for r in reports:
        for v in r.violations:
            assert audit.verify_violation(r.claim, v), (r.claim, v)
            assert not audit.verify_violation(r.claim, v._replace(u=v.u + (v.modulus or 1)))
            if v.modulus is not None:
                assert not audit.verify_violation(r.claim, v._replace(modulus=v.modulus + 2))


def test_audit_fermat_equals_a_per_instance_reference():
    reports = audit.audit_fermat([4, 5, 6, 7])
    # F_4 is prime and F_7 past the search budget: only F_5 and F_6 have a pair
    targets = []
    for idx, a in ((5, 641), (6, 274177)):
        t = fermat_numbers.make_fermat(idx)
        targets.append(audit._Fermat(t, t.value, (a, t.value // a)))
    fermat = [c for c in audit.CLAIMS if c.family == "fermat"]
    expected = _reference_audit(targets, fermat, arith.primes_up_to(97)[1:])
    assert [[r.claim.value, r.instances_tested, r.violations] for r in reports] == expected


def test_every_ledger_violation_replays():
    reports = audit.audit_claims(1, 400) + audit.audit_fermat([4, 5, 6, 7])
    violations = [(r.claim, v) for r in reports for v in r.violations]
    assert violations
    for claim, v in violations:
        assert audit.verify_violation(claim, v) is True, (claim, v)


#: The smallest prime factor of F_5 .. F_12, so that the replay property
#: below also draws real pairs of the Fermat numbers.
_FERMAT_FACTORS = (641, 274177, 59649589127497217, 1238926361552897, 2424833, 45592577,
                   319489, 114689)


@st.composite
def _records(draw):
    """A claim and a record for it: a real or bogus target, a pair that may
    be proper, trivial or no pair at all, and either the index the claim's
    formula gives that pair or a small one."""
    claim = draw(st.sampled_from(list(ClaimId)))
    if claim in audit.FERMAT_CLAIMS:
        n = draw(st.integers(-1, 12))
        N = 2 ** 2 ** n + 1 if n >= 0 else 2
        divisors = st.sampled_from((1, -1, 2, 3) + _FERMAT_FACTORS)
    else:
        n = draw(st.integers(-3, 3000))
        N = 4 * n * n + 1
        divisors = st.integers(-5, 60)
    a = draw(divisors)
    small = st.tuples(st.integers(-60, 60), st.integers(-60, 60))
    pair = draw(st.one_of(st.just((a, N // a if a else 0)), st.just((N // a if a else 0, a)), small))
    N = draw(st.sampled_from((N, N + 2)))
    center = (pair[0] + pair[1]) // 2
    if claim is ClaimId.L2:
        formula = (pair[0] - 1) >> max(n + 2, 0)
    elif claim in audit.FERMAT_CLAIMS:
        formula = (center - 1) >> max(2 * n + 3, 0)
    else:
        formula = (center - (1 if n % 2 == 0 else 3)) // 8
    u = draw(st.one_of(st.just(formula), st.integers(-5, 60)))
    modulus = draw(st.one_of(st.none(), st.integers(-3, 100)))
    return claim, Violation(n, N, pair, u, modulus, "")


def test_replay_of_a_record_of_the_wrong_shape_gives_false():
    # no pair, and a modulus that is a str: the replay gives False, as for a wrong value
    for v in (Violation(4, 65, None, 1, 3, ""), Violation(4, 65, (5, 13), 1, "3", "")):
        assert audit.verify_violation(ClaimId.E3, v) is False
    e3 = Violation(n=48, N=9217, pair=(13, 709), u=45, modulus=3, detail="")
    assert audit.verify_violation(ClaimId.E3, e3) is True
    for v in (e3._replace(pair=None), e3._replace(modulus="3")):
        assert audit.verify_violation(ClaimId.E3, v) is False


@settings(max_examples=400, deadline=None)
@given(_records())
def test_replay_always_returns_a_bool(record):
    claim, v = record
    assert isinstance(audit.verify_violation(claim, v), bool)


def test_claim_registry_derives_the_claim_sets():
    # ClaimId order is the ledger's report order
    assert [c.value for c in ClaimId] == [
        "E1", "E2", "E3", "E4", "E5a_n", "E5a_m", "E5b_n", "E5b_m", "E6_n", "E6_m",
        "O1", "O2", "O3", "O4", "L1", "CE", "CO", "F1", "F2", "F3", "F4", "F5", "L2",
    ]
    assert {c.value for c in audit.FERMAT_CLAIMS} == {"F1", "F2", "F3", "F4", "F5", "L2"}
    assert audit.QUAD_CLAIMS == set(ClaimId) - audit.FERMAT_CLAIMS
    assert {c.value for c in audit.STRUCTURAL_CLAIMS} == {"E1", "E2", "O1", "O2", "L1", "CE", "CO"}


def _ledger_sha256(n_max):
    # covers the F_4 "prime" and F_7 "skipped" notes besides the claims
    reports = audit.audit_claims(1, n_max) + audit.audit_fermat([4, 5, 6, 7])
    text = json.dumps([audit.report_to_dict(r) for r in reports], sort_keys=True)
    return hashlib.sha256(text.encode()).hexdigest()


def test_ledger_bytes_pinned():
    assert _ledger_sha256(400) == LEDGER_SHA256


def test_ledger_bytes_pinned_to_2000():
    assert _ledger_sha256(2000) == LEDGER_2000_SHA256


def test_admissible_predicate_matches_the_parametric_sets():
    # E4/O4's own predicate against the sweep, both parities
    cases = [(n, p) for n in range(1, 401) for p in arith.primes_up_to(97)[1:]]
    cases += [(n, p) for n in (4, 9, 1500, 1501) for p in (101, 1009, 65537)]
    for n, p in cases:
        x = audit._Generator(n)
        if x.N % p:
            admitted = {u for u in range(p) if not audit._not_admissible(x, u, (p,))}
            assert admitted == marked(quadform.admissible_residues_parametric(x.t, p)), (n, p)


@pytest.mark.parametrize(
    "claim, record",
    [(ClaimId.E4, (4, 65, (5, 13), 1)), (ClaimId.O4, (11, 485, (5, 97), 6))],
)
def test_replay_refuses_a_modulus_past_the_prime_bound_cap(claim, record):
    # the first prime past the cap, which no audit checks a claim at
    p = 1048583
    assert arith.is_prime(p) and p > arith.PRIME_BOUND_MAX
    start = time.perf_counter()
    assert audit.verify_violation(claim, Violation(*record, p, "")) is False
    assert time.perf_counter() - start < 0.1


def test_admissible_claims_at_the_prime_bound_cap_are_bounded():
    claims = {ClaimId.E4, ClaimId.O4}
    tally = lambda reports: [(r.claim, r.instances_tested, len(r.violations)) for r in reports]
    assert tally(audit.audit_claims(1500, 1503, claims, 20000)) == [
        (ClaimId.E4, 4520, 0), (ClaimId.O4, 9037, 0)
    ]
    start = time.perf_counter()
    reports = audit.audit_claims(1500, 1503, claims, arith.PRIME_BOUND_MAX)
    assert time.perf_counter() - start < 10
    assert tally(reports) == [(ClaimId.E4, 164044, 0), (ClaimId.O4, 328085, 0)]


def test_prime_bounds_past_the_cap_are_refused_before_any_sieve():
    bound = arith.PRIME_BOUND_MAX + 1
    refusals = [
        lambda: arith.primes_up_to(bound),
        lambda: audit.audit_claims(1, 1, prime_bound=bound),
        lambda: audit.audit_fermat([5], prime_bound=bound),
        lambda: quadform.default_filter_primes(quadform.make_target(4), bound),
    ]
    for refuse in refusals:
        with pytest.raises(ValueError, match=f"past PRIME_BOUND_MAX = {arith.PRIME_BOUND_MAX}"):
            refuse()
    assert len(arith.primes_up_to(arith.PRIME_BOUND_MAX)) == 82025


def test_audit_determinism():
    one = audit.audit_claims(1, 150, None, 97)
    two = audit.audit_claims(1, 150, None, 97)
    as_json = lambda reports: json.dumps(
        [audit.report_to_dict(r) for r in reports], sort_keys=True
    )
    assert as_json(one) == as_json(two)


def test_audit_rejects_bad_input():
    with pytest.raises(ValueError):
        audit.audit_claims(0, 10, None, 97)
    with pytest.raises(ValueError):
        audit.audit_claims(1, 10, {ClaimId.F1}, 97)


def test_audit_fermat_f5():
    reports = report_map(audit.audit_fermat([5]))
    for claim in (ClaimId.F1, ClaimId.F2, ClaimId.F4, ClaimId.F5, ClaimId.L2):
        assert reports[claim].instances_tested == 1
        assert reports[claim].violations == []
    assert reports[ClaimId.F3].instances_tested == 13  # primes 3 mod 4 up to 97
    assert reports[ClaimId.F3].violations == []


def test_f1_judges_any_other_lam_by_the_exact_square_test(monkeypatch):
    # F_5's pair has its center at lam = 409 and takes no square test; a
    # lam one step away has a discriminant that is no square, and the
    # center (1 + F_5) / 2 of the trivial split, at lam = 2^18, one that is
    F1 = audit._BY_ID["F1"]
    t = fermat_numbers.make_fermat(5)
    x = audit._Fermat(t, t.value, F5_PAIR)
    tested = []
    square = arith.is_perfect_square
    monkeypatch.setattr(arith, "is_perfect_square", lambda d: tested.append(d) or square(d))
    assert F1.violated(x, 409, (None,)) == [] and tested == []
    detail = "discriminant at lam=410 is not a perfect square"
    assert F1.violated(x, 410, (None,)) == [(None, detail)] and len(tested) == 1
    assert F1.violated(x, 2**18, (None,)) == [] and tested[1] == ((t.value - 1) // 2) ** 2


def test_audit_fermat_f6():
    reports = report_map(audit.audit_fermat([6]))
    for claim in (ClaimId.F1, ClaimId.F2, ClaimId.F4, ClaimId.F5, ClaimId.L2):
        assert reports[claim].instances_tested == 1
        assert reports[claim].violations == [], claim


def test_audit_fermat_probe_and_skip_notes():
    reports = audit.audit_fermat([4])
    assert all(r.instances_tested == 0 for r in reports)
    assert "F_4: prime" in reports[0].range_tested

    reports = audit.audit_fermat([7])
    assert all(r.instances_tested == 0 for r in reports)
    assert "skipped" in reports[0].range_tested


def test_audit_fermat_judges_only_the_selected_claims():
    whole = {r.claim: r for r in audit.audit_fermat([5, 6])}
    chosen = audit.audit_fermat([5, 6], claims={ClaimId.L2, ClaimId.F5})
    assert chosen == [whole[ClaimId.F5], whole[ClaimId.L2]]  # in CLAIMS order
    with pytest.raises(ValueError, match="not Fermat claims: \\['E1'\\]"):
        audit.audit_fermat([5], claims={ClaimId.E1})


def test_audit_fermat_searches_each_index_once(monkeypatch):
    first = audit.audit_fermat([5, 6])
    calls = []
    real = fermat_numbers.lucas_divisors
    monkeypatch.setattr(fermat_numbers, "lucas_divisors", lambda *a: calls.append(a) or real(*a))
    assert audit.audit_fermat([5, 6]) == first
    assert calls == []


@pytest.mark.parametrize("indices", [[fermat_numbers.MAX_INDEX + 2], [5, 36]])
def test_audit_fermat_refuses_indices_past_the_cap(monkeypatch, indices):
    # F_32 has the factor 1479 * 2^34 + 1 within the default budget, and then
    # F_32 and its cofactor are two 512 MiB integers: refuse before searching
    def no_search(idx):
        raise AssertionError(f"searched F_{idx}")

    monkeypatch.setattr(audit, "_fermat_divisor", no_search)
    with pytest.raises(ValueError, match=f"<= {fermat_numbers.MAX_INDEX}"):
        audit.audit_fermat(indices)


def test_moduli_are_picked_once_per_audit(monkeypatch):
    # E3/O3/F3 are checked at the odd primes = 3 (mod 4) up to the bound on
    # every target: each claim's moduli function picks them once per audit,
    # not once per target, and the reports are those of the table unchanged
    selected = {ClaimId.E3, ClaimId.O3, ClaimId.E4}
    expected = audit.audit_claims(1, 60, selected, 211), audit.audit_fermat([5], 211)
    picks = []

    def counted(moduli):
        def pick(*args):
            picks.append(args)
            return moduli(*args)

        return pick

    claims = [c._replace(moduli=counted(c.moduli)) if callable(c.moduli) else c for c in audit.CLAIMS]
    monkeypatch.setattr(audit, "CLAIMS", tuple(claims))
    assert audit.audit_claims(1, 60, selected, 211) == expected[0]
    assert len(picks) == 3
    assert audit.audit_fermat([5], 211) == expected[1]
    assert len(picks) == 4


def _flagged(claim_id, x, index, odd_primes):
    """Whether the claim flags the index at any modulus it is checked at."""
    c = audit._BY_ID[claim_id]
    moduli = c.moduli(odd_primes)(x) if callable(c.moduli) else c.moduli
    return bool(c.violated(x, index, moduli))


def test_heuristic_skips_drop_what_e3_and_o3_flag():
    # a pruning step is a claim the audit checks: the skips of
    # --heuristic-filters are E3 (even n) and O3 (odd n), pair for pair
    odd_primes = [p for p in arith.primes_up_to(97) if p != 2]
    outcomes = set()
    for n in range(1, 401):
        x = audit._Generator(n)
        kept = quadform.heuristic_pairs(x.t, quadform.default_filter_primes(x.t), want_all=True)
        claim = "E3" if n % 2 == 0 else "O3"
        for pair in quadform.factor_pairs(x.t, want_all=True):
            dropped = pair not in kept
            assert dropped == _flagged(claim, x, pair.witness_u, odd_primes), (n, pair)
            outcomes.add((claim, dropped))
    assert outcomes == {(c, d) for c in ("E3", "O3") for d in (False, True)}


@pytest.mark.parametrize("index", [5, 6, 7, 8])
def test_lambda_filters_skip_what_f3_f4_f5_flag(index):
    t = fermat_numbers.make_fermat(index)
    x = audit._Fermat(t, t.value, None)
    odd_primes = [p for p in arith.primes_up_to(97) if p != 2]
    lam_min, lam_sup = fermat_numbers.lambda_interval(t)
    flagged = sum(
        any(_flagged(c, x, lam, odd_primes) for c in ("F3", "F4", "F5"))
        for lam in range(lam_min, min(lam_sup, lam_min + 3000))
    )
    assert fermat_numbers.lambda_search(t, 3000, True).skipped == flagged


def test_l2_never_builds_the_divisor_cap():
    # the divisor cap is a 64 MiB integer at index 30; L2 compares bit lengths
    reports = report_map(audit.audit_fermat([5, 6]))
    assert reports[ClaimId.L2].instances_tested == 2
    assert reports[ClaimId.L2].violations == []
    F5 = 2**32 + 1
    assert not audit.verify_violation(ClaimId.L2, Violation(5, F5, F5_PAIR, 5, None, ""))
    # the cofactor 6700417 = 2^7 * 52347 + 1 divides F_5 but lies past the cap
    beyond = Violation(5, F5, F5_PAIR[::-1], 52347, None, "")
    assert audit.verify_violation(ClaimId.L2, beyond)


def test_audit_fermat_skips_an_index_past_the_search_budget():
    # F_7's smallest factor is 2^9 * 116503103764643 + 1, far past s = 20000
    reports = audit.audit_fermat([7])
    assert all(r.instances_tested == 0 for r in reports)
    assert "F_7: skipped, no factorization within search budget 20000" in reports[0].range_tested


def test_fermat_divisor_cache_is_bounded():
    cache = audit._fermat_divisor
    assert cache.cache_info().maxsize == audit._FERMAT_DIVISOR_CACHE == fermat_numbers.MAX_INDEX + 1


def test_parse_claim_spec():
    assert audit.parse_claim_spec("all") == set(ClaimId)
    assert audit.parse_claim_spec("E1,E2") == {ClaimId.E1, ClaimId.E2}
    assert audit.parse_claim_spec("e5a") == {ClaimId.E5A_N, ClaimId.E5A_M}
    assert audit.parse_claim_spec("E6, O3") == {
        ClaimId.E6_N,
        ClaimId.E6_M,
        ClaimId.O3,
    }
    with pytest.raises(ValueError):
        audit.parse_claim_spec("E99")
    with pytest.raises(ValueError):
        audit.parse_claim_spec(",")
