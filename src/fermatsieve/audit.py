"""Brute-force factorization oracle and the claim-audit harness.

The auditor never trusts the sieve.  Ground truth comes from plain trial
division; witness indices are recovered from the factor pairs themselves;
and every congruence claim about those indices is checked instance by
instance, producing a counterexample ledger whose entries can be replayed
standalone (``verify_violation``).

Claim identifiers, one per auditable statement:

* E1..E4   even-generator claims (discriminant square, interval, the
           u != 0 mod p skip for p = 3 mod 4, admissible-residue
           membership)
* E5a/E5b  the mod-4 claim in both directions (E5a: u = 2 mod 4,
           E5b: u != 2 mod 4), each under two readings of its side
           condition: _n conditions on the generator n being even,
           _m on its half m
* E6_n/_m  the "u = 1 (mod 3)" claim under the same two readings
* O1..O4   odd-generator analogues of E1..E4
* L1       existence of a small-factor index b with
           m^2 + b^2 = 0 (mod 4b+1) for composite even-generator targets
* CE/CO    the converse: witness-in-interval <=> composite
* F1..F5   Fermat-number claims (discriminant square, center-index
           interval, the three congruence skips on lam)
* L2       existence of a divisor-form index s for composite F_n
"""

import enum
from dataclasses import dataclass, field

from . import arith, fermat_numbers, quadform

__all__ = [
    "ClaimId",
    "QUAD_CLAIMS",
    "FERMAT_CLAIMS",
    "STRUCTURAL_CLAIMS",
    "Violation",
    "ClaimReport",
    "oracle_factorize",
    "proper_factor_pairs",
    "l1_witness",
    "audit_claims",
    "audit_fermat",
    "verify_violation",
    "report_to_dict",
    "parse_claim_spec",
]


class ClaimId(str, enum.Enum):
    E1 = "E1"
    E2 = "E2"
    E3 = "E3"
    E4 = "E4"
    E5A_N = "E5a_n"
    E5A_M = "E5a_m"
    E5B_N = "E5b_n"
    E5B_M = "E5b_m"
    E6_N = "E6_n"
    E6_M = "E6_m"
    O1 = "O1"
    O2 = "O2"
    O3 = "O3"
    O4 = "O4"
    L1 = "L1"
    CE = "CE"
    CO = "CO"
    F1 = "F1"
    F2 = "F2"
    F3 = "F3"
    F4 = "F4"
    F5 = "F5"
    L2 = "L2"


FERMAT_CLAIMS = frozenset(
    {ClaimId.F1, ClaimId.F2, ClaimId.F3, ClaimId.F4, ClaimId.F5, ClaimId.L2}
)
QUAD_CLAIMS = frozenset(ClaimId) - FERMAT_CLAIMS

#: Claims that follow from the factorization identity and interval algebra;
#: a violation of one of these means an implementation bug, not a finding.
STRUCTURAL_CLAIMS = frozenset(
    {ClaimId.E1, ClaimId.E2, ClaimId.O1, ClaimId.O2, ClaimId.L1, ClaimId.CE, ClaimId.CO}
)


@dataclass(frozen=True)
class Violation:
    """A single claim failure with enough witness data to replay it."""

    n: int
    N: int
    pair: tuple[int, int]
    u: int
    modulus: int | None
    detail: str


@dataclass
class ClaimReport:
    claim: ClaimId
    range_tested: str
    instances_tested: int = 0
    violations: list[Violation] = field(default_factory=list)


def oracle_factorize(N: int) -> list[int]:
    """Prime factorization of N >= 2 by wheel trial division, ascending."""
    if N < 2:
        raise ValueError("nothing to factor below 2")
    factors = []
    for p in (2, 3, 5):
        while N % p == 0:
            factors.append(p)
            N //= p
    wheel = (4, 2, 4, 2, 4, 6, 2, 6)
    d = 7
    i = 0
    while d * d <= N:
        while N % d == 0:
            factors.append(d)
            N //= d
        d += wheel[i]
        i = (i + 1) & 7
    if N > 1:
        factors.append(N)
    return factors


def proper_factor_pairs(N: int) -> list[tuple[int, int]]:
    """All unordered proper factor pairs (a, b), a <= b, ascending in a."""
    if N < 4:
        raise ValueError("no proper factor pairs below 4")
    divisors = {1}
    for p in oracle_factorize(N):
        divisors |= {d * p for d in divisors}
    return [(d, N // d) for d in sorted(divisors) if 1 < d and d * d <= N]


def l1_witness(t: quadform.QuadTarget) -> int | None:
    """Smallest b >= 1 with m^2 + b^2 = 0 (mod 4b+1) and 4b+1 a proper
    factor of N, scanning 4b+1 up to sqrt(N).  Even-generator targets only."""
    if t.offset != 1:
        raise ValueError("the small-factor index only exists for even generators")
    mm = t.m * t.m
    b = 1
    while (4 * b + 1) ** 2 <= t.N:
        g = 4 * b + 1
        if (mm + b * b) % g == 0 and t.N % g == 0 and g < t.N:
            return b
        b += 1
    return None


class _Acc:
    __slots__ = ("instances", "violations")

    def __init__(self):
        self.instances = 0
        self.violations = []


def _record(acc, n, N, pair, u, modulus, detail):
    acc.violations.append(
        Violation(n=n, N=N, pair=pair, u=u, modulus=modulus, detail=detail)
    )


def audit_claims(
    n_min: int,
    n_max: int,
    claims=None,
    prime_bound: int = 97,
) -> list[ClaimReport]:
    """Audit the selected generator claims over n in [n_min, n_max].

    Composite targets are factored by the trial-division oracle, each
    proper pair contributes one witness index u, and every selected claim
    is evaluated for every pair (and every modulus up to prime_bound for
    the congruence claims).  The converse claims CE/CO are evaluated on
    every n of the matching parity, primes included.  Output order and
    content are a pure function of the inputs.
    """
    if n_min < 1:
        raise ValueError("n_min must be >= 1")
    selected = frozenset(claims) if claims is not None else QUAD_CLAIMS
    foreign = selected - QUAD_CLAIMS
    if foreign:
        raise ValueError(f"not generator claims: {sorted(c.value for c in foreign)}")
    odd_primes = [p for p in arith.primes_up_to(prime_bound) if p != 2]
    primes_3mod4 = [p for p in odd_primes if p % 4 == 3]
    accs = {c: _Acc() for c in selected}

    for n in range(n_min, n_max + 1):
        t = quadform.make_target(n)
        N = t.N
        composite = len(oracle_factorize(N)) > 1
        even = t.offset == 1

        converse = ClaimId.CE if even else ClaimId.CO
        if converse in selected:
            acc = accs[converse]
            acc.instances += 1
            witness = quadform.compositeness_witness(t)
            if (witness is not None) != composite:
                if witness is not None:
                    pair = (witness.center - witness.root, witness.center + witness.root)
                    _record(
                        acc, n, N, pair, witness.u, None,
                        f"witness u={witness.u} found but N={N} is prime by the oracle",
                    )
                else:
                    a, b = proper_factor_pairs(N)[0]
                    _record(
                        acc, n, N, (a, b), quadform.derive_u(t, a, b), None,
                        f"N={N} is composite but the interval scan found no witness",
                    )

        if not composite:
            continue

        if even and ClaimId.L1 in selected:
            acc = accs[ClaimId.L1]
            acc.instances += 1
            if l1_witness(t) is None:
                a, b = proper_factor_pairs(N)[0]
                _record(
                    acc, n, N, (a, b), quadform.derive_u(t, a, b), None,
                    "no small-factor index b with m^2 + b^2 = 0 (mod 4b+1)",
                )

        pairs = proper_factor_pairs(N)
        param_sets: dict[int, set[int]] = {}
        for a, b in pairs:
            u = quadform.derive_u(t, a, b)
            pair = (a, b)

            disc_claim = ClaimId.E1 if even else ClaimId.O1
            if disc_claim in selected:
                acc = accs[disc_claim]
                acc.instances += 1
                cand = quadform.try_candidate(t, u)
                if cand.root is None:
                    _record(
                        acc, n, N, pair, u, None,
                        f"discriminant {cand.disc} at u={u} is not a perfect square",
                    )

            interval_claim = ClaimId.E2 if even else ClaimId.O2
            if interval_claim in selected:
                acc = accs[interval_claim]
                acc.instances += 1
                u_min, u_sup = quadform.u_interval(t)
                if not (u_min <= u < u_sup):
                    _record(
                        acc, n, N, pair, u, None,
                        f"u={u} outside [{u_min}, {u_sup})",
                    )

            skip_claim = ClaimId.E3 if even else ClaimId.O3
            if skip_claim in selected:
                acc = accs[skip_claim]
                for p in primes_3mod4:
                    acc.instances += 1
                    if even:
                        if u % p == 0:
                            _record(
                                acc, n, N, pair, u, p,
                                f"u={u} = 0 (mod {p}) with {p} = 3 (mod 4)",
                            )
                    elif (4 * u + 1) % p == 0:
                        _record(
                            acc, n, N, pair, u, p,
                            f"4u+1={4 * u + 1} = 0 (mod {p}) with {p} = 3 (mod 4)",
                        )

            member_claim = ClaimId.E4 if even else ClaimId.O4
            if member_claim in selected:
                acc = accs[member_claim]
                for p in odd_primes:
                    if N % p == 0:
                        continue
                    acc.instances += 1
                    if p not in param_sets:
                        param_sets[p] = quadform.admissible_residues_parametric(t, p)
                    if u % p not in param_sets[p]:
                        _record(
                            acc, n, N, pair, u, p,
                            f"u mod {p} = {u % p} not in the admissible residue set",
                        )

            if even:
                for claim, condition, cond_text in (
                    (ClaimId.E5A_N, t.n % 2 == 0, f"n={t.n} even"),
                    (ClaimId.E5A_M, t.m % 2 == 0, f"m={t.m} even"),
                ):
                    if claim in selected and condition:
                        acc = accs[claim]
                        acc.instances += 1
                        if u % 4 != 2:
                            _record(
                                acc, n, N, pair, u, 4,
                                f"u={u} != 2 (mod 4) though {cond_text}",
                            )
                for claim, condition, cond_text in (
                    (ClaimId.E5B_N, t.n % 2 == 0, f"n={t.n} even"),
                    (ClaimId.E5B_M, t.m % 2 == 0, f"m={t.m} even"),
                ):
                    if claim in selected and condition:
                        acc = accs[claim]
                        acc.instances += 1
                        if u % 4 == 2:
                            _record(
                                acc, n, N, pair, u, 4,
                                f"u={u} = 2 (mod 4) though {cond_text}",
                            )
                for claim, condition, cond_text in (
                    (ClaimId.E6_N, t.n % 3 != 0, f"3 does not divide n={t.n}"),
                    (ClaimId.E6_M, t.m % 3 != 0, f"3 does not divide m={t.m}"),
                ):
                    if claim in selected and condition:
                        acc = accs[claim]
                        acc.instances += 1
                        if u % 3 != 1:
                            _record(
                                acc, n, N, pair, u, 3,
                                f"u={u} != 1 (mod 3) though {cond_text}",
                            )

    range_desc = f"n in [{n_min}, {n_max}]; primes <= {prime_bound}"
    return [
        ClaimReport(
            claim=c,
            range_tested=range_desc,
            instances_tested=accs[c].instances,
            violations=accs[c].violations,
        )
        for c in ClaimId
        if c in selected
    ]


def _fermat_pair_or_status(t, search_budget):
    """(pair, status): the smallest-divisor factor pair found by the
    progression search, or None with a status string explaining why."""
    hit = next(fermat_numbers.lucas_divisors(t, search_budget), None)
    if hit is not None:
        return (hit.divisor, t.value // hit.divisor), "composite"
    if fermat_numbers.divisor_cap(t) <= search_budget:
        return None, "prime"  # every progression member below sqrt(F_n) tested
    return None, "unknown"


def audit_fermat(
    indices,
    prime_bound: int = 97,
    search_budget: int = 20000,
) -> list[ClaimReport]:
    """Audit the Fermat-number claims for the given indices.

    Factor pairs are recovered by the divisor-form search, not hardcoded;
    indices whose factorization is out of reach within search_budget are
    skipped with a notice in the range description, and indices below the
    machinery's preconditions are probed and labeled rather than audited.
    """
    odd_primes = [p for p in arith.primes_up_to(prime_bound) if p != 2]
    primes_3mod4 = [p for p in odd_primes if p % 4 == 3]
    accs = {c: _Acc() for c in FERMAT_CLAIMS}
    notes = []

    for idx in sorted(set(indices)):
        t = fermat_numbers.make_fermat(idx)
        if idx < 4:
            status = "prime" if arith.is_prime(t.value) else "composite"
            notes.append(
                f"F_{idx}: {status}; divisor-form machinery needs index >= 4"
            )
            continue
        pair, status = _fermat_pair_or_status(t, search_budget)
        if pair is None:
            if status == "prime":
                notes.append(f"F_{idx}: prime (no divisor below sqrt, scan complete)")
            else:
                notes.append(
                    f"F_{idx}: skipped, no factorization within search budget "
                    f"{search_budget}"
                )
            continue
        if idx < 5:
            notes.append(
                f"F_{idx}: composite; out-of-precondition probe "
                "(center-index interval needs index >= 5)"
            )
        g, q = pair
        lam = fermat_numbers.lambda_of_pair(t, g, q)

        acc = accs[ClaimId.L2]
        acc.instances += 1
        s = (g - 1) // t.divisor_step
        cap = fermat_numbers.divisor_cap(t)
        if fermat_numbers.lucas_check(t, s).residue != 0 or s > cap:
            _record(
                acc, idx, t.value, pair, s, None,
                f"divisor index s={s} fails the membership congruence or its bound",
            )

        acc = accs[ClaimId.F1]
        acc.instances += 1
        center = t.center_step * lam + 1
        if arith.is_perfect_square(center * center - t.value) is None:
            _record(
                acc, idx, t.value, pair, lam, None,
                f"discriminant at lam={lam} is not a perfect square",
            )

        if idx >= 5:
            acc = accs[ClaimId.F2]
            acc.instances += 1
            lam_min, lam_sup = fermat_numbers.lambda_interval(t)
            if not (lam_min <= lam < lam_sup):
                _record(
                    acc, idx, t.value, pair, lam, None,
                    f"lam={lam} outside [{lam_min}, {lam_sup})",
                )

        acc = accs[ClaimId.F3]
        for p in primes_3mod4:
            acc.instances += 1
            if lam % p == 0:
                _record(
                    acc, idx, t.value, pair, lam, p,
                    f"lam={lam} = 0 (mod {p}) with {p} = 3 (mod 4)",
                )

        acc = accs[ClaimId.F4]
        acc.instances += 1
        if lam % 4 == 2:
            _record(acc, idx, t.value, pair, lam, 4, f"lam={lam} = 2 (mod 4)")

        acc = accs[ClaimId.F5]
        acc.instances += 1
        if lam % 3 != 1:
            _record(acc, idx, t.value, pair, lam, 3, f"lam={lam} != 1 (mod 3)")

    range_desc = f"F indices {sorted(set(indices))}; primes <= {prime_bound}"
    if notes:
        range_desc += "; " + "; ".join(notes)
    return [
        ClaimReport(
            claim=c,
            range_tested=range_desc,
            instances_tested=accs[c].instances,
            violations=accs[c].violations,
        )
        for c in ClaimId
        if c in FERMAT_CLAIMS
    ]


def _verify_fermat_violation(claim: ClaimId, v: Violation) -> bool:
    t = fermat_numbers.make_fermat(v.n)
    if t.value != v.N:
        return False
    a, b = v.pair
    if a * b != t.value:
        return False
    if claim is ClaimId.L2:
        s, rem = divmod(a - 1, t.divisor_step)
        if rem:
            return True  # recorded failure: divisor off the progression
        cap = fermat_numbers.divisor_cap(t)
        return fermat_numbers.lucas_check(t, s).residue != 0 or s > cap
    lam = fermat_numbers.lambda_of_pair(t, a, b)
    if lam != v.u:
        return False
    if claim is ClaimId.F1:
        center = t.center_step * lam + 1
        return arith.is_perfect_square(center * center - t.value) is None
    if claim is ClaimId.F2:
        if t.index_n < 5:
            return False
        lam_min, lam_sup = fermat_numbers.lambda_interval(t)
        return not (lam_min <= lam < lam_sup)
    if claim is ClaimId.F3:
        return v.modulus is not None and v.modulus % 4 == 3 and lam % v.modulus == 0
    if claim is ClaimId.F4:
        return lam % 4 == 2
    if claim is ClaimId.F5:
        return lam % 3 != 1
    raise ValueError(f"unknown Fermat claim {claim}")


def verify_violation(claim: ClaimId, v: Violation) -> bool:
    """Replay a recorded violation from scratch; True when it reproduces.

    Used as the audit's self-check: a violation that does not reproduce
    means the ledger itself is corrupt.
    """
    if claim in FERMAT_CLAIMS:
        return _verify_fermat_violation(claim, v)
    t = quadform.make_target(v.n)
    if t.N != v.N:
        return False
    if claim in (ClaimId.CE, ClaimId.CO):
        composite = len(oracle_factorize(t.N)) > 1
        return (quadform.compositeness_witness(t) is not None) != composite
    if claim is ClaimId.L1:
        return l1_witness(t) is None
    a, b = v.pair
    if a * b != t.N:
        return False
    try:
        u = quadform.derive_u(t, a, b)
    except (ValueError, ArithmeticError):
        return False
    if u != v.u:
        return False
    p = v.modulus
    if claim in (ClaimId.E1, ClaimId.O1):
        return quadform.try_candidate(t, u).root is None
    if claim in (ClaimId.E2, ClaimId.O2):
        u_min, u_sup = quadform.u_interval(t)
        return not (u_min <= u < u_sup)
    if claim is ClaimId.E3:
        return p is not None and p % 4 == 3 and u % p == 0
    if claim is ClaimId.O3:
        return p is not None and p % 4 == 3 and (4 * u + 1) % p == 0
    if claim in (ClaimId.E4, ClaimId.O4):
        if p is None or p == 2 or t.N % p == 0:
            return False
        return u % p not in quadform.admissible_residues_parametric(t, p)
    if claim is ClaimId.E5A_N:
        return t.n % 2 == 0 and u % 4 != 2
    if claim is ClaimId.E5A_M:
        return t.m % 2 == 0 and u % 4 != 2
    if claim is ClaimId.E5B_N:
        return t.n % 2 == 0 and u % 4 == 2
    if claim is ClaimId.E5B_M:
        return t.m % 2 == 0 and u % 4 == 2
    if claim is ClaimId.E6_N:
        return t.n % 3 != 0 and u % 3 != 1
    if claim is ClaimId.E6_M:
        return t.m % 3 != 0 and u % 3 != 1
    raise ValueError(f"unknown claim {claim}")


def report_to_dict(report: ClaimReport) -> dict:
    """Plain-dict form of a report (the CLI's JSON schema)."""
    return {
        "claim": report.claim.value,
        "range": report.range_tested,
        "instances": report.instances_tested,
        "violations": [
            {
                "n": v.n,
                "N": v.N,
                "pair": [v.pair[0], v.pair[1]],
                "u": v.u,
                "modulus": v.modulus,
                "detail": v.detail,
            }
            for v in report.violations
        ],
    }


def parse_claim_spec(spec: str) -> set[ClaimId]:
    """Parse a comma-separated claim list; 'all' selects everything.

    Bare 'E5a', 'E5b' and 'E6' expand to both conditioning readings.
    """
    spec = spec.strip()
    if spec.lower() == "all":
        return set(ClaimId)
    by_value = {c.value.lower(): c for c in ClaimId}
    groups = {
        "e5a": {ClaimId.E5A_N, ClaimId.E5A_M},
        "e5b": {ClaimId.E5B_N, ClaimId.E5B_M},
        "e6": {ClaimId.E6_N, ClaimId.E6_M},
    }
    out: set[ClaimId] = set()
    for token in spec.split(","):
        token = token.strip().lower()
        if not token:
            continue
        if token in groups:
            out |= groups[token]
        elif token in by_value:
            out.add(by_value[token])
        else:
            raise ValueError(f"unknown claim id: {token}")
    if not out:
        raise ValueError("empty claim list")
    return out
