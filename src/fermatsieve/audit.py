"""Brute-force factorization oracle and the claim-audit harness.

The auditor never trusts the sieve.  Ground truth comes from plain trial
division; witness indices are recovered from the factor pairs themselves;
and every congruence claim about those indices is checked instance by
instance, producing a counterexample ledger.  Before ``audit_claims`` or
``audit_fermat`` returns, ``verify_violation`` checks every violation it
recorded again from scratch, and one that does not reproduce raises
ArithmeticError; no command reads a ledger back.

Claim identifiers, one per auditable statement and per entry of ``CLAIMS``:

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
import itertools
import math
from collections.abc import Callable
from functools import cached_property, lru_cache
from typing import NamedTuple

from . import arith, fermat_numbers, quadform

__all__ = [
    "ClaimId",
    "Claim",
    "CLAIMS",
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


class Violation(NamedTuple):
    """A single claim failure with enough witness data to replay it."""

    n: int
    N: int
    pair: tuple[int, int]
    u: int
    modulus: int | None
    detail: str


#: The members of the 2*3*5 wheel from 7 on, taken 32 at a time: the
#: chunk at base 7 + 120i holds base + o for each o in _CHUNK.
_CHUNK = tuple(30 * k + o for k in range(4) for o in (0, 4, 6, 10, 12, 16, 22, 24))
#: The chunks whose members all lie below 2^16; the product of each (at most
#: 512 bits) is kept once built, so all 546 take about 51 KiB.
_GCD_CHUNKS = (2**16 - 7) // 120
_chunk_products = [0] * _GCD_CHUNKS  # 0 until the oracle first needs it


def oracle_factorize(N: int) -> list[int]:
    """Prime factorization of N >= 2 by wheel trial division, ascending.

    After 2, 3 and 5 the trial divisors are the 2*3*5 wheel's members from
    7 on, in chunks of 32 (_CHUNK).  A chunk of the bounded prefix
    (_GCD_CHUNKS, the members below 2^16) whose product is coprime to N
    holds no divisor of N and is skipped after one gcd; any other chunk
    divides member by member, up to the first d with d*d > N.
    """
    if N < 2:
        raise ValueError("nothing to factor below 2")
    factors = []
    for p in (2, 3, 5):
        while N % p == 0:
            factors.append(p)
            N //= p
    for i, base in enumerate(itertools.count(7, 120)):
        if base * base > N:
            break
        if i < _GCD_CHUNKS:
            # built on first need; a caller that races another stores the same value
            _chunk_products[i] = product = _chunk_products[i] or math.prod(base + o for o in _CHUNK)
            if math.gcd(N, product) == 1:
                continue
        for o in _CHUNK:
            d = base + o
            if d * d > N:
                break
            while N % d == 0:
                factors.append(d)
                N //= d
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


class _Generator:
    """Generator target n with what its claims share, each worked out at
    most once: the oracle's factor pairs, the interval scan's witness and
    the paper's u interval."""

    index_name = "u"  # how a congruence claim's detail names the index

    def __init__(self, n: int):
        self.t = quadform.make_target(n)
        self.n, self.N = n, self.t.N
        self.family = self.t.parity

    @cached_property
    def pairs(self) -> list[tuple[int, int]]:
        return proper_factor_pairs(self.N)

    @cached_property
    def witness(self) -> quadform.Candidate | None:
        return quadform.compositeness_witness(self.t)

    @cached_property
    def span(self) -> range:
        return quadform.u_range(self.t)

    def target_record(self) -> tuple[tuple[int, int], int]:
        """(pair, u) that a per-target violation records: the oracle's first
        pair, or the scan witness's split when the oracle finds N prime."""
        if self.pairs:
            a, b = self.pairs[0]
            return (a, b), quadform.derive_u(self.t, a, b)
        w = self.witness
        return (w.center - w.root, w.center + w.root), w.u


class _Fermat:
    """F_n with the factor pair its claims are checked on."""

    family = "fermat"
    index_name = "lam"

    def __init__(self, t: fermat_numbers.FermatTarget, N: int, pair: tuple[int, int]):
        # N is t.value, passed in so that it is built once per target
        self.t, self.n, self.N, self.pairs = t, t.index_n, N, [pair]


def _whole(test):
    """The claim predicate of test(target, index), which gives the detail
    of a failing instance or None whatever the modulus: the instance fails
    at every modulus given, or at none."""

    def violated(x, index, moduli):
        detail = test(x, index)
        return [] if detail is None else [(p, detail) for p in moduli]

    return violated


def _disc_not_square(x, u):
    cand = quadform.try_candidate(x.t, u)
    if cand.root is None:
        return f"discriminant {cand.disc} at u={u} is not a perfect square"


def _outside_interval(x, u):
    if u not in x.span:
        u_min, u_sup = quadform.u_interval(x.t)
        return f"u={u} outside [{u_min}, {u_sup})"


def _4u1_zero_mod_p(x, u, moduli):
    v = 4 * u + 1
    return [(p, f"4u+1={v} = 0 (mod {p}) with {p} = 3 (mod 4)") for p in moduli if v % p == 0]


def _not_admissible(x, u, moduli):
    # u mod p is in {(y^-1 N + y - 2*offset)/16 : y in Z_p*} exactly when
    # y^2 - c*y + N = 0 (mod p) has a root, c = 16u + 2*offset; p does not
    # divide N, so no root is 0, and p is odd, so a root exists exactly when
    # c^2 - 4N is a square or 0 mod p: Euler's criterion gives 0 or 1
    c = 16 * u + 2 * x.t.offset
    d = c * c - 4 * x.N
    failing = [p for p in moduli if pow(d % p, (p - 1) // 2, p) > 1]
    return [(p, f"u mod {p} = {u % p} not in the admissible residue set") for p in failing]


def _congruence(r, wanted, suffix=""):
    """Predicate of the claim that the index is r mod p (wanted) or is not
    (not wanted); suffix, formatted with p and the target t, ends the detail."""
    # filled in with the target x, the index i, p and x.t for a failing instance
    detail = f"{{x.index_name}}={{i}} {'!=' if wanted else '='} {r} (mod {{p}})" + suffix

    def violated(x, i, moduli):
        return [(p, detail.format(x=x, i=i, p=p, t=x.t)) for p in moduli if (i % p == r) != wanted]

    return violated


def _no_l1_witness(x, u):
    if l1_witness(x.t) is None:
        return "no small-factor index b with m^2 + b^2 = 0 (mod 4b+1)"


def _converse_fails(x, u):
    w = x.witness
    if w is not None and not x.pairs:
        return f"witness u={w.u} found but N={x.N} is prime by the oracle"
    if w is None and x.pairs:
        return f"N={x.N} is composite but the interval scan found no witness"


def _lam_disc_not_square(x, lam):
    # the center (a + b) / 2 of the pair a * b = N has the discriminant
    # ((b - a) / 2)^2, so a true instance takes no squaring or isqrt of
    # F_n's size; any other center takes the exact square test
    ((a, b),) = x.pairs
    center = x.t.center_step * lam + 1
    exhibited = 2 * center == a + b and a * b == x.N
    if not exhibited and arith.is_perfect_square(center * center - x.N) is None:
        return f"discriminant at lam={lam} is not a perfect square"


def _lam_outside_interval(x, lam):
    lam_min, lam_sup = fermat_numbers.lambda_interval(x.t)
    if not lam_min <= lam < lam_sup:
        return f"lam={lam} outside [{lam_min}, {lam_sup})"


def _not_a_divisor(x, s):
    t = x.t
    member = fermat_numbers.lucas_check(t, s).residue == 0
    if not member or s.bit_length() > fermat_numbers.divisor_cap_bits(t):  # s > the cap 2^k - 1
        return f"divisor index s={s} fails the membership congruence or its bound"


def _lam_of_pair(x, a, b):
    return fermat_numbers.lambda_of_pair(x.t, a, b)


def _s_of_pair(x, a, b):
    # a may be either factor: a cofactor past the cap is what the bound half
    # of L2's predicate judges
    if min(a, b) <= 1 or a * b != x.N:
        raise ValueError(f"({a}, {b}) is not a proper factor pair of F_{x.n}")
    return (a - 1) // x.t.divisor_step


def _p_3mod4(odd_primes):
    picked = [p for p in odd_primes if p % 4 == 3]
    return lambda x: picked


def _p_coprime(odd_primes):
    return lambda x: [p for p in odd_primes if x.N % p]


_WITH_3MOD4 = " with {p} = 3 (mod 4)"


class Claim(NamedTuple):
    """One auditable statement; the README's "Claim audit" section has more.

    violated(target, index, moduli) judges the index at each modulus in
    moduli and gives [(modulus, detail), ...] for the instances that fail,
    in the order given.  index(target, a, b) is the index pair (a, b) is
    recorded under (u, lam or s); None marks a claim made once per target,
    whose recorded index is not replayed.  moduli lists the moduli checked
    per pair ((None,): none), or is a function of the odd primes up to the
    audit's bound, ascending, called once per audit: it picks what does not
    depend on the target and returns a function of the target that gives
    the moduli checked on it.
    """

    id: str
    family: str  # "even", "odd" or "fermat"
    violated: Callable
    index: Callable | None = lambda x, a, b: quadform.derive_u(x.t, a, b)
    applies: Callable = lambda x: True  # the side condition
    moduli: tuple | Callable = (None,)
    structural: bool = False  # a violation means a bug, not a finding


CLAIMS = (
    Claim("E1", "even", _whole(_disc_not_square), structural=True),
    Claim("E2", "even", _whole(_outside_interval), structural=True),
    Claim("E3", "even", _congruence(0, False, _WITH_3MOD4), moduli=_p_3mod4),
    Claim("E4", "even", _not_admissible, moduli=_p_coprime),
    Claim("E5a_n", "even", _congruence(2, True, " though n={t.n} even"), moduli=(4,),
          applies=lambda x: x.t.n % 2 == 0),
    Claim("E5a_m", "even", _congruence(2, True, " though m={t.m} even"), moduli=(4,),
          applies=lambda x: x.t.m % 2 == 0),
    Claim("E5b_n", "even", _congruence(2, False, " though n={t.n} even"), moduli=(4,),
          applies=lambda x: x.t.n % 2 == 0),
    Claim("E5b_m", "even", _congruence(2, False, " though m={t.m} even"), moduli=(4,),
          applies=lambda x: x.t.m % 2 == 0),
    Claim("E6_n", "even", _congruence(1, True, " though 3 does not divide n={t.n}"), moduli=(3,),
          applies=lambda x: x.t.n % 3 != 0),
    Claim("E6_m", "even", _congruence(1, True, " though 3 does not divide m={t.m}"), moduli=(3,),
          applies=lambda x: x.t.m % 3 != 0),
    Claim("O1", "odd", _whole(_disc_not_square), structural=True),
    Claim("O2", "odd", _whole(_outside_interval), structural=True),
    Claim("O3", "odd", _4u1_zero_mod_p, moduli=_p_3mod4),
    Claim("O4", "odd", _not_admissible, moduli=_p_coprime),
    Claim("L1", "even", _whole(_no_l1_witness), index=None, structural=True,
          applies=lambda x: bool(x.pairs)),
    Claim("CE", "even", _whole(_converse_fails), index=None, structural=True),
    Claim("CO", "odd", _whole(_converse_fails), index=None, structural=True),
    Claim("F1", "fermat", _whole(_lam_disc_not_square), index=_lam_of_pair),
    Claim("F2", "fermat", _whole(_lam_outside_interval), index=_lam_of_pair,
          applies=lambda x: x.n >= 5),
    Claim("F3", "fermat", _congruence(0, False, _WITH_3MOD4), index=_lam_of_pair, moduli=_p_3mod4),
    Claim("F4", "fermat", _congruence(2, False), index=_lam_of_pair, moduli=(4,)),
    Claim("F5", "fermat", _congruence(1, True), index=_lam_of_pair, moduli=(3,)),
    Claim("L2", "fermat", _whole(_not_a_divisor), index=_s_of_pair),
)
_BY_ID = {c.id: c for c in CLAIMS}

#: One member per CLAIMS entry, in table order; ClaimId.E5A_N is "E5a_n".
ClaimId = enum.Enum("ClaimId", [(c.id.upper(), c.id) for c in CLAIMS], type=str, module=__name__)

FERMAT_CLAIMS = frozenset(ClaimId(c.id) for c in CLAIMS if c.family == "fermat")
QUAD_CLAIMS = frozenset(ClaimId) - FERMAT_CLAIMS

#: Claims that follow from the factorization identity and interval algebra;
#: a violation of one of these means an implementation bug, not a finding.
STRUCTURAL_CLAIMS = frozenset(ClaimId(c.id) for c in CLAIMS if c.structural)


class ClaimReport(NamedTuple):
    """The instances of one claim checked over a range, with its violations."""

    claim: ClaimId
    range_tested: str
    instances_tested: int
    violations: list[Violation]


def _audit(family, claims, targets, prime_bound, notes) -> list[ClaimReport]:
    """The reports of the selected claims of one family (QUAD_CLAIMS or
    FERMAT_CLAIMS; claims None selects the whole family) over the targets.

    Every instance of a selected claim is counted and judged on each target
    of the claim's family whose side condition holds: the predicate is
    called once per pair with all of the pair's moduli (once per target for
    a claim made once per target).  A moduli function picks from the odd
    primes once per audit, and what it returns gives the moduli of each
    target (Claim).  A claim nobody selected costs nothing.  The range text
    joins notes once the targets are consumed, so a target generator may
    still append to it.

    Once the targets are consumed, not as each violation is recorded,
    verify_violation replays every recorded violation in report order, as
    a caller would replay the returned ledger; the first that does not
    reproduce raises ArithmeticError, and no report is returned.
    """
    selected = family if claims is None else frozenset(claims)
    foreign = selected - family
    if foreign:
        kind = "generator" if family is QUAD_CLAIMS else "Fermat"
        raise ValueError(f"not {kind} claims: {sorted(c.value for c in foreign)}")
    odd_primes = arith.primes_up_to(prime_bound)[1:]
    chosen = [c for c in CLAIMS if c.id in selected]
    picks = {c.id: c.moduli(odd_primes) for c in chosen if callable(c.moduli)}
    tallies = {c.id: [0, []] for c in chosen}
    for x in targets:
        indices = {None: [None]}  # index function -> the index of each pair
        for c in chosen:
            if c.family != x.family or not c.applies(x):
                continue
            if c.index not in indices:
                indices[c.index] = [c.index(x, *pair) for pair in x.pairs]
            moduli = picks[c.id](x) if c.id in picks else c.moduli
            pairs = x.pairs if c.index else [None]
            tallies[c.id][0] += len(pairs) * len(moduli)
            for pair, u in zip(pairs, indices[c.index]):
                for p, detail in c.violated(x, u, moduli):
                    record = (pair, u) if pair else x.target_record()
                    tallies[c.id][1].append(Violation(x.n, x.N, *record, p, detail))
    range_desc = "; ".join(notes)
    for i, (_, violations) in tallies.items():
        for v in violations:
            if not verify_violation(ClaimId(i), v):
                raise ArithmeticError(
                    f"recorded violation failed re-verification ({i}: n={v.n}, detail={v.detail})"
                )
    return [ClaimReport(ClaimId(i), range_desc, *tally) for i, tally in tallies.items()]


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
    targets = (_Generator(n) for n in range(n_min, n_max + 1))
    notes = [f"n in [{n_min}, {n_max}]; primes <= {prime_bound}"]
    return _audit(QUAD_CLAIMS, claims, targets, prime_bound, notes)


#: The divisor-form members s that the audit's Fermat search tests per index.
_SEARCH_BUDGET = 20000

#: Entries _fermat_divisor keeps: one per index audit_fermat accepts (0 to
#: fermat_numbers.MAX_INDEX).  An entry is a small divisor or a short
#: note, never F_n.
_FERMAT_DIVISOR_CACHE = fermat_numbers.MAX_INDEX + 1


@lru_cache(maxsize=_FERMAT_DIVISOR_CACHE)
def _fermat_divisor(idx: int):
    """(a, None) with the smallest divisor a of F_idx the progression
    search finds within _SEARCH_BUDGET, or (None, note) with the
    ledger note saying why not.

    The outcome is a fixed function of idx, so it is kept for the whole
    process: the search runs once per index.
    """
    t = fermat_numbers.make_fermat(idx)
    if idx < 4:
        status = "prime" if arith.is_prime(t.value) else "composite"
        return None, f"F_{idx}: {status}; divisor-form machinery needs index >= 4"
    hit = next(fermat_numbers.lucas_divisors(t, _SEARCH_BUDGET), None)
    if hit is not None:
        return hit.divisor, None
    # every member below sqrt(F_n) tested: the divisor cap 2^k - 1 <= the budget
    if (_SEARCH_BUDGET + 1).bit_length() > fermat_numbers.divisor_cap_bits(t):
        return None, f"F_{idx}: prime (no divisor below sqrt, scan complete)"
    return None, f"F_{idx}: skipped, no factorization within search budget {_SEARCH_BUDGET}"


def audit_fermat(indices, prime_bound: int = 97, claims=None) -> list[ClaimReport]:
    """Audit the selected Fermat-number claims for the given indices.

    claims selects as audit_claims's does: None means all of FERMAT_CLAIMS,
    and a claim outside it raises ValueError.  Factor pairs are recovered
    by the divisor-form search, not hardcoded; the search runs once per
    index per process, and nothing else is kept between calls.  Indices
    whose factorization is out of reach within _SEARCH_BUDGET divisor-form
    members are skipped with a notice in the range description, and
    indices below the machinery's preconditions are probed and labeled
    rather than audited.  Every target is built by
    fermat_numbers.make_fermat before any search, so an index it refuses
    raises its ValueError first; F_n itself is built one index at a time,
    as the audit reaches it.
    """
    indices = sorted(set(indices))
    targets = [fermat_numbers.make_fermat(idx) for idx in indices]
    # range_tested: the range, then a note per index skipped or probed
    notes = [f"F indices {indices}; primes <= {prime_bound}"]

    def audited():
        for t in targets:
            idx = t.index_n
            a, note = _fermat_divisor(idx)
            if a is None:
                notes.append(note)
                continue
            if idx < 5:
                notes.append(
                    f"F_{idx}: composite; out-of-precondition probe "
                    "(center-index interval needs index >= 5)"
                )
            F = t.value
            yield _Fermat(t, F, (a, F // a))

    return _audit(FERMAT_CLAIMS, claims, audited(), prime_bound, notes)


def verify_violation(claim: ClaimId, v: Violation) -> bool:
    """Replay a recorded violation from scratch; True when it reproduces.

    One rule holds for every claim: the target is rebuilt from v.n and must
    have N = v.N, v.pair must multiply to N, and v.modulus must be one the
    claim is checked at: a fixed modulus of the claim (for a claim made once
    per target, only None), or an odd prime its moduli function picks from
    [v.modulus].  Only a claim checked per pair re-derives its index from
    v.pair, which must equal v.u.  Then the claim's own predicate judges the
    instance, called with the one modulus (v.modulus,); a violation that
    does not reproduce means the ledger itself is corrupt.  A modulus past
    arith.PRIME_BOUND_MAX, the cap on the audit's own prime bound, gives
    False before anything is built: no audit checks a claim at it.
    A record of the wrong shape (no pair of ints, a modulus that is no int)
    gives False too: the replay never raises.
    """
    c = _BY_ID[claim]
    try:
        (a, b), p = v.pair, v.modulus
        if p is not None and p > arith.PRIME_BOUND_MAX:
            return False
        if c.family == "fermat":
            t = fermat_numbers.make_fermat(v.n)  # refuses n past MAX_INDEX before F_n is built
            x = _Fermat(t, t.value, v.pair)
        else:
            x = _Generator(v.n)
        if x.family != c.family or x.N != v.N or a * b != x.N:
            return False
        if c.index is not None and c.index(x, a, b) != v.u:
            return False
        prime = callable(c.moduli) and p is not None and p > 2 and arith.is_prime(p)
        allowed = c.moduli([p] if prime else [])(x) if callable(c.moduli) else c.moduli
        return p in allowed and c.applies(x) and bool(c.violated(x, v.u, (p,)))
    except (TypeError, ValueError, ArithmeticError):
        return False


def report_to_dict(report: ClaimReport) -> dict:
    """Plain-dict form of a report (the CLI's JSON schema)."""
    return {
        "claim": report.claim.value,
        "range": report.range_tested,
        "instances": report.instances_tested,
        # n, N, pair (as a list), u, modulus and detail
        "violations": [{**v._asdict(), "pair": list(v.pair)} for v in report.violations],
    }


def parse_claim_spec(spec: str) -> set[ClaimId]:
    """Parse a comma-separated claim list; 'all' selects everything.

    A token names a claim id, or the head of its readings: bare 'E5a',
    'E5b' and 'E6' select both conditioning readings (_n and _m).
    """
    spec = spec.strip()
    if spec.lower() == "all":
        return set(ClaimId)
    out: set[ClaimId] = set()
    for token in spec.split(","):
        token = token.strip().lower()
        if not token:
            continue
        matched = {c for c in ClaimId if token in (c.lower(), c.lower().partition("_")[0])}
        if not matched:
            raise ValueError(f"unknown claim id: {token}")
        out |= matched
    if not out:
        raise ValueError("empty claim list")
    return out
