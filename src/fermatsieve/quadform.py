"""Candidate enumeration and residue filters for factoring N = 4n^2 + 1.

Targets split by the parity of the generator n.  Every proper factor pair
(a, b) of N has an odd center (a+b)/2 lying on a fixed progression:
8u + 1 when n is even (N = 16m^2 + 1), 8u + 3 when n is odd
(N = 4(2m+1)^2 + 1).  A candidate index u is a witness exactly when the
discriminant center^2 - N is a perfect square d^2, and then
N = (center - d)(center + d).

Two residue filters prune the u scan for a prime p not dividing N.  Each
returns p marks, byte r 1 when u = r (mod p) is admissible, else 0:

* the parametric form, which sweeps x over Z_p* and marks
  (x^-1 N + x - 2*offset) / 16 mod p, and
* the quadratic-residue form, which marks u whenever
  (8u + offset)^2 - N is a square (or zero) mod p.

The two forms always give the same marks; the QR form never rejects a
true witness, so pruning with it cannot change the outcome of a search.
The paper's "heuristic" skips do not share that guarantee (the audit's
E3/O3 claims measure how often they misfire): heuristic_pairs drops the
pairs whose witness u they skip from the sound answer, and no scan
applies them.

sieve_enumerate and compositeness_witness share one scan, the paper's
interval up to the (5, N/5) split, which is linear in N.  factor_pairs,
which the factor command runs, scans nothing: it divides N by the
a = 1 mod 4 up to N^(1/3), and splits a cofactor left composite, or too
large for an exact prime test, by Lehman's method, so every answer is
built from N's prime factors.
"""

import itertools
import math
from typing import NamedTuple

from . import arith

#: Centers advance by 8 per unit of u in both parity branches.
CENTER_STEP = 8

__all__ = [
    "CENTER_STEP",
    "QuadTarget",
    "Candidate",
    "FactorPair",
    "make_target",
    "u_interval",
    "u_range",
    "try_candidate",
    "pair_from_candidate",
    "admissible_residues_parametric",
    "admissible_residues_qr",
    "default_filter_primes",
    "filter_kills",
    "sieve_enumerate",
    "factor_pairs",
    "heuristic_pairs",
    "compositeness_witness",
    "derive_u",
]


class QuadTarget(NamedTuple):
    """A number N = 4n^2 + 1 with its parity decomposition.

    n even: N = 16m^2 + 1 with n = 2m, centers 8u + 1.
    n odd:  N = 4(2m+1)^2 + 1 with n = 2m + 1, centers 8u + 3.
    """

    n: int
    N: int
    m: int
    offset: int  # 1 for even n, 3 for odd n

    @property
    def parity(self) -> str:
        return "even" if self.offset == 1 else "odd"


class Candidate(NamedTuple):
    """A sieve index u with its center, discriminant and (maybe) its root."""

    u: int
    center: int
    disc: int
    root: int | None


class FactorPair(NamedTuple):
    """A validated proper factorization N = a * b found at witness u."""

    a: int
    b: int
    witness_u: int
    d: int


def make_target(n: int) -> QuadTarget:
    """Build the target for generator n >= 1 (N = 1 has no proper factors)."""
    if n < 1:
        raise ValueError("generator n must be >= 1")
    N = 4 * n * n + 1
    if n % 2 == 0:
        return QuadTarget(n=n, N=N, m=n // 2, offset=1)
    return QuadTarget(n=n, N=N, m=(n - 1) // 2, offset=3)


def u_interval(t: QuadTarget) -> "tuple[int, Fraction]":
    """Half-open candidate range [u_min, u_sup) for the sieve index u.

    u_min is the first index whose center reaches ceil(sqrt(N)), clamped
    to >= 1; u_sup is (N-5)/40 for even n and (N-15)/40 for odd n, kept
    exact as a fraction.  The range is empty when u_min >= u_sup, which
    happens only for small prime N.
    """
    from fractions import Fraction  # only here: u_range keeps it off the import path

    return u_range(t).start, Fraction(t.N - (5 if t.offset == 1 else 15), 40)


def u_range(t: QuadTarget) -> range:
    """The integers of u_interval as a range (empty when the interval is).

    Worked out in integers: the largest integer below a/40 is (a - 1) // 40.
    """
    u_min = max((arith.ceil_sqrt(t.N) - t.offset + 7) // 8, 1)
    last = (t.N - (5 if t.offset == 1 else 15) - 1) // 40
    return range(u_min, last + 1)


def try_candidate(t: QuadTarget, u: int) -> Candidate:
    """Evaluate one index: center, discriminant, and root when it is square."""
    center = CENTER_STEP * u + t.offset
    disc = center * center - t.N
    root = arith.is_perfect_square(disc)  # None below 0 too
    return Candidate(u=u, center=center, disc=disc, root=root)


def pair_from_candidate(t: QuadTarget, cand: Candidate) -> FactorPair:
    """Turn a candidate with a square discriminant into a validated pair.

    Rejects candidates without a root and the trivial split a = 1 (which
    is what a prime N would produce at its only square center).
    """
    if cand.root is None:
        raise ValueError(f"candidate u={cand.u} has no square discriminant")
    a = cand.center - cand.root
    b = cand.center + cand.root
    if a <= 1:
        raise ValueError(f"candidate u={cand.u} gives the trivial split (1, N)")
    if a * b != t.N:
        raise ValueError(f"candidate u={cand.u} is inconsistent: {a}*{b} != {t.N}")
    if a % 4 != 1 or b % 4 != 1:
        raise ValueError(f"factors {a}, {b} are not both 1 mod 4; corrupt candidate")
    return FactorPair(a=a, b=b, witness_u=cand.u, d=cand.root)


def _check_filter_prime(t: QuadTarget, p: int) -> None:
    if p == 2 or p > arith.PRIME_BOUND_MAX or not arith.is_prime(p):
        raise ValueError(f"a filter modulus must be an odd prime <= {arith.PRIME_BOUND_MAX}, not {p}")
    if t.N % p == 0:
        raise ValueError(f"{p} divides N = {t.N}; it is a factor, not a filter")


def admissible_residues_parametric(t: QuadTarget, p: int) -> bytearray:
    """Marks of the residues of u mod p compatible with a factor, by the
    inverse sweep: p bytes, byte r 1 when r is one of
    (x^-1 N + x - 2*offset) / 16 mod p for x in 1..p-1, else 0.
    """
    _check_filter_prime(t, p)
    shift = 2 * t.offset
    inv16 = arith.mod_inv(16, p)
    N = t.N
    marks = bytearray(p)
    for x in range(1, p):
        marks[(pow(x, -1, p) * N + x - shift) * inv16 % p] = 1
    return marks


#: bytes.translate table from the digits of bin() to mark bytes 0 and 1.
_BIT_MARKS = bytes.maketrans(b"01", b"\x00\x01")


def admissible_residues_qr(t: QuadTarget, p: int) -> bytes:
    """Marks of the residues r of u mod p whose discriminant can be a
    square mod p: p bytes, byte r 1 when (8r + offset)^2 - N is a square
    (or zero) mod p, else 0, so a true witness is never excluded.  They
    are the bits of the kill class arith.nonsquare_classes builds for p,
    whose period is p.
    """
    _check_filter_prime(t, p)
    ((_, alive),) = arith.nonsquare_classes(t.N, CENTER_STEP, t.offset, (p,))
    return bin(alive)[:1:-1].ljust(p, "0").encode().translate(_BIT_MARKS)  # lowest bit first


def default_filter_primes(t: QuadTarget, bound: int = 97) -> list[int]:
    """Odd primes <= bound that do not divide N (the usual filter set)."""
    return [p for p in arith.primes_up_to(bound) if p != 2 and t.N % p != 0]


#: filter_kills builds QR classes for filter primes up to this bound only.
#: Each class is built by a Python loop over its period: at n = 3001 the
#: classes of the odd primes up to 20000 take 6.7 s to build, where
#: sieve_enumerate with those filter primes takes 0.24 ms.
_QR_CLASS_BOUND = 97


def filter_kills(t: QuadTarget, filter_primes) -> list:
    """Kill classes of the QR filters, which arith.square_centers ANDs
    ahead of its square screens.

    A QR class is built only for a filter prime up to _QR_CLASS_BOUND that
    divides no screen modulus: a square mod 63, 65, 11 or 17 to 37 is a
    square mod each of its prime factors, so the screens drop every u the
    QR classes of 3, 5, 7, 11, 13 and 17 to 37 would.  A QR class never
    drops a square discriminant, so which primes get one changes no pair,
    only how many u reach the exact square test.
    """
    if any(p < 3 or p % 2 == 0 for p in filter_primes):
        raise ValueError("filter primes must be odd")
    own = [p for p in filter_primes if p <= _QR_CLASS_BOUND and all(q % p for q in arith.SCREENS)]
    return arith.nonsquare_classes(t.N, CENTER_STEP, t.offset, own)


def _to_split(t: QuadTarget, a: int) -> range:
    """u_range(t) cut after the last u whose center 8u + offset is at or
    below (a + N/a) / 2, the center of the (a, N/a) split."""
    span = u_range(t)
    last = (a * a + t.N - 2 * a * t.offset) // (2 * CENTER_STEP * a)
    return range(span.start, min(span.stop, last + 1))


def _pair(t: QuadTarget, a: int) -> FactorPair:
    """The pair (a, N/a) of a known divisor a, validated through derive_u
    and its own candidate."""
    return pair_from_candidate(t, try_candidate(t, derive_u(t, a, t.N // a)))


def _witnesses(t: QuadTarget, filter_primes=(), counts=None):
    """The paper's scan: yield try_candidate(t, u) for every u, ascending,
    whose discriminant is a square, up to the (5, N/5) split's center.

    Every proper factor of N is 1 mod 4, so none is below 5, and for
    a <= sqrt(N) the center (a + N/a) / 2 falls as a grows: every witness
    lies at or below the (5, N/5) split's center, about halfway through the
    paper's interval.  u is pruned by filter_kills' QR classes of the
    filter primes and by square_centers' square screens, none of which
    drops a square discriminant.  counts, when given, is passed to
    arith.square_centers as its count record.
    """
    span = _to_split(t, 5)
    kills = filter_kills(t, filter_primes)
    for u, _ in arith.square_centers(t.N, CENTER_STEP, t.offset, span.start, span.stop, kills, counts):
        yield try_candidate(t, u)


def sieve_enumerate(
    t: QuadTarget, filter_primes=(), want_all: bool = False, counts=None
) -> list[FactorPair]:
    """The proper factor pairs of N from the paper's scan (_witnesses),
    each square discriminant validated into a FactorPair.

    A filter prime that divides N prunes nothing: every discriminant is a
    square modulo it.  Returns the first pair, or every pair ascending in u
    when want_all is set.  The factor gap d grows with u, so the first pair
    (smallest u) is always the most balanced split.  An empty list certifies
    N prime.  The scan is linear in N (about N/80 u), so factor_pairs, which
    the factor command runs, does not use it.
    """
    pairs = (pair_from_candidate(t, cand) for cand in _witnesses(t, filter_primes, counts))
    return list(pairs if want_all else itertools.islice(pairs, 1))


def _decided(c: int) -> bool:
    """Whether the cofactor c is 1 or a prime that arith.is_prime decides exactly."""
    return c == 1 or c < arith.PRIME_TEST_EXACT_BELOW and arith.is_prime(c)


def _lehman_split(c: int) -> int:
    """A prime factor of c by Lehman's method, or 1 when c is prime.

    c must have no prime factor up to c^(1/3), so it is a prime, p^2 or
    p*q.  Lehman (Math. Comp. 28, 1974) proved that a composite such c has,
    for some k = 1 .. ceil(c^(1/3)), an a from ceil(sqrt(4kc)) to
    sqrt(4kc) + c^(1/6) / (4 sqrt(k)) with a^2 - 4kc = b^2 and
    1 < gcd(a + b, c) < c: this is Fermat's method on 4kc.  Bounds are
    taken in integers, the upper one rounded up, which only adds a's.  No
    such a proves c prime, after O(c^(1/3)) steps.
    """
    root3 = arith.icbrt(c)
    for k in range(1, root3 + 2):
        kc4 = 4 * k * c
        s = math.isqrt(kc4)
        for a in range(s + (s * s < kc4), s + math.isqrt(root3 // (16 * k)) + 2):
            b = arith.is_perfect_square(a * a - kc4)
            if b is not None and 1 < (g := math.gcd(a + b, c)) < c:
                return g
    return 1


def factor_pairs(t: QuadTarget, want_all: bool = False) -> list[FactorPair]:
    """The pairs sieve_enumerate(t, want_all=want_all) returns, built from
    N's prime factors: the first pair, or every pair ascending in u when
    want_all is set, and an empty list when N is prime.

    Every prime factor of N is 1 mod 4, so N is divided by a = 5, 9, 13, ...
    while a^3 <= N, each factor found removed in full, until the cofactor
    is 1 or a prime below arith.PRIME_TEST_EXACT_BELOW, where
    arith.is_prime is exact (it refuses any larger c, so _decided never
    asks it there); N itself is tested first, so a prime N below that
    bound takes no division.  Past the division every prime factor of
    the cofactor c exceeds N^(1/3) >= c^(1/3), so _lehman_split either
    splits it into its two primes or proves it prime: the answer is exact
    for every N, and no scan runs.  N's prime factors then give every pair
    (a, N/a) with a <= sqrt(N): the first pair has the largest such a, and
    want_all lists them descending in a, which is ascending in u.  Each is
    validated by _pair.
    """
    N = c = t.N
    primes = []
    if not _decided(c):
        for a in range(5, arith.icbrt(N) + 1, 4):
            if c % a == 0:
                while c % a == 0:
                    c //= a
                    primes.append(a)
                if _decided(c):
                    break
        else:
            primes.append(_lehman_split(c))  # p of c = p*q or p^2; 1 when c is prime
            c //= primes[-1]
    divisors = {1}
    for p in (*primes, c):
        divisors |= {d * p for d in divisors}
    small = sorted((a for a in divisors if 1 < a and a * a < N), reverse=True)
    return [_pair(t, a) for a in (small if want_all else small[:1])]


def heuristic_pairs(t: QuadTarget, filter_primes, want_all: bool = False) -> list[FactorPair]:
    """factor_pairs(t, want_all=True) less each pair whose witness u the
    paper's heuristic skips drop: u = 0 (mod p) for even n, 4u + 1 = 0
    (mod p) for odd n, at each filter prime p = 3 (mod 4).

    Returns the first kept pair, or every kept pair ascending in u when
    want_all is set.  Every pair's u lies in the paper's interval, so these
    are the pairs a whole-interval scan with the skips would find.  An
    empty list certifies nothing: the skips can drop every true witness
    (n = 30, whose only witness u = 18 is 0 mod 3).  The skips and
    want_all choose only which of N's pairs are returned: the search is
    factor_pairs', which runs no scan, whatever they are.
    """
    skips = [p for p in filter_primes if p % 4 == 3]
    index = (lambda u: 4 * u + 1) if t.offset == 3 else (lambda u: u)
    kept = [x for x in factor_pairs(t, want_all=True) if all(index(x.witness_u) % p for p in skips)]
    return kept if want_all else kept[:1]


def compositeness_witness(t: QuadTarget) -> Candidate | None:
    """The first candidate of the paper's scan (_witnesses) with no filter
    primes, or None.

    Only square_centers' square screens drop a u: those whose discriminant
    is no square modulo some screen modulus, and a square is one modulo
    every modulus.  The first hit is returned as try_candidate evaluates
    it, and certifies N composite; None certifies N prime.
    """
    return next(_witnesses(t), None)


def derive_u(t: QuadTarget, a: int, b: int) -> int:
    """Recover the witness index u of a known proper factor pair a * b = N.

    u = ((a+b)/2 - offset) / 8.  Both divisions are exact for every
    proper pair; a remainder would mean the center progression itself is
    wrong, so that is reported as an internal error, not bad input.  The
    result is cross-checked against the independent small-factor identity
    (m^2 + b'^2 = u * a with a = 4b' + 1 for even n; u = m^2 + m - a'b'
    for odd n).
    """
    if not 1 < a <= b or a * b != t.N:
        raise ValueError(f"({a}, {b}) is not a proper factor pair of {t.N}")
    center = (a + b) // 2
    shifted = center - t.offset
    if shifted % CENTER_STEP != 0:
        raise ArithmeticError(
            f"center {center} of pair ({a}, {b}) is off the 8u+{t.offset} progression"
        )
    u = shifted // CENTER_STEP
    if t.offset == 1:
        small = (a - 1) // 4
        if t.m * t.m + small * small != u * a:
            raise ArithmeticError(
                f"cross-derivation failed for pair ({a}, {b}) of {t.N}: "
                f"m^2 + {small}^2 != {u} * {a}"
            )
    else:
        qa = (a - 1) // 4
        qb = (b - 1) // 4
        if t.m * t.m + t.m - qa * qb != u:
            raise ArithmeticError(
                f"cross-derivation failed for pair ({a}, {b}) of {t.N}: "
                f"m^2 + m - {qa}*{qb} != {u}"
            )
    return u
