"""Divisor search machinery for Fermat numbers F_n = 2^(2^n) + 1.

Every prime factor of F_n lies on the progression 2^(n+2) s + 1 (for
n >= 2), so membership can be tested with one modular exponentiation
instead of a division by the full F_n.  The paper states it as

    2^(n+2) s + 1 divides F_n  <=>  2^(2^n - 2(n+2)) + s^2 = 0  (mod it)

which needs n >= 4 for the exponent to be non-negative; lucas_check
computes that residue.  lucas_divisors runs the classic test
2^(2^n) = -1 (mod d) instead, n squarings against about twice as many
multiplications: with d = 2^(n+2) s + 1, 2^(n+2) s = -1 gives
s^2 = 2^(-2(n+2)), so the paper's residue is 2^(-2(n+2)) (2^(2^n) + 1)
mod d, and 2 is a unit mod the odd d.  It runs those n squarings once
per batch of consecutive members, modulo their product P: every member
d divides P, so R = 2^(2^n) mod P gives 2^(2^n) mod d as R mod d.
Factor-pair centers live on the coarser progression 2^(2n+3) lam + 1,
searchable for n >= 5 over lam in
[ceil((sqrt(F_n)-1)/2^(2n+3)), 2^(2^n-(3n+5))).

Desk-scale reality check: the center search reproduces the factorization
of F_5 in a few thousand steps and F_6's small divisor is within reach of
the s search, but both searches take explicit budgets because anything
beyond that is hopeless by design, not by accident.
"""

import math
from typing import NamedTuple

from . import arith

__all__ = [
    "MAX_INDEX",
    "LAMBDA_MAX_INDEX",
    "FermatTarget",
    "LucasDivisorCandidate",
    "LambdaCandidate",
    "LambdaSearchResult",
    "make_fermat",
    "lucas_check",
    "divisor_cap_bits",
    "lucas_divisors",
    "lucas_search",
    "lambda_interval",
    "lambda_search",
    "lambda_of_pair",
]


#: Largest Fermat index make_fermat accepts: F_30 is a 128 MiB integer,
#: and past it F_n stops being a desk-scale object.
MAX_INDEX = 30

#: Largest Fermat index lambda_search accepts.  Each center that passes the
#: square screens costs an isqrt of a discriminant as large as F_n, so the
#: scan is not desk-scale past here even with lam_min in closed form.
LAMBDA_MAX_INDEX = 20

#: Bit budget of one batch of lucas_divisors: the batch's members, times
#: the bit length of its largest, stay within it.  The fastest of 256 to
#: 576 bits at budget 10000 over the indices 6 to 30; a larger product
#: costs more per squaring than it saves in calls to pow.
_BATCH_BITS = 384


class FermatTarget(NamedTuple):
    """F_n with the steps of its divisor and center progressions."""

    index_n: int
    divisor_step: int  # 2^(index_n + 2)
    center_step: int  # 2^(2*index_n + 3)

    @property
    def value(self) -> int:
        """F_n = 2^(2^index_n) + 1, built on each read (128 MiB at index 30)."""
        return (1 << (1 << self.index_n)) + 1


class LucasDivisorCandidate(NamedTuple):
    """An index s with its progression member 2^(n+2) s + 1 and the
    membership residue (0 exactly when the member divides F_n)."""

    s: int
    divisor: int
    residue: int


class LambdaCandidate(NamedTuple):
    """A center index lam with center 2^(2n+3) lam + 1 and discriminant
    center^2 - F_n; root is present when the discriminant is square."""

    lam: int
    center: int
    disc: int
    root: int | None


class LambdaSearchResult(NamedTuple):
    """Outcome of a budgeted center scan.

    hits are the validated candidates (ascending); exhausted means the
    budget cut the scan short of the interval's upper end; examined and
    skipped count the indices of the scanned range that the heuristic
    filters keep and drop.
    """

    hits: list
    exhausted: bool
    examined: int
    skipped: int


def make_fermat(index_n: int) -> FermatTarget:
    """Build the target for F_n, refusing an index outside [0, MAX_INDEX]
    before anything is built: the steps have n + 3 and 2n + 4 bits, so
    make_fermat(10**9) alone would build about 360 MiB of them.  This is
    the one place the cap is checked; every command and the audit reach
    F_n through here."""
    if not 0 <= index_n <= MAX_INDEX:
        raise ValueError(f"Fermat index must satisfy 0 <= index <= {MAX_INDEX}")
    return FermatTarget(
        index_n=index_n,
        divisor_step=1 << (index_n + 2),
        center_step=1 << (2 * index_n + 3),
    )


def _membership_exponent(t: FermatTarget) -> int:
    exponent = (1 << t.index_n) - 2 * (t.index_n + 2)
    if exponent < 0:
        raise ValueError("divisor-form check needs index >= 4")
    return exponent


def lucas_check(t: FermatTarget, s: int) -> LucasDivisorCandidate:
    """Membership test for 2^(n+2) s + 1, computed mod the candidate only."""
    exponent = _membership_exponent(t)
    if s < 1:
        raise ValueError("s must be >= 1")
    divisor = t.divisor_step * s + 1
    residue = (pow(2, exponent, divisor) + s * s) % divisor
    return LucasDivisorCandidate(s=s, divisor=divisor, residue=residue)


def divisor_cap_bits(t: FermatTarget) -> int:
    """k = 2^(n-1) - n - 2: as isqrt(F_n - 1) = 2^(2^(n-1)), the last member
    2^(n+2) s + 1 below sqrt(F_n) has s = 2^k - 1, the divisor cap.  Compare
    bit lengths with k: the cap itself is a 64 MiB integer at index 30."""
    if t.index_n < 4:
        raise ValueError("divisor-form search needs index >= 4")
    return (1 << (t.index_n - 1)) - t.index_n - 2


def lucas_divisors(t: FermatTarget, s_max: int):
    """Yield, ascending and lazily, each s in [1, s_max] whose progression
    member divides F_n.

    A member d = 2^(n+2) s + 1 is accepted when 2^(2^n) = -1 (mod d), n
    squarings mod d; this is lucas_check's residue being 0, since that
    residue is 2^(-2(n+2)) (2^(2^n) + 1) mod d (see the module docstring).
    The squarings run once per batch of consecutive members, modulo their
    product P (at most _BATCH_BITS bits, see _batch_end), and d passes
    when R = 2^(2^n) mod P has R mod d = d - 1; a batch whose P is coprime
    to R + 1 holds no such d.  Hits come a batch at a time.
    s_max must be >= 0, checked at the call, and is capped at the divisor
    cap 2^k - 1 with k = divisor_cap_bits(t), which also refuses an index
    below 4: a proper factor below the square root always sits under that
    cap, and members above it mirror cofactors of ones below.
    """
    if s_max < 0:
        raise ValueError("s_max must be >= 0")
    bits = divisor_cap_bits(t)
    top = s_max if s_max.bit_length() <= bits else (1 << bits) - 1  # min(s_max, cap)
    return _batched_hits(t, top)


def _batch_end(step: int, s: int) -> int:
    """Last index of the batch that starts at s.  The batch holds k >= 1
    members, and k times the bit length of its last member is within
    _BATCH_BITS (the second k is no larger than the first, so its last
    member is no longer), which bounds their product unless one member
    alone passes the budget."""
    k = max(1, _BATCH_BITS // (step * s + 1).bit_length())
    k = max(1, _BATCH_BITS // (step * (s + k - 1) + 1).bit_length())
    return s + k - 1


def _batched_hits(t: FermatTarget, top: int):
    power = 1 << t.index_n
    step = t.divisor_step
    s = 1
    while s <= top:
        end = min(_batch_end(step, s), top)
        batch = range(step * s + 1, step * end + 2, step)
        product = math.prod(batch)
        r = pow(2, power, product)
        if math.gcd(r + 1, product) > 1:
            for j, divisor in enumerate(batch, s):
                if r % divisor == divisor - 1:
                    yield LucasDivisorCandidate(s=j, divisor=divisor, residue=0)
        s = end + 1


def lucas_search(t: FermatTarget, s_max: int) -> list[LucasDivisorCandidate]:
    """All of lucas_divisors(t, s_max) as a list."""
    return list(lucas_divisors(t, s_max))


def _ceil_sqrt(t: FermatTarget) -> int:
    """ceil(sqrt(F_n)) for n >= 1: F_n = (2^(2^(n-1)))^2 + 1 is one past a
    square, so the root is 2^(2^(n-1)) + 1, without an isqrt of F_n."""
    return (1 << (1 << (t.index_n - 1))) + 1


def lambda_interval(t: FermatTarget) -> tuple[int, int]:
    """Half-open range [lam_min, lam_sup) of center indices worth scanning.

    lam_min puts the center at or above ceil(sqrt(F_n)) (below it the
    discriminant is negative); lam_sup = 2^(2^n - (3n + 5)) bounds the
    center by the largest possible cofactor.  Needs index >= 5 for the
    upper exponent to be non-negative.  Neither bound builds F_n.
    """
    if t.index_n < 5:
        raise ValueError("center-index interval needs index >= 5")
    step = t.center_step
    lam_min = (_ceil_sqrt(t) - 1 + step - 1) // step
    lam_sup = 1 << ((1 << t.index_n) - (3 * t.index_n + 5))
    return lam_min, lam_sup


def lambda_search(t: FermatTarget, lam_budget: int, filters: bool = False) -> LambdaSearchResult:
    """Scan at most lam_budget (>= 0) center indices ascending from lam_min.

    With filters on, the scan skips lam = 2 mod 4, lam != 1 mod 3, and
    lam = 0 mod p for the primes p = 3 mod 4 up to 97.  They are
    heuristics: skipped indices are counted, never silently trusted, and
    the searched hit set on F_5 is known to be filter-independent.
    The index must lie in [5, LAMBDA_MAX_INDEX]; the upper bound is
    checked first, before lambda_interval builds bounds of about 2^n bits.
    examined and skipped come from the scan's own count record; a hit whose
    root does not split F_n raises ArithmeticError.
    """
    if t.index_n > LAMBDA_MAX_INDEX:
        raise ValueError(f"center search is bounded to index <= {LAMBDA_MAX_INDEX}")
    lam_min, lam_sup = lambda_interval(t)
    if lam_budget < 0:
        raise ValueError("lam_budget must be >= 0")
    stop = min(lam_sup, lam_min + lam_budget)
    kills = []
    if filters:
        kills = [arith.kill_class(4, (2,)), arith.kill_class(3, (0, 2))]
        kills += [arith.kill_class(p, (0,)) for p in arith.primes_up_to(97) if p % 4 == 3]
    F = t.value
    hits = []
    counts = {}
    for lam, root in arith.square_centers(F, t.center_step, 1, lam_min, stop, kills, counts):
        center = t.center_step * lam + 1
        if (center - root) * (center + root) != F:
            raise ArithmeticError(f"the square root at lam={lam} does not split F_{t.index_n}")
        hits.append(LambdaCandidate(lam=lam, center=center, disc=root * root, root=root))
    examined = counts["kept"]
    return LambdaSearchResult(hits, stop < lam_sup, examined, stop - lam_min - examined)


def lambda_of_pair(t: FermatTarget, p: int, q: int) -> int:
    """Recover the center index of a known proper factor pair p * q = F_n.

    lam = ((p+q)/2 - 1) / 2^(2n+3); the division is exact for every
    proper pair (a remainder would mean the progression itself is wrong,
    reported as an internal error).  The result is cross-checked against
    the divisor-form quotient (2^(2^n-2(n+2)) + s^2) / p with
    s = (p - 1) / 2^(n+2).
    """
    exponent = _membership_exponent(t)
    if not 1 < p <= q or p * q != t.value:
        raise ValueError(f"({p}, {q}) is not a proper factor pair of F_{t.index_n}")
    center = (p + q) // 2
    shifted = center - 1
    if shifted % t.center_step != 0:
        raise ArithmeticError(
            f"center {center} of pair ({p}, {q}) is off the 2^{2 * t.index_n + 3}*lam+1 progression"
        )
    lam = shifted // t.center_step
    s, s_rem = divmod(p - 1, t.divisor_step)
    if s_rem != 0:
        raise ArithmeticError(
            f"factor {p} is off the 2^{t.index_n + 2}*s+1 progression"
        )
    quotient_numerator = (1 << exponent) + s * s
    if quotient_numerator != lam * p:
        raise ArithmeticError(
            f"cross-derivation failed for pair ({p}, {q}): divisor-form quotient "
            f"disagrees with center index {lam}"
        )
    return lam
