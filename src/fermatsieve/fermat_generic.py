"""Plain difference-of-squares factoring for arbitrary odd N.

The baseline the specialized sieve is measured against: walk centers c
upward from ceil(sqrt(N)) until c^2 - N is a perfect square d^2, giving
N = (c - d)(c + d).  A prime N below psi_13 is certified by the exact
prime test instead of a walk to the (3, N/3) split.
"""

import enum
from typing import NamedTuple

from . import arith

__all__ = ["Verdict", "SquareSplit", "fermat_factor"]


class Verdict(enum.Enum):
    PRIME = "prime"
    BUDGET_EXHAUSTED = "budget-exhausted"


class SquareSplit(NamedTuple):
    """N = c^2 - d^2 = a * b with a = c - d and b = c + d."""

    c: int
    d: int
    a: int
    b: int


def fermat_factor(N: int, step_budget: int | None = None) -> SquareSplit | Verdict:
    """Factor odd N >= 9 by scanning centers, or certify it prime.

    Below arith.PRIME_TEST_EXACT_BELOW, a prime N is certified by
    arith.is_prime, which is exact there, before any center is examined,
    whatever step_budget is; only a composite N is scanned.  From that
    bound on the scan certifies: it stops after c = (N + 9) // 6, the
    center of the (3, N/3) split, and any split past that point would
    need a factor below 3, so an exhausted scan proves N prime.  When
    step_budget (>= 0) is given, at most that many centers are examined
    before giving up with Verdict.BUDGET_EXHAUSTED.
    """
    if N < 9 or N % 2 == 0:
        raise ValueError("N must be odd and >= 9")
    if step_budget is not None and step_budget < 0:
        raise ValueError("step_budget must be >= 0")
    if N < arith.PRIME_TEST_EXACT_BELOW and arith.is_prime(N):
        return Verdict.PRIME
    start, last = arith.ceil_sqrt(N), (N + 9) // 6
    stop = last + 1 if step_budget is None else min(last + 1, start + step_budget)
    for c, d in arith.square_centers(N, 1, 0, start, stop):
        return SquareSplit(c=c, d=d, a=c - d, b=c + d)
    return Verdict.PRIME if stop > last else Verdict.BUDGET_EXHAUSTED
