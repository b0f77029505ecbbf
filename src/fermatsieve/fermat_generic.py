"""Plain difference-of-squares factoring for arbitrary odd N.

The baseline the specialized sieve is measured against: walk centers c
upward from ceil(sqrt(N)) until c^2 - N is a perfect square d^2, giving
N = (c - d)(c + d).
"""

import enum
from dataclasses import dataclass

from . import arith

__all__ = ["Verdict", "SquareSplit", "fermat_factor"]


class Verdict(enum.Enum):
    PRIME = "prime"
    BUDGET_EXHAUSTED = "budget-exhausted"


@dataclass(frozen=True)
class SquareSplit:
    """N = c^2 - d^2 = a * b with a = c - d and b = c + d."""

    c: int
    d: int
    a: int
    b: int


def fermat_factor(N: int, step_budget: int | None = None) -> SquareSplit | Verdict:
    """Factor odd N >= 9 by scanning centers, or certify it prime.

    The scan stops after c = (N + 9) // 6, the center of the (3, N/3)
    split; any split past that point would need a factor below 3, so an
    exhausted scan proves N prime.  When step_budget is given, at most
    that many centers are examined before giving up with
    Verdict.BUDGET_EXHAUSTED.  Centers whose discriminant the square
    screens rule out are sieved away in blocks, never tested one by one.
    """
    if N < 9 or N % 2 == 0:
        raise ValueError("fermat_factor needs odd N >= 9")
    c = arith.ceil_sqrt(N)
    limit = (N + 9) // 6
    if step_budget is not None and limit - c + 1 > step_budget:
        limit = c + step_budget - 1
        exhausted: SquareSplit | Verdict = Verdict.BUDGET_EXHAUSTED
    else:
        exhausted = Verdict.PRIME
    for c in arith.sieve_progression(c, limit + 1, arith.nonsquare_classes(N, 1, 0)):
        d = arith.is_perfect_square(c * c - N)
        if d is not None and c - d > 1:
            return SquareSplit(c=c, d=d, a=c - d, b=c + d)
    return exhausted
