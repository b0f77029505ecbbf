"""Ground truth for the benchmark, written without the program under test.

The output checks and the input strata rest on plain trial division over a
sieve kept here, so a defect in the program's own arithmetic, oracle or
sieve cannot make a wrong answer look right.
"""

import math

#: Default ``--budget`` of the CLI's ``fermat`` subcommand.
LUCAS_BUDGET = 10000
#: Sieve bound: trial division by the primes up to it factors any N < 2^32.
PRIME_BOUND = 1 << 16


def sieve(bound: int) -> bytearray:
    """flags[i] == 1 exactly when i <= bound is prime."""
    flags = bytearray([1]) * (bound + 1)
    flags[0] = flags[1] = 0
    for i in range(2, math.isqrt(bound) + 1):
        if flags[i]:
            flags[i * i :: i] = bytes(len(range(i * i, bound + 1, i)))
    return flags


def quad_interval(n: int) -> tuple[int, int, int, int]:
    """(N, offset, u_first, u_last) of the paper's sieve interval for 4n^2+1.

    Centers are 8u + offset (offset 1 for even n, 3 for odd n); u runs from
    the first center at or above ceil(sqrt(N)), clamped to 1, up to the
    last integer below (N-5)/40 (even n) or (N-15)/40 (odd n).
    """
    N = 4 * n * n + 1
    offset = 1 if n % 2 == 0 else 3
    root = math.isqrt(N)
    ceil_root = root if root * root == N else root + 1
    u_first = max((ceil_root - offset + 7) // 8, 1)
    u_last = (N - 6) // 40 if offset == 1 else (N - 16) // 40
    return N, offset, u_first, u_last


class Oracle:
    """Trial-division factoring with per-N memoisation."""

    def __init__(self):
        self.flags = sieve(PRIME_BOUND)
        self._trial = [p for p in range(2, PRIME_BOUND + 1) if self.flags[p]]
        self._small = tuple(p for p in self._trial if p <= 97)
        self._pairs: dict[int, tuple[tuple[int, int], ...]] = {}

    def is_prime(self, x: int) -> bool:
        if x <= PRIME_BOUND:
            return bool(self.flags[x])
        return self.factorize(x) == [x]

    def factorize(self, N: int) -> list[int]:
        """Prime factors of 2 <= N < 2^32, ascending with multiplicity."""
        out = []
        for p in self._trial:
            if p * p > N:
                break
            while N % p == 0:
                out.append(p)
                N //= p
        else:
            if N > 1 and self._trial[-1] ** 2 < N:
                raise ValueError(f"{N} is beyond the trial-division bound")
        if N > 1:
            out.append(N)
        return out

    def pairs(self, N: int) -> tuple[tuple[int, int], ...]:
        """Every proper factor pair (a, b), a <= b, ascending in a."""
        cached = self._pairs.get(N)
        if cached is None:
            divisors = {1}
            for p in self.factorize(N):
                divisors |= {d * p for d in divisors}
            cached = tuple((d, N // d) for d in sorted(divisors) if 1 < d and d * d <= N)
            self._pairs[N] = cached
        return cached

    def small_prime_divides(self, N: int) -> bool:
        """Some prime p <= 97 with p < N divides N (the CLI drops it as a filter)."""
        return any(N % p == 0 and N != p for p in self._small)

    def scan_length(self, n: int) -> int:
        """u positions a first-pair scan of 4n^2+1 walks: up to the most
        balanced pair's witness u, or the whole interval when N is prime."""
        N, offset, u_first, u_last = quad_interval(n)
        pairs = self.pairs(N)
        if not pairs:
            return max(u_last - u_first + 1, 0)
        a, b = pairs[-1]
        return ((a + b) // 2 - offset) // 8 - u_first + 1

    def next_prime(self, x: int) -> int:
        while not self.is_prime(x):
            x += 1
        return x

    def lucas_divisors(self, index: int) -> list[tuple[int, int]]:
        """(s, 2^(index+2) s + 1) for every s the CLI's lucas search covers
        whose member divides F_index, found as 2^(2^index) = -1 mod member."""
        cap = (1 << ((1 << (index - 1)) - index - 2)) - 1  # isqrt(F_n - 1) >> (n+2), minus 1
        step = 1 << (index + 2)
        exponent = 1 << index
        return [
            (s, step * s + 1)
            for s in range(1, min(LUCAS_BUDGET, cap) + 1)
            if pow(2, exponent, step * s + 1) == step * s
        ]
