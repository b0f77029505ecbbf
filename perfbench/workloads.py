"""The four workloads: what each op runs and how its inputs are drawn.

A workload is an endless stream of blocks.  A block holds one draw from
each of the workload's strata, in shuffled order, and each draw is uniform
over its stratum; the strata have equal sizes, so every input of a band is
equally likely on every draw.  The strata only hold each run's mix of cheap
and costly inputs fixed: drawn without them, throughput on factor-large
moves by about 15% from seed to seed, because one prime target costs as
much as sixty composite ones.  Slow inputs are never filtered out.
"""

import math
import random
from dataclasses import dataclass
from pathlib import Path
from typing import Callable, Iterator, NamedTuple

from oracle import Oracle

OUT_DIR = Path(__file__).resolve().parent / "out"
LEDGER = OUT_DIR / "audit_ledger.json"

AUDIT_STARTS = range(1400, 1600)  # window starts; windows are AUDIT_WIDTH generators
AUDIT_WIDTH = 4
LARGE_BAND = range(3000, 5000)
SMALL_BAND = range(2, 200)
LUCAS_INDICES = range(4, 21)
GENERIC_P = (1 << 15, 1 << 16)  # smaller prime of a semiprime
GENERIC_LOG2_RATIO = 4.0  # log2(q/p) is drawn from [0, 4)
GENERIC_STRATA = 17


class Op(NamedTuple):
    kind: str  # audit | factor | factor-all | lambda | lucas-json | lucas | generic
    arg: object  # window start, generator n, Fermat index, or the pair (p, q)


def argv(op: Op) -> list[str]:
    """The command line the op hands to fermatsieve.cli.main."""
    kind, arg = op
    if kind == "audit":
        window = f"{arg}:{arg + AUDIT_WIDTH - 1}"
        return ["audit", "--range", window, "--claims", "all", "--json", str(LEDGER)]
    if kind == "factor":
        return ["factor", "--n", str(arg), "--json"]
    if kind == "factor-all":
        return ["factor", "--n", str(arg), "--all", "--json"]
    if kind == "lambda":
        return ["fermat", "--index", str(arg), "--mode", "lambda", "--json"]
    if kind == "lucas-json":
        return ["fermat", "--index", str(arg), "--mode", "lucas", "--json"]
    if kind == "lucas":
        # text output: the --json envelope prints F_n in decimal, which Python
        # refuses above 4300 digits (index >= 14)
        return ["fermat", "--index", str(arg), "--mode", "lucas"]
    if kind == "generic":
        p, q = arg
        return ["factor-generic", "--N", str(p * q), "--json"]
    raise ValueError(f"unknown op kind {kind}")


Stratum = Callable[[random.Random], Op]


def _pick(kind: str, values) -> Stratum:
    values = tuple(values)
    return lambda rng: Op(kind, rng.choice(values))


def _equal_strata(kind: str, values, key, count: int) -> list[Stratum]:
    """Split values, ordered by key, into count strata of equal size."""
    order = sorted(values, key=lambda v: (key(v), v))
    size, rest = divmod(len(order), count)
    if rest:
        raise ValueError(f"{len(order)} values do not split into {count} equal strata")
    return [_pick(kind, order[i * size : (i + 1) * size]) for i in range(count)]


def _semiprime(oracle: Oracle, k: int) -> Stratum:
    """p uniform over the primes in GENERIC_P; log2(q/p) uniform in the
    k-th of GENERIC_STRATA slices of [0, GENERIC_LOG2_RATIO); q the next prime."""
    lo = GENERIC_LOG2_RATIO * k / GENERIC_STRATA
    hi = GENERIC_LOG2_RATIO * (k + 1) / GENERIC_STRATA

    def draw(rng: random.Random) -> Op:
        p = rng.randrange(*GENERIC_P)
        while not oracle.is_prime(p):
            p = rng.randrange(*GENERIC_P)
        q = oracle.next_prime(max(p + 1, math.ceil(p * 2 ** rng.uniform(lo, hi))))
        return Op("generic", (p, q))

    return draw


def _audit_strata(oracle: Oracle) -> list[Stratum]:
    def cost(lo):
        return sum(oracle.scan_length(n) for n in range(lo, lo + AUDIT_WIDTH))

    return _equal_strata("audit", AUDIT_STARTS, cost, 10)


def _large_strata(oracle: Oracle) -> list[Stratum]:
    return _equal_strata("factor", LARGE_BAND, oracle.scan_length, 20)


def _small_strata(oracle: Oracle) -> list[Stratum]:
    return [_pick("factor-all", [n]) for n in SMALL_BAND]


def _fermat_strata(oracle: Oracle) -> list[Stratum]:
    fixed = [Op("lambda", 5), Op("lucas-json", 6)] + [Op("lucas", i) for i in LUCAS_INDICES]
    return [_pick(op.kind, [op.arg]) for op in fixed] + [
        _semiprime(oracle, k) for k in range(GENERIC_STRATA)
    ]


@dataclass(frozen=True)
class Workload:
    name: str
    why: str
    warmup: Op  # fixed, so setup_s compares like with like across seeds
    strata: Callable[[Oracle], list[Stratum]]

    def ops(self, seed: int, strata: list[Stratum]) -> Iterator[Op]:
        rng = random.Random(f"{self.name}/{seed}")
        while True:
            block = [draw(rng) for draw in strata]
            rng.shuffle(block)
            yield from block


WORKLOADS = {
    w.name: w
    for w in (
        Workload(
            "audit",
            "all-claims audit of 4-generator windows near n=1500; the unfiltered"
            " compositeness_witness scan does almost all the work",
            Op("audit", 1500),
            _audit_strata,
        ),
        Workload(
            "factor-large",
            "first-pair factor of n in [3000,5000); the QR-filtered per-u sieve scan"
            " dominates, prime and small-prime-divisible N scan the whole interval",
            Op("factor", 4000),
            _large_strata,
        ),
        Workload(
            "factor-small",
            "factor --all of n in [2,200); per-target fixed cost (filter primes,"
            " residue masks, argparse, JSON) outweighs the scan",
            Op("factor-all", 100),
            _small_strata,
        ),
        Workload(
            "fermat",
            "F5 lambda and F6 lucas reproductions, lucas at index 4..20 (isqrt of"
            " F_n - 1) and factor-generic on semiprimes; bypasses quadform",
            Op("lambda", 5),
            _fermat_strata,
        ),
    )
}
