"""Output checks and input-property shares, outside every timed section.

Each check compares what ``fermatsieve.cli.main`` printed (or, for audit,
wrote to its ledger) with ground truth from ``oracle.Oracle``.  Exit code 0
(found) and 1 (prime or no divisor) are valid results; 2, 3, an exception
or a wrong answer make the op a failure.
"""

import json
import math
import re
import statistics
from collections import Counter

from oracle import Oracle, quad_interval
from workloads import AUDIT_WIDTH, LEDGER, Op

#: Claims that follow from the factorization identity and the interval
#: algebra, so they must never be violated; E4/O4 (admissible residues) too.
MUST_HOLD = {"E1", "E2", "O1", "O2", "L1", "CE", "CO", "E4", "O4"}
ALL_CLAIMS = {
    "E1", "E2", "E3", "E4", "E5a_n", "E5a_m", "E5b_n", "E5b_m", "E6_n", "E6_m",
    "O1", "O2", "O3", "O4", "L1", "CE", "CO", "F1", "F2", "F3", "F4", "F5", "L2",
}
ODD_PRIMES_97 = [p for p in range(3, 98, 2) if all(p % d for d in range(3, math.isqrt(p) + 1, 2))]
PRIMES_3MOD4 = [p for p in ODD_PRIMES_97 if p % 4 == 3]
#: The audit's default Fermat indices 5 and 6 are both composite with a
#: divisor inside its search budget, so each adds one instance to every
#: F-claim and L2, and one per prime p = 3 (mod 4) up to 97 to F3.
FERMAT_INSTANCES = Counter(
    {"L2": 2, "F1": 2, "F2": 2, "F4": 2, "F5": 2, "F3": 2 * len(PRIMES_3MOD4)}
)
LUCAS_LINE = re.compile(r"s=(\d+) divisor=(\d+) divides F_(\d+)")


class Checker:
    def __init__(self, oracle: Oracle):
        self.oracle = oracle
        self.props: Counter = Counter()
        self.log2_balance: list[float] = []
        self._claim_counts: dict[int, Counter] = {}
        self._lucas_expected: dict[int, list[tuple[int, int]]] = {}

    def check(self, op: Op, rc, out: str) -> str | None:
        """None when the op's result is right, else what is wrong with it."""
        if isinstance(rc, BaseException):
            return f"raised {rc!r}"
        if rc not in (0, 1):
            return f"exit code {rc}"
        try:
            return getattr(self, "_" + op.kind.replace("-", "_"))(op.arg, rc, out)
        except (OSError, ValueError, KeyError, TypeError, IndexError) as exc:
            return f"unreadable output: {exc!r}"

    # -- quadform targets -------------------------------------------------

    def _factor(self, n: int, rc, out: str, want_all: bool = False) -> str | None:
        N, offset, _, _ = quad_interval(n)
        pairs = self.oracle.pairs(N)
        self.props["targets"] += 1
        self.props["prime_N"] += not pairs
        self.props["small_prime_divides_N"] += self.oracle.small_prime_divides(N)
        results = json.loads(out)["results"]
        if rc != (0 if pairs else 1) or results["verdict"] != ("composite" if pairs else "prime"):
            return f"n={n}: exit {rc}, verdict {results['verdict']}, oracle pairs {pairs}"
        # ascending u is descending a: the first pair is the most balanced one
        expected = list(reversed(pairs)) if want_all else list(pairs[-1:])
        got = [(p["a"], p["b"]) for p in results["pairs"]]
        if got != expected:
            return f"n={n}: pairs {got}, expected {expected}"
        for p in results["pairs"]:
            center, d = (p["a"] + p["b"]) // 2, (p["b"] - p["a"]) // 2
            if (p["center"], p["d"], 8 * p["u"] + offset) != (center, d, center):
                return f"n={n}: inconsistent pair record {p}"
        return None

    def _factor_all(self, n: int, rc, out: str) -> str | None:
        return self._factor(n, rc, out, want_all=True)

    def _claim_instances(self, n: int) -> Counter:
        """Instances the audit must count for generator n, from the claim
        definitions and the oracle's factor pairs."""
        counts = self._claim_counts.get(n)
        if counts is not None:
            return counts
        N, _, _, _ = quad_interval(n)
        k = len(self.oracle.pairs(N))
        even = n % 2 == 0
        m = n // 2
        counts = Counter({"CE" if even else "CO": 1})
        if k:
            fam = "E" if even else "O"
            counts[fam + "1"] = counts[fam + "2"] = k
            counts[fam + "3"] = k * len(PRIMES_3MOD4)
            counts[fam + "4"] = k * sum(1 for p in ODD_PRIMES_97 if N % p)
            if even:
                counts["L1"] = 1
                counts["E5a_n"] = counts["E5b_n"] = k
                if m % 2 == 0:
                    counts["E5a_m"] = counts["E5b_m"] = k
                if n % 3:
                    counts["E6_n"] = k
                if m % 3:
                    counts["E6_m"] = k
        self._claim_counts[n] = counts
        return counts

    def _audit(self, lo: int, rc, out: str) -> str | None:
        window = range(lo, lo + AUDIT_WIDTH)
        self.props["generators"] += len(window)
        self.props["prime_N"] += sum(not self.oracle.pairs(4 * n * n + 1) for n in window)
        if rc != 0:
            return f"window {lo}: exit {rc}"
        with open(LEDGER, encoding="utf-8") as fh:
            ledger = json.load(fh)
        if ledger["parameters"]["range"] != f"{lo}:{window[-1]}":
            return f"window {lo}: ledger is for {ledger['parameters']['range']}"
        expected = sum((self._claim_instances(n) for n in window), Counter()) + FERMAT_INSTANCES
        seen = set()
        for report in ledger["results"]:
            claim = report["claim"]
            seen.add(claim)
            if report["instances"] != expected[claim]:
                return f"window {lo}: {claim} has {report['instances']} instances, expected {expected[claim]}"
            if claim in MUST_HOLD and report["violations"]:
                return f"window {lo}: {claim} violated: {report['violations'][0]}"
        if seen != ALL_CLAIMS:
            return f"window {lo}: claims {sorted(seen ^ ALL_CLAIMS)} missing or unknown"
        return None

    # -- Fermat numbers and generic N -------------------------------------

    def _expected_lucas(self, index: int) -> list[tuple[int, int]]:
        if index not in self._lucas_expected:
            self._lucas_expected[index] = self.oracle.lucas_divisors(index)
        return self._lucas_expected[index]

    def _lambda(self, index: int, rc, out: str) -> str | None:
        self.props["lambda"] += 1
        results = json.loads(out)["results"]
        # F_5 = 641 * 6700417, center 2^13 * 409 + 1
        want = [{"lambda": 409, "center": (409 << 13) + 1, "pair": [641, 6700417]}]
        if index != 5 or rc != 0 or results["hits"] != want or results["F"] != (1 << 32) + 1:
            return f"F_{index} lambda: exit {rc}, hits {results['hits']}"
        return None

    def _lucas_json(self, index: int, rc, out: str) -> str | None:
        self.props["lucas_json"] += 1
        results = json.loads(out)["results"]
        got = [(d["s"], d["divisor"]) for d in results["divisors"]]
        return self._lucas_result(index, rc, got)

    def _lucas(self, index: int, rc, out: str) -> str | None:
        self.props[f"lucas_index_{index}"] += 1
        got = []
        for s, divisor, i in LUCAS_LINE.findall(out):
            if int(i) != index:
                return f"F_{index} lucas: line names F_{i}"
            got.append((int(s), int(divisor)))
        if not got and f"no divisor of F_{index} with s <= " not in out:
            return f"F_{index} lucas: no hit and no negative verdict"
        return self._lucas_result(index, rc, got)

    def _lucas_result(self, index: int, rc, got) -> str | None:
        expected = self._expected_lucas(index)
        if index == 6 and (1071, 274177) not in expected:
            return "oracle lost F_6's factor 274177 at s=1071"
        if rc != (0 if expected else 1) or got != expected:
            return f"F_{index} lucas: exit {rc}, divisors {got}, expected {expected}"
        return None

    def _generic(self, pq: tuple[int, int], rc, out: str) -> str | None:
        p, q = pq
        self.props["generic"] += 1
        self.log2_balance.append(math.log2(q / p))
        results = json.loads(out)["results"]
        want = {"verdict": "composite", "c": (p + q) // 2, "d": (q - p) // 2, "pair": [p, q]}
        if rc != 0 or results != want:
            return f"N={p}*{q}: exit {rc}, results {results}"
        return None


def shares(props: Counter, log2_balance: list[float]) -> dict:
    """Shares of the input properties a workload records, from Checker counts."""
    out: dict = {}
    for base, keys in (("targets", ("prime_N", "small_prime_divides_N")), ("generators", ("prime_N",))):
        if props.get(base):
            out.update({f"{k}_share": props[k] / props[base] for k in keys})
    lucas = {k.removeprefix("lucas_index_"): v for k, v in sorted(props.items()) if k.startswith("lucas_index_")}
    if lucas:
        out["lucas_index_counts"] = lucas
    if len(log2_balance) > 1:
        out["generic_log2_q_over_p_quartiles"] = statistics.quantiles(log2_balance, n=4)
    out["counts"] = {k: v for k, v in props.items() if not k.startswith("lucas_index_")}
    return out
