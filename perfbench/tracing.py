"""Traced runs: per-layer spans and counts around the program's public functions.

``Tracer`` replaces public module attributes of the loaded program with
timing wrappers, in this process only; no source file changes.  Each call
made while an op runs records a span (name, start, end, parent span, op
id).  A layer's self time is its spans' durations minus the time their
child spans cover.

Functions called once per sieve index, per center or per residue
(``arith.is_perfect_square``, ``arith.legendre`` and the generator
``quadform.iter_candidates``) stay unwrapped, since a wrapper would cost
more than the call.  Their work is counted from outside instead, through
public functions and the values the wrapped callers return.
"""

import functools
import inspect
import json
import math
import random
import statistics
from collections import Counter, defaultdict
from contextlib import contextmanager
from time import perf_counter

from oracle import Oracle, quad_interval
from workloads import AUDIT_WIDTH, Op

SQUARE_SAMPLE = 20000  # discriminants in the is_perfect_square micro-run
SQUARE_REPEATS = 7  # passes over them; the median pass is reported

WRAPPED = {
    "arith": ("isqrt", "ceil_sqrt", "primes_up_to", "is_prime", "mod_inv"),
    "quadform": (
        "make_target", "u_interval", "u_range", "try_candidate", "pair_from_candidate",
        "admissible_residues_parametric", "admissible_residues_qr", "default_filter_primes",
        "sieve_enumerate", "compositeness_witness", "derive_u",
    ),
    "audit": (
        "oracle_factorize", "proper_factor_pairs", "l1_witness", "audit_claims",
        "audit_fermat", "verify_violation", "report_to_dict", "parse_claim_spec",
    ),
    "fermat_numbers": (
        "make_fermat", "lucas_check", "lucas_search", "lambda_interval", "lambda_search",
        "lambda_of_pair",
    ),
    "fermat_generic": ("fermat_factor",),
    "cli": ("main",),
}

_CALLS_AND_SELF = (
    "quadform.compositeness_witness", "quadform.sieve_enumerate",
    "quadform.admissible_residues_qr", "quadform.admissible_residues_parametric",
    "arith.primes_up_to", "arith.isqrt",
    "audit.audit_claims", "audit.oracle_factorize", "audit.proper_factor_pairs",
    "audit.l1_witness", "audit.audit_fermat", "audit.verify_violation",
    "fermat_numbers.make_fermat", "fermat_numbers.lucas_search",
    "fermat_numbers.lambda_search", "fermat_numbers.lambda_interval",
    "fermat_generic.fermat_factor",
)

#: Every per-layer metric a traced run reports, with its unit.
LAYER_METRICS = dict(
    [(f"{f}.calls", "count") for f in _CALLS_AND_SELF]
    + [(f"{f}.self_s", "s") for f in _CALLS_AND_SELF]
    + [
        ("quadform.compositeness_witness.u_scanned", "count"),
        ("quadform.compositeness_witness.ns_per_u", "ns"),
        ("quadform.sieve_enumerate.u_in_interval", "count"),
        ("quadform.sieve_enumerate.u_scanned", "count"),
        ("quadform.sieve_enumerate.ns_per_u", "ns"),
        ("quadform.try_candidate.calls", "count"),
        ("quadform.filter_kill_ratio", "fraction"),
        ("quadform.hit_ratio", "fraction"),
        ("quadform.derive_u.calls", "count"),
        ("arith.is_perfect_square.calls", "count"),
        ("arith.is_perfect_square.ns_per_call", "ns"),
        ("arith.isqrt.max_operand_bits", "bits"),
        ("arith.ceil_sqrt.self_s", "s"),
        ("audit.instances", "count"),
        ("audit.violations", "count"),
        ("fermat_numbers.lucas_search.s_tested", "count"),
        ("fermat_numbers.lambda_search.examined", "count"),
        ("fermat_numbers.lambda_search.skipped", "count"),
        ("fermat_generic.fermat_factor.centers_examined", "count"),
        ("fermat_generic.fermat_factor.ns_per_center", "ns"),
        ("cli.main.self_s", "s"),
        ("cli.output_bytes", "bytes"),
        ("trace.ops", "count"),
        ("trace.overhead_s", "s"),
        ("trace.overhead_share", "fraction"),
    ]
)


def _per(numerator: float, denominator: float, scale: float = 1.0) -> float:
    return numerator * scale / denominator if denominator else 0.0


class Tracer:
    """Timing wrappers for the program's public functions.

    The wrappers are in place only inside ``tracing(op_id)``; outside it the
    program runs unwrapped.
    """

    def __init__(self, program: dict):
        self.op = None
        self.spans: list = []  # (name, start, end, parent index, op id)
        self.counts: Counter = Counter()
        self._stack: list[int] = []
        self._hook_s: dict[int, float] = defaultdict(float)  # hook time inside a span
        self._u_range = program["quadform"].u_range
        self._ceil_sqrt = program["arith"].ceil_sqrt
        self._square_split = program["fermat_generic"].SquareSplit
        self._hooks = {
            "arith.isqrt": self._after_isqrt,
            "quadform.compositeness_witness": self._after_witness,
            "quadform.sieve_enumerate": self._after_sieve,
            "audit.audit_claims": self._after_audit,
            "audit.audit_fermat": self._after_audit,
            "fermat_numbers.lucas_search": self._after_lucas,
            "fermat_numbers.lambda_search": self._after_lambda,
            "fermat_generic.fermat_factor": self._after_fermat_factor,
        }
        self._patches = []  # (module, name, original, wrapper)
        for module_name, names in WRAPPED.items():
            module = program[module_name]
            for name in names:
                fn = getattr(module, name)
                self._patches.append((module, name, fn, self._wrap(f"{module_name}.{name}", fn)))

    @contextmanager
    def tracing(self, op_id: int):
        self.op = op_id
        for module, name, _, wrapper in self._patches:
            setattr(module, name, wrapper)
        try:
            yield
        finally:
            for module, name, fn, _ in self._patches:
                setattr(module, name, fn)
            self.op = None

    def _wrap(self, name: str, fn):
        hook = self._hooks.get(name)
        signature = inspect.signature(fn)
        spans, stack, hook_s = self.spans, self._stack, self._hook_s

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            index = len(spans)
            parent = stack[-1] if stack else -1
            spans.append(None)
            stack.append(index)
            start = perf_counter()
            try:
                result = fn(*args, **kwargs)
            finally:
                end = perf_counter()
                stack.pop()
                spans[index] = (name, start, end, parent, self.op)
            if hook is not None:
                bound = signature.bind(*args, **kwargs)
                bound.apply_defaults()
                hook(bound.arguments, result)
                if parent >= 0:
                    hook_s[parent] += perf_counter() - end
            return result

        return wrapper

    # -- counts derived from arguments and return values ------------------

    def _after_isqrt(self, a, result):
        self.counts["isqrt_bits"] = max(self.counts["isqrt_bits"], a["x"].bit_length())

    def _after_witness(self, a, witness):
        span = self._u_range(a["t"])
        self.counts["witness_u"] += witness.u - span.start + 1 if witness else len(span)

    def _after_sieve(self, a, pairs):
        t = a["t"]
        span = self._u_range(t)
        self.counts["sieve_u_interval"] += len(span)
        self.counts["sieve_pairs"] += len(pairs)
        if any(t.N % p == 0 for p in a["filter_primes"]):
            return  # answered by trial division, no scan
        if pairs and not a["want_all"]:
            self.counts["sieve_u"] += pairs[0].witness_u - span.start + 1
        else:
            self.counts["sieve_u"] += len(span)

    def _after_audit(self, a, reports):
        for r in reports:
            self.counts["audit_instances"] += r.instances_tested
            self.counts["audit_violations"] += len(r.violations)
            if r.claim.value == "F1":
                self.counts["audit_f1"] += r.instances_tested  # one square test each

    def _after_lucas(self, a, hits):
        n = a["t"].index_n
        cap = (1 << ((1 << (n - 1)) - n - 2)) - 1  # closed form of the search's cap
        self.counts["lucas_s"] += max(0, min(a["s_max"], cap))

    def _after_lambda(self, a, outcome):
        self.counts["lambda_examined"] += outcome.examined
        self.counts["lambda_skipped"] += outcome.skipped

    def _after_fermat_factor(self, a, outcome):
        N, c0 = a["N"], self._ceil_sqrt(a["N"])
        if isinstance(outcome, self._square_split):
            centers = outcome.c - c0 + 1
        elif outcome.value == "prime":
            centers = (N + 9) // 6 - c0 + 1
        else:
            centers = a["step_budget"]
        self.counts["centers"] += centers

    # -- aggregation -------------------------------------------------------

    def layer_metrics(self, square_ns: float) -> dict:
        """Values of every LAYER_METRICS entry except the trace.* ones."""
        spans = self.spans
        covered = defaultdict(float)
        for name, start, end, parent, _ in spans:
            if parent >= 0:
                covered[parent] += end - start
        calls: Counter = Counter()
        self_s: dict[str, float] = defaultdict(float)
        sieve_candidates = 0
        for i, (name, start, end, parent, _) in enumerate(spans):
            calls[name] += 1
            self_s[name] += end - start - covered[i] - self._hook_s[i]
            if name == "quadform.try_candidate" and parent >= 0:
                sieve_candidates += spans[parent][0] == "quadform.sieve_enumerate"
        c = self.counts
        out = {}
        for f in _CALLS_AND_SELF:
            out[f"{f}.calls"] = calls[f]
            out[f"{f}.self_s"] = self_s[f]
        cw_self = self_s["quadform.compositeness_witness"]
        sieve_self = self_s["quadform.sieve_enumerate"]
        ff_self = self_s["fermat_generic.fermat_factor"]
        out.update({
            "quadform.compositeness_witness.u_scanned": c["witness_u"],
            "quadform.compositeness_witness.ns_per_u": _per(cw_self, c["witness_u"], 1e9),
            "quadform.sieve_enumerate.u_in_interval": c["sieve_u_interval"],
            "quadform.sieve_enumerate.u_scanned": c["sieve_u"],
            "quadform.sieve_enumerate.ns_per_u": _per(sieve_self, c["sieve_u"], 1e9),
            "quadform.try_candidate.calls": calls["quadform.try_candidate"],
            "quadform.filter_kill_ratio": 1.0 - _per(sieve_candidates, c["sieve_u"]) if c["sieve_u"] else 0.0,
            "quadform.hit_ratio": _per(c["sieve_pairs"], sieve_candidates),
            "quadform.derive_u.calls": calls["quadform.derive_u"],
            "arith.is_perfect_square.calls": c["witness_u"] + calls["quadform.try_candidate"]
            + c["centers"] + c["lambda_examined"] + c["audit_f1"],
            "arith.is_perfect_square.ns_per_call": square_ns,
            "arith.isqrt.max_operand_bits": c["isqrt_bits"],
            "arith.ceil_sqrt.self_s": self_s["arith.ceil_sqrt"],
            "audit.instances": c["audit_instances"],
            "audit.violations": c["audit_violations"],
            "fermat_numbers.lucas_search.s_tested": c["lucas_s"],
            "fermat_numbers.lambda_search.examined": c["lambda_examined"],
            "fermat_numbers.lambda_search.skipped": c["lambda_skipped"],
            "fermat_generic.fermat_factor.centers_examined": c["centers"],
            "fermat_generic.fermat_factor.ns_per_center": _per(ff_self, c["centers"], 1e9),
            "cli.main.self_s": self_s["cli.main"],
            "cli.output_bytes": c["output_bytes"],
        })
        return out

    def write(self, path) -> None:
        """Write the spans as JSON: names, then [name index, start, end, parent, op]."""
        names = sorted({s[0] for s in self.spans})
        index = {n: i for i, n in enumerate(names)}
        origin = self.spans[0][1] if self.spans else 0.0
        rows = [[index[n], s - origin, e - origin, p, op] for n, s, e, p, op in self.spans]
        with open(path, "w", encoding="utf-8") as fh:
            json.dump({"names": names, "spans": rows}, fh, separators=(",", ":"))


def discriminant_sample(ops: list[Op], oracle: Oracle, seed: int) -> list[int]:
    """Discriminants center^2 - N the ops' square tests see, at their real
    magnitudes: uniform centers of each scanned range plus every square one."""
    rng = random.Random(f"squares/{seed}")
    squares, others = [], []
    for kind, arg in ops:
        if kind in ("audit", "factor", "factor-all"):
            window = range(arg, arg + AUDIT_WIDTH) if kind == "audit" else (arg,)
            for n in window:
                N, offset, u_first, u_last = quad_interval(n)
                if u_last >= u_first:
                    others += [(8 * rng.randint(u_first, u_last) + offset) ** 2 - N for _ in range(64)]
                squares += [((b - a) // 2) ** 2 for a, b in oracle.pairs(N)]
        elif kind == "generic":
            p, q = arg
            N, c = p * q, (p + q) // 2
            c0 = math.isqrt(N) + 1
            others += [rng.randint(c0, max(c, c0)) ** 2 - N for _ in range(64)]
            squares.append(((q - p) // 2) ** 2)
        elif kind == "lambda":
            F = (1 << 32) + 1
            others += [((rng.randint(8, 4095) << 13) + 1) ** 2 - F for _ in range(64)]
            squares.append(((6700417 - 641) // 2) ** 2)
    rng.shuffle(others)
    sample = squares + others[: max(SQUARE_SAMPLE - len(squares), 0)]
    rng.shuffle(sample)
    return sample


def square_test_ns(is_perfect_square, sample: list[int]) -> float:
    """Median ns per call of is_perfect_square over the sample, loop included."""
    if not sample:
        return 0.0
    times = []
    for _ in range(SQUARE_REPEATS):
        start = perf_counter()
        for x in sample:
            is_perfect_square(x)
        times.append(perf_counter() - start)
    return statistics.median(times) * 1e9 / len(sample)
