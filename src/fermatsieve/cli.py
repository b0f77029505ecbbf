"""Command-line front end.

Subcommands: factor (specialized sieve for N = 4n^2+1), factor-generic
(plain difference of squares), candidates (interval and residue-set
inspection), audit (claim verification ledger), fermat (Fermat-number
searches), bench (strategy comparison).

Exit codes: 0 success/found, 1 legitimate negative (prime or budget
exhausted), 2 invalid input, 3 internal inconsistency.  A command returns
0 or 1 and reports anything else by raising: a ValueError (a refused
argument, an unwritable output path, a value too large to print) and an
ArithmeticError (an internal error, such as quadform.derive_u or
fermat_numbers.lambda_of_pair finding a pair off its progression,
fermat_numbers.lambda_search a square root that does not split F_n, or
audit.audit_claims or audit.audit_fermat finding that a violation it
recorded fails re-verification).  main alone turns the first
into exit 2 with one "error: MSG" line on stderr, and the second into
exit 3 with one "internal inconsistency: MSG" line.  Human-readable text
goes to stdout, diagnostics to stderr; --json output and report files are
stable-key-ordered so identical runs produce identical bytes.
"""

import argparse
import errno
import importlib.util
import os
import sys
from itertools import compress
from json.encoder import encode_basestring_ascii as _quote

from . import __version__, arith


def _lazy(name: str):
    """fermatsieve.<name>, in sys.modules now but run on its first attribute read."""
    fullname = f"{__package__}.{name}"
    if fullname not in sys.modules:
        spec = importlib.util.find_spec(fullname)
        spec.loader = importlib.util.LazyLoader(spec.loader)
        sys.modules[fullname] = module = importlib.util.module_from_spec(spec)
        setattr(sys.modules[__package__], name, module)
        spec.loader.exec_module(module)
    return sys.modules[fullname]


audit, bench, fermat_generic, fermat_numbers, quadform = map(
    _lazy, ("audit", "bench", "fermat_generic", "fermat_numbers", "quadform")
)

EXIT_FOUND = 0
EXIT_NEGATIVE = 1
EXIT_INVALID = 2
EXIT_INCONSISTENT = 3

#: Largest Fermat index whose F_n the fermat command's --json prints.  F_13
#: has 2467 digits; F_14 has 4933, past the 4300-digit limit on int-to-str
#: conversion that CPython sets by default, so from there on "F" is null.
JSON_F_MAX_INDEX = 13


def _encode(value, indent: str, out: list) -> None:
    """Append the JSON of value to out, nested at indent, as json.dumps
    with sort_keys=True and indent=2 writes it: ASCII strings, sorted keys,
    "," ending a line and ": " after a key, empty containers as [] and {}.
    A list whose items are all exactly int (bool is no int here: it prints
    true or false) is written as one string, the list's repr with each ", "
    turned into the line break: candidates' residue lists reach 2^19 items,
    and a join would hold a str object for every item at once."""
    if isinstance(value, str):
        out.append(_quote(value))
    elif value is None:
        out.append("null")
    elif value is True:
        out.append("true")
    elif value is False:
        out.append("false")
    elif isinstance(value, int):
        out.append(int.__repr__(value))
    elif isinstance(value, (list, tuple)):
        if not value:
            out.append("[]")
            return
        inner = indent + "  "
        if type(value[0]) is int and all(type(item) is int for item in value):
            ints = value if type(value) is list else list(value)  # a tuple's repr may end ",)"
            items = repr(ints)[1:-1].replace(", ", ",\n" + inner)
            out += ("[\n", inner, items, "\n", indent, "]")
            return
        separator = "[\n" + inner
        for item in value:
            out.append(separator)
            _encode(item, inner, out)
            separator = ",\n" + inner
        out.append("\n" + indent + "]")
    elif isinstance(value, dict):
        if not value:
            out.append("{}")
            return
        inner = indent + "  "
        separator = "{\n" + inner
        for key, item in sorted(value.items()):
            if not isinstance(key, str):
                raise TypeError(f"JSON keys here are str, not {type(key).__name__}")
            out += (separator, _quote(key), ": ")
            _encode(item, inner, out)
            separator = ",\n" + inner
        out.append("\n" + indent + "}")
    else:
        raise TypeError(f"Object of type {type(value).__name__} is not JSON serializable")


def _envelope(command: str, parameters: dict, results) -> str:
    """The --json envelope, byte for byte json.dumps(payload, sort_keys=True,
    indent=2).  indent makes that call run json's pure-Python encoder;
    _encode writes the same bytes for the values the commands return (dicts
    with str keys, lists, tuples, str, int, bool and None) in about 40% of
    its time, and rejects any other type."""
    payload = {
        "command": command,
        "parameters": parameters,
        "results": results,
        "tool_version": __version__,
    }
    out = []
    _encode(payload, "", out)
    return "".join(out)


def _emit(args, command: str, parameters: dict, results, lines: list[str]) -> None:
    """Print the command's results: as the JSON envelope under --json, else
    as the text lines worked out from them."""
    print(_envelope(command, parameters, results) if args.json else "\n".join(lines))


def _refuse_unwritable(path: str) -> None:
    """ValueError before any work if path is a directory or its directory is missing."""
    if os.path.isdir(path):
        raise ValueError(f"cannot write {path}: {os.strerror(errno.EISDIR)}")
    try:
        os.stat(os.path.dirname(path) or ".")
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from None


def _write(path: str, text: str) -> None:
    """Write text to path (UTF-8, LF); ValueError when it cannot be written."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        raise ValueError(f"cannot write {path}: {exc.strerror}") from None


def _int_list(text: str, flag: str) -> list[int]:
    """The integers of flag's comma-separated list text."""
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        raise ValueError(f"{flag} must be a comma-separated list of integers") from None


def _resolve_generator(args) -> int:
    """Generator n from --n, or recovered from --N (which must be 4n^2+1)."""
    n, N = args.n, args.N
    if n is None:
        n = arith.isqrt((N - 1) // 4) if N >= 5 and (N - 1) % 4 == 0 else 0
        n = n if 4 * n * n + 1 == N else 0
    if n < 1:
        raise ValueError("need --n >= 1 or --N of the form 4n^2+1 with n >= 1")
    return n


def cmd_factor(args) -> int:
    n = _resolve_generator(args)
    if args.prime_bound > arith.PRIME_BOUND_MAX:
        raise ValueError(f"--prime-bound must be <= {arith.PRIME_BOUND_MAX}")
    t = quadform.make_target(n)
    if args.heuristic_filters:
        primes = quadform.default_filter_primes(t, args.prime_bound)
        pairs = quadform.heuristic_pairs(t, primes, want_all=args.all)
        negative = "unknown"  # heuristic skips can hide a true witness
    else:
        pairs = quadform.factor_pairs(t, want_all=args.all)
        negative = "prime"
    verdict = "composite" if pairs else negative
    parameters = {
        "n": t.n,
        "N": t.N,
        "all": args.all,
        "heuristic_filters": args.heuristic_filters,
        "prime_bound": args.prime_bound,
    }
    results = {
        "parity": t.parity,
        "verdict": verdict,
        "pairs": [
            {
                "a": p.a,
                "b": p.b,
                "u": p.witness_u,
                "center": p.a + p.d,
                "d": p.d,
            }
            for p in pairs
        ],
    }
    lines = [f"N = {t.N} = 4*{t.n}^2 + 1 ({t.parity} generator)"]
    for p in results["pairs"]:
        lines.append("u={u} center={center} d={d}: {N} = {a} * {b}".format(N=t.N, **p))
    if verdict == "prime" and t.N >= arith.PRIME_TEST_EXACT_BELOW:
        lines.append(
            f"{t.N} is prime (N >= psi_13, where the 13-base test is not exact: "
            "division up to N^(1/3) and Lehman's method found no factor)"
        )
    elif verdict == "prime":
        lines.append(
            f"{t.N} is prime (N < psi_13 = {arith.PRIME_TEST_EXACT_BELOW}, where the 13-base "
            "(the prime bases 2 to 41) strong probable prime test is exact)"
        )
    elif verdict == "unknown":
        lines.append(
            "no factor found; heuristic filters were on, so this is not a primality verdict"
        )
    _emit(args, "factor", parameters, results, lines)
    return EXIT_FOUND if pairs else EXIT_NEGATIVE


def cmd_factor_generic(args) -> int:
    N = args.N
    if args.budget is not None and args.budget < 0:
        raise ValueError("--budget must be >= 0")
    outcome = fermat_generic.fermat_factor(N, step_budget=args.budget)
    parameters = {"N": N, "budget": args.budget}
    if isinstance(outcome, fermat_generic.SquareSplit):
        c, d, a, b = outcome
        results = {"verdict": "composite", "c": c, "d": d, "pair": [a, b]}
        line = "{N} = {c}^2 - {d}^2 = {pair[0]} * {pair[1]} (c={c}, d={d})"
    else:
        results = {"verdict": outcome.value}  # "prime" or "budget-exhausted"
        line = "{N}: {verdict}"
    _emit(args, "factor-generic", parameters, results, [line.format(N=N, **results)])
    return EXIT_FOUND if results["verdict"] == "composite" else EXIT_NEGATIVE


def cmd_candidates(args) -> int:
    p = args.prime
    if p is not None and p > arith.PRIME_BOUND_MAX:
        raise ValueError(f"--prime must be <= {arith.PRIME_BOUND_MAX}")
    t = quadform.make_target(args.n)
    if p is not None:
        parametric_marks = quadform.admissible_residues_parametric(t, p)
        qr_marks = quadform.admissible_residues_qr(t, p)
    u_min, u_sup = quadform.u_interval(t)
    span = quadform.u_range(t)
    count = max(span.stop - span.start, 0)  # len() overflows past sys.maxsize
    results = {
        "N": t.N,
        "parity": t.parity,
        "u_min": u_min,
        "u_sup": f"{u_sup.numerator}/{u_sup.denominator}",
        "count": count,
        "u_values": list(span) if count <= 1000 else None,
    }
    shown = f" {results['u_values']}" if 0 < count <= 50 else ""
    lines = ["N = {N}: u in [{u_min}, {u_sup}), {count} candidate(s)".format(**results) + shown]
    if p is not None:
        parametric = list(compress(range(p), parametric_marks))
        equal = parametric_marks == qr_marks
        qr = parametric if equal else list(compress(range(p), qr_marks))
        results.update(prime=p, parametric=parametric, qr=qr, equal=equal)
        lines.append(
            "prime {prime}: parametric {parametric} qr {qr} equal={equal}".format(**results)
        )
    _emit(args, "candidates", {"n": t.n, "prime": p}, results, lines)
    return EXIT_FOUND


def cmd_audit(args) -> int:
    parts = args.range.split(":")
    if len(parts) != 2:
        raise ValueError("--range must look like lo:hi")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        raise ValueError("--range bounds must be integers") from None
    if lo < 1 or lo > hi:
        raise ValueError(f"bad range [{lo}, {hi}]: need 1 <= lo <= hi")
    selected = audit.parse_claim_spec(args.claims)
    fermat_indices = _int_list(args.fermat_indices, "--fermat-indices")
    try:
        for i in fermat_indices:
            fermat_numbers.make_fermat(i)
    except ValueError as exc:
        raise ValueError(f"--fermat-indices: {exc}") from None
    if args.prime_bound > arith.PRIME_BOUND_MAX:
        raise ValueError(f"--prime-bound must be <= {arith.PRIME_BOUND_MAX}")
    if args.json:
        _refuse_unwritable(args.json)

    reports = []
    quad = selected & audit.QUAD_CLAIMS
    if quad:
        reports.extend(audit.audit_claims(lo, hi, quad, args.prime_bound))
    fermat_claims = selected & audit.FERMAT_CLAIMS
    if fermat_claims:
        reports.extend(audit.audit_fermat(fermat_indices, args.prime_bound, fermat_claims))

    if args.json:
        parameters = {
            "range": f"{lo}:{hi}",
            "claims": sorted(c.value for c in selected),
            "prime_bound": args.prime_bound,
            "fermat_indices": fermat_indices,
        }
        results = [audit.report_to_dict(r) for r in reports]
        _write(args.json, _envelope("audit", parameters, results) + "\n")
    for r in reports:
        print(
            f"{r.claim.value}: instances={r.instances_tested} "
            f"violations={len(r.violations)}"
        )
    return EXIT_FOUND


def cmd_fermat(args) -> int:
    if args.budget < 0:
        raise ValueError("--budget must be >= 0")
    t = fermat_numbers.make_fermat(args.index)
    name = f"F_{args.index}"
    if args.mode == "lucas":
        hits = fermat_numbers.lucas_search(t, args.budget)
        results = {"divisors": [{"s": h.s, "divisor": h.divisor} for h in hits]}
        lines = [f"s={h.s} divisor={h.divisor} divides {name}" for h in hits] or [
            f"no divisor of {name} with s <= {args.budget}"
        ]
    else:
        outcome = fermat_numbers.lambda_search(t, args.budget, args.filters == "on")
        hits = outcome.hits
        results = dict(
            exhausted=outcome.exhausted,
            examined=outcome.examined,
            skipped=outcome.skipped,
            hits=[
                {
                    "lambda": h.lam,
                    "center": h.center,
                    "pair": [h.center - h.root, h.center + h.root],
                }
                for h in hits
            ],
        )
        tail = "budget exhausted" if outcome.exhausted else "interval exhausted"
        lines = [
            "lambda={} center={}: {} = {} * {}".format(h["lambda"], h["center"], name, *h["pair"])
            for h in results["hits"]
        ] or [f"no factor pair found ({tail})"]
    results["F"] = t.value if args.index <= JSON_F_MAX_INDEX else None
    parameters = {key: getattr(args, key) for key in ("index", "mode", "budget", "filters")}
    _emit(args, "fermat", parameters, results, lines)
    return EXIT_FOUND if hits else EXIT_NEGATIVE


def cmd_bench(args) -> int:
    targets = _int_list(args.targets, "--targets")
    if not targets:
        raise ValueError("no targets given")
    strategies = [s.strip() for s in args.strategies.split(",")]
    if args.strategies.lower() == "all":
        strategies = None  # run_bench's default, every strategy
    if args.csv:
        _refuse_unwritable(args.csv)
    rows = bench.run_bench(targets, strategies, repetitions=args.repetitions)
    table = [
        (r.strategy, r.target_n, r.N, r.candidates_examined, str(r.found).lower(), r.elapsed_ns)
        for r in rows
    ]
    if args.csv:
        header = ("strategy", "n", "N", "candidates", "found", "elapsed_ns")
        text = "".join(",".join(map(str, row)) + "\n" for row in [header, *table])
        _write(args.csv, text)
    for strategy, n, _, candidates, found, elapsed_ns in table:
        print(
            f"{strategy:<28} n={n:<6} candidates={candidates:<8} "
            f"found={found:<5} elapsed_ns={elapsed_ns}"
        )
    return EXIT_FOUND


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="fermatsieve",
        description="Difference-of-squares factoring toolkit for 4n^2+1 and Fermat numbers",
    )
    parser.add_argument("--version", action="version", version=__version__)
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("factor", help="factor N = 4n^2+1")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, help="generator n (N = 4n^2+1)")
    group.add_argument("--N", type=int, help="target N, validated to the 4n^2+1 form")
    p.add_argument("--all", action="store_true", help="report every factor pair")
    p.add_argument(
        "--heuristic-filters",
        action="store_true",
        help="also apply the heuristic congruence skips (may miss factors)",
    )
    p.add_argument("--prime-bound", type=int, default=97, help="--heuristic-filters' primes <= bound")
    p.add_argument("--json", action="store_true", help="emit a JSON envelope")
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("factor-generic", help="plain Fermat factoring; exact prime test below psi_13")
    p.add_argument("--N", type=int, required=True, help="odd N >= 9")
    p.add_argument("--budget", type=int, default=None, help="max centers to examine")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_factor_generic)

    p = sub.add_parser("candidates", help="inspect the u interval and residue sets")
    p.add_argument("--n", type=int, required=True)
    p.add_argument("--prime", type=int, default=None, help="show residue sets mod this prime")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_candidates)

    p = sub.add_parser("audit", help="run the claim audit and write its ledger")
    p.add_argument("--range", required=True, help="generator range lo:hi")
    p.add_argument("--claims", default="all", help="comma-separated claim ids, or 'all'")
    p.add_argument("--prime-bound", type=int, default=97)
    p.add_argument("--json", default=None, metavar="PATH", help="write the report JSON here")
    p.add_argument(
        "--fermat-indices",
        default="5,6",
        help="Fermat indices to audit when F-claims are selected",
    )
    p.set_defaults(func=cmd_audit)

    p = sub.add_parser("fermat", help="search for Fermat-number divisors")
    p.add_argument("--index", type=int, required=True, help="Fermat index n of F_n")
    p.add_argument("--mode", choices=("lucas", "lambda"), required=True)
    p.add_argument("--budget", type=int, default=10000)
    p.add_argument("--filters", choices=("on", "off"), default="off")
    p.add_argument("--json", action="store_true")
    p.set_defaults(func=cmd_fermat)

    p = sub.add_parser("bench", help="compare factoring strategies")
    p.add_argument("--targets", required=True, help="comma-separated generators n")
    p.add_argument("--strategies", default="all")
    p.add_argument("--csv", default=None, metavar="PATH")
    p.add_argument("--repetitions", type=int, default=5)
    p.set_defaults(func=cmd_bench)

    return parser


def main(argv=None) -> int:
    """Run the command argv names and return its exit code: the command's
    own 0 or 1, argparse's code, or 2 for a ValueError and 3 for an
    ArithmeticError the command raised, each reported on one stderr line."""
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    try:
        return args.func(args)
    except ValueError as exc:
        print(f"error: {exc}", file=sys.stderr)
        return EXIT_INVALID
    except ArithmeticError as exc:
        print(f"internal inconsistency: {exc}", file=sys.stderr)
        return EXIT_INCONSISTENT


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
