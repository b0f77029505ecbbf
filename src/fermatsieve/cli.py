"""Command-line front end.

Subcommands: factor (specialized sieve for N = 4n^2+1), factor-generic
(plain difference of squares), candidates (interval and residue-set
inspection), audit (claim verification ledger), fermat (Fermat-number
searches), bench (strategy comparison).

Exit codes: 0 success/found, 1 legitimate negative (prime or budget
exhausted), 2 invalid input, 3 internal inconsistency.  Human-readable
text goes to stdout, diagnostics to stderr; --json output and report
files are stable-key-ordered so identical runs produce identical bytes.
"""

import argparse
import errno
import importlib.util
import json
import os
import sys

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

#: Largest Fermat index lambda mode accepts.  Each center that passes the
#: square screens costs an isqrt of a discriminant as large as F_n, so the
#: scan is not desk-scale past here even with lam_min in closed form.
LAMBDA_MAX_INDEX = 20

#: Largest --prime-bound accepted; primes_up_to allocates a byte per integer
#: up to the bound, so this caps its sieve at 1 MiB.
PRIME_BOUND_MAX = 1 << 20


def _fail(message: str) -> int:
    print(f"error: {message}", file=sys.stderr)
    return EXIT_INVALID


def _envelope(command: str, parameters: dict, results) -> str:
    payload = {
        "command": command,
        "parameters": parameters,
        "results": results,
        "tool_version": __version__,
    }
    return json.dumps(payload, sort_keys=True, indent=2)


def _emit(args, command: str, parameters: dict, results, lines: list[str]) -> None:
    """Print the command's results: as the JSON envelope under --json, else
    as the text lines worked out from them."""
    print(_envelope(command, parameters, results) if args.json else "\n".join(lines))


def _refuse_unwritable(path: str) -> int | None:
    """Exit 2 before any work if path is a directory or its directory is missing."""
    if os.path.isdir(path):
        return _fail(f"cannot write {path}: {os.strerror(errno.EISDIR)}")
    try:
        os.stat(os.path.dirname(path) or ".")
    except OSError as exc:
        return _fail(f"cannot write {path}: {exc.strerror}")
    return None


def _write(path: str, text: str) -> int | None:
    """Write text to path (UTF-8, LF); the exit code when it cannot be written."""
    try:
        with open(path, "w", encoding="utf-8", newline="\n") as fh:
            fh.write(text)
    except OSError as exc:
        return _fail(f"cannot write {path}: {exc.strerror}")
    return None


def _int_list(text: str) -> list[int] | None:
    """The integers of a comma-separated list; None when one is not an integer."""
    try:
        return [int(x) for x in text.split(",") if x.strip()]
    except ValueError:
        return None


def _resolve_generator(args) -> int | None:
    """Generator n from --n, or recovered from --N (which must be 4n^2+1)."""
    if args.n is not None:
        return args.n if args.n >= 1 else None
    N = args.N
    if N < 5 or (N - 1) % 4 != 0:
        return None
    n = arith.isqrt((N - 1) // 4)
    return n if n >= 1 and 4 * n * n + 1 == N else None


def cmd_factor(args) -> int:
    n = _resolve_generator(args)
    if n is None:
        return _fail("need --n >= 1 or --N of the form 4n^2+1 with n >= 1")
    if args.prime_bound > PRIME_BOUND_MAX:
        return _fail(f"--prime-bound must be <= {PRIME_BOUND_MAX}")
    t = quadform.make_target(n)
    primes = quadform.default_filter_primes(t, args.prime_bound)
    pairs = quadform.sieve_enumerate(
        t, primes, use_heuristic_filters=args.heuristic_filters, want_all=args.all
    )
    if pairs:
        verdict = "composite"
    elif args.heuristic_filters:
        verdict = "unknown"  # heuristic skips can hide a true witness
    else:
        verdict = "prime"
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
                "center": quadform.CENTER_STEP * p.witness_u + t.offset,
                "d": p.d,
            }
            for p in pairs
        ],
    }
    lines = [f"N = {t.N} = 4*{t.n}^2 + 1 ({t.parity} generator)"]
    for p in results["pairs"]:
        lines.append("u={u} center={center} d={d}: {N} = {a} * {b}".format(N=t.N, **p))
    if verdict == "prime":
        lines.append(
            f"{t.N} is prime (trial division up to isqrt(N)/4 and the scan "
            "up to the crossover found nothing)"
        )
    elif verdict == "unknown":
        lines.append(
            "no factor found; heuristic filters were on, so this is not a primality verdict"
        )
    _emit(args, "factor", parameters, results, lines)
    return EXIT_FOUND if pairs else EXIT_NEGATIVE


def cmd_factor_generic(args) -> int:
    N = args.N
    if N < 9 or N % 2 == 0:
        return _fail("factor-generic needs odd N >= 9")
    if args.budget is not None and args.budget < 0:
        return _fail("--budget must be >= 0")
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
    if args.n < 1:
        return _fail("need --n >= 1")
    t = quadform.make_target(args.n)
    p = args.prime
    if p is not None:
        if p > PRIME_BOUND_MAX:
            return _fail(f"--prime must be <= {PRIME_BOUND_MAX}")
        if p == 2 or not arith.is_prime(p):
            return _fail("--prime must be an odd prime")
        if t.N % p == 0:
            return _fail(f"{p} divides N = {t.N}; it is a factor, not a filter")
    u_min, u_sup = quadform.u_interval(t)
    span = quadform.u_range(t)
    results = {
        "N": t.N,
        "parity": t.parity,
        "u_min": u_min,
        "u_sup": f"{u_sup.numerator}/{u_sup.denominator}",
        "count": len(span),
        "u_values": list(span) if len(span) <= 1000 else None,
    }
    shown = f" {results['u_values']}" if 0 < len(span) <= 50 else ""
    lines = ["N = {N}: u in [{u_min}, {u_sup}), {count} candidate(s)".format(**results) + shown]
    if p is not None:
        parametric = sorted(quadform.admissible_residues_parametric(t, p))
        qr = sorted(quadform.admissible_residues_qr(t, p))
        results.update(prime=p, parametric=parametric, qr=qr, equal=parametric == qr)
        lines.append(
            "prime {prime}: parametric {parametric} qr {qr} equal={equal}".format(**results)
        )
    _emit(args, "candidates", {"n": t.n, "prime": p}, results, lines)
    return EXIT_FOUND


def cmd_audit(args) -> int:
    parts = args.range.split(":")
    if len(parts) != 2:
        return _fail("--range must look like lo:hi")
    try:
        lo, hi = int(parts[0]), int(parts[1])
    except ValueError:
        return _fail("--range bounds must be integers")
    if lo < 1 or lo > hi:
        return _fail(f"bad range [{lo}, {hi}]: need 1 <= lo <= hi")
    try:
        selected = audit.parse_claim_spec(args.claims)
    except ValueError as exc:
        return _fail(str(exc))
    fermat_indices = _int_list(args.fermat_indices)
    if fermat_indices is None:
        return _fail("--fermat-indices must be a comma-separated list of integers")
    if any(i < 0 or i > fermat_numbers.MAX_INDEX for i in fermat_indices):
        return _fail(f"--fermat-indices must lie in [0, {fermat_numbers.MAX_INDEX}]")
    if args.prime_bound > PRIME_BOUND_MAX:
        return _fail(f"--prime-bound must be <= {PRIME_BOUND_MAX}")
    if args.json and (failed := _refuse_unwritable(args.json)) is not None:
        return failed

    reports = []
    quad = selected & audit.QUAD_CLAIMS
    if quad:
        reports.extend(audit.audit_claims(lo, hi, quad, args.prime_bound))
    fermat_claims = selected & audit.FERMAT_CLAIMS
    if fermat_claims:
        fermat_reports = audit.audit_fermat(fermat_indices, args.prime_bound)
        reports.extend(r for r in fermat_reports if r.claim in fermat_claims)

    bad = [
        (r.claim, v)
        for r in reports
        for v in r.violations
        if not audit.verify_violation(r.claim, v)
    ]
    if bad:
        claim, v = bad[0]
        print(
            f"internal inconsistency: recorded violation failed re-verification "
            f"({claim.value}: n={v.n}, detail={v.detail})",
            file=sys.stderr,
        )
        return EXIT_INCONSISTENT

    if args.json:
        parameters = {
            "range": f"{lo}:{hi}",
            "claims": sorted(c.value for c in selected),
            "prime_bound": args.prime_bound,
            "fermat_indices": fermat_indices,
        }
        results = [audit.report_to_dict(r) for r in reports]
        failed = _write(args.json, _envelope("audit", parameters, results) + "\n")
        if failed is not None:
            return failed
    for r in reports:
        print(
            f"{r.claim.value}: instances={r.instances_tested} "
            f"violations={len(r.violations)}"
        )
    return EXIT_FOUND


def cmd_fermat(args) -> int:
    if args.index < 0:
        return _fail("--index must be >= 0")
    top = fermat_numbers.MAX_INDEX
    if args.index > top:
        return _fail(f"F_n beyond index {top} is not a desk-scale object; refusing")
    if args.budget < 0:
        return _fail("--budget must be >= 0")
    if args.mode == "lucas" and args.index < 4:
        return _fail("lucas mode needs index >= 4")
    if args.mode == "lambda" and args.index < 5:
        return _fail("lambda mode needs index >= 5")
    if args.mode == "lambda" and args.index > LAMBDA_MAX_INDEX:
        return _fail(f"lambda mode is bounded to index <= {LAMBDA_MAX_INDEX}")
    t = fermat_numbers.make_fermat(args.index)
    name = f"F_{args.index}"
    results = {"F": t.value if args.index <= JSON_F_MAX_INDEX else None}
    if args.mode == "lucas":
        hits = fermat_numbers.lucas_search(t, args.budget)
        results["divisors"] = [{"s": h.s, "divisor": h.divisor} for h in hits]
        lines = [
            f"s={h['s']} divisor={h['divisor']} divides {name}" for h in results["divisors"]
        ] or [f"no divisor of {name} with s <= {args.budget}"]
    else:
        outcome = fermat_numbers.lambda_search(t, args.budget, args.filters == "on")
        hits = outcome.hits
        results.update(
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
    parameters = {key: getattr(args, key) for key in ("index", "mode", "budget", "filters")}
    _emit(args, "fermat", parameters, results, lines)
    return EXIT_FOUND if hits else EXIT_NEGATIVE


def cmd_bench(args) -> int:
    targets = _int_list(args.targets)
    if targets is None:
        return _fail("--targets must be a comma-separated list of integers")
    if not targets:
        return _fail("no targets given")
    if args.strategies.lower() == "all":
        strategies = list(bench.Strategy)
    else:
        try:
            strategies = [bench.Strategy(s.strip()) for s in args.strategies.split(",")]
        except ValueError:
            names = ", ".join(s.value for s in bench.Strategy)
            return _fail(f"--strategies must be 'all' or a list from: {names}")
    if args.csv and (failed := _refuse_unwritable(args.csv)) is not None:
        return failed
    try:
        rows = bench.run_bench(targets, strategies, repetitions=args.repetitions)
    except ValueError as exc:
        return _fail(str(exc))
    table = [
        (r.strategy, r.target_n, r.N, r.candidates_examined, str(r.found).lower(), r.elapsed_ns)
        for r in rows
    ]
    if args.csv:
        header = ("strategy", "n", "N", "candidates", "found", "elapsed_ns")
        text = "".join(",".join(map(str, row)) + "\n" for row in [header, *table])
        if (failed := _write(args.csv, text)) is not None:
            return failed
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

    p = sub.add_parser("factor", help="factor N = 4n^2+1 with the candidate sieve")
    group = p.add_mutually_exclusive_group(required=True)
    group.add_argument("--n", type=int, help="generator n (N = 4n^2+1)")
    group.add_argument("--N", type=int, help="target N, validated to the 4n^2+1 form")
    p.add_argument("--all", action="store_true", help="report every factor pair")
    p.add_argument(
        "--heuristic-filters",
        action="store_true",
        help="also apply the heuristic congruence skips (may miss factors)",
    )
    p.add_argument("--prime-bound", type=int, default=97, help="filter primes <= bound")
    p.add_argument("--json", action="store_true", help="emit a JSON envelope")
    p.set_defaults(func=cmd_factor)

    p = sub.add_parser("factor-generic", help="plain difference-of-squares factoring")
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
    parser = build_parser()
    try:
        args = parser.parse_args(argv)
    except SystemExit as exc:
        return int(exc.code or 0)
    return args.func(args)


def entrypoint() -> None:
    sys.exit(main())


if __name__ == "__main__":
    entrypoint()
