"""One part of a timed run, in a process of its own; run.py starts the parts.

    python3 perfbench/part.py --workload NAME --seed N --start I --seconds S
                              --min-ops M --deadline D

Sets up, then runs ops I, I+1, ... of the workload's seeded stream until
they have taken S seconds of op time and at least M ops have run, starting
no op D seconds after the part began.  Times the host-speed reference
(reference.py) before the first op, after about every REF_EVERY_S seconds
of op time and after the last op.  Prints one JSON object: the op
latencies and the set-up time, as measured and scaled to the nominal host
speed (set-up by the first reference), the reference times, failures,
input-property counts, and the part's
peak RSS before the warm-up op (interpreter, program, the benchmark's own
modules and oracle) and at the end.

Set-up time runs from the top of this script to the first timed op.  It
covers the program's import, made before any of the benchmark's own
modules are loaded so that it is cold, drawing the first block of inputs,
and one untimed warm-up op.  It leaves out loading the benchmark's own
modules and building its oracle and input strata, which are the same
whatever the program does.
"""

from time import perf_counter

BEGAN = perf_counter()

import sys  # noqa: E402  (loaded at interpreter start, like everything loader needs)

from loader import load_program, use_sources  # noqa: E402


def peak_rss_kib() -> int:
    """High-water resident memory of this process's own address space.

    This is VmHWM from /proc/self/status rather than getrusage's ru_maxrss,
    because Linux carries the parent's high-water mark over fork and exec
    into ru_maxrss: a part would report run.py's footprint where that is
    the larger.
    """
    with open("/proc/self/status", encoding="ascii") as fh:
        for line in fh:
            if line.startswith("VmHWM:"):
                return int(line.split()[1])
    raise OSError("no VmHWM in /proc/self/status")


def main() -> int:
    if not use_sources():
        print("error: no fermatsieve sources", file=sys.stderr)
        return 2
    program = load_program()
    imported = perf_counter() - BEGAN

    # The benchmark's own modules load only after the program's import.
    import argparse
    import json

    from checks import Checker
    from harness import Run, prepare
    from oracle import Oracle
    from reference import REF_EVERY_S, REF_NOMINAL_S, reference_s, scale
    from workloads import OUT_DIR, WORKLOADS

    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True, choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--start", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--min-ops", type=int, required=True)
    parser.add_argument("--deadline", type=float, required=True)
    args = parser.parse_args()
    OUT_DIR.mkdir(exist_ok=True)

    workload = WORKLOADS[args.workload]
    oracle = Oracle()
    strata = workload.strata(oracle)
    before_warmup_rss_kib = peak_rss_kib()
    began = perf_counter()
    ops, rc, out = prepare(program, workload, args.seed, strata, args.start)
    setup_s = imported + perf_counter() - began
    warmup_error = Checker(oracle).check(workload.warmup, rc, out)

    run = Run(Checker(oracle))
    refs = [(0, reference_s())]
    busy = since_ref = 0.0
    for op in ops:
        elapsed = run.do(program["cli"], op)
        busy += elapsed
        since_ref += elapsed
        if since_ref >= REF_EVERY_S:
            refs.append((len(run.latencies), reference_s()))
            since_ref = 0.0
        if busy >= args.seconds and len(run.latencies) >= args.min_ops:
            break
        if perf_counter() - BEGAN >= args.deadline:
            break
    if refs[-1][0] != len(run.latencies):
        refs.append((len(run.latencies), reference_s()))

    print(json.dumps({
        "latencies": run.latencies,
        "scaled": scale(run.latencies, refs),
        "refs": [ref for _, ref in refs],
        "failures": run.failures,
        "warmup_errors": [warmup_error] if warmup_error else [],
        "setups": [setup_s],
        "scaled_setups": [setup_s * REF_NOMINAL_S / refs[0][1]],
        "props": run.checker.props,
        "log2_balance": run.checker.log2_balance,
        "before_warmup_rss_kib": before_warmup_rss_kib,
        "peak_rss_kib": peak_rss_kib(),
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
