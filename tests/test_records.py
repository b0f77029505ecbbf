"""The result records: immutable tuples with the reprs, equality and hashes
the frozen dataclasses they replace had, and a start-up that imports neither
dataclasses nor fractions."""

import os
import subprocess
import sys

import pytest

import fermatsieve
from fermatsieve import audit, bench, fermat_generic, fermat_numbers, quadform

#: Modules that `import fermatsieve.cli` must leave unloaded: dataclasses
#: pulls in inspect, fractions pulls in decimal.
SLOW_IMPORTS = ("dataclasses", "inspect", "fractions", "decimal")


def test_cli_import_skips_dataclasses_and_fractions():
    # compared before and after, so what the interpreter's site preloads
    # does not count; a fresh process, since this one has them all
    probe = (
        "import sys; before = set(sys.modules); import fermatsieve.cli; "
        f"print(sorted(set(sys.modules) - before & set({SLOW_IMPORTS!r})))"
    )
    src = os.path.dirname(os.path.dirname(fermatsieve.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    out = subprocess.run(
        [sys.executable, "-c", probe],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout
    assert out == "[]\n"


def _records():
    t = quadform.make_target(48)
    F5 = fermat_numbers.make_fermat(5)
    return [
        (t, "QuadTarget(n=48, N=9217, m=24, offset=1)"),
        (quadform.try_candidate(t, 5), "Candidate(u=5, center=41, disc=-7536, root=None)"),
        (quadform.sieve_enumerate(t)[0], "FactorPair(a=13, b=709, witness_u=45, d=348)"),
        (fermat_numbers.lucas_check(F5, 10), "LucasDivisorCandidate(s=10, divisor=1281, residue=920)"),
        (
            fermat_numbers.lambda_search(F5, 5000),
            "LambdaSearchResult(hits=[LambdaCandidate(lam=409, center=3350529, "
            "disc=11221749612544, root=3349888)], exhausted=False, examined=4088, skipped=0)",
        ),
        (fermat_generic.fermat_factor(5959), "SquareSplit(c=80, d=21, a=59, b=101)"),
        (
            audit.Violation(9, 325, (13, 25), 2, 3, "x"),
            "Violation(n=9, N=325, pair=(13, 25), u=2, modulus=3, detail='x')",
        ),
        (
            bench.BenchRow("TrialDivision", 48, 9217, 6, True, (13, 709), 0),
            "BenchRow(strategy='TrialDivision', target_n=48, N=9217, candidates_examined=6, "
            "found=True, pair=(13, 709), elapsed_ns=0)",
        ),
    ]


@pytest.mark.parametrize("record, text", _records())
def test_record_repr(record, text):
    assert repr(record) == text


def test_plain_class_reprs():
    assert (
        repr(fermat_numbers.make_fermat(5))
        == "FermatTarget(index_n=5, divisor_step=128, center_step=8192)"
    )
    report = audit.audit_claims(48, 49, {audit.ClaimId.E3})[0]
    assert repr(report) == (
        "ClaimReport(claim=<ClaimId.E3: 'E3'>, range_tested='n in [48, 49]; primes <= 97', "
        "instances_tested=13, violations=[Violation(n=48, N=9217, pair=(13, 709), u=45, "
        "modulus=3, detail='u=45 = 0 (mod 3) with 3 = 3 (mod 4)')])"
    )


def _claim_report():
    return audit.ClaimReport(audit.ClaimId.E1, "r", 0, [])


@pytest.mark.parametrize(
    "record",
    [r for r, _ in _records()]
    + [audit.CLAIMS[0], fermat_numbers.make_fermat(5), _claim_report()],
)
def test_records_are_immutable(record):
    field = record._fields[0]
    with pytest.raises(AttributeError):
        setattr(record, field, 1)


def test_fermat_target_is_immutable_equal_and_hashed_by_its_fields():
    for i in range(0, 12):
        a, b = fermat_numbers.make_fermat(i), fermat_numbers.make_fermat(i)
        assert a == b and hash(a) == hash(b)
        assert a != fermat_numbers.make_fermat(i + 1)
    t = fermat_numbers.make_fermat(5)
    assert t.value == 2**32 + 1  # built on each read, never kept
    assert t == fermat_numbers.make_fermat(5)
    with pytest.raises(AttributeError):
        t.index_n = 6
    with pytest.raises(AttributeError):
        del t.center_step


def test_claim_report_is_unhashable():
    with pytest.raises(TypeError):
        hash(_claim_report())  # its violations are a list


def test_records_are_tuples():
    pair = quadform.sieve_enumerate(quadform.make_target(48))[0]
    assert pair == (13, 709, 45, 348) and tuple(pair) == (13, 709, 45, 348)
    assert pair._replace(d=0) == (13, 709, 45, 0)
    assert fermat_numbers.make_fermat(5) == (5, 128, 8192)
    report = audit.audit_claims(48, 49, {audit.ClaimId.E1})[0]
    assert report == (audit.ClaimId.E1, "n in [48, 49]; primes <= 97", 1, [])
