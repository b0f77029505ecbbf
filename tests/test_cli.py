"""End-to-end tests of the command-line front end (in-process)."""

import errno
import json
import math
import os
import time
import tracemalloc

import pytest

from fermatsieve import arith, cli, quadform


def run(capsys, *argv):
    rc = cli.main(list(argv))
    captured = capsys.readouterr()
    return rc, captured.out, captured.err


def test_factor_composite(capsys):
    rc, out, _ = run(capsys, "factor", "--n", "4")
    assert rc == 0
    assert "65 = 5 * 13" in out
    assert "u=1" in out


def test_factor_prime_exit_1(capsys):
    rc, out, _ = run(capsys, "factor", "--n", "5")
    assert rc == 1
    assert out.endswith(
        "101 is prime (trial division up to isqrt(N)/4 and the scan "
        "up to the crossover found nothing)\n"
    )


@pytest.mark.parametrize(
    "argv, code, stdout",
    [
        ("factor --n 4", 0, "N = 65 = 4*4^2 + 1 (even generator)\nu=1 center=9 d=4: 65 = 5 * 13\n"),
        (
            "factor --n 5",
            1,
            "N = 101 = 4*5^2 + 1 (odd generator)\n101 is prime (trial division up to "
            "isqrt(N)/4 and the scan up to the crossover found nothing)\n",
        ),
        (
            "factor --n 9 --all",
            0,
            "N = 325 = 4*9^2 + 1 (odd generator)\nu=2 center=19 d=6: 325 = 13 * 25\n"
            "u=4 center=35 d=30: 325 = 5 * 65\n",
        ),
        (
            "factor --n 30 --heuristic-filters",
            1,
            "N = 3601 = 4*30^2 + 1 (even generator)\nno factor found; heuristic filters "
            "were on, so this is not a primality verdict\n",
        ),
        ("factor-generic --N 9797", 0, "9797 = 99^2 - 2^2 = 97 * 101 (c=99, d=2)\n"),
        ("factor-generic --N 101", 1, "101: prime\n"),
        ("factor-generic --N 99993 --budget 10", 1, "99993: budget-exhausted\n"),
        ("candidates --n 4", 0, "N = 65: u in [1, 3/2), 1 candidate(s) [1]\n"),
        (
            "candidates --n 4 --prime 7",
            0,
            "N = 65: u in [1, 3/2), 1 candidate(s) [1]\n"
            "prime 7: parametric [1, 2, 3, 4] qr [1, 2, 3, 4] equal=True\n",
        ),
        ("fermat --index 5 --mode lambda", 0, "lambda=409 center=3350529: F_5 = 641 * 6700417\n"),
        ("fermat --index 5 --mode lambda --budget 3", 1, "no factor pair found (budget exhausted)\n"),
        ("fermat --index 6 --mode lucas --budget 10000", 0, "s=1071 divisor=274177 divides F_6\n"),
        ("fermat --index 5 --mode lucas --budget 3", 1, "no divisor of F_5 with s <= 3\n"),
    ],
)
def test_text_output_is_pinned(capsys, argv, code, stdout):
    assert run(capsys, *argv.split())[:2] == (code, stdout)


def test_factor_rejects_wrong_form(capsys):
    rc, _, err = run(capsys, "factor", "--N", "12")
    assert rc == 2
    assert "4n^2+1" in err


def test_factor_accepts_N_form(capsys):
    rc, out, _ = run(capsys, "factor", "--N", "325", "--all")
    assert rc == 0
    assert "13 * 25" in out and "5 * 65" in out


def test_factor_json_envelope(capsys):
    rc, out, _ = run(capsys, "factor", "--n", "4", "--json")
    assert rc == 0
    env = json.loads(out)
    assert list(env) == ["command", "parameters", "results", "tool_version"]
    assert env["command"] == "factor"
    assert env["results"]["verdict"] == "composite"
    assert env["results"]["pairs"] == [{"a": 5, "b": 13, "u": 1, "center": 9, "d": 4}]


def test_factor_json_bytes_stable(capsys):
    _, one, _ = run(capsys, "factor", "--n", "9", "--all", "--json")
    _, two, _ = run(capsys, "factor", "--n", "9", "--all", "--json")
    assert one == two


def test_factor_heuristic_filters_not_a_verdict(capsys):
    # n=30: heuristic filters lose the only witness; must not claim prime
    # (13 <= B = 15, so the trial division of the sound search would find it)
    rc, out, _ = run(capsys, "factor", "--n", "30", "--heuristic-filters")
    assert rc == 1
    assert "not a primality verdict" in out
    rc, out, _ = run(capsys, "factor", "--n", "30", "--heuristic-filters", "--json")
    assert rc == 1
    results = json.loads(out)["results"]
    assert (results["verdict"], results["pairs"]) == ("unknown", [])


def test_factor_small_factor_of_large_target_is_fast(capsys):
    # N = 4*100000^2 + 1 = 13 * 3076923077: the paper's interval holds 1e9 u
    start = time.perf_counter()
    rc, out, _ = run(capsys, "factor", "--n", "100000", "--json")
    elapsed = time.perf_counter() - start
    assert rc == 0
    assert json.loads(out)["results"]["pairs"] == [
        {"a": 13, "b": 3076923077, "u": 192307693, "center": 1538461545, "d": 1538461532}
    ]
    assert elapsed < 1.0, f"took {elapsed:.2f} s"


def test_factor_large_prime_verdict_is_fast(capsys):
    N = 4 * 1000012**2 + 1
    assert arith.is_prime(N)  # exact below 2^64
    start = time.perf_counter()
    rc, out, _ = run(capsys, "factor", "--n", "1000012", "--json")
    elapsed = time.perf_counter() - start
    assert rc == 1
    results = json.loads(out)["results"]
    assert (results["verdict"], results["pairs"]) == ("prime", [])
    assert elapsed < 1.0, f"took {elapsed:.2f} s"


@pytest.mark.parametrize(
    "argv",
    [
        ("factor", "--n", "4"),
        ("audit", "--range", "1:2", "--claims", "E4"),
    ],
)
@pytest.mark.parametrize("bound", [cli.PRIME_BOUND_MAX + 1, 10**12])
def test_prime_bound_above_cap_exits_2_before_sieving(monkeypatch, capsys, argv, bound):
    def no_sieve(limit):
        raise AssertionError(f"primes_up_to({limit}) called")

    monkeypatch.setattr(arith, "primes_up_to", no_sieve)
    rc, out, err = run(capsys, *argv, "--prime-bound", str(bound))
    assert rc == 2
    assert out == ""
    assert f"--prime-bound must be <= {cli.PRIME_BOUND_MAX}" in err


def test_prime_bound_at_cap_is_accepted(capsys):
    bound = str(cli.PRIME_BOUND_MAX)
    rc, out, _ = run(capsys, "audit", "--range", "1:2", "--claims", "CE", "--prime-bound", bound)
    assert rc == 0
    assert out == "CE: instances=1 violations=0\n"


def test_factor_generic_worked_example(capsys):
    rc, out, _ = run(capsys, "factor-generic", "--N", "9797")
    assert rc == 0
    assert "97 * 101" in out and "c=99" in out and "d=2" in out


def test_factor_generic_json(capsys):
    rc, out, _ = run(capsys, "factor-generic", "--N", "9797", "--json")
    env = json.loads(out)
    assert env["results"] == {
        "c": 99,
        "d": 2,
        "pair": [97, 101],
        "verdict": "composite",
    }


def test_factor_generic_prime_and_budget(capsys):
    rc, out, _ = run(capsys, "factor-generic", "--N", "101")
    assert rc == 1 and "prime" in out
    rc, out, _ = run(capsys, "factor-generic", "--N", "99993", "--budget", "10")
    assert rc == 1 and "budget-exhausted" in out


@pytest.mark.parametrize(
    "argv",
    [
        ("factor-generic", "--N", "99993"),
        ("fermat", "--index", "6", "--mode", "lucas"),
        ("fermat", "--index", "5", "--mode", "lambda"),
    ],
)
def test_negative_budget_exits_2(capsys, argv):
    rc, out, err = run(capsys, *argv, "--budget", "-3")
    assert rc == 2
    assert out == ""
    assert "--budget must be >= 0" in err


def test_factor_generic_rejects_even(capsys):
    rc, _, err = run(capsys, "factor-generic", "--N", "100")
    assert rc == 2


def test_candidates_interval(capsys):
    rc, out, _ = run(capsys, "candidates", "--n", "4")
    assert rc == 0
    assert "[1, 3/2)" in out and "1 candidate" in out


def test_candidates_with_prime(capsys):
    rc, out, _ = run(capsys, "candidates", "--n", "4", "--prime", "7")
    assert rc == 0
    assert "equal=True" in out
    assert "[1, 2, 3, 4]" in out


def test_candidates_rejects_dividing_prime(capsys):
    rc, _, err = run(capsys, "candidates", "--n", "4", "--prime", "5")
    assert rc == 2
    assert "divides" in err


def test_candidates_rejects_non_prime_modulus(capsys):
    for bad in ("9", "2", "1", "-7"):
        rc, _, err = run(capsys, "candidates", "--n", "4", "--prime", bad)
        assert rc == 2, bad


def test_candidates_prime_above_cap_exits_2_before_any_sweep(monkeypatch, capsys):
    # 1048583 is a prime above 2^20; each residue sweep costs O(p)
    assert arith.is_prime(1048583) and 1048583 > cli.PRIME_BOUND_MAX

    def no_sweep(t, p):
        raise AssertionError(f"residue sweep mod {p} called")

    monkeypatch.setattr(quadform, "admissible_residues_parametric", no_sweep)
    monkeypatch.setattr(quadform, "admissible_residues_qr", no_sweep)
    rc, out, err = run(capsys, "candidates", "--n", "4", "--prime", "1048583")
    assert rc == 2
    assert out == ""
    assert f"--prime must be <= {cli.PRIME_BOUND_MAX}" in err


def test_candidates_json(capsys):
    rc, out, _ = run(capsys, "candidates", "--n", "9", "--prime", "7", "--json")
    env = json.loads(out)
    results = env["results"]
    assert results["u_min"] == 2 and results["u_sup"] == "31/4"
    assert results["u_values"] == [2, 3, 4, 5, 6, 7]
    assert results["parametric"] == results["qr"] == [2, 4, 6]
    assert results["equal"] is True


def test_audit_o3_report_file(tmp_path, capsys):
    path = tmp_path / "report.json"
    rc, out, _ = run(
        capsys, "audit", "--range", "1:50", "--claims", "O3", "--json", str(path)
    )
    assert rc == 0
    assert "O3:" in out
    env = json.loads(path.read_text())
    assert list(env) == ["command", "parameters", "results", "tool_version"]
    (report,) = env["results"]
    assert report["claim"] == "O3"
    expected = {"n": 9, "N": 325, "pair": [13, 25], "u": 2, "modulus": 3}
    assert any(
        {k: v[k] for k in expected} == expected for v in report["violations"]
    )


def test_audit_structural_clean(capsys):
    rc, out, _ = run(capsys, "audit", "--range", "1:200", "--claims", "E1,E2")
    assert rc == 0
    assert "E1: instances=" in out
    assert "violations=0" in out


def test_audit_report_bytes_stable(tmp_path, capsys):
    a, b = tmp_path / "a.json", tmp_path / "b.json"
    run(capsys, "audit", "--range", "1:80", "--claims", "all", "--json", str(a))
    run(capsys, "audit", "--range", "1:80", "--claims", "all", "--json", str(b))
    assert a.read_bytes() == b.read_bytes()


def test_audit_bad_ranges(capsys):
    for bad in ("5:1", "0:10", "x:y", "1-10"):
        rc, _, err = run(capsys, "audit", "--range", bad, "--claims", "E1")
        assert rc == 2, bad


def test_audit_unknown_claim(capsys):
    rc, _, err = run(capsys, "audit", "--range", "1:10", "--claims", "Z9")
    assert rc == 2


def test_audit_rejects_out_of_range_indices(capsys):
    for bad in ("-1", "40"):
        rc, _, _ = run(
            capsys, "audit", "--range", "1:5", "--claims", "L2",
            "--fermat-indices", bad,
        )
        assert rc == 2, bad


def test_bench_rejects_bad_generator(capsys):
    rc, _, err = run(capsys, "bench", "--targets", "0")
    assert rc == 2


def test_audit_fermat_claims(capsys):
    rc, out, _ = run(
        capsys, "audit", "--range", "1:5", "--claims", "F5,L2", "--fermat-indices", "5"
    )
    assert rc == 0
    assert "F5: instances=1 violations=0" in out
    assert "L2: instances=1 violations=0" in out


def test_fermat_lambda_f5(capsys):
    rc, out, _ = run(capsys, "fermat", "--index", "5", "--mode", "lambda", "--budget", "10000")
    assert rc == 0
    assert "lambda=409" in out and "641 * 6700417" in out


def test_fermat_lucas_f6(capsys):
    rc, out, _ = run(capsys, "fermat", "--index", "6", "--mode", "lucas", "--budget", "10000")
    assert rc == 0
    assert "s=1071" in out and "274177" in out


def test_fermat_lucas_empty(capsys):
    rc, out, _ = run(capsys, "fermat", "--index", "5", "--mode", "lucas", "--budget", "3")
    assert rc == 1


def test_fermat_precondition_exits(capsys):
    rc, _, err = run(capsys, "fermat", "--index", "4", "--mode", "lambda")
    assert rc == 2 and "index >= 5" in err
    rc, _, err = run(capsys, "fermat", "--index", "3", "--mode", "lucas")
    assert rc == 2 and "index >= 4" in err
    rc, _, err = run(capsys, "fermat", "--index", "31", "--mode", "lucas")
    assert rc == 2


def test_fermat_lambda_is_bounded_by_index(capsys, monkeypatch):
    rc, out, _ = run(capsys, "fermat", "--index", "20", "--mode", "lambda", "--budget", "10")
    assert rc == 1 and "budget exhausted" in out

    def no_isqrt(x):
        raise AssertionError("took an isqrt")

    # the refusal comes before F_21 or its square root is ever built
    monkeypatch.setattr(math, "isqrt", no_isqrt)
    rc, _, err = run(capsys, "fermat", "--index", "21", "--mode", "lambda")
    assert rc == 2 and "index <= 20" in err


def test_fermat_json(capsys):
    rc, out, _ = run(
        capsys, "fermat", "--index", "5", "--mode", "lambda", "--budget", "10000",
        "--filters", "on", "--json",
    )
    env = json.loads(out)
    hits = env["results"]["hits"]
    assert hits == [
        {"lambda": 409, "center": 3350529, "pair": [641, 6700417]}
    ]
    assert env["results"]["skipped"] > 0


@pytest.mark.parametrize(
    "argv",
    [
        ("fermat", "--index", "30", "--mode", "lucas", "--budget", "10"),
        ("audit", "--range", "1:2", "--claims", "L2", "--fermat-indices", "30"),
    ],
)
def test_fermat_index_30_never_builds_F_n(capsys, argv):
    # F_30 is a 128 MiB integer; neither search reads it
    tracemalloc.start()
    try:
        run(capsys, *argv)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 8 << 20, f"peak {peak >> 20} MiB"


def test_fermat_json_omits_F_past_index_13(capsys):
    # F_14 has more digits than Python converts to str by default
    for mode in ("lucas", "lambda"):
        rc, out, _ = run(
            capsys, "fermat", "--index", "14", "--mode", mode, "--budget", "10", "--json"
        )
        assert rc == 1 and json.loads(out)["results"]["F"] is None, mode
    rc, out, _ = run(
        capsys, "fermat", "--index", "13", "--mode", "lucas", "--budget", "10", "--json"
    )
    assert json.loads(out)["results"]["F"] == 2**8192 + 1


def test_bench_csv(tmp_path, capsys):
    path = tmp_path / "bench.csv"
    rc, out, _ = run(
        capsys, "bench", "--targets", "4,9", "--strategies", "all",
        "--repetitions", "1", "--csv", str(path),
    )
    assert rc == 0
    raw = path.read_bytes()
    assert b"\r" not in raw  # LF only
    lines = raw.decode().strip().split("\n")
    assert lines[0] == "strategy,n,N,candidates,found,elapsed_ns"
    assert len(lines) == 11  # header + 2 targets x 5 strategies
    qr = [l for l in lines if l.startswith("QuadIntervalQRFiltered,4,")]
    plain = [l for l in lines if l.startswith("QuadInterval,4,")]
    assert int(qr[0].split(",")[3]) <= int(plain[0].split(",")[3])


@pytest.mark.parametrize(
    "argv",
    [
        ("audit", "--range", "1:2", "--claims", "CE", "--json"),
        ("bench", "--targets", "4", "--strategies", "QuadInterval", "--csv"),
    ],
)
def test_unwritable_output_file_exits_2(tmp_path, capsys, argv):
    path = tmp_path / "missing" / "out"
    rc, out, err = run(capsys, *argv, str(path))
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1
    assert not path.parent.exists()


@pytest.mark.parametrize(
    "argv, work",
    [
        (("audit", "--range", "1:2000", "--claims", "all", "--json"), "audit.audit_claims"),
        (("bench", "--targets", "4,9", "--strategies", "all", "--csv"), "bench.run_bench"),
    ],
)
@pytest.mark.parametrize("where, code", [("missing/x", errno.ENOENT), (".", errno.EISDIR)])
def test_unwritable_output_file_is_refused_before_the_work(
    tmp_path, monkeypatch, capsys, argv, work, where, code
):
    def fail(*args, **kwargs):
        raise AssertionError(f"{work} ran before the output path was checked")

    monkeypatch.setattr(f"fermatsieve.{work}", fail)
    path = tmp_path / where
    rc, out, err = run(capsys, *argv, str(path))
    assert (rc, out) == (2, "")
    assert err == f"error: cannot write {path}: {os.strerror(code)}\n"
    assert list(tmp_path.iterdir()) == []  # nothing created


@pytest.mark.parametrize(
    "argv",
    [
        ("audit", "--range", "1:2", "--claims", "CE", "--json"),
        ("bench", "--targets", "4", "--strategies", "QuadInterval", "--csv"),
    ],
)
def test_write_error_after_the_work_exits_2(tmp_path, capsys, argv):
    # a regular file where the directory should be passes the early check,
    # so the error comes from the write itself
    (tmp_path / "file").write_text("")
    path = tmp_path / "file" / "out"
    rc, out, err = run(capsys, *argv, str(path))
    assert (rc, out) == (2, "")
    assert err == f"error: cannot write {path}: {os.strerror(errno.ENOTDIR)}\n"


def test_bench_rejects_prime_target(capsys):
    rc, _, err = run(capsys, "bench", "--targets", "5")
    assert rc == 2
    assert "prime" in err


def test_bench_rejects_unknown_strategy(capsys):
    rc, _, err = run(capsys, "bench", "--targets", "4", "--strategies", "Nope")
    assert rc == 2


def test_audit_exit_3_when_reverification_breaks(monkeypatch, capsys):
    # wiring check for the internal-inconsistency path: force the replay
    # to disagree with the recorded ledger
    from fermatsieve import audit

    monkeypatch.setattr(audit, "verify_violation", lambda claim, v: False)
    rc, _, err = run(capsys, "audit", "--range", "1:50", "--claims", "O3")
    assert rc == 3
    assert "re-verification" in err


def test_envelope_reports_tool_version(capsys):
    import fermatsieve

    _, out, _ = run(capsys, "factor", "--n", "4", "--json")
    assert json.loads(out)["tool_version"] == fermatsieve.__version__


def test_argparse_failures_exit_2(capsys):
    assert cli.main(["no-such-command"]) == 2
    capsys.readouterr()
    assert cli.main([]) == 2
    capsys.readouterr()


def test_version_flag(capsys):
    assert cli.main(["--version"]) == 0
    out = capsys.readouterr().out
    assert out.strip()
