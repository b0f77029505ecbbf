"""End-to-end tests of the command-line front end (in-process)."""

import errno
import hashlib
import json
import math
import os
import resource
import subprocess
import sys
import time
import tracemalloc

import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from fermatsieve import arith, cli, fermat_numbers, quadform


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
        "101 is prime (N < 2^64, where the seven-base strong probable prime test is exact)\n"
    )


@pytest.mark.parametrize(
    "argv, code, stdout",
    [
        ("factor --n 4", 0, "N = 65 = 4*4^2 + 1 (even generator)\nu=1 center=9 d=4: 65 = 5 * 13\n"),
        (
            "factor --n 5",
            1,
            "N = 101 = 4*5^2 + 1 (odd generator)\n101 is prime (N < 2^64, where the "
            "seven-base strong probable prime test is exact)\n",
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
        (
            "candidates --n 10000000000",  # more u than sys.maxsize: len() would overflow
            0,
            "N = 400000000000000000001: u in [2500000000, 99999999999999999999/10), "
            "9999999997500000000 candidate(s)\n",
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


#: sha256 of the ledger file `audit --range 1:400 --claims all --json PATH`
#: writes and of the stdout of `factor --n N --all --json` over n in
#: [2, 200), both as json.dumps(sort_keys=True, indent=2) wrote the envelope.
AUDIT_ENVELOPE_SHA256 = "fec4dcebd51419388d68e872b329b7ef92003d634c10bdcd2d9b2e28b3ff142c"
FACTOR_ENVELOPES_SHA256 = "aca389b3cbfb9ab3104d6212a39b00b3871cf457539c217e07b5fff947e6b482"


def test_audit_envelope_bytes_pinned(tmp_path, capsys):
    path = tmp_path / "ledger.json"
    rc, _, _ = run(capsys, "audit", "--range", "1:400", "--claims", "all", "--json", str(path))
    assert rc == 0
    assert hashlib.sha256(path.read_bytes()).hexdigest() == AUDIT_ENVELOPE_SHA256


def test_factor_envelopes_bytes_pinned(capsys):
    digest = hashlib.sha256()
    for n in range(2, 200):
        _, out, _ = run(capsys, "factor", "--n", str(n), "--all", "--json")
        digest.update(out.encode())
    assert digest.hexdigest() == FACTOR_ENVELOPES_SHA256


# quotes, backslashes, control characters, non-ASCII and astral characters
# besides what st.text draws
_json_text = st.text() | st.lists(
    st.sampled_from(
        ['"', "\\", "\n", "\x00", "\x1f", "\x7f", "\u00e9", "\u2028", "\U0001f600", "a"]
    )
).map("".join)
_json_ints = st.integers(min_value=-(1 << 80), max_value=1 << 80)
# lists of ints alone take _encode's one-join path; ints mixed with bools
# (which print as true/false) or other values must not
_json_values = st.recursive(
    st.none() | st.booleans() | _json_ints | _json_text,
    lambda inner: st.lists(inner, max_size=4)
    | st.lists(inner, max_size=4).map(tuple)
    | st.lists(_json_ints, min_size=1, max_size=6)
    | st.lists(_json_ints | st.booleans() | _json_text, min_size=1, max_size=6)
    | st.dictionaries(_json_text, inner, max_size=4),
    max_leaves=40,
)


@settings(max_examples=300, deadline=None)
@given(_json_values)
@example([1, True])
@example([True, 1])
@example([1, "a"])
@example((1, 2, 3))
@example({"a": [[1, 2], [False], [3, None]]})
def test_envelope_writer_matches_json_dumps(value):
    payload = {"command": "x", "parameters": {}, "results": value, "tool_version": "0.1.0"}
    expected = json.dumps(payload, sort_keys=True, indent=2)
    assert cli._envelope("x", {}, value) == expected
    out = []
    cli._encode(value, "", out)
    assert "".join(out) == json.dumps(value, sort_keys=True, indent=2)


def test_envelope_writes_long_int_lists_in_bounded_memory():
    # the two residue lists of `candidates --n 1500 --prime 1048573 --json`
    # hold 524286 ints each; one line per item used to cost about 140 MiB
    residues = list(range(1, 1048573, 2))
    results = {"parametric": residues, "qr": residues[:]}
    tracemalloc.start()
    try:
        text = cli._envelope("candidates", {}, results)
        _, peak = tracemalloc.get_traced_memory()
    finally:
        tracemalloc.stop()
    assert peak < 64 << 20, f"peak {peak >> 20} MiB"
    assert text.count("\n") == 2 * len(residues) + 10


def test_envelope_writer_rejects_what_no_command_returns():
    for value in (1.5, {1: 2}, {"a": {3}}, [b"x"]):
        with pytest.raises(TypeError):
            cli._envelope("x", {}, value)


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


def _capped_factor(*argv):
    """(exit code, stdout) of factor argv in a fresh process, under a 1 GiB
    address-space cap and a 5 s timeout."""
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)

    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (1 << 30, 1 << 30))

    done = subprocess.run(
        [sys.executable, "-m", "fermatsieve.cli", "factor", *argv],
        env={**os.environ, "PYTHONPATH": path},
        preexec_fn=cap,
        capture_output=True,
        text=True,
        timeout=5,
    )
    return done.returncode, done.stdout


def test_main_runs_clean_after_a_usage_error_and_a_refusal(capsys):
    # one process, three calls: an argparse error, a library refusal and a
    # run; the run gives the exit code and bytes of a fresh process
    assert run(capsys, "factor", "--n", "x")[:2] == (2, "")
    assert run(capsys, "fermat", "--index", "31", "--mode", "lucas")[:2] == (2, "")
    rc, out, err = run(capsys, "factor", "--n", "4000", "--json")
    src = os.path.dirname(os.path.dirname(cli.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    fresh = subprocess.run(
        [sys.executable, "-m", "fermatsieve.cli", "factor", "--n", "4000", "--json"],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        timeout=30,
    )
    assert (rc, out, err) == (fresh.returncode, fresh.stdout, fresh.stderr) == (0, out, "")
    assert json.loads(out)["results"]["verdict"] == "composite"


@pytest.mark.parametrize(
    "argv",
    [
        ("--n", "10000001"),  # N = 5 * 73 * 1095890630137, found by division first
        ("--n", "3001", "--prime-bound", str(arith.PRIME_BOUND_MAX)),  # no class per prime
        # a cofactor of two primes above N^(1/3): --all is one Lehman split
        ("--n", "10000000039", "--all"),
    ],
)
def test_factor_heuristic_filters_cost_what_the_sound_search_costs(argv):
    rc, out = _capped_factor(*argv, "--heuristic-filters", "--json")
    assert rc == 0
    assert json.loads(out)["results"]["verdict"] == "composite"


def test_factor_heuristic_filters_on_a_prime_is_no_verdict():
    # N = 4 * 1000012^2 + 1 is prime: nothing to drop, and still no verdict
    rc, out = _capped_factor("--n", "1000012", "--heuristic-filters")
    assert rc == 1
    assert "no factor found; heuristic filters were on, so this is not a primality verdict" in out


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


@pytest.fixture
def no_scan(monkeypatch):
    def scan(*args, **kwargs):
        raise AssertionError("a scan ran")

    monkeypatch.setattr(quadform, "sieve_enumerate", scan)
    monkeypatch.setattr(arith, "square_centers", scan)


def test_factor_divides_out_a_small_factor_without_the_scan(no_scan, capsys):
    # N = 400000080000005 = 5 * 73 * 1095890630137: the cofactor left by
    # 5 and 73 is a prime below 2^64, decided exactly
    rc, out, _ = run(capsys, "factor", "--n", "10000001", "--json")
    assert rc == 0
    results = json.loads(out)["results"]
    assert results["verdict"] == "composite"
    assert [(p["a"], p["b"]) for p in results["pairs"]] == [(365, 1095890630137)]


def test_factor_prime_below_2_64_without_the_scan(no_scan, capsys):
    rc, out, _ = run(capsys, "factor", "--n", "10000013")
    assert rc == 1
    assert out.endswith(
        "400001040000677 is prime (N < 2^64, where the seven-base strong probable prime "
        "test is exact)\n"
    )


def test_factor_prime_past_2_64_names_the_13_base_test(no_scan, capsys):
    # N = 4 * 2147483662^2 + 1 is the first prime N past 2^64, where the
    # 13 prime bases 2 to 41 decide it exactly, with no division
    rc, out, _ = run(capsys, "factor", "--n", "2147483662")
    assert rc == 1
    assert out.endswith(
        "18446744314227720977 is prime (N < psi_13 = 3317044064679887385961981, where the "
        "13-base (the prime bases 2 to 41) strong probable prime test is exact)\n"
    )


def test_factor_prime_past_the_exact_test_names_lehman(monkeypatch, no_scan, capsys):
    # with the exact test moved below N = 4 * 1000012^2 + 1, as for an N past
    # psi_13 (a real one costs minutes), the verdict is the division's and
    # the Lehman split's
    monkeypatch.setattr(arith, "PRIME_TEST_EXACT_BELOW", 1 << 40)
    rc, out, _ = run(capsys, "factor", "--n", "1000012")
    assert rc == 1
    assert out.endswith(
        "4000096000577 is prime (N >= psi_13, where the 13-base test is not exact: "
        "division up to N^(1/3) and Lehman's method found no factor)\n"
    )


@pytest.mark.parametrize(
    "argv, pairs",
    [
        (("--n", "10000000002"), []),  # a 69-bit prime N
        (("--n", "123456789012", "--all"), [(2917, 20900347964557399981)]),
        (("--n", "9999996"), [(2621545, 152581657)]),  # 5 * 524309 and 1181 * 129197
    ],
)
def test_factor_past_the_old_scan_is_fast(no_scan, capsys, argv, pairs):
    # the 65-bit cofactor of 123456789012 is decided by the 13-base test, and
    # 9999996's 129197 * 524309 split by Lehman's method: no scan of N runs
    start = time.perf_counter()
    rc, out, _ = run(capsys, "factor", *argv, "--json")
    assert time.perf_counter() - start < 1.0
    assert rc == (0 if pairs else 1)
    assert [(p["a"], p["b"]) for p in json.loads(out)["results"]["pairs"]] == pairs


def test_factor_hard_case_runs_no_scan(monkeypatch, no_scan, capsys):
    # N = 36312677 = 653 * 55609, both above N^(1/3): the Lehman split finds
    # them, and --prime-bound, even at its cap, builds no filter primes
    def no_filter_primes(*args):
        raise AssertionError("default_filter_primes called")

    monkeypatch.setattr(quadform, "default_filter_primes", no_filter_primes)
    start = time.perf_counter()
    bound = str(arith.PRIME_BOUND_MAX)
    rc, out, _ = run(capsys, "factor", "--n", "3013", "--prime-bound", bound, "--json")
    elapsed = time.perf_counter() - start
    assert rc == 0
    results = json.loads(out)["results"]
    assert [(p["a"], p["b"]) for p in results["pairs"]] == [(653, 55609)]
    assert elapsed < 1.0, f"took {elapsed:.2f} s"


@pytest.mark.parametrize(
    "argv",
    [
        ("factor", "--n", "4"),
        ("audit", "--range", "1:2", "--claims", "E4"),
    ],
)
@pytest.mark.parametrize("bound", [arith.PRIME_BOUND_MAX + 1, 10**12])
def test_prime_bound_above_cap_exits_2_before_sieving(monkeypatch, capsys, argv, bound):
    def no_sieve(limit):
        raise AssertionError(f"primes_up_to({limit}) called")

    monkeypatch.setattr(arith, "primes_up_to", no_sieve)
    rc, out, err = run(capsys, *argv, "--prime-bound", str(bound))
    assert rc == 2
    assert out == ""
    assert f"--prime-bound must be <= {arith.PRIME_BOUND_MAX}" in err


def test_prime_bound_at_cap_is_accepted(capsys):
    bound = str(arith.PRIME_BOUND_MAX)
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


@pytest.fixture
def no_sweep(monkeypatch):
    """Each residue sweep, the O(p) work of candidates --prime, raises."""

    def sweep(t, p):
        raise AssertionError(f"residue sweep mod {p} called")

    monkeypatch.setattr(quadform, "admissible_residues_parametric", sweep)
    monkeypatch.setattr(quadform, "admissible_residues_qr", sweep)


def test_candidates_prime_above_cap_exits_2_before_any_sweep(no_sweep, capsys):
    # 1048583 is a prime above 2^20; each residue sweep costs O(p)
    assert arith.is_prime(1048583) and 1048583 > arith.PRIME_BOUND_MAX
    rc, out, err = run(capsys, "candidates", "--n", "4", "--prime", "1048583")
    assert rc == 2
    assert out == ""
    assert f"--prime must be <= {arith.PRIME_BOUND_MAX}" in err


def test_candidates_prime_below_cap_reaches_the_sweep(no_sweep, capsys):
    # the control: the guarded sweeps are the ones the command runs
    with pytest.raises(AssertionError, match="residue sweep mod 7 called"):
        run(capsys, "candidates", "--n", "4", "--prime", "7")


def test_candidates_json(capsys):
    rc, out, _ = run(capsys, "candidates", "--n", "9", "--prime", "7", "--json")
    env = json.loads(out)
    results = env["results"]
    assert results["u_min"] == 2 and results["u_sup"] == "31/4"
    assert results["u_values"] == [2, 3, 4, 5, 6, 7]
    assert results["parametric"] == results["qr"] == [2, 4, 6]
    assert results["equal"] is True


@pytest.mark.parametrize("n", [9603838836, 9603838837])
def test_candidates_either_side_of_the_len_limit(capsys, n):
    # n = 9603838837 is the first whose u range holds more than sys.maxsize values
    rc, out, _ = run(capsys, "candidates", "--n", str(n))
    assert rc == 0
    assert out.endswith(" candidate(s)\n")


def test_candidates_counts_a_range_past_sys_maxsize(capsys):
    rc, out, _ = run(capsys, "candidates", "--n", "10000000000", "--json")
    assert rc == 0
    results = json.loads(out)["results"]
    assert results["count"] == 9999999997500000000
    assert results["u_sup"] == "99999999999999999999/10"
    assert results["u_values"] is None


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


def test_audit_judges_only_the_selected_fermat_claims(capsys, monkeypatch):
    # F1 to F5 index the pair by its lambda, and F1's square test is an
    # isqrt of F_n's size when the pair's own root fails; an L2-only audit
    # reaches neither
    def unselected(*args):
        raise AssertionError("an unselected claim was judged")

    monkeypatch.setattr(arith, "is_perfect_square", unselected)
    monkeypatch.setattr(fermat_numbers, "lambda_of_pair", unselected)
    rc, out, _ = run(capsys, "audit", "--range", "1:1", "--claims", "L2", "--fermat-indices", "5")
    assert rc == 0
    assert out == "L2: instances=1 violations=0\n"


def test_audit_f1_takes_the_exhibited_root(capsys, monkeypatch):
    # F_23 = 5 * 2^25 + 1 times a cofactor of 8M bits: the center of that
    # pair has the discriminant ((b - a) / 2)^2, so F1 needs no square test
    # of F_23's size (an isqrt of 16M bits: 87-99 s, 2-vCPU VM, Python 3.11)
    def no_square(x):
        raise AssertionError("F1 ran the square test on a true instance")

    monkeypatch.setattr(arith, "is_perfect_square", no_square)
    rc, out, _ = run(capsys, "audit", "--range", "1:1", "--claims", "F1", "--fermat-indices", "23")
    assert rc == 0
    assert out == "F1: instances=1 violations=0\n"


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
    assert len(lines) == 9  # header + 2 targets x 4 strategies
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


def test_bench_has_no_heuristic_strategy(capsys):
    # the heuristic skips prune no scan, so there is no scan of theirs to time
    rc, out, err = run(capsys, "bench", "--targets", "4", "--strategies", "QuadIntervalHeuristicFiltered")
    assert (rc, out) == (2, "")
    assert "strategies must come from: TrialDivision, PlainFermat, QuadInterval, QuadIntervalQRFiltered" in err


def test_bench_rejects_prime_target(capsys):
    rc, _, err = run(capsys, "bench", "--targets", "5")
    assert rc == 2
    assert "prime" in err


def test_bench_rejects_unknown_strategy(capsys):
    rc, _, err = run(capsys, "bench", "--targets", "4", "--strategies", "Nope")
    assert rc == 2


@pytest.mark.parametrize(
    "argv, says",
    [
        ("fermat --index -1 --mode lucas", "0 <= index <= 30"),
        ("fermat --index 31 --mode lucas", "0 <= index <= 30"),
        ("fermat --index 3 --mode lucas", "needs index >= 4"),
        ("fermat --index 4 --mode lambda", "needs index >= 5"),
        ("fermat --index 21 --mode lambda", "bounded to index <= 20"),
        ("candidates --n 0", "generator n must be >= 1"),
        ("candidates --n 4 --prime 9", "must be an odd prime"),
        ("candidates --n 4 --prime 1", "must be an odd prime"),
        ("candidates --n 4 --prime -7", "must be an odd prime"),
        ("candidates --n 4 --prime 5", "5 divides N = 65"),
        ("factor-generic --N 100", "N must be odd and >= 9"),
        ("bench --targets 4,5", "N=101 is prime"),
        ("bench --targets 4 --strategies Nope", "strategies must come from"),
        ("audit --range 1:2 --claims CE --fermat-indices 40", "0 <= index <= 30"),
        ("audit --range 1:2 --claims L2 --fermat-indices 40", "0 <= index <= 30"),
    ],
)
def test_library_refusals_exit_2_before_any_work(monkeypatch, capsys, argv, says):
    # each rule lives in the library function that takes the argument; the
    # command reports its ValueError before any search, sweep or timing
    from fermatsieve import audit, bench, fermat_numbers

    def work(*args, **kwargs):
        raise AssertionError("work began before the refusal")

    for module, name in [
        (arith, "square_centers"),  # the center scans of lambda_search and fermat_factor
        (arith, "mod_inv"),  # the sweep of admissible_residues_parametric
        (arith, "nonsquare_classes"),  # that of admissible_residues_qr
        (bench, "_measure"),
        (audit, "audit_claims"),
        (audit, "audit_fermat"),
    ]:
        monkeypatch.setattr(module, name, work)
    monkeypatch.setattr(fermat_numbers.FermatTarget, "value", property(work))
    rc, out, err = run(capsys, *argv.split())
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err
    assert says in err


def test_audit_exit_3_when_reverification_breaks(monkeypatch, capsys):
    # wiring check for the internal-inconsistency path: force the replay
    # to disagree with the recorded ledger
    from fermatsieve import audit

    monkeypatch.setattr(audit, "verify_violation", lambda claim, v: False)
    rc, _, err = run(capsys, "audit", "--range", "1:50", "--claims", "O3")
    assert rc == 3
    assert "re-verification" in err


@pytest.mark.skipif(
    not hasattr(sys, "set_int_max_str_digits"),
    reason="this Python has no limit on int-to-str conversion",
)
@pytest.mark.parametrize("json_flag", [(), ("--json",)])
def test_candidates_n_too_long_to_print_exits_2(capsys, json_flag):
    # N = 4n^2 + 1 has 4401 digits, past the 4300-digit int-to-str limit:
    # the ValueError of printing it is reported, not a traceback
    rc, out, err = run(capsys, "candidates", "--n", str(10**2200), *json_flag)
    assert (rc, out) == (2, "")
    assert err.startswith("error: ") and err.count("\n") == 1, err


def test_internal_arithmetic_error_exits_3(monkeypatch, capsys):
    # derive_u reports a pair off its progression as an ArithmeticError;
    # N = 325 is split by division, and each pair is validated by derive_u
    def broken(t, a, b):
        raise ArithmeticError(f"center of pair ({a}, {b}) is off the progression")

    monkeypatch.setattr(quadform, "derive_u", broken)
    rc, out, err = run(capsys, "factor", "--n", "9")
    assert (rc, out) == (3, "")
    assert err == "internal inconsistency: center of pair (13, 25) is off the progression\n"


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
