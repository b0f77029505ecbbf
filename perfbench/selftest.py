"""Self-test of the benchmark: a short seeded run of every workload.

    python3 perfbench/selftest.py

For each workload it checks that a one-second run and a traced run exit 0,
print exactly the metrics BENCHMARK.json names, with its units, and fail
no op, and that two traced runs with the same seed give identical counts.
It also checks that the benchmark exits non-zero without a result where
the fermatsieve sources are missing.  Exits 1 on the first failure.
"""

import json
import shutil
import subprocess
import sys
import tempfile
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
DETERMINISTIC_UNITS = {"count", "bits", "bytes"}


def bench(workload: str, trace: int, cwd: Path = ROOT) -> subprocess.CompletedProcess:
    command = [sys.executable, "perfbench/run.py", "--workload", workload,
               "--seed", "7", "--seconds", "1", "--trace", str(trace)]
    return subprocess.run(command, cwd=cwd, capture_output=True, text=True, timeout=180)


def result(proc: subprocess.CompletedProcess, declared: dict) -> dict:
    if proc.returncode != 0:
        raise AssertionError(f"exit {proc.returncode}: {proc.stderr[-2000:]}")
    lines = proc.stdout.splitlines()
    res = json.loads(lines[-1])
    if set(res) != {"correct", "attempted", "failed", "metrics"}:
        raise AssertionError(f"result keys {sorted(res)}")
    if not res["correct"] or res["failed"] or res["attempted"] < 1:
        raise AssertionError(f"ops failed: {json.loads(lines[-2])['failures']}")
    got = {name: m["unit"] for name, m in res["metrics"].items()}
    if got != declared:
        raise AssertionError(f"metrics differ from BENCHMARK.json: {sorted(set(got) ^ set(declared))}")
    return res


def main() -> int:
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    end_to_end = {m["name"]: m["unit"] for m in spec["end_to_end"]}
    per_layer = {m["name"]: m["unit"] for m in spec["per_layer"]}
    try:
        for w in (w["name"] for w in spec["workloads"]):
            e2e = result(bench(w, 0), end_to_end)
            first, second = (result(bench(w, 1), per_layer) for _ in range(2))
            counts = {k for k, unit in per_layer.items() if unit in DETERMINISTIC_UNITS}
            moved = [k for k in counts if first["metrics"][k] != second["metrics"][k]]
            if moved:
                raise AssertionError(f"{w}: traced counts differ between runs: {moved}")
            print(f"ok {w}: {e2e['attempted']} ops, error_rate 0, "
                  f"{len(per_layer)} layer metrics with repeatable counts")

        (HERE / "out").mkdir(exist_ok=True)
        with tempfile.TemporaryDirectory(dir=HERE / "out") as bare:
            shutil.copy(ROOT / "BENCHMARK.json", bare)
            shutil.copytree(HERE, Path(bare) / "perfbench",
                            ignore=shutil.ignore_patterns("out", "__pycache__"))
            proc = bench("audit", 0, cwd=Path(bare))
            if proc.returncode == 0 or '"correct"' in proc.stdout:
                raise AssertionError("ran without the fermatsieve sources")
        print("ok: refuses to run without the fermatsieve sources")
    except AssertionError as exc:
        print(f"FAIL {exc}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
