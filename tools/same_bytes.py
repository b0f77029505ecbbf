"""Print one sha256 per command of a fixed argv corpus, run in-process.

    python3 tools/same_bytes.py

Each command of CORPUS runs through fermatsieve.cli.main from this
checkout's src/.  Its digest covers the exit code, stdout, stderr and the
file the command writes (an audit ledger or a bench CSV), with every
bench timing (elapsed_ns) taken out.  Two checkouts that print the same
lines give the same bytes on the whole corpus; tests/test_same_bytes.py
pins the digests.
"""

import contextlib
import hashlib
import io
import json
import re
import sys
import tempfile
from pathlib import Path

sys.path.insert(0, str(Path(__file__).resolve().parent.parent / "src"))

from fermatsieve import cli  # noqa: E402

#: The commands, one argv string each; {out} is the path of the file the
#: command may write, in a fresh temporary directory.
CORPUS = (
    "audit --range 1:400 --claims all --prime-bound 97 --json {out}",
    "audit --range 1:40 --claims all --prime-bound 2000 --json {out}",
    "audit --range 1500:1503 --claims all --prime-bound 8000 --json {out}",
    "audit --range 1:40 --claims all --fermat-indices 3,4,5,6,7,9 --json {out}",
    "audit --range 1:2 --claims E4 --prime-bound 1048577",
    "factor --n 4",
    "factor --n 4 --json",
    "factor --n 5",
    "factor --n 5 --json",
    "factor --n 3001 --all",
    "factor --n 3001 --all --json",
    "factor --n 1500 --heuristic-filters --prime-bound 500 --all --json",
    "factor --N 4000001 --all",
    "factor --n 10000000002 --json",
    "factor --n 123456789012 --all",
    "factor --N 100",
    "factor-generic --N 16000105000171",
    "factor-generic --N 16000105000171 --json",
    "factor-generic --N 10403 --budget 0 --json",
    "factor-generic --N 101",
    "factor-generic --N 8",
    "fermat --index 5 --mode lucas",
    "fermat --index 12 --mode lucas --budget 1588 --json",
    "fermat --index 5 --mode lambda --filters on",
    "fermat --index 6 --mode lambda --json",
    "fermat --index 7 --mode lambda --budget 3000 --filters on --json",
    "fermat --index 31 --mode lucas",
    "candidates --n 4",
    "candidates --n 1500 --prime 97",
    "candidates --n 1501 --prime 1009 --json",
    "candidates --n 10000000000 --json",
    "candidates --n 4 --prime 9",
    "bench --targets 4,9,16,30,56 --strategies all --repetitions 1 --csv {out}",
    "bench --targets 1500 --strategies QuadInterval,QuadIntervalQRFiltered --repetitions 1",
    "bench --targets 4,5 --repetitions 1",
)

_ELAPSED_TEXT = re.compile(r"elapsed_ns=\d+")
_ELAPSED_CSV = re.compile(r",\d+$", re.MULTILINE)  # the last column of a CSV row


def digest(command: str) -> str:
    """The sha256 of what command prints and writes, bench timings out."""
    with tempfile.TemporaryDirectory() as tmp:
        path = Path(tmp, "out")
        argv = [arg.format(out=path) for arg in command.split()]
        out, err = io.StringIO(), io.StringIO()
        with contextlib.redirect_stdout(out), contextlib.redirect_stderr(err):
            code = cli.main(argv)
        written = path.read_text(encoding="utf-8") if path.exists() else None
    stdout = out.getvalue()
    if argv[0] == "bench":
        stdout = _ELAPSED_TEXT.sub("elapsed_ns", stdout)
        written = written and _ELAPSED_CSV.sub("", written)
    record = json.dumps([code, stdout, err.getvalue(), written])
    return hashlib.sha256(record.encode()).hexdigest()


def main() -> int:
    for command in CORPUS:
        print(f"{digest(command)}  {command}")
    return 0


if __name__ == "__main__":
    sys.exit(main())
