"""The command modules are lazy: `import fermatsieve.cli` puts each of them in
sys.modules, as the benchmark's loader expects, and a module's body runs
only when a command first reads one of its attributes.  Each case runs in a
fresh process, since this one has run every module."""

import json
import os
import runpy
import subprocess
import sys
from pathlib import Path

import pytest

import fermatsieve

#: The modules perfbench/loader.py reads from sys.modules right after
#: `import fermatsieve.cli`.
LOADER_MODULES = runpy.run_path(
    str(Path(__file__).resolve().parents[1] / "perfbench" / "loader.py")
)["MODULES"]

LAZY = ("audit", "bench", "fermat_generic", "fermat_numbers", "quadform")

# `type(m) is not types.ModuleType` tells an unrun lazy module without
# reading an attribute of it: vars(m) or m.__dict__ would run it
PROBE = """
import json, sys, types
import fermatsieve.cli as cli
from fermatsieve import audit
same = audit is cli.audit
if len(sys.argv) > 1:
    cli.main(sys.argv[1:])
modules = {n: sys.modules.get("fermatsieve." + n) for n in %r + %r}
print(json.dumps({
    "missing": sorted(n for n, m in modules.items() if m is None),
    "unrun": sorted(n for n, m in modules.items() if m and type(m) is not types.ModuleType),
    "same": same,
}))
"""


def fresh(code: str, *argv: str) -> str:
    """Stdout of `python -c code argv...` in a fresh process on this fermatsieve."""
    src = os.path.dirname(os.path.dirname(fermatsieve.__file__))
    path = os.pathsep.join(p for p in (src, os.environ.get("PYTHONPATH")) if p)
    return subprocess.run(
        [sys.executable, "-c", code, *argv],
        env={**os.environ, "PYTHONPATH": path},
        capture_output=True,
        text=True,
        check=True,
    ).stdout


@pytest.mark.parametrize(
    "argv, unrun",
    [
        ((), LAZY),
        (("factor", "--n", "4"), ("audit", "bench", "fermat_generic", "fermat_numbers")),
        (
            ("fermat", "--index", "5", "--mode", "lambda"),
            ("audit", "bench", "fermat_generic", "quadform"),
        ),
    ],
)
def test_a_command_runs_only_the_modules_it_uses(argv, unrun):
    out = fresh(PROBE % (tuple(LOADER_MODULES), LAZY), *argv)
    report = json.loads(out.splitlines()[-1])
    assert report == {"missing": [], "unrun": sorted(unrun), "same": True}


def test_first_attribute_read_runs_the_module():
    # the lazy module turns into a plain one in place: same object, same entry
    code = (
        "import sys, types; import fermatsieve.cli as cli; m = cli.audit; m.ClaimId; "
        "print(type(m) is types.ModuleType, sys.modules['fermatsieve.audit'] is m)"
    )
    assert fresh(code) == "True True\n"
