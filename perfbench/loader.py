"""Load the program under test from the repository's src/.

This module imports nothing beyond what the interpreter has loaded at
start, so a part that imports the program through it first pays the
program's whole import cost, the standard modules it needs included.
"""

import importlib
import os
import sys

SRC = os.path.join(os.path.dirname(os.path.dirname(os.path.abspath(__file__))), "src")
MODULES = ("arith", "quadform", "audit", "fermat_numbers", "fermat_generic", "cli")


def use_sources() -> bool:
    """Put the repository's src/ first on sys.path; False when it has no fermatsieve."""
    if not os.path.isfile(os.path.join(SRC, "fermatsieve", "cli.py")):
        return False
    sys.path.insert(0, SRC)
    return True


def load_program() -> dict:
    """Import fermatsieve and return its modules by short name."""
    importlib.import_module("fermatsieve.cli")
    return {name: sys.modules[f"fermatsieve.{name}"] for name in MODULES}
