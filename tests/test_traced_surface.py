"""The program surface that perfbench/tracing.py wraps and reads still exists.

The benchmark's tracer replaces the functions named in its WRAPPED table
and binds each hooked call's arguments by name, so a renamed function or
parameter breaks only a traced benchmark run.  The names are read from
tracing.py's syntax tree; no perfbench module is imported."""

import ast
import importlib
import inspect
from pathlib import Path

import pytest

TRACING = ast.parse(
    (Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py").read_text(encoding="utf-8")
)


def _module_value(name: str):
    """The literal value of the module-level assignment to name."""
    for node in TRACING.body:
        if isinstance(node, ast.Assign) and [t.id for t in node.targets] == [name]:
            return ast.literal_eval(node.value)
    raise AssertionError(f"tracing.py assigns no {name}")


def _tracer_methods() -> dict:
    (tracer,) = [n for n in TRACING.body if isinstance(n, ast.ClassDef) and n.name == "Tracer"]
    return {n.name: n for n in tracer.body if isinstance(n, ast.FunctionDef)}


def _hooks() -> dict:
    """{"module.function": hook method name} from Tracer.__init__'s self._hooks."""
    for node in ast.walk(_tracer_methods()["__init__"]):
        if (
            isinstance(node, ast.Assign)
            and isinstance(node.targets[0], ast.Attribute)
            and node.targets[0].attr == "_hooks"
        ):
            return {k.value: v.attr for k, v in zip(node.value.keys, node.value.values)}
    raise AssertionError("Tracer.__init__ sets no self._hooks")


def _argument_keys(method: ast.FunctionDef) -> set:
    """The keys k of every a["k"] the hook reads, a being its arguments dict."""
    arguments = method.args.args[1].arg  # after self
    return {
        node.slice.value
        for node in ast.walk(method)
        if isinstance(node, ast.Subscript)
        and isinstance(node.value, ast.Name)
        and node.value.id == arguments
        and isinstance(node.slice, ast.Constant)
    }


def _function(dotted: str):
    module, name = dotted.split(".")
    return getattr(importlib.import_module(f"fermatsieve.{module}"), name)


WRAPPED = [f"{module}.{name}" for module, names in _module_value("WRAPPED").items() for name in names]
HOOKS = _hooks()


@pytest.mark.parametrize("dotted", WRAPPED)
def test_every_wrapped_name_is_a_function_of_the_program(dotted):
    assert callable(_function(dotted))


def test_every_hook_is_on_a_wrapped_function():
    assert HOOKS and set(HOOKS) <= set(WRAPPED)


@pytest.mark.parametrize("dotted", sorted(HOOKS))
def test_each_hooked_signature_binds_the_arguments_its_hook_reads(dotted):
    keys = _argument_keys(_tracer_methods()[HOOKS[dotted]])
    assert keys <= set(inspect.signature(_function(dotted)).parameters), keys
