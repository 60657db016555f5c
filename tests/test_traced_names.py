"""The benchmark's traced run wraps functions of the program by name
(perfbench/child.py's TRACED); each of those names must still resolve."""

import importlib
import importlib.util
from pathlib import Path

import pytest

CHILD = Path(__file__).resolve().parent.parent / "perfbench" / "child.py"


def traced_names():
    spec = importlib.util.spec_from_file_location("perfbench_child", CHILD)
    child = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(child)
    return [(module, function) for module, function, _ in child.TRACED]


@pytest.mark.parametrize("module, function", traced_names())
def test_traced_function_resolves(module, function):
    assert callable(getattr(importlib.import_module(f"stayup.{module}"), function))
