"""The trajectory script's layer section calls dho functions by name.

scripts/bench_trajectory.py runs LAYER_CODE in a child process and records
only an error string when it fails, so a refactor that renames one of those
functions or changes a kernel's signature would show only when the benchmark
runs.  Each name and each call is checked here.
"""

import ast
import importlib
import importlib.util
import inspect
import re
import sys
from pathlib import Path

import pytest

SCRIPT = Path(__file__).resolve().parent.parent / "scripts" / "bench_trajectory.py"
MODULES = ("asymptotics", "moments", "oracle", "specfun", "states")


def _layer_code() -> str:
    spec = importlib.util.spec_from_file_location("bench_trajectory", SCRIPT)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no __pycache__ under scripts/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module.LAYER_CODE


def _names():
    pattern = rf"\b({'|'.join(MODULES)})\.([A-Za-z_]\w*)"
    return sorted(set(re.findall(pattern, _layer_code())))


@pytest.mark.parametrize("layer, name", _names())
def test_every_layer_name_exists(layer, name):
    assert hasattr(importlib.import_module(f"dho.{layer}"), name)


def test_every_layer_call_binds_to_its_signature():
    calls = [node for node in ast.walk(ast.parse(_layer_code()))
             if isinstance(node, ast.Call) and isinstance(node.func, ast.Attribute)
             and isinstance(node.func.value, ast.Name) and node.func.value.id in MODULES]
    assert "_recurrence" in {call.func.attr for call in calls}
    for call in calls:
        if any(isinstance(arg, ast.Starred) for arg in call.args):
            continue  # f(*args): its arguments are known only when it runs
        func = getattr(importlib.import_module(f"dho.{call.func.value.id}"), call.func.attr)
        # raises TypeError where the call no longer fits
        inspect.signature(func).bind(*call.args, **{kw.arg: kw.value for kw in call.keywords})
