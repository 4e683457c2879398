"""The benchmark's tracer wraps dho functions it looks up by name.

A refactor that deletes or renames one of them would only show when
`perfbench/run.py --trace 1` runs, so each name is checked here.
"""

import importlib
import importlib.util
import sys
from pathlib import Path

import pytest

from dho import validation

TRACING = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"


def _tracing():
    spec = importlib.util.spec_from_file_location("perfbench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    dont_write = sys.dont_write_bytecode
    sys.dont_write_bytecode = True  # leave no __pycache__ under perfbench/
    try:
        spec.loader.exec_module(module)
    finally:
        sys.dont_write_bytecode = dont_write
    return module


@pytest.mark.parametrize("layer, name", [(layer, name)
                                         for layer, names in _tracing().TARGETS.items()
                                         for name in names])
def test_every_traced_name_is_a_callable_of_its_layer(layer, name):
    assert callable(getattr(importlib.import_module(f"dho.{layer}"), name, None))


def test_every_validate_check_has_its_per_layer_metric():
    # the tracer reports validation.check.<id>.s for exactly these names
    reports = ["discrepancy_reports", "shannon_scaling_report"]
    assert list(_tracing().VALIDATION_CHECKS) == [*validation.CHECKS, *validation.SLOW_CHECKS,
                                                  *reports]
    assert all(callable(getattr(validation, name, None)) for name in reports)
