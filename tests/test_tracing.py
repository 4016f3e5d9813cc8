"""Every name the benchmark tracer wraps must exist in semwave: a renamed or
deleted function would otherwise break traced benchmark runs."""

import importlib
import importlib.util
from pathlib import Path

import pytest

# perfbench/tracing.py imports only the standard library, so loading it by
# path runs none of the benchmark
_spec = importlib.util.spec_from_file_location(
    "perfbench_tracing", Path(__file__).resolve().parents[1] / "perfbench" / "tracing.py"
)
tracing = importlib.util.module_from_spec(_spec)
_spec.loader.exec_module(tracing)
TRACED_FUNCTIONS = {**tracing.FUNCTIONS, **tracing.BY_CALLER}


@pytest.mark.parametrize("name", sorted(TRACED_FUNCTIONS))
def test_traced_function_resolves(name):
    modname, attr = TRACED_FUNCTIONS[name]
    assert callable(getattr(importlib.import_module(modname), attr))


@pytest.mark.parametrize("name", sorted(tracing.METHODS))
def test_traced_method_resolves(name):
    modname, cls_name, attr = tracing.METHODS[name]
    assert callable(getattr(importlib.import_module(modname), cls_name).__dict__[attr])


def test_tracer_installs_and_restores():
    import semwave.assembly as assembly
    import semwave.cli  # noqa: F401  every module the tracer patches is loaded
    import semwave.projection  # noqa: F401

    original = assembly.neumann_load
    tracer = tracing.Tracer()
    try:
        tracer.install()
        assert assembly.neumann_load is not original
    finally:
        tracer.uninstall()
    assert assembly.neumann_load is original
