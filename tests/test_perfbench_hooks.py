"""perfbench/tracing.py wraps package functions by name from outside: each
of its work-count hooks must still find its function in the namespace the
tracer patches, or that per-layer count reads 0 without an error."""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

from gaussprep import cli, harness

_PATH = Path(__file__).resolve().parent.parent / "perfbench" / "tracing.py"
_spec = importlib.util.spec_from_file_location("perfbench_tracing", _PATH)
tracing = importlib.util.module_from_spec(_spec)
sys.modules[_spec.name] = tracing  # dataclasses look their module up by name
_spec.loader.exec_module(tracing)


def _wrapped_names() -> set[str]:
    return {f"{obj.__wrapped__.__module__.rsplit('.', 1)[-1]}.{obj.__wrapped__.__name__}"
            for module in (cli, harness) for obj in vars(module).values()
            if callable(obj) and hasattr(obj, "__wrapped__")}


def test_every_hook_is_wrapped_and_unwrapped():
    originals = {module: dict(vars(module)) for module in (cli, harness)}
    tracer = tracing.Tracer()
    tracer.install()
    try:
        wrapped = _wrapped_names()
    finally:
        tracer.uninstall()
    assert set(tracing._HOOKS) <= wrapped, sorted(set(tracing._HOOKS) - wrapped)
    assert "cli.main" in wrapped
    assert _wrapped_names() == set()
    for module, names in originals.items():
        assert all(vars(module)[name] is obj for name, obj in names.items())


def test_peak_multiples_finds_its_functions():
    peaks = tracing.peak_multiples(lambda: None)
    assert peaks == {"statevector.peak_state_multiple": 0.0,
                     "harness.prepare_peak_multiple": 0.0}
    assert not hasattr(harness.apply_circuit, "__wrapped__")
    assert not hasattr(cli.run_prepare, "__wrapped__")
