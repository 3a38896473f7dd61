"""The benchmark's span tracer must find every function it wraps.

bench/tracing.py wraps coincide's public functions by name; a rename or a
method moved to a base class would break the traced benchmark run. The
tracer module is loaded by path and only read, never installed.
"""

import importlib.util
from pathlib import Path

import coincide

TRACING = Path(__file__).resolve().parents[1] / "bench" / "tracing.py"


def _span_targets():
    spec = importlib.util.spec_from_file_location("bench_tracing", TRACING)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.SPAN_TARGETS


def test_every_span_target_resolves():
    targets = _span_targets()
    assert targets
    for module_name, attr, _ in targets:
        module = getattr(coincide, module_name)
        if "." in attr:
            cls_name, meth = attr.split(".")
            # install() replaces the method in the class's own __dict__.
            assert meth in vars(getattr(module, cls_name)), f"{module_name}.{attr}"
        else:
            assert callable(getattr(module, attr)), f"{module_name}.{attr}"


def test_the_evaluation_counter_finds_scalar_call():
    # The tracer counts psi/phi evaluations by replacing the __call__ in
    # ScalarFn's own __dict__; without it a traced run fails at install.
    assert 'ScalarFn.__dict__["__call__"]' in TRACING.read_text()
    assert "__call__" in vars(coincide.majorant.ScalarFn)
