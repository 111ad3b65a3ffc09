"""The benchmark tracer wraps meandim functions by name; a rename in the
package must fail here, not only in a traced benchmark run."""

import importlib
import importlib.util
from pathlib import Path

import pytest

TRACER = Path(__file__).resolve().parent.parent / "perfbench" / "tracer.py"


def load_tracer():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    mod = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(mod)
    return mod


tracer = load_tracer()


@pytest.mark.parametrize("name", sorted(tracer.FUNCTIONS))
def test_traced_function_resolves(name):
    home, attr = tracer.FUNCTIONS[name]
    assert callable(getattr(importlib.import_module(home), attr))


@pytest.mark.parametrize("name", sorted(tracer.METHODS))
def test_traced_method_resolves(name):
    home, cls_name, attr = tracer.METHODS[name]
    # the tracer patches the attribute on the class that defines it
    raw = getattr(importlib.import_module(home), cls_name).__dict__[attr]
    assert callable(getattr(raw, "__func__", raw))
