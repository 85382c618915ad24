"""Every function and method that ``perfbench/tracer.py`` wraps still exists.

``Tracer.install`` raises on a missing target, so without this check a
deleted or renamed name would only surface when the benchmark runs traced.
A function is looked up with ``getattr`` on its module, and a method in its
class's own ``__dict__``, as ``install`` does.
"""

import importlib
import importlib.util
import pathlib

import pytest

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _targets():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module.TARGETS


TARGETS = _targets()


@pytest.mark.parametrize("module_name, attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_tracer_target_resolves(module_name, attr):
    module = importlib.import_module(f"planarinv.{module_name}")
    if "." in attr:
        cls_name, method = attr.split(".")
        assert method in getattr(module, cls_name).__dict__
    else:
        assert callable(getattr(module, attr))
