"""Every function and method that ``perfbench/tracer.py`` wraps still exists,
and the hot paths run through them.

``Tracer.install`` raises on a missing target, so without this check a
deleted or renamed name would only surface when the benchmark runs traced.
A function is looked up with ``getattr`` on its module, and a method in its
class's own ``__dict__``, as ``install`` does.  A target that exists but
that the library does not call reads 0 in the traced metrics, so one small
``analyze`` and one small ``foliate`` call are traced as well.
"""

import contextlib
import importlib
import importlib.util
import io
import pathlib
import time

import pytest

from planarinv import cli

TRACER = pathlib.Path(__file__).resolve().parents[1] / "perfbench" / "tracer.py"


def _tracer_module():
    spec = importlib.util.spec_from_file_location("perfbench_tracer", TRACER)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACER_MODULE = _tracer_module()
TARGETS = TRACER_MODULE.TARGETS


@pytest.mark.parametrize("module_name, attr", TARGETS, ids=[f"{m}.{a}" for m, a in TARGETS])
def test_tracer_target_resolves(module_name, attr):
    module = importlib.import_module(f"planarinv.{module_name}")
    if "." in attr:
        cls_name, method = attr.split(".")
        assert method in getattr(module, cls_name).__dict__
    else:
        assert callable(getattr(module, attr))


def test_tracer_sees_the_hot_paths(tmp_path):
    # (-x + 2, -y) fixes (1, 0): recentering it takes a Newton step
    spec, grid = "(-x + 2, -y)", 9
    tracer = TRACER_MODULE.Tracer(time.perf_counter)
    tracer.install()
    try:
        with contextlib.redirect_stdout(io.StringIO()):
            assert cli.main(["analyze", spec, "--grid", str(grid), "--scan", "21",
                             "--out", str(tmp_path / "report.json")]) == 0
            assert cli.main(["foliate", spec, "--grid", str(grid), "--leaves", "4",
                             "--csv", str(tmp_path / "leaves.csv")]) == 0
    finally:
        tracer.remove()
    metrics = tracer.layer_metrics()
    # each command takes one Jacobian per window node for its grid sample
    assert metrics["expr.jac_calls"] >= 2 * grid * grid
    assert metrics["linalg2.solve_calls"] > 0
    assert metrics["linearize.h_jac_calls"] > 0
    assert metrics["foliation.newton_iters_per_invert"] > 0
