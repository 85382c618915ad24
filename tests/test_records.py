"""The library's plain classes and what importing it loads.

``ExprNode``, ``Mat2``, ``Region``, ``Leaf``, ``PlanarMap`` and
``StandardMap`` are hand-written classes: their constructors, ``repr``,
``==`` and hash are pinned here field by field.  A cold ``import
planarinv.cli`` must load no code generator (``dataclasses`` pulls in
``inspect``, ``ast``, ``dis`` and ``tokenize``).
"""

import math
import os
import pathlib
import subprocess
import sys

import pytest

from planarinv.expr import ExprNode, PlanarMap, parse
from planarinv.foliation import Leaf
from planarinv.involution import Region
from planarinv.linalg2 import MINUS_IDENTITY, Mat2
from planarinv.linearize import StandardMap

ROOT = pathlib.Path(__file__).resolve().parents[1]

_X = ExprNode("x")
_MAP = parse("(-x, -y)")
_MINUS = "Mat2(a11=-1.0, a12=0.0, a21=0.0, a22=-1.0)"
_REGION_ERRORS = [
    ((-math.inf, 1.0, 0.0, 1.0), "window bounds must be finite"),
    ((0.0, 1.0, 0.0, math.nan), "window bounds must be finite"),
    ((1.0, 1.0, 0.0, 1.0), "window bounds must satisfy x_min < x_max and y_min < y_max"),
    ((0.0, 1.0, 0.0, 1.0, 1), "grid_n must be at least 2"),
]

# per class: its field names, the required values and the defaults; the
# repr (None: equality and hash by identity); values that compare unequal;
# a field change that == and repr ignore; calls refused, with their error
_CASES = {
    "ExprNode": dict(
        cls=ExprNode, names=("kind", "children", "value", "exponent"), required=("x",),
        defaults=((), None, None), repr=None, unequal=("x",),
        refused=[(lambda: ExprNode("pow", (_X,), None, -1), ValueError,
                  "pow exponent must be a non-negative integer")]),
    "Mat2": dict(
        cls=Mat2, names=("a11", "a12", "a21", "a22"), required=(1.0, -0.0, 2.5, 4.0),
        defaults=(), repr="Mat2(a11=1.0, a12=-0.0, a21=2.5, a22=4.0)",
        unequal=(1.0, -0.0, 2.5, 4.5),
        refused=[(lambda: Mat2(1.0, 0.0, 0.0, 1.0) * 2, TypeError, "unsupported operand")]),
    "Region": dict(
        cls=Region, names=("x_min", "x_max", "y_min", "y_max", "grid_n"),
        required=(-1.0, 1.0, -2.0, 2.0), defaults=(41,),
        repr="Region(x_min=-1.0, x_max=1.0, y_min=-2.0, y_max=2.0, grid_n=41)",
        unequal=(-1.0, 1.0, -2.0, 2.0, 5),
        refused=[(lambda args=args: Region(*args), ValueError, message)
                 for args, message in _REGION_ERRORS]),
    "Leaf": dict(
        cls=Leaf, names=("parameter", "points", "point_residuals", "truncated", "invariance"),
        required=(0.5, [(0.0, 1.0)], [1e-12]), defaults=(False, 0.0),
        repr="Leaf(parameter=0.5, points=[(0.0, 1.0)], point_residuals=[1e-12], truncated=False)",
        unequal=(0.5, [(0.0, 1.0)], [1e-12], True), ignored=("invariance", 2.0),
        unhashable=True),
    "PlanarMap": dict(
        cls=PlanarMap, names=("source", "asts"), required=("(-x, -y)", _MAP.asts),
        defaults=(), repr="PlanarMap(source='(-x, -y)')",
        unequal=("(-x, -y)", parse("(-x, -y)").asts)),  # the same trees, other nodes
    "StandardMap": dict(
        cls=StandardMap, names=("base", "linear_part"), required=(_MAP, MINUS_IDENTITY),
        defaults=(), repr=f"StandardMap(base=PlanarMap(source='(-x, -y)'), linear_part={_MINUS})",
        unequal=(_MAP, Mat2(1.0, 0.0, 0.0, -1.0))),
}


@pytest.mark.parametrize("name", list(_CASES))
def test_plain_classes_construct_compare_hash_and_print_as_their_dataclasses_did(name):
    case = _CASES[name]
    cls, names = case["cls"], case["names"]
    values = case["required"] + case["defaults"]
    made = cls(*case["required"])
    assert tuple(getattr(made, field) for field in names) == values
    twins = [made, cls(*values), cls(**dict(zip(names, values)))]
    if case["repr"] is None:  # each node equals itself alone
        assert repr(made).startswith(f"<planarinv.expr.{name} object at ")
        assert made == made and made != twins[1] and made != cls(*case["unequal"])
    else:
        assert [repr(twin) for twin in twins] == [case["repr"]] * 3
        assert twins[0] == twins[1] == twins[2] and not twins[0] != twins[2]
        assert made != cls(*case["unequal"])
        assert made != values and made != list(values)  # no tuple semantics
    if "ignored" in case:
        field, value = case["ignored"]
        other = cls(**dict(zip(names, values), **{field: value}))
        assert getattr(other, field) == value
        assert other == made and repr(other) == repr(made)
    if case.get("unhashable"):
        with pytest.raises(TypeError, match="unhashable"):
            hash(made)
    else:
        assert {twin: name for twin in twins}[made] == name
        assert len({hash(twin) for twin in twins}) == (3 if case["repr"] is None else 1)
    for call, error, message in case.get("refused", []):
        with pytest.raises(error, match=message):
            call()


def test_a_cold_import_of_the_cli_loads_no_code_generator():
    generators = {"dataclasses", "inspect"}
    probe = "import sys; {}print(sorted({!r} & set(sys.modules)))"
    env = dict(os.environ, PYTHONPATH=str(ROOT / "src"))

    def loaded(statement: str) -> str:
        proc = subprocess.run([sys.executable, "-c", probe.format(statement, generators)],
                              env=env, capture_output=True, text=True, timeout=60)
        assert proc.returncode == 0, proc.stderr
        return proc.stdout.strip()

    bare = loaded("")
    if bare != "[]":
        pytest.skip(f"a bare interpreter here already loads {bare}")
    assert loaded("import planarinv.cli; ") == "[]"
