"""A map's value and Jacobian as ``((u, v), Mat2)``, for tests that do
matrix arithmetic on the Jacobian."""

from planarinv.linalg2 import Mat2
from planarinv.linearize import StandardMap


def value_and_jacobian(planar_map, p):
    """``planar_map.evaluate_with_jacobian(p)`` split into the value and a
    :class:`Mat2` of the four partials; a :class:`StandardMap` works too,
    and its two last entries must be ``planar_map.base.evaluate(p)``, bit
    for bit."""
    e = planar_map.evaluate_with_jacobian(p)
    if isinstance(planar_map, StandardMap):
        assert repr(e[6:]) == repr(planar_map.base.evaluate(p))
    return e[:2], Mat2(*e[2:6])
