"""A map's value and Jacobian as ``((u, v), Mat2)``, for tests that do
matrix arithmetic on the Jacobian."""

from planarinv.linalg2 import Mat2


def value_and_jacobian(planar_map, p):
    """``planar_map.evaluate_with_jacobian(p)`` split into the value and a
    :class:`Mat2` of the four partials; a :class:`StandardMap` works too."""
    e = planar_map.evaluate_with_jacobian(p)
    return e[:2], Mat2(*e[2:])
