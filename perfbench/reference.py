"""A fixed pure-Python reference kernel that measures how fast the host runs.

On a shared host the speed of a core drifts by 10-30% over seconds to
minutes, because other tenants load the same cores and caches.  That
drift moves every timing alike.  The benchmark runs this kernel between
every two calls of the program and scales each call's wall time by
``NOMINAL_MS`` over the kernel's time around it, which gives the call's
time on a host that runs the kernel in exactly ``NOMINAL_MS``.

The kernel does the kind of work planarinv does: it walks a small
expression tree of tuples, does forward-mode dual-number arithmetic on
slotted objects, looks names up in dicts and calls ``math``.  It imports
nothing from planarinv, so a change to the program cannot change it.
Automatic garbage collection is off while it runs, so the size of the
program's heap does not show in its time.
"""

from __future__ import annotations

import gc
import math
import time

NOMINAL_MS = 10.0  # kernel time on the reference host, by definition
ITERATIONS = 2000  # about 10 ms on an idle 2-vCPU Xeon virtual machine


class _Dual:
    __slots__ = ("v", "a", "b")

    def __init__(self, v, a, b):
        self.v = v
        self.a = a
        self.b = b

    def __add__(self, o):
        return _Dual(self.v + o.v, self.a + o.a, self.b + o.b)

    def __mul__(self, o):
        return _Dual(self.v * o.v, self.a * o.v + self.v * o.a, self.b * o.v + self.v * o.b)


_TREE = ("+", ("*", "x", "y"), ("+", ("*", "x", ("*", "x", "c")), ("sin", "y")))


def _walk(node, env):
    if isinstance(node, str):
        return env[node]
    if node[0] == "sin":
        u = _walk(node[1], env)
        c = math.cos(u.v)
        return _Dual(math.sin(u.v), c * u.a, c * u.b)
    left = _walk(node[1], env)
    right = _walk(node[2], env)
    return left + right if node[0] == "+" else left * right


def _kernel(n: int) -> float:
    acc = 0.0
    seen = {}
    for i in range(n):
        t = (i % 97) / 97.0
        env = {"x": _Dual(t, 1.0, 0.0), "y": _Dual(1.0 - t, 0.0, 1.0),
               "c": _Dual(0.5, 0.0, 0.0)}
        out = _walk(_TREE, env)
        acc += out.v + out.a - out.b
        seen[i % 211] = round(out.v, 6)
    return acc + len(seen)


_EXPECTED = _kernel(ITERATIONS)


def reference_ms(clock=time.perf_counter) -> float:
    """Wall time of one run of the kernel, in ms."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        t0 = clock()
        result = _kernel(ITERATIONS)
        elapsed = clock() - t0
    finally:
        if enabled:
            gc.enable()
    if result != _EXPECTED:
        raise RuntimeError("reference kernel gave a different result")
    return elapsed * 1e3
