"""Spans around planarinv's public functions, patched in from outside.

The program carries no tracing of its own, so :class:`Tracer` replaces each
traced function with a wrapper in every ``planarinv`` namespace that holds
it.  That matters because ``cli``, ``spectral``, ``linearize`` and
``gallery`` bind names with ``from ... import``: patching only the defining
module would record nothing for their calls.  Methods are patched on their
class.  Spans (name, start, end, parent, failed) are kept in flat arrays
while a round runs and reduced to per-layer metrics after it.
"""

from __future__ import annotations

import array
import gzip
import os
import sys

# These call no other target, so they get the cheaper leaf wrapper.
LEAVES = frozenset((
    "expr.PlanarMap.evaluate",
    "expr.PlanarMap.evaluate_with_jacobian",
    "linalg2.eigenvalues",
    "linalg2.solve_min_norm",
))
# module, attribute (Class.method for methods); the span name is
# "<module>.<attribute>".  dual is measured through expr.
TARGETS = (
    ("expr", "parse"),
    ("expr", "PlanarMap.evaluate"),
    ("expr", "PlanarMap.evaluate_with_jacobian"),
    ("linalg2", "eigenvalues"),
    ("linalg2", "solve_min_norm"),
    ("involution", "verify_involution"),
    ("involution", "orientation"),
    ("involution", "find_fixed_points"),
    ("involution", "polish_fixed_point"),
    ("spectral", "theorem_verdict"),
    ("spectral", "sample_spectrum"),
    ("linearize", "standard_map"),
    ("linearize", "injectivity_scan"),
    ("linearize", "spectrum_shift_check"),
    ("linearize", "StandardMap.evaluate"),
    ("linearize", "StandardMap.evaluate_with_jacobian"),
    ("foliation", "default_leaf_parameters"),
    ("foliation", "trace_leaf"),
    ("foliation", "invert_standard_map"),
    ("foliation", "leaf_invariance_check"),
    ("gallery", "get"),
    ("svgplot", "write_portrait"),
    ("cli", "main"),
)
SPAN_NAMES = tuple(f"{mod}.{attr}" for mod, attr in TARGETS)
_ID = {name: i for i, name in enumerate(SPAN_NAMES)}


def _count_fixed_points(counts, result, args):
    counts["converged"] += result.seeds_converged
    counts["seeds"] += result.seeds_converged + result.seeds_skipped
    counts["roots"] += len(result.points)


def _count_samples(counts, result, args):
    counts["samples"] += len(result)


def _count_cells(counts, result, args):
    counts["scan_cells"] += result.cells_checked


def _count_leaf(counts, result, args):
    counts["leaf_points"] += len(result.points)
    counts["truncated_leaves"] += int(result.truncated)


def _count_svg(counts, result, args):
    counts["svg_bytes"] += os.path.getsize(args[0])


# span name -> reads work counts off a successful call's result
_HOOKS = {
    "involution.find_fixed_points": _count_fixed_points,
    "spectral.sample_spectrum": _count_samples,
    "linearize.injectivity_scan": _count_cells,
    "foliation.trace_leaf": _count_leaf,
    "svgplot.write_portrait": _count_svg,
}
_COUNT_KEYS = ("converged", "seeds", "roots", "samples", "scan_cells",
               "leaf_points", "truncated_leaves", "svg_bytes")


class Tracer:
    """Records one span per call of every function in :data:`TARGETS`.

    ``install`` patches the wrappers in, ``remove`` restores the originals;
    use one tracer per traced round.
    """

    def __init__(self, clock):
        self.clock = clock
        self.names = array.array("B")
        self.parents = array.array("l")
        self.starts = array.array("d")
        self.ends = array.array("d")
        self.failed: list[int] = []
        self.counts = dict.fromkeys(_COUNT_KEYS, 0)
        self._stack = [-1]
        self._undo: list[tuple[object, str, object]] = []

    def _wrap(self, fn, name_id: int, hook):
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        failed, stack, clock, counts = self.failed, self._stack, self.clock, self.counts

        def traced(*args, **kwargs):
            idx = len(names)
            names.append(name_id)
            parents.append(stack[-1])
            stack.append(idx)
            ends.append(0.0)
            starts.append(clock())
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                ends[idx] = clock()
                stack.pop()
                failed.append(idx)
                raise
            ends[idx] = clock()
            stack.pop()
            if hook is not None:
                hook(counts, result, args)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrap_leaf(self, fn, name_id: int):
        """Span for a function that calls no other target: it has no
        children, so it is recorded once it returns and skips the stack."""
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        failed, stack, clock = self.failed, self._stack, self.clock

        def traced(*args, **kwargs):
            t0 = clock()
            try:
                result = fn(*args, **kwargs)
            except BaseException:
                failed.append(len(names))
                raise
            finally:
                t1 = clock()
                names.append(name_id)
                parents.append(stack[-1])
                starts.append(t0)
                ends.append(t1)
            return result

        traced.__wrapped__ = fn
        return traced

    def _wrapper(self, fn, span: str):
        if span in LEAVES:
            return self._wrap_leaf(fn, _ID[span])
        return self._wrap(fn, _ID[span], _HOOKS.get(span))

    def install(self) -> None:
        modules = [m for name, m in list(sys.modules.items())
                   if m is not None and (name == "planarinv" or name.startswith("planarinv."))]
        for (mod_name, attr), span in zip(TARGETS, SPAN_NAMES):
            module = sys.modules[f"planarinv.{mod_name}"]
            if "." in attr:
                cls_name, meth = attr.split(".")
                cls = getattr(module, cls_name)
                original = cls.__dict__[meth]
                self._undo.append((cls, meth, original))
                setattr(cls, meth, self._wrapper(original, span))
                continue
            original = getattr(module, attr)
            wrapper = self._wrapper(original, span)
            for mod in modules:
                for key, value in list(vars(mod).items()):
                    if value is original:
                        self._undo.append((mod, key, original))
                        setattr(mod, key, wrapper)

    def remove(self) -> None:
        for owner, key, original in reversed(self._undo):
            setattr(owner, key, original)
        self._undo.clear()

    def layer_metrics(self) -> dict[str, float]:
        """Per-layer metrics of the spans recorded so far (times in ms)."""
        names, parents, starts, ends = self.names, self.parents, self.starts, self.ends
        n_names = len(SPAN_NAMES)
        calls = [0] * n_names
        total = [0.0] * n_names
        child = [0.0] * len(names)
        # time of the children with a given name, summed per parent name
        child_by = {}
        for i, (name, parent) in enumerate(zip(names, parents)):
            d = ends[i] - starts[i]
            calls[name] += 1
            total[name] += d
            if parent >= 0:
                child[parent] += d
                key = (names[parent], name)
                c = child_by.get(key)
                child_by[key] = (d, 1) if c is None else (c[0] + d, c[1] + 1)
        failed = [0] * n_names
        for i in self.failed:
            failed[names[i]] += 1

        def n(span):
            return calls[_ID[span]]

        def ms(span):
            return total[_ID[span]] * 1e3

        def under(parent, span):
            return child_by.get((_ID[parent], _ID[span]), (0.0, 0))

        def per_s(count, millis):
            return count / millis * 1e3 if millis > 0 else 0.0

        def ratio(a, b):
            return a / b if b else 0.0

        main_id = _ID["cli.main"]
        cli_self = sum(ends[i] - starts[i] - child[i]
                       for i, name in enumerate(names) if name == main_id)
        counts = self.counts
        polish_in_scan, _ = under("involution.find_fixed_points", "involution.polish_fixed_point")
        invert_in_leaf, _ = under("foliation.trace_leaf", "foliation.invert_standard_map")
        _, scan_points = under("linearize.injectivity_scan", "linearize.StandardMap.evaluate")
        _, invert_jacs = under("foliation.invert_standard_map",
                               "linearize.StandardMap.evaluate_with_jacobian")
        evals, jacs = "expr.PlanarMap.evaluate", "expr.PlanarMap.evaluate_with_jacobian"
        inverts = "foliation.invert_standard_map"
        return {
            "expr.parse_ms": ms("expr.parse"),
            "expr.eval_calls": n(evals),
            "expr.eval_ms": ms(evals),
            "expr.eval_points_per_s": per_s(n(evals), ms(evals)),
            "expr.jac_calls": n(jacs),
            "expr.jac_ms": ms(jacs),
            "expr.jac_points_per_s": per_s(n(jacs), ms(jacs)),
            "expr.eval_errors": failed[_ID[evals]] + failed[_ID[jacs]],
            "linalg2.eigen_calls": n("linalg2.eigenvalues"),
            "linalg2.eigen_ms": ms("linalg2.eigenvalues"),
            "linalg2.solve_calls": n("linalg2.solve_min_norm"),
            "involution.verify_ms": ms("involution.verify_involution"),
            "involution.orientation_ms": ms("involution.orientation"),
            "involution.fixed_points_ms": ms("involution.find_fixed_points"),
            "involution.fixed_points_self_ms":
                ms("involution.find_fixed_points") - polish_in_scan * 1e3,
            "involution.polish_calls": n("involution.polish_fixed_point"),
            "involution.seeds_converged_ratio": ratio(counts["converged"], counts["seeds"]),
            "involution.roots": counts["roots"],
            "spectral.verdict_ms": ms("spectral.theorem_verdict"),
            "spectral.sample_ms": ms("spectral.sample_spectrum"),
            "spectral.samples": counts["samples"],
            "linearize.standard_map_ms": ms("linearize.standard_map"),
            "linearize.scan_ms": ms("linearize.injectivity_scan"),
            "linearize.scan_points": scan_points,
            "linearize.scan_points_per_s":
                per_s(scan_points, ms("linearize.injectivity_scan")),
            "linearize.scan_cells": counts["scan_cells"],
            "linearize.shift_ms": ms("linearize.spectrum_shift_check"),
            "linearize.h_eval_calls": n("linearize.StandardMap.evaluate"),
            "linearize.h_jac_calls": n("linearize.StandardMap.evaluate_with_jacobian"),
            "foliation.params_ms": ms("foliation.default_leaf_parameters"),
            "foliation.trace_leaf_ms": ms("foliation.trace_leaf"),
            "foliation.trace_leaf_self_ms": ms("foliation.trace_leaf") - invert_in_leaf * 1e3,
            "foliation.invert_calls": n(inverts),
            "foliation.invert_failures": failed[_ID[inverts]],
            "foliation.invert_success_ratio":
                ratio(n(inverts) - failed[_ID[inverts]], n(inverts)),
            "foliation.newton_iters_per_invert": ratio(invert_jacs, n(inverts)),
            "foliation.leaf_points": counts["leaf_points"],
            "foliation.truncated_leaves": counts["truncated_leaves"],
            "foliation.invariance_ms": ms("foliation.leaf_invariance_check"),
            "gallery.get_ms": ms("gallery.get"),
            "svgplot.write_ms": ms("svgplot.write_portrait"),
            "svgplot.bytes": counts["svg_bytes"],
            "cli.self_ms": cli_self * 1e3,
        }

    def write_spans(self, path: str) -> None:
        """Write every span as a gzipped tab-separated row; times in ms
        from the first span, parent -1 for a root."""
        origin = self.starts[0] if self.starts else 0.0
        failed = set(self.failed)
        rows = ["index\tparent\tname\tstart_ms\tend_ms\tfailed\n"]
        rows.extend(
            f"{i}\t{parent}\t{SPAN_NAMES[name]}\t{(self.starts[i] - origin) * 1e3:.6f}\t"
            f"{(self.ends[i] - origin) * 1e3:.6f}\t{int(i in failed)}\n"
            for i, (name, parent) in enumerate(zip(self.names, self.parents)))
        with gzip.open(path, "wt", encoding="utf-8", compresslevel=1) as fh:
            fh.write("".join(rows))
