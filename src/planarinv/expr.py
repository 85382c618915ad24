"""Parsing and evaluation of planar maps given as expression pairs.

The grammar covers exactly what the built-in map gallery needs:

    map   := "(" expr "," expr ")"
    expr  := term (("+" | "-") term)*
    term  := factor (("*" | "/") factor)*
    factor:= unary ("^" integer)?
    unary := "-" unary | atom
    atom  := number | "x" | "y" | func "(" expr ")" | "(" expr ")"
    func  := "sinh" | "cosh" | "asinh" | "sqrt" | "abs" | "sin" | "cos"

Whitespace is insignificant; numbers are decimal literals with optional
fraction and exponent; "^" accepts only non-negative integer literals and
is evaluated by repeated multiplication from the left (no branch cuts).

A :class:`PlanarMap` carries a pair of expression trees, from :func:`parse`
or built directly as :class:`ExprNode` trees (which may share subtrees).
It runs as straight-line Python functions generated from the trees: one
walk lists each distinct operation once, with its operands and its
dependence on x and y, and four emitters print that list.  On the map's
first evaluation :func:`compile_pair` builds three from one ``exec``: a
float-only value kernel; a forward-mode Jacobian kernel that keeps the
value and both partials of every operation in float locals, with the chain
rule applied operation by operation; and a grid kernel of the standard map
h (see :meth:`PlanarMap.grid_kernel`).  :func:`compile_standard` builds h's
point kernels in their own ``exec``, when h is first evaluated at a point:
one call checks phi as :class:`PlanarMap` does and returns h, or h, Dh, phi(p).

The kernels take the same float operations as a walk over the tree, but
run some of them less often.  The powers of one base share a chain: each
starts from the highest power of that base already computed, a prefix of
its own left fold, so it repeats the same roundings.  The grid kernel runs
each operation, of the map and of the standard map alike, at the loop
level that its dependence on x and y needs.

Nothing here recurses: the parser keeps open parentheses on a list, and
each walk over a tree keeps its own stack and visits a node shared by
reference once.  No depth of nesting is refused, wherever the call is from.
"""

from __future__ import annotations

import math
import re
from functools import cached_property, partial
from itertools import count
from numbers import Number
from types import CodeType
from typing import Callable, Iterator

_FUNCTIONS = ("sinh", "cosh", "asinh", "sqrt", "abs", "sin", "cos")

_BINARY = ("add", "sub", "mul", "div")
_INFIX = {"add": "+", "sub": "-", "mul": "*", "div": "/"}
_UNARY = ("neg",) + _FUNCTIONS
_ARITY = {"num": 0, "x": 0, "y": 0, "pow": 1}
_ARITY.update({k: 2 for k in _BINARY})
_ARITY.update({k: 1 for k in _UNARY})


class ParseError(ValueError):
    """Syntax or vocabulary error in a map expression, with source offset."""

    def __init__(self, message: str, position: int):
        super().__init__(f"{message} (at offset {position})")
        self.position = position


class EvaluationError(ArithmeticError):
    """Runtime evaluation failure, tagged with the offending point."""

    def __init__(self, message: str, point: tuple[float, float]):
        super().__init__(f"{message} while evaluating at ({point[0]!r}, {point[1]!r})")
        self.point = point


class ExprNode:
    """One node of a parsed expression tree.  Equality and hash go by
    identity, as every walk keys nodes by ``id``, so no method recurses."""

    __slots__ = ("kind", "children", "value", "exponent")

    def __init__(self, kind: str, children: tuple["ExprNode", ...] = (),
                 value: float | None = None, exponent: int | None = None):
        if kind not in _ARITY:
            raise ValueError(f"unknown node kind {kind!r}")
        if len(children) != _ARITY[kind]:
            raise ValueError(f"{kind} node takes {_ARITY[kind]} children")
        if kind == "pow" and (not isinstance(exponent, int) or exponent < 0):
            raise ValueError("pow exponent must be a non-negative integer")
        if kind != "pow" and exponent is not None:
            raise ValueError(f"{kind} node takes no exponent")
        if kind == "num" and not isinstance(value, (int, float)):
            if not isinstance(value, Number) or isinstance(value, complex):
                raise ValueError("num value must be a real number")
            try:  # the kernels take any other literal as its float
                float(value)
            except (ValueError, OverflowError) as exc:
                raise ValueError(f"num value {value!r} has no float: {exc}") from None
        if kind != "num" and value is not None:
            raise ValueError(f"{kind} node takes no value")
        self.kind = kind
        self.children = children
        self.value = value
        self.exponent = exponent


# One token per match, after the whitespace before it: a number, a name, an
# operator, or any other character, which no rule of the grammar accepts
_TOKENS = re.compile(r"\s*(?:(\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)|([A-Za-z]+)|([-+*/^(),])|(\S))")


def _offset(source: str, index: int) -> int:
    """The offset in ``source`` of its token ``index``, or its length for the end."""
    for k, match in enumerate(_TOKENS.finditer(source)):
        if k == index:
            return match.start(match.lastindex)
    return len(source)


def _read(source: str, tokens: list[tuple[str, str, str, str]]) -> list[ExprNode]:
    """The two trees of the map ``tokens``, in one loop over them.

    The pending sum and product are ``(left operand, operation)`` pairs,
    and each open parenthesis or call saves the state around it on
    ``saved``.  An atom that ends with no parenthesis open ends a component.
    """
    tokens.append(("", "", "", ""))  # the end
    if tokens[0][2] != "(":
        raise ParseError("expected '('", _offset(source, 0))
    i = 1
    pair: list[ExprNode] = []
    saved = []  # per open parenthesis: (opener, its minus signs, total, product)
    total = product = None  # the pending sum and product
    while True:
        negations = 0
        number, name, op, _ = tokens[i]
        while op == "-":
            negations += 1
            i += 1
            number, name, op, _ = tokens[i]
        i += 1
        if number:
            node = ExprNode("num", value=float(number))
        elif name == "x" or name == "y":
            node = ExprNode(name)
        elif name in _FUNCTIONS or op == "(":
            if name:
                if tokens[i][2] != "(":
                    raise ParseError("expected '('", _offset(source, i))
                i += 1
            saved.append((name or op, negations, total, product))
            total = product = None
            continue
        elif name:
            raise ParseError(f"unknown identifier {name!r}", _offset(source, i - 1))
        else:
            raise ParseError("expected a number, variable, function call, "
                             "or parenthesized expression", _offset(source, i - 1))
        while True:  # node is an atom, after `negations` minus signs
            for _ in range(negations):
                node = ExprNode("neg", (node,))
            op = tokens[i][2]
            if op == "^":
                i += 1
                number, _, op, _ = tokens[i]
                if op == "-":
                    raise ParseError("exponent must be non-negative", _offset(source, i))
                if not number.isdigit():
                    raise ParseError("exponent must be an integer literal", _offset(source, i))
                try:
                    exponent = int(number)
                except ValueError:  # more digits than int() converts
                    raise ParseError("exponent has too many digits",
                                     _offset(source, i)) from None
                node = ExprNode("pow", (node,), exponent=exponent)
                i += 1
                op = tokens[i][2]
            if product is not None:
                node = ExprNode(product[1], (product[0], node))
            i += 1
            if op == "*" or op == "/":
                product = node, "mul" if op == "*" else "div"
                break
            product = None
            if total is not None:
                node = ExprNode(total[1], (total[0], node))
            if op == "+" or op == "-":
                total = node, "add" if op == "+" else "sub"
                break
            if saved:  # the atom that the parenthesis opened ends here
                if op != ")":
                    raise ParseError("expected ')'", _offset(source, i - 1))
                opener, negations, total, product = saved.pop()
                if opener != "(":
                    node = ExprNode(opener, (node,))
                continue
            pair.append(node)
            closer = "," if len(pair) == 1 else ")"
            if op != closer:
                raise ParseError(f"expected {closer!r}", _offset(source, i - 1))
            if len(pair) == 1:
                total = None
                break
            if i < len(tokens) - 1:
                raise ParseError(f"unexpected trailing input {''.join(tokens[i])!r}",
                                 _offset(source, i))
            return pair


# The identifiers of generated kernels, held interned for the life of the
# process.  Compiling interns every identifier, and an interned name that no
# live object refers to is deleted again, so each map would insert and
# delete its names in the interpreter's table of interned strings; that
# churn fills the table with deleted slots until it grows, which raised
# peak memory by about 1 MB.  _compile adds the names of every kernel it
# compiles.  Each kernel numbers its temporaries and literals from t0
# and c0, so the set grows with the largest kernel compiled, not with the
# number of maps.
_KERNEL_NAMES: set[str] = set()

# A power chain writes at most this many multiplications by the base out as
# plain code, and longer runs as a loop: unrolled, y^3000 would nest too
# deep for the compiler, and y^999 would take 30 ms to compile.
_UNROLLED_STEPS = 8

_X, _Y = 1, 2  # the bits of a value's dependence on x and on y


def _postorder(root: ExprNode, done: dict) -> Iterator[ExprNode]:
    """The nodes under ``root`` whose ``id`` is not a key of ``done``, each
    once, in the order a recursive walk finishes them (children first, left
    to right).  The caller enters each node in ``done`` before the next."""
    stack = [(root, False)]  # (node, its children are done)
    push, pop = stack.append, stack.pop
    while stack:
        node, ready = pop()
        if id(node) in done:
            continue
        if ready or not node.children:
            yield node
        else:
            push((node, True))
            for child in reversed(node.children):
                push((child, False))


# The derivative of each unary function that the Jacobian kernel computes
# before the function's own value, of the operand ``{a}``
_DERIVATIVES = {"sinh": "_cosh({a})", "cosh": "_sinh({a})", "sin": "_cos({a})",
                "cos": "-_sin({a})", "asinh": "1.0 / _sqrt(1.0 + {a} * {a})",
                "abs": "1.0 if {a} > 0.0 else (-1.0 if {a} < 0.0 else 0.0)"}  # sign(0) is 0


def _repeat(count: int, body: str) -> list[str]:
    return [body] if count == 1 else [f"for _ in range({count}):", f"    {body}"]


def _power_step(t: str, a: str, da: tuple, s: str, sx: str, sy: str) -> str:
    """One multiplication by the base ``a`` of the power ``t`` and its
    partials, from ``s`` and its partials."""
    return (f"{t}, {t}_x, {t}_y = {s} * {a}, {sx} * {a} + {s} * {da[0]}, "
            f"{sy} * {a} + {s} * {da[1]}")


class _KernelWriter:
    """The operation list of one expression pair, and the emitters that
    print it as kernels.

    :meth:`emit` appends each distinct operation to ``ops`` once, as a
    record ``(name, kind, exponent, args, start, depends)``: ``name =
    kind(*args)`` is ``t<n>``, of operands named ``t<n>``, ``c<n>`` (a
    literal's parameter), ``x`` or ``y``; ``exponent`` is a power's, and
    ``depends`` the bits of the coordinates that the value depends on, 0
    for a constant.  Powers are repeated multiplication from the left,
    ``a^k = ((a*a)*a)...``.  A power of a varying base has ``start``, the
    name and exponent of the highest power of that base already listed, a
    prefix of its own left fold, and multiplies on from there, so it takes
    the roundings that the whole fold takes.  Any other power is a
    constant, ``exponent`` products from 1.0, with ``start`` None.

    Operations are keyed by kind, exponent and operand names, so each
    distinct subtree is listed once, and a node met again by reference
    takes its name from ``names`` without being walked again (the trees
    outlive the writer, so no ``id`` is reused meanwhile).  Literals are
    keyed by type and repr rather than by ``==``, which would merge 0.0
    with -0.0 and 1 with 1.0.  Every key takes a number, even the first
    power of a varying base, which lists nothing and is named by its base.
    The emitters, :meth:`source` and :meth:`standard_source`, read the
    records only.
    """

    def __init__(self):
        self.literals: list = []
        self.literal_names: dict[tuple, str] = {}
        self.emitted: dict[tuple, str] = {}  # key of each distinct operation -> its name
        self.names: dict[int, str] = {}  # id of each node walked -> its name
        self.ops: list[tuple] = []
        self.depends: dict[str, int] = {"x": _X, "y": _Y}  # literals depend on neither
        self.powers: dict[str, dict[int, str]] = {}  # varying base -> exponent -> power

    def emit(self, root: ExprNode) -> str:
        names, emitted = self.names, self.emitted
        for node in _postorder(root, names):
            kind = node.kind
            if kind == "x" or kind == "y":
                name = kind
            elif kind == "num":
                name = self._literal(node.value)
            else:
                args = tuple([names[id(child)] for child in node.children])
                key = (kind, node.exponent) + args
                name = emitted.get(key)
                if name is None:
                    name = emitted[key] = self._operation(kind, node.exponent, args)
            names[id(node)] = name
        return names[id(root)]

    def _literal(self, value) -> str:
        key = (type(value), repr(value))
        name = self.literal_names.get(key)
        if name is None:
            name = self.literal_names[key] = f"c{len(self.literals)}"
            # an int or float by reference (repr(1e999) is "inf"), any other
            # real number as its float, which every operation takes
            self.literals.append(value if isinstance(value, (int, float)) else float(value))
        return name

    def _operation(self, kind: str, exponent: int | None, args: tuple) -> str:
        """The name of a new operation, listed with its record."""
        t = f"t{len(self.emitted)}"
        depends = 0
        for arg in args:
            depends |= self.depends.get(arg, 0)
        start = None
        if kind == "pow":
            if exponent == 0:
                depends = 0  # the empty product, a constant even for a varying base
            elif depends:
                if exponent == 1:
                    return args[0]  # 1.0 * v is v, bit for bit, with its partials
                chain = self.powers.setdefault(args[0], {1: args[0]})
                prefix = max(k for k in chain if k < exponent)
                start = chain[prefix], prefix
                chain[exponent] = t
        self.depends[t] = depends
        self.ops.append((t, kind, exponent, args, start, depends))
        return t

    @staticmethod
    def _value_lines(op: tuple) -> list[str]:
        """The float operations that compute ``op``'s value."""
        t, kind, exponent, args, start, _ = op
        a = args[0]
        if kind in _INFIX:
            return [f"{t} = {a} {_INFIX[kind]} {args[1]}"]
        if kind == "neg":
            return [f"{t} = -{a}"]
        if kind != "pow":  # abs is the builtin, the other functions are parameters
            return [f"{t} = {'' if kind == 'abs' else '_'}{kind}({a})"]
        if start is None:  # a constant base may be an int literal: repeat the products exactly
            return [f"{t} = 1.0"] + (_repeat(exponent, f"{t} = {t} * {a}") if exponent else [])
        p, steps = start[0], exponent - start[1]
        if steps <= _UNROLLED_STEPS:  # Python groups a * b * c from the left
            return [f"{t} = {p}" + f" * {a}" * steps]
        return [f"{t} = {p}"] + _repeat(steps, f"{t} = {t} * {a}")

    def _jacobian_lines(self, values: list[list[str]], first: str, second: str) -> tuple:
        """The Jacobian kernel's body, from each operation's ``values``
        lines, and the value and partials of u and v, a constant as float()
        of it.

        A constant takes the value kernel's float operations.  Every other
        operation applies its chain rule, taking its own value from the
        float operation (a quotient rounded once), so the Jacobian kernel's
        values are the value kernel's, bit for bit.  A varying value plus or
        minus a constant keeps its partials' names.  A power replays each
        step of the ``(t, tx, ty)`` tuple from its prefix's three names.
        """
        partials = {"x": ("1.0", "0.0"), "y": ("0.0", "1.0")}  # the identity rows
        lines: list[str] = []
        for (t, kind, exponent, args, start, depends), value in zip(self.ops, values):
            if not depends:
                lines += value  # plain float arithmetic, as on values
                continue
            a, line, da = args[0], value[0], partials.get(args[0])
            tx, ty = f"{t}_x", f"{t}_y"
            if kind in _INFIX:
                b, db = args[1], partials.get(args[1])
                if kind == "div":
                    lines.append(f"if {b} == 0.0: raise ZeroDivisionError('division by zero')")
                    if db is None:  # varying / constant
                        lines.append(f"{t}_i = 1.0 / {b}; {line}")
                        lines.append(f"{tx} = {da[0]} * {t}_i; {ty} = {da[1]} * {t}_i")
                    elif da is None:  # constant / varying
                        lines.append(f"{line}; {t}_s = -{t} / {b}")
                        lines.append(f"{tx} = {t}_s * {db[0]}; {ty} = {t}_s * {db[1]}")
                    else:
                        lines.append(f"{t}_i = 1.0 / {b}; {line}")
                        lines.append(f"{tx} = ({da[0]} - {t} * {db[0]}) * {t}_i; "
                                     f"{ty} = ({da[1]} - {t} * {db[1]}) * {t}_i")
                elif kind == "mul":
                    lines.append(line)
                    if da is not None and db is not None:
                        lines.append(f"{tx} = {da[0]} * {b} + {a} * {db[0]}; "
                                     f"{ty} = {da[1]} * {b} + {a} * {db[1]}")
                    elif da is not None:
                        lines.append(f"{tx} = {da[0]} * {b}; {ty} = {da[1]} * {b}")
                    else:
                        lines.append(f"{tx} = {db[0]} * {a}; {ty} = {db[1]} * {a}")
                else:
                    lines.append(line)
                    if da is not None and db is not None:
                        op = _INFIX[kind]
                        lines.append(f"{tx} = {da[0]} {op} {db[0]}; {ty} = {da[1]} {op} {db[1]}")
                    elif da is not None or kind == "add":
                        partials[t] = da or db  # varying +- constant keeps the partials
                        continue
                    else:
                        lines.append(f"{tx} = -{db[0]}; {ty} = -{db[1]}")
            elif kind == "neg":
                lines.append(f"{line}; {tx} = -{da[0]}; {ty} = -{da[1]}")
            elif kind == "pow":
                p, steps = start[0], exponent - start[1]
                again = _power_step(t, a, da, t, tx, ty)
                if steps <= _UNROLLED_STEPS:
                    lines.append(_power_step(t, a, da, p, *partials[p]))
                    lines.extend([again] * (steps - 1))
                else:
                    lines.append(f"{t}, {tx}, {ty} = {p}, {partials[p][0]}, {partials[p][1]}")
                    lines.extend(_repeat(steps, again))
            else:
                if kind == "sqrt":
                    lines += [line, f"if {t} == 0.0: raise ZeroDivisionError("
                              "'derivative of sqrt at zero')", f"{t}_d = 0.5 / {t}"]
                else:
                    lines.append(f"{t}_d = {_DERIVATIVES[kind].format(a=a)}; {line}")
                lines.append(f"{tx} = {t}_d * {da[0]}; {ty} = {t}_d * {da[1]}")
            partials[t] = tx, ty
        return lines, [(value,) + partials[value] if value in partials
                       else (f"float({value})", "0.0", "0.0") for value in (first, second)]

    def _grid_lines(self, values: list[list[str]], first: str, second: str) -> list[str]:
        """The grid kernel's body: each operation's ``values`` lines, then
        each operation of StandardMap.evaluate after PlanarMap.evaluate's
        float() of a constant component, at the loop level that its
        dependence on x and y needs (see :meth:`PlanarMap.grid_kernel`)."""
        levels: dict[int, list[str]] = {0: [], _X: [], _Y: [], _X | _Y: []}
        reads = []  # the names that a node reads, in the order its lines read them
        for (_, _, _, args, start, depends), value in zip(self.ops, values):
            levels[depends] += value
            if depends == _X | _Y:
                reads += (start[0], args[0]) if start else args
        depends = dict(self.depends)
        temporaries = (f"t{k}" for k in count(len(self.emitted)))  # past every listed name

        def place(expression: str, level: int) -> str:
            """A name for ``expression`` at ``level``, or the expression itself at a node."""
            if level == _X | _Y:
                return f"({expression})"
            name = next(temporaries)
            depends[name] = level
            levels[level].append(f"{name} = {expression}")
            return name

        components = []
        for name, value in (("u", first), ("v", second)):
            if not depends.get(value, 0):
                levels[0].append(f"{name} = float({value})")
                value = name
            components.append((value, depends.get(value, 0)))
        (u, du), (v, dv) = components
        node = levels[_X | _Y]
        for coord, a1, a2, out in (("x", "a11", "a12", "us"), ("y", "a21", "a22", "vs")):
            half = place(f"0.5 * {coord}", depends[coord])
            terms = place(f"{a1} * {u}", du), place(f"{a2} * {v}", dv)
            image = place(f"0.5 * ({terms[0]} + {terms[1]})", du | dv)
            node.append(f"{out}.append({half} + {image})")
            reads += (half,) + (terms if du | dv == _X | _Y else (image,))
        # the column pass is never empty, as 0.5*x is there; whatever it raises
        # ends the grid at that column of row 0, as evaluate_grid catches any
        # exception and evaluates that node again
        column = ", ".join([name for name in dict.fromkeys(reads) if depends.get(name) == _X])
        lines = levels[0] + ["cols = []", "try:", "    for x in xs:"]
        lines += [f"        {line}" for line in levels[_X]]
        lines += [f"        cols.append(({column}))", "except Exception:", "    ys = ys[:1]"]
        lines += ["for y in ys:"] + [f"    {line}" for line in levels[_Y]]
        lines += [f"    for {column} in cols:"] + [f"        {line}" for line in node]
        return lines

    def _make(self, indented_body: list[str], params: list[str]) -> str:
        literals = [f"c{i}" for i in range(len(self.literals))]
        names = ["_sinh", "_cosh", "_asinh", "_sqrt", "_sin", "_cos"] + literals + params
        return "\n".join([f"def make({', '.join(names)}):"] + indented_body + [""])

    def source(self, first: str, second: str) -> str:
        values = list(map(self._value_lines, self.ops))
        jacobian, ((u, ux, uy), (v, vx, vy)) = self._jacobian_lines(values, first, second)
        return self._make(
            ["    def value(x, y):"] + [f"        {line}" for value in values for line in value]
            + [f"        return {first}, {second}", "    def jacobian(x, y):"]
            + [f"        {line}" for line in jacobian]
            + [f"        return {u}, {v}, {ux}, {uy}, {vx}, {vy}",
               "    def grid(xs, ys, a11, a12, a21, a22, us, vs):"]
            + [f"        {line}" for line in self._grid_lines(values, first, second)]
            + ["    return value, jacobian, grid"], [])

    def standard_source(self, first: str, second: str) -> str:
        """The kernels of :func:`compile_standard`: PlanarMap's value or
        Jacobian lines, ``try``, float() and finiteness test, then h and Dh."""
        # phi's lines again: h in Python over phi's kernels is slower (ROADMAP, "Settled")
        values = list(map(self._value_lines, self.ops))
        jacobian, ((fu, ux, uy), (fv, vx, vy)) = self._jacobian_lines(values, first, second)
        outputs = f"u = {fu}; v = {fv}"
        # halved term by term, so h stays finite where p + Dphi(0) phi(p) overflows
        h = "0.5 * x + 0.5 * (a11 * u + a12 * v), 0.5 * y + 0.5 * (a21 * u + a22 * v)"
        dh = ", ".join(f"0.5 * ({one} + (a{i}1 * {du} + a{i}2 * {dv}))" for i, one, du, dv in (
            (1, "1.0", ux, vx), (1, "0.0", uy, vy), (2, "0.0", ux, vx), (2, "1.0", uy, vy)))

        def kernel(name, lines, checked, message, result):
            return ([f"    def {name}(p):", "        try:",
                     "            x = float(p[0]); y = float(p[1])"]
                    + [f"            {line}" for line in lines]
                    + [f"        {line}" for line in _CATCH]
                    + [f"        if not 0.0 * {checked} == 0.0:",
                       f"            raise EvaluationError('{message}', (p[0], p[1]))",
                       f"        return {result}"])

        value_lines = [line for value in values for line in value]
        return self._make(
            kernel("h_value", value_lines + [outputs], "u * v", "non-finite map value", h)
            + kernel("h_jacobian", jacobian + [outputs],
                     f"u * v * {ux} * {uy} * {vx} * {vy}",
                     "non-finite map value or derivative", f"{h}, {dh}, u, v")
            + ["    return h_value, h_jacobian"], ["a11", "a12", "a21", "a22"])


# PlanarMap.evaluate's handling of a failed float operation, for a kernel of p
_CATCH = ["except ZeroDivisionError as exc:",
          "    raise EvaluationError(str(exc) or 'division by zero', (p[0], p[1])) from exc",
          "except (ValueError, OverflowError) as exc:",
          "    raise EvaluationError(str(exc), (p[0], p[1])) from exc"]


def _compile(first: ExprNode, second: ExprNode, source: Callable) -> Callable:
    """``make`` of ``source(writer, u, v)``, bound to the math functions and literals."""
    writer = _KernelWriter()
    u = writer.emit(first)
    v = writer.emit(second)
    codes = [compile(source(writer, u, v), "<planarinv kernel>", "exec")]
    for code in codes:
        _KERNEL_NAMES.update(code.co_varnames, code.co_freevars, code.co_cellvars, code.co_names)
        codes.extend(const for const in code.co_consts if isinstance(const, CodeType))
    namespace = {"EvaluationError": EvaluationError}
    exec(codes[0], namespace)
    return partial(namespace["make"], math.sinh, math.cosh, math.asinh, math.sqrt, math.sin,
                   math.cos, *writer.literals)


def compile_pair(first: ExprNode, second: ExprNode) -> tuple[Callable, Callable, Callable]:
    """Compile an expression pair into its value, Jacobian and grid kernels,
    from one ``exec``.

    ``value(x, y)`` returns ``(u, v)``.  ``jacobian(x, y)`` returns ``(u, v,
    du/dx, du/dy, dv/dx, dv/dy)``, with zero partials for a constant
    component and ``value``'s ``(u, v)`` wherever both succeed.  Both raise
    what the float operations raise, and the Jacobian kernel raises
    ZeroDivisionError for the derivative of sqrt at zero.  ``grid`` is
    described at :meth:`PlanarMap.grid_kernel`.  The trees are walked
    without recursion, each distinct node once, so any depth compiles.
    """
    return _compile(first, second, _KernelWriter.source)()


def compile_standard(first: ExprNode, second: ExprNode) -> Callable:
    """Compile the point kernels of the pair's standard maps, in their own
    ``exec``: ``bind(a11, a12, a21, a22)`` returns ``(h_value, h_jacobian)``
    for the linear part ``A``.  They run :meth:`PlanarMap.evaluate` and
    :meth:`PlanarMap.evaluate_with_jacobian`, errors included, and return
    h(p), or h(p), the entries of ``(I + A Dphi(p)).scale(0.5)`` and phi(p),
    with the float operations of :class:`planarinv.linearize.StandardMap`."""
    return _compile(first, second, _KernelWriter.standard_source)


class PlanarMap:
    """A differentiable map of the plane, given by the expression trees of
    its two components.  Construct with :func:`parse`, or with
    :meth:`from_expressions` from trees built directly.  ``repr`` shows the
    source alone, and ``==`` compares the trees by identity.
    """

    def __init__(self, source: str, asts: tuple[ExprNode, ExprNode]):
        self.source = source
        self.asts = asts

    def __repr__(self) -> str:
        return f"PlanarMap(source={self.source!r})"

    def __eq__(self, other):
        if other.__class__ is not self.__class__:
            return NotImplemented
        return (self.source, self.asts) == (other.source, other.asts)

    def __hash__(self) -> int:
        return hash((self.source, self.asts))

    @classmethod
    def from_expressions(cls, first: ExprNode, second: ExprNode, source: str) -> "PlanarMap":
        return cls(source, (first, second))

    @cached_property
    def _kernels(self) -> tuple[Callable, Callable, Callable]:
        """The (value, jacobian, grid) kernels, compiled on first use."""
        return compile_pair(*self.asts)

    def grid_kernel(self) -> Callable:
        """The kernel ``grid(xs, ys, a11, a12, a21, a22, us, vs)``, which
        evaluates the standard map of linear part ``[[a11, a12], [a21, a22]]``
        at the nodes ``(x, y)``, ``y`` outer and ``x`` inner.

        At each node it takes the operations of :meth:`evaluate` but its
        finiteness test, and appends ``0.5*x + 0.5*(a11*u + a12*v)`` to ``us``
        and ``0.5*y + 0.5*(a21*u + a22*v)`` to ``vs``.  Each operation, of
        the map and of h alike, runs at the loop level that its dependence
        on the coordinates needs: one that depends on neither once per call,
        one that depends on ``x`` alone once per column, in a pass before
        the rows (``0.5*x`` among them), and one that depends on ``y`` alone
        once per row (``0.5*y``, and ``a12*v`` and ``a22*v`` where ``v`` depends
        on ``y`` alone); only the rest run at every node.  Float operations
        have no state, so each node still gets :meth:`evaluate`'s floats.

        The kernel does not stop where phi is not finite: it appends h's
        values there, which are then not finite either.  It stops at the
        first node, in row-major order, where an operation raises, and lets
        the map's exception propagate unwrapped, with the lists ending
        before that node; a column whose pass raises stops row 0 at that
        column.  :meth:`planarinv.linearize.StandardMap.evaluate_grid` finds
        the first node where :meth:`evaluate` fails from these lists.
        """
        return self._kernels[2]

    @cached_property
    def standard_kernels(self) -> Callable:
        """:func:`compile_standard` of the two trees, compiled on first use."""
        return compile_standard(*self.asts)

    def evaluate(self, p: tuple[float, float]) -> tuple[float, float]:
        # checked here, not in phi's kernels, which then compile faster (ROADMAP, "Settled")
        kernel = self._kernels[0]
        try:
            u, v = kernel(float(p[0]), float(p[1]))
            u, v = float(u), float(v)  # a constant component is its literal: an int may overflow
        except ZeroDivisionError as exc:
            raise EvaluationError(str(exc) or "division by zero", (p[0], p[1])) from exc
        except (ValueError, OverflowError) as exc:
            raise EvaluationError(str(exc), (p[0], p[1])) from exc
        # zero times finite floats stays zero; an inf or NaN turns it into NaN
        if not 0.0 * u * v == 0.0:
            raise EvaluationError("non-finite map value", (p[0], p[1]))
        return (u, v)

    def evaluate_with_jacobian(self, p: tuple[float, float]) -> tuple[float, ...]:
        """Value and Jacobian at ``p`` as ``(u, v, du/dx, du/dy, dv/dx, dv/dy)``.

        Raises EvaluationError on a failed or non-finite evaluation, like
        :meth:`evaluate`.  Wherever both succeed, ``(u, v)`` is bit for bit
        :meth:`evaluate`'s value: every line of the Jacobian kernel computes
        its value with the float operation, a quotient included.
        """
        kernel = self._kernels[1]
        try:
            entries = kernel(float(p[0]), float(p[1]))
        except ZeroDivisionError as exc:
            raise EvaluationError(str(exc) or "division by zero", (p[0], p[1])) from exc
        except (ValueError, OverflowError) as exc:
            raise EvaluationError(str(exc), (p[0], p[1])) from exc
        u, v, ux, uy, vx, vy = entries
        if not 0.0 * u * v * ux * uy * vx * vy == 0.0:
            raise EvaluationError("non-finite map value or derivative", (p[0], p[1]))
        return entries


def parse(source: str) -> PlanarMap:
    """Parse a comma-separated expression pair like ``"(x - y^3, -y)"``."""
    tokens = _TOKENS.findall(source)
    try:
        first, second = _read(source, tokens)
    except ValueError:  # an unexpected character anywhere comes first
        for k, (_, _, _, other) in enumerate(tokens):
            if other:
                raise ParseError(f"unexpected character {other!r}", _offset(source, k)) from None
        raise
    return PlanarMap.from_expressions(first, second, source)


def _substitute(roots: tuple[ExprNode, ...], x: ExprNode, y: ExprNode) -> list[ExprNode]:
    """The trees ``roots`` with their ``x`` and ``y`` leaves replaced by the
    trees ``x`` and ``y``.  A node shared in ``roots`` is shared in the result."""
    done: dict[int, ExprNode] = {}
    for root in roots:
        for node in _postorder(root, done):
            if node.kind == "x":
                done[id(node)] = x
            elif node.kind == "y":
                done[id(node)] = y
            else:
                children = tuple([done[id(child)] for child in node.children])
                done[id(node)] = ExprNode(node.kind, children, node.value, node.exponent)
    return [done[id(root)] for root in roots]


def recentered(base: PlanarMap, center: tuple[float, float]) -> PlanarMap:
    """Conjugate a map by the translation taking ``center`` to the origin.

    The result fixes the origin whenever ``base`` fixes ``center``; the
    Jacobian is unchanged up to the coordinate shift.  The trees of the
    result are those of ``base`` with ``x + cx`` and ``y + cy`` substituted
    for ``x`` and ``y``, minus ``cx`` and ``cy``.
    """
    cx, cy = float(center[0]), float(center[1])
    source = f"recentered({base.source} @ ({cx:g}, {cy:g}))"
    shift_x = ExprNode("num", value=cx)
    shift_y = ExprNode("num", value=cy)
    x = ExprNode("add", (ExprNode("x"), shift_x))
    y = ExprNode("add", (ExprNode("y"), shift_y))
    first, second = _substitute(base.asts, x, y)
    return PlanarMap.from_expressions(
        ExprNode("sub", (first, shift_x)), ExprNode("sub", (second, shift_y)), source)
