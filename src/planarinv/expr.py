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
It is evaluated by straight-line Python functions generated from the trees
on the map's first evaluation.  :func:`compile_pair` builds all three from
one ``exec``: a float-only value kernel; a forward-mode Jacobian kernel
that keeps the value and both partials of every subexpression in float
locals, with the chain rule applied operation by operation; and a grid
kernel, which runs the value lines over a whole grid of nodes and keeps
the standard map's values there (see :meth:`PlanarMap.grid_kernel`).
:func:`compile_standard` writes the same lines into the standard map's
point kernels, in their own ``exec`` when h is first evaluated at a point:
one call checks phi as :class:`PlanarMap` does and returns h, or h, Dh, phi(p).

The kernels take the same float operations as a walk over the tree, but
run some of them less often.  The powers of one base share a chain: each
starts from the highest power of that base already computed, a prefix of
its own left fold, so it repeats the same roundings.  The grid kernel runs
each value line at the loop level that its dependence on x and y needs.

Nothing here recurses: the parser keeps open parentheses on a list, and
each walk over a tree keeps its own stack and visits a node shared by
reference once.  No depth of nesting is refused, wherever the call is from.
"""

from __future__ import annotations

import math
import re
from dataclasses import dataclass, field
from functools import cached_property, partial
from types import CodeType
from typing import Callable, Iterator, NamedTuple

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


@dataclass(frozen=True, eq=False, repr=False)
class ExprNode:
    """One node of a parsed expression tree.  Equality and hash go by
    identity, as every walk keys nodes by ``id``, so no method recurses."""

    kind: str
    children: tuple["ExprNode", ...] = ()
    value: float | None = None
    exponent: int | None = None

    def __post_init__(self):
        if self.kind not in _ARITY:
            raise ValueError(f"unknown node kind {self.kind!r}")
        if len(self.children) != _ARITY[self.kind]:
            raise ValueError(f"{self.kind} node takes {_ARITY[self.kind]} children")
        if self.kind == "pow" and (not isinstance(self.exponent, int) or self.exponent < 0):
            raise ValueError("pow exponent must be a non-negative integer")


class _Token(NamedTuple):
    kind: str  # "num" | "name" | "op" | "end"
    text: str
    pos: int


_TOKEN_RE = re.compile(
    r"(?P<num>\d+(?:\.\d*)?(?:[eE][+-]?\d+)?)|(?P<name>[A-Za-z]+)|(?P<op>[-+*/^(),])"
)


def _tokenize(source: str) -> list[_Token]:
    tokens = []
    pos = 0
    n = len(source)
    while pos < n:
        if source[pos].isspace():
            pos += 1
            continue
        m = _TOKEN_RE.match(source, pos)
        if m is None:
            raise ParseError(f"unexpected character {source[pos]!r}", pos)
        kind = m.lastgroup
        tokens.append(_Token(kind, m.group(), pos))
        pos = m.end()
    tokens.append(_Token("end", "", n))
    return tokens


class _Parser:
    def __init__(self, source: str):
        self.tokens = _tokenize(source)
        self.index = 0

    def peek(self) -> _Token:
        return self.tokens[self.index]

    def advance(self) -> _Token:
        tok = self.tokens[self.index]
        self.index += 1
        return tok

    def at_op(self, ops: str) -> bool:
        tok = self.tokens[self.index]
        return tok.kind == "op" and tok.text in ops

    def expect_op(self, op: str) -> _Token:
        tok = self.peek()
        if tok.kind != "op" or tok.text != op:
            raise ParseError(f"expected {op!r}", tok.pos)
        return self.advance()

    def parse_map(self) -> tuple[ExprNode, ExprNode]:
        self.expect_op("(")
        first = self.parse_expr()
        self.expect_op(",")
        second = self.parse_expr()
        self.expect_op(")")
        tail = self.peek()
        if tail.kind != "end":
            raise ParseError(f"unexpected trailing input {tail.text!r}", tail.pos)
        return first, second

    def parse_expr(self) -> ExprNode:
        """One ``expr``, in one loop: the pending sum and product are
        ``(left operand, operation)`` pairs, and each open parenthesis or
        call saves the state around it on ``saved``."""
        saved = []  # per open parenthesis: (opener, its minus signs, total, product)
        total = product = None  # the pending sum and product
        while True:
            negations = 0
            while self.at_op("-"):
                self.advance()
                negations += 1
            tok = self.advance()
            if (tok.kind == "name" and tok.text in _FUNCTIONS
                    or tok.kind == "op" and tok.text == "("):
                if tok.kind == "name":
                    self.expect_op("(")
                saved.append((tok.text, negations, total, product))
                total = product = None
                continue
            node = self.parse_leaf(tok)
            while True:  # node is an atom, after `negations` minus signs
                for _ in range(negations):
                    node = ExprNode("neg", (node,))
                node = self.parse_exponent(node)
                if product is not None:
                    node = ExprNode(product[1], (product[0], node))
                if self.at_op("*/"):
                    product = node, "mul" if self.advance().text == "*" else "div"
                    break
                product = None
                if total is not None:
                    node = ExprNode(total[1], (total[0], node))
                if self.at_op("+-"):
                    total = node, "add" if self.advance().text == "+" else "sub"
                    break
                if not saved:
                    return node
                self.expect_op(")")  # the atom that the parenthesis opened ends here
                opener, negations, total, product = saved.pop()
                if opener != "(":
                    node = ExprNode(opener, (node,))

    def parse_exponent(self, node: ExprNode) -> ExprNode:
        if not self.at_op("^"):
            return node
        self.advance()
        tok = self.peek()
        if tok.kind == "op" and tok.text == "-":
            raise ParseError("exponent must be non-negative", tok.pos)
        if tok.kind != "num" or not tok.text.isdigit():
            raise ParseError("exponent must be an integer literal", tok.pos)
        self.advance()
        return ExprNode("pow", (node,), exponent=int(tok.text))

    @staticmethod
    def parse_leaf(tok: _Token) -> ExprNode:
        if tok.kind == "num":
            return ExprNode("num", value=float(tok.text))
        if tok.kind == "name":
            if tok.text in ("x", "y"):
                return ExprNode(tok.text)
            raise ParseError(f"unknown identifier {tok.text!r}", tok.pos)
        raise ParseError(
            "expected a number, variable, function call, or parenthesized expression",
            tok.pos,
        )


_SSA_NAME = re.compile(r"\b(t\d+(?:_[a-z])?)\b")

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


class _KernelWriter:
    """Writes the value, Jacobian and grid kernels of one expression pair.

    Every emitted subexpression is named by a tuple ``(value, partials)``:
    ``value`` is the Python expression holding its value (a temporary, a
    literal's parameter, ``x`` or ``y``) and ``partials`` names its d/dx and
    d/dy in the Jacobian kernel, or is None for a constant (a subtree free of
    x and y, or a zeroth power), which the Jacobian kernel computes with the
    value kernel's float operations.  Every other node applies the chain
    rule of its operation, taking its own value from the float operation (a
    quotient rounded once), so the Jacobian kernel's values are the value
    kernel's, bit for bit.

    Subexpressions are numbered by operation and operand names, so each
    distinct subtree is emitted once, and a node met again by reference
    takes its name from ``names`` without being walked again (the trees
    outlive the writer, so no ``id`` is reused meanwhile).  Literals are
    keyed by type and repr rather than by ``==``, which would merge 0.0
    with -0.0 and 1 with 1.0.
    The value lines of each subexpression are kept as one block, tagged
    with the coordinates its value depends on, so that the grid kernel can
    run each block at the loop level it needs.
    """

    def __init__(self):
        self.literals: list = []
        self.literal_names: dict[tuple, str] = {}
        self.emitted: dict[tuple, tuple] = {}
        self.names: dict[int, tuple] = {}  # id of each node walked -> its name
        self.value_blocks: list[tuple[int, list[str]]] = []
        self.jac_lines: list[str] = []
        self.depends: dict[str, int] = {"x": _X, "y": _Y}  # literals depend on neither
        self.powers: dict[str, dict[int, tuple]] = {}  # base -> exponent -> emitted power

    def emit(self, root: ExprNode) -> tuple:
        names = self.names
        emitted = self.emitted
        for node in _postorder(root, names):
            kind = node.kind
            if kind == "x":
                named = "x", ("1.0", "0.0")  # the identity rows
            elif kind == "y":
                named = "y", ("0.0", "1.0")
            elif kind == "num":
                named = self._literal(node.value), None
            else:
                args = tuple([names[id(child)] for child in node.children])
                key = (kind, node.exponent) + args
                named = emitted.get(key)
                if named is None:
                    named = emitted[key] = self._operation(kind, node.exponent, args)
            names[id(node)] = named
        return names[id(root)]

    def _literal(self, value) -> str:
        key = (type(value), repr(value))
        name = self.literal_names.get(key)
        if name is None:
            name = self.literal_names[key] = f"c{len(self.literals)}"
            self.literals.append(value)  # by reference: repr(1e999) is "inf"
        return name

    def _value(self, t: str, depends: int, lines: list[str]) -> None:
        self.depends[t] = depends
        self.value_blocks.append((depends, lines))

    def _operation(self, kind: str, exponent: int | None, args: tuple) -> tuple:
        t = f"t{len(self.emitted)}"
        if kind == "pow":
            return self._power(t, args[0], exponent)
        a, da = args[0]
        depends = self.depends.get(a, 0)
        if kind in _INFIX:
            b, db = args[1]
            depends |= self.depends.get(b, 0)
            line = f"{t} = {a} {_INFIX[kind]} {b}"
        elif kind == "neg":
            line = f"{t} = -{a}"
        elif kind == "abs":
            line = f"{t} = abs({a})"
        else:
            line = f"{t} = _{kind}({a})"
        self._value(t, depends, [line])
        if da is None and (kind not in _INFIX or db is None):
            self.jac_lines.append(line)  # plain float arithmetic, as on values
            return t, None
        jac = self.jac_lines
        tx, ty = f"{t}_x", f"{t}_y"
        if kind in ("add", "sub"):
            jac.append(line)
            if da is not None and db is not None:
                op = _INFIX[kind]
                jac.append(f"{tx} = {da[0]} {op} {db[0]}; {ty} = {da[1]} {op} {db[1]}")
            elif da is not None:
                return t, da  # varying +- constant keeps the partials
            elif kind == "add":
                return t, db
            else:
                jac.append(f"{tx} = -{db[0]}; {ty} = -{db[1]}")
        elif kind == "mul":
            jac.append(line)
            if da is not None and db is not None:
                jac.append(f"{tx} = {da[0]} * {b} + {a} * {db[0]}; "
                           f"{ty} = {da[1]} * {b} + {a} * {db[1]}")
            elif da is not None:
                jac.append(f"{tx} = {da[0]} * {b}; {ty} = {da[1]} * {b}")
            else:
                jac.append(f"{tx} = {db[0]} * {a}; {ty} = {db[1]} * {a}")
        elif kind == "div":
            jac.append(f"if {b} == 0.0: raise ZeroDivisionError('division by zero')")
            if db is None:  # varying / constant
                jac.append(f"{t}_i = 1.0 / {b}; {line}")
                jac.append(f"{tx} = {da[0]} * {t}_i; {ty} = {da[1]} * {t}_i")
            elif da is None:  # constant / varying
                jac.append(f"{t} = {a} / {b}; {t}_s = -{t} / {b}")
                jac.append(f"{tx} = {t}_s * {db[0]}; {ty} = {t}_s * {db[1]}")
            else:
                jac.append(f"{t}_i = 1.0 / {b}; {line}")
                jac.append(f"{tx} = ({da[0]} - {t} * {db[0]}) * {t}_i; "
                           f"{ty} = ({da[1]} - {t} * {db[1]}) * {t}_i")
        elif kind == "neg":
            jac.append(f"{line}; {tx} = -{da[0]}; {ty} = -{da[1]}")
        else:
            if kind == "sinh":
                jac.append(f"{t}_d = _cosh({a}); {line}")
            elif kind == "cosh":
                jac.append(f"{t}_d = _sinh({a}); {line}")
            elif kind == "asinh":
                jac.append(f"{t}_d = 1.0 / _sqrt(1.0 + {a} * {a}); {line}")
            elif kind == "sin":
                jac.append(f"{t}_d = _cos({a}); {line}")
            elif kind == "cos":
                jac.append(f"{t}_d = -_sin({a}); {line}")
            elif kind == "sqrt":
                jac.append(line)
                jac.append(f"if {t} == 0.0: raise ZeroDivisionError('derivative of sqrt at zero')")
                jac.append(f"{t}_d = 0.5 / {t}")
            else:  # abs, with sign(0) taken as 0
                jac.append(f"{t}_d = 1.0 if {a} > 0.0 else (-1.0 if {a} < 0.0 else 0.0); {line}")
            jac.append(f"{tx} = {t}_d * {da[0]}; {ty} = {t}_d * {da[1]}")
        return t, (tx, ty)

    def _power(self, t: str, arg: tuple, exponent: int) -> tuple:
        """Repeated multiplication from the left, ``a^k = ((a*a)*a)...``.

        A varying base keeps a chain of its emitted powers: ``a^k`` starts
        from the highest ``a^j`` below it, a prefix of the same left fold,
        and multiplies by the base for the ``k - j`` missing steps only, so
        it takes the roundings that the whole fold takes.  In the Jacobian
        kernel each step of the ``(t, tx, ty)`` tuple is replayed from the
        prefix's three names.
        """
        a, da = arg
        if exponent == 0:
            line = f"{t} = 1.0"  # the empty product, a constant even for a varying base
            self._value(t, 0, [line])
            self.jac_lines.append(line)
            return t, None
        if da is None:
            # a constant base may be an int literal: repeat the products exactly
            lines = [f"{t} = 1.0"] + self._repeat(exponent, f"{t} = {t} * {a}")
            self._value(t, 0, lines)
            self.jac_lines.extend(lines)
            return t, None
        if exponent == 1:
            return arg  # 1.0 * v is v, bit for bit, with its partials
        chain = self.powers.setdefault(a, {1: arg})
        start = max(k for k in chain if k < exponent)
        p, (px, py) = chain[start]
        steps = exponent - start
        tx, ty = f"{t}_x", f"{t}_y"

        def step(s, sx, sy):
            return (f"{t}, {tx}, {ty} = {s} * {a}, {sx} * {a} + {s} * {da[0]}, "
                    f"{sy} * {a} + {s} * {da[1]}")

        if steps <= _UNROLLED_STEPS:  # Python groups a * b * c from the left
            self._value(t, self.depends[a], [f"{t} = {p}" + f" * {a}" * steps])
            self.jac_lines.append(step(p, px, py))
            self.jac_lines.extend([step(t, tx, ty)] * (steps - 1))
        else:
            self._value(t, self.depends[a],
                        [f"{t} = {p}"] + self._repeat(steps, f"{t} = {t} * {a}"))
            self.jac_lines.append(f"{t}, {tx}, {ty} = {p}, {px}, {py}")
            self.jac_lines.extend(self._repeat(steps, step(t, tx, ty)))
        chain[exponent] = t, (tx, ty)
        return chain[exponent]

    @staticmethod
    def _repeat(count: int, body: str) -> list[str]:
        if count == 1:
            return [body]
        return [f"for _ in range({count}):", f"    {body}"]

    def _grid_lines(self, first: tuple, second: tuple) -> list[str]:
        """The grid kernel's body: each value block at the loop level that
        its dependence on x and y needs (see :meth:`PlanarMap.grid_kernel`),
        then at each node PlanarMap.evaluate's float() and finiteness test
        and StandardMap.evaluate's operations."""
        levels: dict[int, list[str]] = {0: [], _X: [], _Y: [], _X | _Y: []}
        for depends, lines in self.value_blocks:
            levels[depends].extend(lines)
        components = []
        for name, (value, partials) in (("u", first), ("v", second)):
            if partials is None:
                levels[0].append(f"{name} = float({value})")
                components.append(name)
            else:
                components.append(value)
        u, v = components
        node = levels[_X | _Y] + [
            f"if not 0.0 * {u} * {v} == 0.0:",
            "    return",
            f"append_u(0.5 * x + 0.5 * (a11 * {u} + a12 * {v}))",
            f"append_v(0.5 * y + 0.5 * (a21 * {u} + a22 * {v}))"]
        lines = ["append_u, append_v = us.append, vs.append"] + levels[0]
        column, columns = "x", "xs"
        if levels[_X]:
            carried = [name for name in dict.fromkeys(_SSA_NAME.findall("\n".join(node)))
                       if self.depends[name] == _X]
            column, columns = ", ".join(["x"] + carried), "cols"
            # whatever a column raises ends the grid at that column of row 0,
            # as evaluate_grid catches any exception and evaluates that node again
            lines += ["cols = []", "try:", "    for x in xs:"]
            lines += [f"        {line}" for line in levels[_X]]
            lines += [f"        cols.append(({column}))",
                      "except Exception:",
                      "    ys = ys[:1]"]
        lines += ["for y in ys:"] + [f"    {line}" for line in levels[_Y]]
        lines += [f"    for {column} in {columns}:"] + [f"        {line}" for line in node]
        return lines

    def _make(self, body: list[str], params: list[str]) -> str:
        literals = [f"c{i}" for i in range(len(self.literals))]
        names = ["_sinh", "_cosh", "_asinh", "_sqrt", "_sin", "_cos"] + literals + params
        return "\n".join([f"def make({', '.join(names)}):"]
                         + [f"    {line}" for line in body] + [""])

    def _outputs(self, first: tuple, second: tuple) -> list[tuple[str, str, str]]:
        """The value and partials of u and v, a constant as float() of it."""
        return [(f"float({value})", "0.0", "0.0") if partials is None else (value,) + partials
                for value, partials in (first, second)]

    def source(self, first: tuple, second: tuple) -> str:
        (u, ux, uy), (v, vx, vy) = self._outputs(first, second)
        value_lines = [line for _, lines in self.value_blocks for line in lines]
        return self._make(
            ["def value(x, y):"] + [f"    {line}" for line in value_lines]
            + [f"    return {first[0]}, {second[0]}", "def jacobian(x, y):"]
            + [f"    {line}" for line in self.jac_lines]
            + [f"    return {u}, {v}, {ux}, {uy}, {vx}, {vy}",
               "def grid(xs, ys, a11, a12, a21, a22, us, vs):"]
            + [f"    {line}" for line in self._grid_lines(first, second)]
            + ["return value, jacobian, grid"], [])

    def standard_source(self, first: tuple, second: tuple) -> str:
        """The kernels of :func:`compile_standard`: PlanarMap's value or
        Jacobian lines, ``try``, float() and finiteness test, then h and Dh."""
        (fu, ux, uy), (fv, vx, vy) = self._outputs(first, second)
        outputs = f"u = {fu}; v = {fv}"
        h = "0.5 * x + 0.5 * (a11 * u + a12 * v), 0.5 * y + 0.5 * (a21 * u + a22 * v)"
        dh = ", ".join(f"0.5 * ({one} + (a{i}1 * {du} + a{i}2 * {dv}))" for i, one, du, dv in (
            (1, "1.0", ux, vx), (1, "0.0", uy, vy), (2, "0.0", ux, vx), (2, "1.0", uy, vy)))

        def kernel(name, lines, after, checked, message, result):
            return ([f"def {name}(p):", "    try:", "        x = float(p[0]); y = float(p[1])"]
                    + [f"        {line}" for line in lines]
                    + [f"    {line}" for line in _CATCH + after]
                    + [f"    if not 0.0 * {checked} == 0.0:",
                       f"        raise EvaluationError('{message}', (p[0], p[1]))",
                       f"    return {result}"])

        value_lines = [line for _, lines in self.value_blocks for line in lines]
        return self._make(
            kernel("h_value", value_lines, [outputs], "u * v", "non-finite map value", h)
            + kernel("h_jacobian", self.jac_lines + [outputs], [],
                     f"u * v * {ux} * {uy} * {vx} * {vy}",
                     "non-finite map value or derivative", f"{h}, {dh}, u, v")
            + ["return h_value, h_jacobian"], ["a11", "a12", "a21", "a22"])


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


@dataclass(frozen=True)
class PlanarMap:
    """A differentiable map of the plane, given by the expression trees of
    its two components.  Construct with :func:`parse`, or with
    :meth:`from_expressions` from trees built directly.
    """

    source: str
    asts: tuple[ExprNode, ExprNode] = field(repr=False)
    # (value, jacobian, grid) kernels, built on the first evaluation
    _kernels: tuple[Callable, Callable, Callable] | None = field(
        default=None, init=False, repr=False, compare=False)

    @classmethod
    def from_expressions(cls, first: ExprNode, second: ExprNode, source: str) -> "PlanarMap":
        return cls(source, (first, second))

    def _build_kernels(self) -> tuple[Callable, Callable, Callable]:
        kernels = compile_pair(*self.asts)
        object.__setattr__(self, "_kernels", kernels)
        return kernels

    def grid_kernel(self) -> Callable:
        """The kernel ``grid(xs, ys, a11, a12, a21, a22, us, vs)``, which
        evaluates the standard map of linear part ``[[a11, a12], [a21, a22]]``
        at the nodes ``(x, y)``, ``y`` outer and ``x`` inner.

        At each node it takes the operations of :meth:`evaluate` and then
        appends ``0.5*x + 0.5*(a11*u + a12*v)`` to ``us`` and
        ``0.5*y + 0.5*(a21*u + a22*v)`` to ``vs``.  The operations of a
        value that depends on neither coordinate run once per call, those
        of a value that depends on ``x`` alone once per column, in a pass
        before the rows, and those of a value that depends on ``y`` alone
        once per row; only the rest run at every node.  Float operations
        have no state, so each node still gets :meth:`evaluate`'s floats.

        The kernel stops at the first node, in row-major order, where
        :meth:`evaluate` fails: it returns there, or lets the map's
        exception propagate unwrapped, and either way the lists end before
        that node.  A column whose pass raises stops row 0 at that column.
        """
        return (self._kernels or self._build_kernels())[2]

    @cached_property
    def standard_kernels(self) -> Callable:
        """:func:`compile_standard` of the two trees, compiled on first use."""
        return compile_standard(*self.asts)

    def evaluate(self, p: tuple[float, float]) -> tuple[float, float]:
        kernel = (self._kernels or self._build_kernels())[0]
        try:
            u, v = kernel(float(p[0]), float(p[1]))
        except ZeroDivisionError as exc:
            raise EvaluationError(str(exc) or "division by zero", (p[0], p[1])) from exc
        except (ValueError, OverflowError) as exc:
            raise EvaluationError(str(exc), (p[0], p[1])) from exc
        u, v = float(u), float(v)
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
        kernel = (self._kernels or self._build_kernels())[1]
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
    first, second = _Parser(source).parse_map()
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
