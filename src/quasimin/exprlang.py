"""Small arithmetic expression language over point coordinates.

Grammar: +, -, *, /, ^ (power), unary minus, the functions sin, cos, tan,
exp, log, abs, sqrt, min, max, numeric constants, pi, e, and the coordinate
names x1..x9.  Comparisons (<, <=, >, >=) and and/or give 0.0/1.0, so mask
predicates can be written directly and indicators combine arithmetically.
Division and the functions are quiet: 1/0 gives inf and log(0) gives -inf.
Each expression compiles once, at parse time, into nested closures that
evaluate vectorized over coordinate arrays of shape (..., n).  Vector-valued
expressions are comma-separated component lists.
"""

from __future__ import annotations

import ast
import operator
import re
from functools import reduce

import numpy as np


class ExprError(ValueError):
    """Parse or evaluation failure of an expression."""


_TOO_DEEP = "expression nested too deeply"

_quiet = np.errstate(divide="ignore", invalid="ignore")


def _indicator(fn):
    """fn with its boolean result as 0.0/1.0."""
    return lambda *args: fn(*args).astype(float)


def _fold(fn):
    """fn applied left to right over two or more arguments."""
    return lambda *args: reduce(fn, args)


_UNARY = {ast.USub: operator.neg, ast.UAdd: lambda val: val}
_BINARY = {
    ast.Add: operator.add,
    ast.Sub: operator.sub,
    ast.Mult: operator.mul,
    ast.Div: _quiet(operator.truediv),
    ast.Pow: operator.pow,
}
_COMPARE = {
    ast.LtE: _indicator(operator.le),
    ast.Lt: _indicator(operator.lt),
    ast.GtE: _indicator(operator.ge),
    ast.Gt: _indicator(operator.gt),
}
_BOOL = {ast.And: _indicator(_fold(np.logical_and)), ast.Or: _indicator(_fold(np.logical_or))}
# each function is the numpy function of the same name
_FUNCS = {name: _quiet(getattr(np, name))
          for name in ("sin", "cos", "tan", "exp", "log", "abs", "sqrt")}
_MINMAX = {"min": _fold(np.minimum), "max": _fold(np.maximum)}
_CONSTS = {"pi": np.pi, "e": np.e}


def _constant(value: float):
    return lambda points: np.full(points.shape[:-1], value)


def _apply(table, key, message, *operands):
    """Closure applying table[key] to the operands' values, left to right."""
    if key not in table:
        raise ExprError(message)
    fn, args = table[key], tuple(map(_compile, operands))
    return lambda points: fn(*[a(points) for a in args])


def _compile(node):
    """Check one AST node and turn it into a closure points -> values."""
    if isinstance(node, ast.Constant):
        if not isinstance(node.value, (int, float)):
            raise ExprError(f"unsupported constant {node.value!r}")
        return _constant(float(node.value))
    if isinstance(node, ast.Name):
        if re.fullmatch("x[1-9]", node.id):
            k = int(node.id[1]) - 1
            return lambda points: points[..., k]
        if node.id in _CONSTS:
            return _constant(_CONSTS[node.id])
        raise ExprError(f"unknown name {node.id!r}")
    if isinstance(node, ast.UnaryOp):
        return _apply(_UNARY, type(node.op), "unsupported unary operator", node.operand)
    if isinstance(node, ast.BinOp):
        return _apply(_BINARY, type(node.op), "unsupported binary operator",
                      node.left, node.right)
    if isinstance(node, ast.Compare):
        if len(node.ops) != 1:
            raise ExprError("chained comparisons not allowed")
        return _apply(_COMPARE, type(node.ops[0]), "unsupported comparison",
                      node.left, node.comparators[0])
    if isinstance(node, ast.BoolOp):
        return _apply(_BOOL, type(node.op), "unsupported boolean operator", *node.values)
    if isinstance(node, ast.Call):
        if not isinstance(node.func, ast.Name) or node.keywords:
            raise ExprError("only plain function calls allowed")
        name, nargs = node.func.id, len(node.args)
        if name in _MINMAX and nargs < 2:
            raise ExprError(f"{name} needs at least two arguments")
        if name in _FUNCS and nargs != 1:
            raise ExprError(f"{name} takes one argument")
        table = _MINMAX if name in _MINMAX else _FUNCS
        return _apply(table, name, f"unknown function {name!r}", *node.args)
    raise ExprError(f"unsupported syntax {type(node).__name__}")


class Expr:
    """One compiled scalar-valued expression."""

    def __init__(self, fn):
        self._fn = fn

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        try:
            return self._fn(points)
        except RecursionError:
            raise ExprError(_TOO_DEEP) from None
        except IndexError:  # a coordinate x_k with k > n
            raise ExprError(f"a coordinate exceeds dimension {points.shape[-1]}") from None


def _parse(text: str, vector: bool) -> list[Expr]:
    """Compile text, '^' meaning power; a vector's components form a top-level tuple."""
    cooked = text.strip().replace("^", "**")
    try:
        node = ast.parse(cooked, mode="eval").body
        parts = node.elts if vector and isinstance(node, ast.Tuple) else [node]
        exprs = [Expr(_compile(part)) for part in parts]
    except SyntaxError as exc:
        raise ExprError(f"syntax error: {exc.msg}") from None
    except RecursionError:
        raise ExprError(_TOO_DEEP) from None
    except OverflowError as exc:  # an integer literal beyond the float range
        raise ExprError(str(exc)) from None
    # a trailing comma, as in "x1," or "(x1,)", leaves an empty last component
    if not parts or b"," in cooked.encode()[parts[-1].end_col_offset:node.end_col_offset]:
        raise ExprError("empty component in vector expression")
    # evaluate once, so that an expression too deep to evaluate fails here
    with np.errstate(all="ignore"):
        for expr in exprs:
            expr(np.zeros((1, 9)))
    return exprs


def parse_expr(text: str) -> Expr:
    """Compile one scalar expression; '^' is accepted for power."""
    return _parse(text, vector=False)[0]


class VectorExpr:
    """Comma-separated list of component expressions."""

    def __init__(self, components: list[Expr]):
        self.components = components

    @property
    def ncomp(self) -> int:
        return len(self.components)

    def __call__(self, points: np.ndarray) -> np.ndarray:
        points = np.asarray(points, dtype=float)
        return np.stack([c(points) for c in self.components], axis=-1)


def parse_vector_expr(text: str) -> VectorExpr:
    """Compile a vector expression from its comma-separated components."""
    return VectorExpr(_parse(text, vector=True))
