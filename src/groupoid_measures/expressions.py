"""The values of scenario files: a tiny safe evaluator for scalar field
expressions, and the kinds that read every other value.

Expressions see numpy math names plus chart coordinates: ``c0, c1, ...``
with the aliases r/t/x for the first axis and phi/y for the second.

A kind reads one JSON value and raises ScenarioError on anything else.  A
JSON boolean is neither an integer nor a number, and a number is finite.
"""

from __future__ import annotations

import ast
import math
from dataclasses import dataclass
from typing import Callable

import numpy as np

_NAMES = {
    "pi": math.pi, "e": math.e,
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
    "sqrt": np.sqrt, "log": np.log, "abs": np.abs,
    "minimum": np.minimum, "maximum": np.maximum, "where": np.where,
}

_ALIASES = [("c0", "r", "t", "x"), ("c1", "phi", "y"), ("c2", "z")]


class ScenarioError(ValueError):
    """Scenario input is malformed (unknown kinds, bad parameters)."""


class ExpressionError(ScenarioError):
    pass


def compile_field(expr: str, ndim: int):
    """Compile a subscript-free expression to a function of ndim coordinate
    arrays; a sample that is not finite at every point is an ExpressionError."""
    if not isinstance(expr, str):
        raise ExpressionError(f"an expression must be a string, got {expr!r}")
    try:
        code = compile(expr, "<field-expression>", "eval")
    except SyntaxError as exc:
        raise ExpressionError(f"bad expression {expr!r}: {exc}") from exc
    if "[" in expr and any(isinstance(node, ast.Subscript)  # a subscript needs a "["
                           for node in ast.walk(ast.parse(expr, mode="eval"))):
        raise ExpressionError(f"subscripts are not allowed in {expr!r}")
    allowed = set(_NAMES)
    for axis in range(ndim):
        allowed.update(_ALIASES[axis] if axis < len(_ALIASES) else (f"c{axis}",))
    for name in code.co_names:
        if name not in allowed:
            raise ExpressionError(f"name {name!r} not allowed in {expr!r}")

    def fn(*coords):
        shape = np.broadcast_shapes(*map(np.shape, coords))
        scope = dict(_NAMES)
        for axis, coord in enumerate(coords):
            names = _ALIASES[axis] if axis < len(_ALIASES) else (f"c{axis}",)
            for nm in names:
                scope[nm] = coord
        try:
            # only the sample is judged, so where(x > 0, 1/x, 0) evaluates
            with np.errstate(all="ignore"):
                result = eval(code, {"__builtins__": {}}, scope)
                out = result + np.zeros(shape)
        except (ArithmeticError, AttributeError, IndexError, TypeError,
                ValueError) as exc:
            raise ExpressionError(f"cannot evaluate {expr!r}: {exc}") from exc
        if out.dtype.kind != "f" or out.shape != shape:
            raise ExpressionError(f"{expr!r} is not a real value at each point")
        if not np.isfinite(out).all():
            raise ExpressionError(f"{expr!r} is not finite at every point")
        return out

    return fn


def evaluate_scalar(expr: str) -> float:
    """Evaluate a coordinate-free constant expression."""
    return float(compile_field(expr, 0)(np.array(0.0)))


# ---------------------------------------------------------------------------
# value kinds

REQUIRED = object()  # the default of a value a scenario must give


@dataclass(frozen=True)
class Kind:
    """How a value is read (``convert`` raises ScenarioError); ``label`` names it."""
    label: str
    convert: Callable

    def read(self, doc: dict, key: str, default=REQUIRED, name: str | None = None):
        """``doc[key]`` read by this kind, or the default when it is absent;
        ``name`` names the value in errors (default ``parameter 'key'``)."""
        name = name or f"parameter {key!r}"
        if key not in doc:
            if default is REQUIRED:
                raise ScenarioError(f"missing required {name}")
            return default
        return self.convert(doc[key], name)


def as_int(value, name: str) -> int:
    """An integer input value; anything else (a boolean, text that is not an
    integer, a fractional number) is an input error."""
    try:
        out = None if isinstance(value, bool) else int(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or (out != value and not isinstance(value, str)):
        raise ScenarioError(f"{name} must be an integer, got {value!r}")
    return out


def _finite(value, name) -> float:
    try:
        out = None if isinstance(value, bool) else float(value)
    except (TypeError, ValueError, OverflowError):
        out = None
    if out is None or not math.isfinite(out):
        raise ScenarioError(f"{name} must be a finite number, got {value!r}")
    return out


def _bounded(label: str, read: Callable, minimum, maximum=None) -> Kind:
    """The values ``read`` accepts, none below ``minimum`` and none above
    ``maximum``, each bound unless it is None."""
    def convert(value, name):
        out = read(value, name)
        if minimum is not None and out < minimum:
            raise ScenarioError(f"{name} must be >= {minimum}, got {out!r}")
        if maximum is not None and out > maximum:
            raise ScenarioError(f"{name} must be <= {maximum}, got {value!r}")
        return out
    if maximum is not None:
        label = f"{label} in {minimum}..{maximum}"
    elif minimum is not None:
        label = f"{label} >= {minimum}"
    return Kind(label, convert)


def integer(minimum: int | None = None, maximum: int | None = None) -> Kind:
    return _bounded("int", as_int, minimum, maximum)


def number(minimum: float | None = None) -> Kind:
    return _bounded("number", _finite, minimum)


def _boolean(value, name) -> bool:
    if not isinstance(value, bool):
        raise ScenarioError(f"{name} must be true or false, got {value!r}")
    return value


def _string(value, name) -> str:
    if not isinstance(value, str):
        raise ScenarioError(f"{name} must be a string expression, got {value!r}")
    return value


def listed(item: Kind, what: str) -> Kind:
    def convert(value, name):
        if not isinstance(value, list):
            raise ScenarioError(f"{name} must be a list of {what}, got {value!r}")
        return tuple(item.convert(v, f"an entry of {name}") for v in value)
    return Kind(f"list of {what}", convert)


def record(what: str, build: Callable, **fields) -> Kind:
    """A JSON object whose fields, each ``key=(kind, default)``, are read by
    their own kinds and passed to ``build`` by keyword."""
    def convert(value, name):
        if not isinstance(value, dict):
            raise ScenarioError(f"{name} must be an object {what}, got {value!r}")
        return build(**{key: kind.read(value, key, default, f"{name} field {key!r}")
                        for key, (kind, default) in fields.items()})
    return Kind(what, convert)


INT, NATURAL, COUNT = integer(), integer(0), integer(1)
NUMBER = number()
BOOLEAN = Kind("boolean", _boolean)
FIELD = Kind("field expression", _string)
SCALAR = Kind("scalar expression", lambda value, name: NUMBER.convert(
    evaluate_scalar(_string(value, name)), f"{name} = {value!r}"))
