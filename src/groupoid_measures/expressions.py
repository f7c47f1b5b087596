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
    """How a value is read (``convert`` raises ScenarioError); ``label`` names it.
    A kind with a ``memo`` reads a value that names a scenario memo of that
    kind (a field sample, a cut-off seed)."""
    label: str
    convert: Callable
    memo: str | None = None


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


def read_fields(value: dict, fields: dict, name: Callable[[str], str]) -> dict:
    """The value of every declared field of a JSON object, each declared as
    ``key=(kind, default)`` and named ``name(key)`` in errors: read by its
    kind, or the default when it is absent.  A key that is not declared, or a
    required one that is absent, is an input error."""
    for key in value:
        if key not in fields:
            raise ScenarioError(f"unknown {name(key)}; declared: "
                                f"{', '.join(fields) or 'none'}")
    for key, (kind, default) in fields.items():
        if key not in value and default is REQUIRED:
            raise ScenarioError(f"missing required {name(key)}")
    return {key: kind.convert(value[key], name(key)) if key in value else default
            for key, (kind, default) in fields.items()}


def as_object(value, name: str) -> dict:
    if not isinstance(value, dict):
        raise ScenarioError(f"{name} must be an object, got {value!r}")
    return value


def record(what: str, build: Callable, **fields) -> Kind:
    """A JSON object whose fields, each ``key=(kind, default)``, are read by
    their own kinds and passed to ``build`` by keyword."""
    return Kind(what, lambda value, name: build(**read_fields(
        as_object(value, name), fields, lambda key: f"{name} field {key!r}")))


def choice(what: str, *names: str) -> Kind:
    """One of ``names``; any other value is an unknown ``what``."""
    def convert(value, name):
        if value not in names:
            raise ScenarioError(f"unknown {what} {value!r}; one of "
                                f"{', '.join(map(repr, names))}")
        return value
    return Kind(" or ".join(map(repr, names)), convert)


INT, NATURAL, COUNT = integer(), integer(0), integer(1)
NUMBER = number()
BOOLEAN = Kind("boolean", _boolean)
FIELD = Kind("field expression", _string)
SCALAR = Kind("scalar expression", lambda value, name: NUMBER.convert(
    evaluate_scalar(_string(value, name)), f"{name} = {value!r}"))
OBJECT = Kind("object", as_object)


# ---------------------------------------------------------------------------
# model descriptors

@dataclass(frozen=True)
class ModelKind:
    """A kind of model descriptor: the families of checks its models serve,
    its builder, which takes the value of every field by keyword, and its
    fields, each ``key=(kind, default)``.  A finite groupoid kind also counts
    the composable pairs of the groupoid its values describe."""
    serves: tuple
    build: Callable
    fields: dict
    pairs: Callable | None = None


@dataclass(frozen=True)
class Descriptor:
    """A model descriptor read through the entry of its ``kind``: the value
    of every declared field; nothing is built until ``build`` is called."""
    kind: str | None
    entry: ModelKind
    values: dict

    @staticmethod
    def read(kinds: dict, doc) -> "Descriptor":
        """``doc`` read through the entry of its ``kind`` in ``kinds`` (a
        document without one has the kind None); an unknown kind or a field
        its kind does not declare is an input error."""
        kind = as_object(doc, "a model descriptor").get("kind")
        if not (kind is None or isinstance(kind, str)) or kind not in kinds:
            raise ScenarioError(f"unknown model kind {kind!r}; declared: "
                                f"{', '.join(map(repr, kinds))}")
        entry = kinds[kind]
        fields = {key: value for key, value in doc.items() if key != "kind"}
        return Descriptor(kind, entry, read_fields(fields, entry.fields,
                                                   lambda key: f"model field {key!r}"))

    def build(self):
        return self.entry.build(**self.values)

    @property
    def pairs(self) -> int:
        return self.entry.pairs(**self.values) if self.entry.pairs else 0
