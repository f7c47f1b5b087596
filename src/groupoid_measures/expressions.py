"""Tiny safe evaluator for scalar field expressions in scenario files.

Expressions see numpy math names plus chart coordinates: ``c0, c1, ...``
with the aliases r/t/x for the first axis and phi/y for the second.
"""

from __future__ import annotations

import math

import numpy as np

_NAMES = {
    "pi": math.pi, "e": math.e,
    "sin": np.sin, "cos": np.cos, "tan": np.tan, "exp": np.exp,
    "sqrt": np.sqrt, "log": np.log, "abs": np.abs,
    "minimum": np.minimum, "maximum": np.maximum, "where": np.where,
}

_ALIASES = [("c0", "r", "t", "x"), ("c1", "phi", "y"), ("c2", "z")]


class ExpressionError(ValueError):
    pass


def compile_field(expr: str, ndim: int):
    """Compile an expression to a function of ndim coordinate arrays."""
    if not isinstance(expr, str):
        raise ExpressionError(f"an expression must be a string, got {expr!r}")
    try:
        code = compile(expr, "<field-expression>", "eval")
    except SyntaxError as exc:
        raise ExpressionError(f"bad expression {expr!r}: {exc}") from exc
    allowed = set(_NAMES)
    for axis in range(ndim):
        allowed.update(_ALIASES[axis] if axis < len(_ALIASES) else (f"c{axis}",))
    for name in code.co_names:
        if name not in allowed:
            raise ExpressionError(f"name {name!r} not allowed in {expr!r}")

    def fn(*coords):
        scope = dict(_NAMES)
        for axis, coord in enumerate(coords):
            names = _ALIASES[axis] if axis < len(_ALIASES) else (f"c{axis}",)
            for nm in names:
                scope[nm] = coord
        result = eval(code, {"__builtins__": {}}, scope)
        return result + np.zeros_like(np.asarray(coords[0], dtype=float))

    return fn


def evaluate_scalar(expr: str) -> float:
    """Evaluate a coordinate-free constant expression."""
    return float(compile_field(expr, 0)(np.array(0.0)))
