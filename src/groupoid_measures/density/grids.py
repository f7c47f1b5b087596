"""Product quadrature grids and grid-sampled density fields.

A density field stores the chart coefficient of a density at every grid
node; integrating it is a weighted sum.  Bounded axes use the trapezoid
rule, periodic axes the rectangle rule (which is spectrally accurate for
smooth periodic integrands).

Summation order is fixed: every reduction eliminates the highest-numbered
axis first, one axis at a time.  Integrating out a trailing block of axes
and then the rest therefore reproduces bit for bit the arithmetic of
integrating everything at once.
"""

from __future__ import annotations

import csv
import io
import json
from dataclasses import dataclass
from functools import cached_property

import numpy as np


def _read_only(values: np.ndarray) -> np.ndarray:
    values.flags.writeable = False
    return values


@dataclass(frozen=True)
class Axis:
    n: int
    lo: float
    hi: float
    periodic: bool = False

    def __post_init__(self):
        if self.hi <= self.lo:
            raise ValueError("axis needs hi > lo")
        if self.n < (1 if self.periodic else 2):
            raise ValueError("too few nodes for the axis rule")

    @property
    def length(self) -> float:
        return self.hi - self.lo

    def nodes(self) -> np.ndarray:
        """Node coordinates; one read-only array per axis."""
        return self._nodes

    def weights(self) -> np.ndarray:
        """Quadrature weights; one read-only array per axis."""
        return self._weights

    @cached_property
    def _nodes(self) -> np.ndarray:
        if self.periodic:
            nodes = self.lo + self.length * np.arange(self.n) / self.n
        else:
            nodes = np.linspace(self.lo, self.hi, self.n)
        return _read_only(nodes)

    @cached_property
    def _weights(self) -> np.ndarray:
        if self.periodic:
            return _read_only(np.full(self.n, self.length / self.n))
        h = self.length / (self.n - 1)
        w = np.full(self.n, h)
        w[0] = w[-1] = h / 2
        return _read_only(w)

    @property
    def spacing(self) -> float:
        return self.length / (self.n if self.periodic else self.n - 1)


class Grid:
    """Product grid with per-node product-rule quadrature weights."""

    def __init__(self, axes: list[Axis]):
        if not axes:
            raise ValueError("grid needs at least one axis")
        self.axes = list(axes)
        total = 1.0
        for ax in self.axes:
            total *= ax.length
        weight_total = self._weight_total()
        if abs(weight_total - total) > 1e-12 * abs(total):
            raise AssertionError("quadrature weights do not sum to the volume")

    def _weight_total(self) -> float:
        t = np.array(1.0)
        for ax in self.axes:
            t = t * ax.weights().sum()
        return float(t)

    @property
    def ndim(self) -> int:
        return len(self.axes)

    @property
    def shape(self) -> tuple[int, ...]:
        return tuple(ax.n for ax in self.axes)

    def nodes(self, axis: int) -> np.ndarray:
        return self.axes[axis].nodes()

    def meshgrid(self) -> list[np.ndarray]:
        return list(np.meshgrid(*[ax.nodes() for ax in self.axes], indexing="ij"))

    def along(self, axis: int, profile: np.ndarray, ndim: int | None = None) -> np.ndarray:
        """A profile on the nodes of one axis, shaped to broadcast against
        ``ndim``-dimensional node arrays."""
        ndim = self.ndim if ndim is None else ndim
        shape = [1] * ndim
        shape[axis] = self.axes[axis].n
        return profile.reshape(shape)

    def axis_weight(self, axis: int, ndim: int | None = None) -> np.ndarray:
        """Axis weights broadcast against ``ndim``-dimensional node arrays."""
        return self.along(axis, self.axes[axis].weights(), ndim)

    def subgrid(self, keep: list[int]) -> "Grid":
        return Grid([self.axes[i] for i in keep])

    def to_json(self) -> str:
        return json.dumps({"axes": [
            {"n": ax.n, "lo": ax.lo, "hi": ax.hi, "periodic": ax.periodic}
            for ax in self.axes
        ]})

    @staticmethod
    def from_json(text: str) -> "Grid":
        doc = json.loads(text)
        return Grid([Axis(int(a["n"]), float(a["lo"]), float(a["hi"]),
                          bool(a.get("periodic", False))) for a in doc["axes"]])


def interval(n: int, lo: float, hi: float) -> Grid:
    return Grid([Axis(n, lo, hi)])


def circle(n: int, circumference: float = 2 * np.pi) -> Grid:
    return Grid([Axis(n, 0.0, circumference, periodic=True)])


@dataclass(frozen=True)
class DensityField:
    grid: Grid
    values: np.ndarray

    def __post_init__(self):
        if self.values.shape != self.grid.shape:
            raise ValueError(f"values shape {self.values.shape} does not match "
                             f"grid shape {self.grid.shape}")

    @staticmethod
    def from_function(grid: Grid, fn) -> "DensityField":
        return DensityField(grid, np.asarray(fn(*grid.meshgrid()), dtype=float))

    @staticmethod
    def constant(grid: Grid, value: float) -> "DensityField":
        return DensityField(grid, np.full(grid.shape, float(value)))

    def check_nonnegative(self, what: str = "density") -> None:
        if np.any(self.values < 0):
            raise ValueError(f"{what} has negative nodes")

    def __mul__(self, other):
        if isinstance(other, DensityField):
            return DensityField(self.grid, self.values * other.values)
        return DensityField(self.grid, self.values * other)

    __rmul__ = __mul__

    def __add__(self, other):
        return DensityField(self.grid, self.values + other.values)

    def __sub__(self, other):
        return DensityField(self.grid, self.values - other.values)


def _reduce_axis(grid: Grid, values: np.ndarray, axis: int) -> np.ndarray:
    return (values * grid.axis_weight(axis, values.ndim)).sum(axis=axis)


def integrate(rho: DensityField) -> float:
    """Quadrature total of a density field (fixed axis-descending order)."""
    if not np.all(np.isfinite(rho.values)):
        raise ValueError("field has non-finite values")
    acc = rho.values
    for axis in reversed(range(rho.grid.ndim)):
        acc = _reduce_axis(rho.grid, acc, axis)
    return float(acc)


def fiber_integrate(rho: DensityField, fiber_axes: list[int]) -> DensityField:
    """Integrate out the listed axes; the result lives on the base grid.

    Axes are eliminated in descending order.  When the fiber axes form a
    trailing block, composing with integrate() over the base regroups the
    arithmetic of integrate() on the total space exactly.
    """
    fiber = sorted(set(fiber_axes), reverse=True)
    for ax in fiber:
        if not 0 <= ax < rho.grid.ndim:
            raise ValueError(f"no axis {ax} in a {rho.grid.ndim}-dimensional grid")
    if len(fiber) == rho.grid.ndim:
        raise ValueError("cannot integrate out every axis; use integrate()")
    acc = rho.values
    for axis in fiber:
        acc = _reduce_axis(rho.grid, acc, axis)
    keep = [i for i in range(rho.grid.ndim) if i not in set(fiber)]
    return DensityField(rho.grid.subgrid(keep), acc)


def field_to_csv(rho: DensityField) -> str:
    """CSV serialization: one row per node, coordinates then value."""
    out = io.StringIO()
    writer = csv.writer(out)
    writer.writerow([f"axis{i}" for i in range(rho.grid.ndim)] + ["value"])
    mesh = rho.grid.meshgrid()
    flat = [m.ravel() for m in mesh] + [rho.values.ravel()]
    for row in zip(*flat):
        writer.writerow([repr(float(v)) for v in row])
    return out.getvalue()


def field_from_csv(grid: Grid, text: str) -> DensityField:
    reader = csv.reader(io.StringIO(text))
    header = next(reader)
    if header != [f"axis{i}" for i in range(grid.ndim)] + ["value"]:
        raise ValueError(f"unexpected CSV header {header}")
    rows = [[float(v) for v in row] for row in reader if row]
    if len(rows) != int(np.prod(grid.shape)):
        raise ValueError("node count does not match the grid")
    mesh = grid.meshgrid()
    values = np.empty(grid.shape)
    flat_coords = np.stack([m.ravel() for m in mesh], axis=1)
    for k, row in enumerate(rows):
        if not np.allclose(flat_coords[k], row[:-1], rtol=0, atol=1e-12):
            raise ValueError(f"row {k} coordinates do not match the grid nodes")
        values.ravel()[k] = row[-1]
    return DensityField(grid, values)
