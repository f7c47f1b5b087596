"""Product quadrature grids and the one canonical integral.

A density is the array of its chart coefficients at the grid nodes, and
integrating it is a weighted sum.  Bounded axes use the trapezoid rule,
periodic axes the rectangle rule (which is spectrally accurate for smooth
periodic integrands).

``integrate`` sums in a fixed order: it eliminates the highest-numbered axis
first, one axis at a time.  Every symplectic report row is this arithmetic
(the Liouville and DH totals and the leaf totals on a leaf grid, the affine
and Weyl sums on a 1-D base), so the order stays fixed to keep their digits.
The smooth engine's pairings are instead one flat sum against
``Grid.weights``, the product-rule weight of every node.

An axis or grid that cannot be built from its values raises ScenarioError:
its values came from a scenario file or were derived from one.
"""

from __future__ import annotations

import math
import sys
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from ..expressions import ScenarioError

# The most nodes a grid may have.  A check holds up to about three float64
# arrays of a grid's size at once (28 bytes per node at the peak of the
# rotation and exactness checks; the density and the weights are stored
# only along the axes they vary on), so at 2**26 nodes (512 MiB per array)
# a grid is an input error before any array is allocated.  The largest
# bundled grid, the submersion probe's 9 x 8193, is about 900 times smaller.
MAX_GRID_NODES = 2 ** 26


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
        if not (self.hi > self.lo and math.isfinite(self.hi - self.lo)):
            raise ScenarioError(f"axis needs hi > lo and a finite length, got "
                                f"lo={self.lo!r}, hi={self.hi!r}")
        if self.n < (1 if self.periodic else 2):
            raise ScenarioError("too few nodes for the axis rule")
        # a subnormal spacing has too few digits for the weights to sum to
        # the length, so the rule cannot be built
        if self.spacing < sys.float_info.min:
            raise ScenarioError(f"axis spacing {self.spacing!r} is below the smallest "
                                f"normal float, got lo={self.lo!r}, hi={self.hi!r}")

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
            raise ScenarioError("grid needs at least one axis")
        self.axes = list(axes)
        if math.prod(self.shape) > MAX_GRID_NODES:
            raise ScenarioError(f"a grid of shape {self.shape} has more than "
                                f"{MAX_GRID_NODES} nodes")
        total = 1.0
        for ax in self.axes:
            total *= ax.length
        weight_total = self._weight_total()
        if abs(weight_total - total) > 1e-12 * abs(total):
            raise AssertionError("quadrature weights do not sum to the volume")

    @cached_property
    def weights(self) -> np.ndarray:
        """Product-rule weight of every node: one read-only view per grid,
        built on first use and stored only along the axes whose weights vary.
        An axis of equal weights enters the product at length 1, in axis
        order, so each node's weight is the float of the full product."""
        w = None
        for axis in range(self.ndim):
            aw = self.axis_weight(axis)
            if np.all(aw == aw.flat[0]):
                aw = aw[(slice(None),) * axis + (slice(0, 1),)]
            w = aw if w is None else w * aw
        return np.broadcast_to(w, self.shape)

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
        """The open grid: each axis's nodes shaped by ``along``."""
        return list(np.meshgrid(*[ax.nodes() for ax in self.axes], indexing="ij", sparse=True))

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


def stored_part(values: np.ndarray) -> np.ndarray:
    """The values a broadcast view is made of: each axis it repeats along
    (stride 0) cut to length 1.  It broadcasts back to the view."""
    return values[tuple(slice(0, 1) if stride == 0 else slice(None)
                        for stride in values.strides)]


def positive_finite(values, strict: bool = True) -> bool:
    """Every value finite and > 0 (>= 0 with ``strict`` False); NaN is neither."""
    values = np.asarray(values)
    return bool(np.all(np.isfinite(values) & ((values > 0) if strict else (values >= 0))))


def integrate(grid: Grid, values: np.ndarray) -> float:
    """Quadrature total of node values on the grid (fixed axis-descending
    order); an overflow is for the caller's numpy error state to judge."""
    if values.shape != grid.shape:
        raise ValueError(f"values shape {values.shape} does not match "
                         f"grid shape {grid.shape}")
    for axis in reversed(range(grid.ndim)):
        values = (values * grid.axis_weight(axis, values.ndim)).sum(axis=axis)
    return float(values)
