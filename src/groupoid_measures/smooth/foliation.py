"""Leafwise calculus on grid foliations with one-dimensional leaves.

The foliated grid is a 2D product whose leaves run along one axis.  The
leafwise derivative is the second-order stencil (central in the interior,
one-sided at leaf ends, rolls on periodic leaves), so pairing a transverse
measure with a derivative vanishes to second order in the leaf spacing,
and exactly in the interior-supported case.  A transverse measure is given
by nodewise weights or by a transverse profile, one weight per leaf, and
``FoliatedGrid.evaluate`` pairs either with an integrand.

The groupoid of a submersion has its fibers as orbits, and they are the
leaves of a foliated grid: the exactness probe inverts the leafwise
derivative on interval leaves.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from ..density.grids import Grid


class FoliatedGrid:
    """Horizontal-type foliation: leaves along ``leaf_axis`` of a 2D grid."""

    def __init__(self, grid: Grid, leaf_axis: int = 0):
        if grid.ndim != 2:
            raise ValueError("foliated grids are two-dimensional here")
        self.grid = grid
        self.leaf_axis = leaf_axis
        self.transverse_axis = 1 - leaf_axis
        self.h = grid.axes[leaf_axis].spacing

    def leafwise_derivative(self, values: np.ndarray) -> np.ndarray:
        """Second-order derivative along the leaves, in C order: a broadcast
        view is copied first, since the stencil's arrays keep its order."""
        v = np.moveaxis(np.ascontiguousarray(values, dtype=float), self.leaf_axis, 0)
        h = self.h
        if self.grid.axes[self.leaf_axis].periodic:
            out = (np.roll(v, -1, axis=0) - np.roll(v, 1, axis=0)) / (2 * h)
        else:
            out = np.empty_like(v)
            out[1:-1] = (v[2:] - v[:-2]) / (2 * h)
            out[0] = (-3 * v[0] + 4 * v[1] - v[2]) / (2 * h)
            out[-1] = (3 * v[-1] - 4 * v[-2] + v[-3]) / (2 * h)
        return np.moveaxis(out, 0, self.leaf_axis)

    def evaluate(self, weights: np.ndarray, integrand: np.ndarray) -> float:
        """Pair a transverse measure with an integrand: the weighted sum.

        ``weights`` is a transverse profile (1D, constant along each leaf)
        or nodewise weights on the grid.
        """
        weights = np.asarray(weights, dtype=float)
        if weights.ndim == 1:
            weights = self.grid.along(self.transverse_axis, weights)
        return float((weights * integrand * self.grid.weights).sum())


def stokes_defect(foliation: FoliatedGrid, weight_values: np.ndarray,
                  omega_values: np.ndarray) -> float:
    """|mu(leafwise derivative of omega)| for the measure with given weights.

    Vanishes to O(h^2) when the weights are leafwise constant (an invariant
    transverse measure) and omega vanishes at the leaf boundary; leafwise
    varying weights produce an order-one defect.
    """
    return abs(foliation.evaluate(weight_values,
                                  foliation.leafwise_derivative(omega_values)))


@dataclass
class OneForm:
    """Sampled 1-form components in the foliated chart."""

    leaf_component: np.ndarray
    transverse_component: np.ndarray


def exterior_derivative(foliation: FoliatedGrid, beta_values: np.ndarray) -> OneForm:
    """Discrete differential of a function, split into chart components."""
    transverse = FoliatedGrid(foliation.grid, foliation.transverse_axis)
    return OneForm(
        leaf_component=foliation.leafwise_derivative(beta_values),
        transverse_component=transverse.leafwise_derivative(beta_values),
    )


def ruelle_sullivan_evaluate(foliation: FoliatedGrid, weight_values: np.ndarray,
                             alpha: OneForm) -> float:
    """Pair a 1-form with the current of the transverse measure.

    The current contracts the form with the (unit) leaf direction and then
    integrates against the measure; transverse components do not
    contribute, and evaluation on discrete differentials vanishes to
    O(h^2) for invariant measures (the current is closed).
    """
    return foliation.evaluate(weight_values, alpha.leaf_component)


@dataclass
class ExactnessReport:
    antiderivative: np.ndarray
    tail_magnitude: float


class FiberObstructionError(ValueError):
    """A fiber integral is nonzero: the input is not a leafwise derivative."""


def exactness_probe(foliation: FoliatedGrid, u_values: np.ndarray, tol: float = 1e-9,
                    support_tol: float = 1e-12) -> ExactnessReport:
    """Invert the fiberwise derivative on a submersion whose fibers are the
    interval leaves of ``foliation``.

    Checks the integral obstruction on every fiber, then builds the
    cumulative-trapezoid antiderivative and verifies it is supported in
    the fiber bounding box of the input support.
    """
    axis = foliation.leaf_axis
    ax = foliation.grid.axes[axis]
    if ax.periodic:
        raise ValueError("fibers must be intervals")
    u = np.moveaxis(np.asarray(u_values, dtype=float), axis, 0)
    h = ax.spacing
    w = ax.weights()

    fiber_integrals = np.tensordot(w, u, axes=(0, 0))
    worst = float(np.max(np.abs(fiber_integrals))) if fiber_integrals.size else 0.0
    u_max = float(max(u.max(), -u.min()))  # max |u|, with no grid-sized |u|
    scale = u_max * ax.length or 1.0
    if worst > tol * scale:
        raise FiberObstructionError(f"nonzero fiber integral {worst:.3e} "
                                    f"exceeds {tol * scale:.1e}")

    # the cumulative trapezoid, written into v with no grid-sized temporary;
    # v is C-ordered on the grid, whatever the order of the input
    v = np.moveaxis(np.zeros(foliation.grid.shape), axis, 0)
    np.add(u[1:], u[:-1], out=v[1:])
    v[1:] *= h / 2
    np.cumsum(v[1:], axis=0, out=v[1:])

    # |u| > bound, from two comparisons
    bound = support_tol * (u_max or 1.0)
    support = u > bound
    support |= u < -bound
    rows = np.where(support.any(axis=tuple(range(1, u.ndim))))[0]
    if rows.size:
        lo, hi = int(rows[0]), int(rows[-1])
        outside = np.concatenate([v[:lo].ravel(), v[hi + 1:].ravel()])
        tail = float(np.max(np.abs(outside))) if outside.size else 0.0
    else:
        tail = float(np.max(np.abs(v)))
    return ExactnessReport(np.moveaxis(v, 0, axis), tail)
