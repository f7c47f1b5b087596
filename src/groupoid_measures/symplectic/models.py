"""Symplectic specializations: pair groupoids of surfaces and leaf families.

Surfaces carry an area-form coefficient on a 2D chart grid; the sphere
chart is (azimuth, height) so the round area form has constant coefficient
and totals are quadrature exact.  A leaf family is an interval of leaves
with a prescribed area function, component count, and leaf template.
"""

from __future__ import annotations

import json
import math

import numpy as np

from ..density.grids import Axis, DensityField, Grid, integrate
from ..expressions import ExpressionError, compile_field


class SymplecticModelError(ValueError):
    pass


class SymplecticPairModel:
    """Pair groupoid of a compact surface with a fixed area density."""

    def __init__(self, grid: Grid, area_coefficient: np.ndarray, name: str = "surface"):
        self.grid = grid
        field = DensityField(grid, np.asarray(area_coefficient, dtype=float))
        if np.any(field.values <= 0):
            raise SymplecticModelError("area density must be positive")
        self.area_density = field
        self.name = name

    @staticmethod
    def sphere(n_phi: int = 128, n_u: int = 65, area: float = 4 * math.pi
               ) -> "SymplecticPairModel":
        """Round sphere of the given total area in (azimuth, height) chart."""
        grid = Grid([Axis(n_phi, 0.0, 2 * math.pi, periodic=True),
                     Axis(n_u, -1.0, 1.0)])
        coeff = area / (4 * math.pi)
        return SymplecticPairModel(grid, np.full(grid.shape, coeff), name="sphere")

    @staticmethod
    def torus_cell(n: int = 64) -> "SymplecticPairModel":
        grid = Grid([Axis(n, 0.0, 1.0), Axis(n, 0.0, 1.0)])
        return SymplecticPairModel(grid, np.ones(grid.shape), name="torus_cell")


class LeafFamilyModel:
    """Interval of symplectic leaves with areas A(t) and component count iota.

    The leaf template only enters through its Liouville totals, which are
    rescaled to A(t); the transverse lattice density defaults to |A'(t)|.
    """

    def __init__(self, base: Grid, area_fn, area_derivative_fn, iota: int = 1,
                 leaf: str = "sphere", leaf_nodes: int = 64):
        if base.ndim != 1:
            raise SymplecticModelError("leaf families have a one-dimensional base")
        if iota < 1:
            raise SymplecticModelError("component count must be a positive integer")
        self.base = base
        self.area_fn = area_fn
        self.area_derivative_fn = area_derivative_fn
        self.iota = int(iota)
        self.leaf_kind = leaf
        if leaf == "sphere":
            self.leaf = SymplecticPairModel.sphere(n_phi=leaf_nodes,
                                                   n_u=leaf_nodes // 2 + 1)
        elif leaf == "torus":
            self.leaf = SymplecticPairModel.torus_cell(n=leaf_nodes)
        else:
            raise SymplecticModelError(f"unknown leaf template {leaf!r}")
        t = base.nodes(0)
        self.areas = np.asarray(area_fn(t), dtype=float) + np.zeros(base.shape)
        self.area_slopes = np.asarray(area_derivative_fn(t), dtype=float) \
            + np.zeros(base.shape)
        if np.any(self.areas <= 0):
            raise SymplecticModelError("leaf areas must be positive")

    def lattice_density(self) -> np.ndarray:
        return np.abs(self.area_slopes)

    def leaf_liouville(self, t_index: int) -> DensityField:
        """Liouville density of the leaf over node t, total mass A(t)."""
        template_total = integrate(self.leaf.area_density)
        scale = self.areas[t_index] / template_total
        return DensityField(self.leaf.grid, self.leaf.area_density.values * scale)

    def base_weights(self) -> np.ndarray:
        return self.base.axes[0].weights()


def leaf_family_from_json(text: str) -> LeafFamilyModel:
    """Build a leaf family from {B:{lo,hi,n}, area, area_derivative, iota, leaf}."""
    doc = json.loads(text)
    b = doc["B"]
    base = Grid([Axis(int(b["n"]), float(b["lo"]), float(b["hi"]))])
    if isinstance(doc["area"], str):
        try:
            area_fn = compile_field(doc["area"], 1)
            slope_fn = compile_field(doc["area_derivative"], 1)
        except ExpressionError as exc:
            raise SymplecticModelError(str(exc)) from exc
    else:
        samples = np.asarray(doc["area"], dtype=float)
        slopes = np.asarray(doc["area_derivative"], dtype=float)
        area_fn = lambda t: samples
        slope_fn = lambda t: slopes
    return LeafFamilyModel(base, area_fn, slope_fn,
                           iota=int(doc.get("iota", 1)),
                           leaf=doc.get("leaf", "sphere"),
                           leaf_nodes=int(doc.get("leaf_nodes", 64)))
