"""Symplectic specializations: pair groupoids of surfaces and leaf families.

Surfaces carry an area-form coefficient on a 2D chart grid; the sphere
chart is (azimuth, height) so the round area form has constant coefficient
and totals are quadrature exact.  A leaf family is an interval of leaves
with a prescribed area function, component count, and leaf template.
"""

from __future__ import annotations

import copy
import json
import math

import numpy as np

from ..density.grids import Axis, DensityField, Grid, integrate
from ..expressions import ExpressionError, compile_field
from ..smooth.models import as_int


class SymplecticModelError(ValueError):
    pass


class SymplecticPairModel:
    """Pair groupoid of a compact surface with a fixed area density."""

    def __init__(self, grid: Grid, area_coefficient: np.ndarray, name: str = "surface"):
        self.grid = grid
        field = DensityField(grid, np.asarray(area_coefficient, dtype=float))
        if not np.all(np.isfinite(field.values) & (field.values > 0)):
            raise SymplecticModelError("area density must be positive and finite")
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
    The template and the leaf totals are integrated once per family;
    ``with_iota`` twins share them.
    """

    def __init__(self, base: Grid, area_fn, area_derivative_fn, iota: int = 1,
                 leaf: str = "sphere", leaf_nodes: int = 64):
        if base.ndim != 1:
            raise SymplecticModelError("leaf families have a one-dimensional base")
        self.base = base
        self.area_fn = area_fn
        self.area_derivative_fn = area_derivative_fn
        self.iota = _component_count(iota)
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
        if not np.all(np.isfinite(self.areas) & (self.areas > 0)):
            raise SymplecticModelError("leaf areas must be positive and finite")
        if not np.all(np.isfinite(self.area_slopes)):
            raise SymplecticModelError("leaf area derivatives must be finite")
        self.template_total = integrate(self.leaf.area_density)
        # quadrature total of every leaf_liouville(i)
        self.leaf_totals = np.array([integrate(self.leaf_liouville(i))
                                     for i in range(base.shape[0])])
        self.leaf_totals.flags.writeable = False

    def with_iota(self, iota: int) -> "LeafFamilyModel":
        """The same leaves with another component count."""
        twin = copy.copy(self)
        twin.iota = _component_count(iota)
        return twin

    def lattice_density(self) -> np.ndarray:
        return np.abs(self.area_slopes)

    def leaf_liouville(self, t_index: int) -> DensityField:
        """Liouville density of the leaf over node t, total mass A(t)."""
        scale = self.areas[t_index] / self.template_total
        return DensityField(self.leaf.grid, self.leaf.area_density.values * scale)

    def base_weights(self) -> np.ndarray:
        return self.base.axes[0].weights()


def _component_count(iota: int) -> int:
    if iota < 1:
        raise SymplecticModelError("component count must be a positive integer")
    return int(iota)


def _base_grid(b) -> Grid:
    if not isinstance(b, dict):
        raise SymplecticModelError(f"B must be an object {{lo, hi, n}}, got {b!r}")
    for key in ("lo", "hi", "n"):
        if key not in b:
            raise SymplecticModelError(f"B is missing {key!r}")
    n = as_int(b["n"], "B 'n'", SymplecticModelError)
    try:
        lo, hi = float(b["lo"]), float(b["hi"])
    except (TypeError, ValueError) as exc:
        raise SymplecticModelError(f"B needs numbers lo and hi: {exc}") from exc
    try:
        return Grid([Axis(n, lo, hi)])
    except ValueError as exc:
        raise SymplecticModelError(f"B: {exc}") from exc


def _area_function(doc: dict, key: str, default: str, n: int):
    """An expression in t, or a list of samples on the n base nodes."""
    value = doc.get(key, default)
    if isinstance(value, str):
        try:
            return compile_field(value, 1)
        except ExpressionError as exc:
            raise SymplecticModelError(str(exc)) from exc
    try:
        samples = np.asarray(value, dtype=float)
    except (TypeError, ValueError) as exc:
        raise SymplecticModelError(f"{key} must be an expression in t or a list "
                                   f"of numbers, got {value!r}") from exc
    if samples.shape != (n,):
        raise SymplecticModelError(f"{key} needs one sample per base node ({n}), "
                                   f"got shape {samples.shape}")
    return lambda t: samples


def leaf_family_from_doc(doc: dict) -> LeafFamilyModel:
    """Build a leaf family from {B:{lo,hi,n}, area, area_derivative, iota, leaf,
    leaf_nodes}; any malformed field is a SymplecticModelError.

    ``area`` and ``area_derivative`` are expressions in t or sample lists on
    the base nodes.  Defaults: B = [1, 2] with 65 nodes, area 4*pi*t with
    derivative 4*pi, iota 1, a sphere leaf on 64 azimuth nodes.
    """
    if not isinstance(doc, dict):
        raise SymplecticModelError(f"a leaf family is a JSON object, got {doc!r}")
    base = _base_grid(doc.get("B", {"lo": 1.0, "hi": 2.0, "n": 65}))
    n = base.shape[0]
    leaf_nodes = as_int(doc.get("leaf_nodes", 64), "leaf_nodes", SymplecticModelError)
    if leaf_nodes < 2:
        raise SymplecticModelError(f"leaf_nodes must be at least 2, got {leaf_nodes}")
    return LeafFamilyModel(base, _area_function(doc, "area", "4*pi*t", n),
                           _area_function(doc, "area_derivative", "4*pi + 0*t", n),
                           iota=as_int(doc.get("iota", 1), "iota", SymplecticModelError),
                           leaf=doc.get("leaf", "sphere"), leaf_nodes=leaf_nodes)


def leaf_family_from_json(text: str) -> LeafFamilyModel:
    """Build a leaf family from its JSON text (see ``leaf_family_from_doc``)."""
    return leaf_family_from_doc(json.loads(text))
