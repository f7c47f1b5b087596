"""Symplectic specializations: pair groupoids of surfaces and leaf families.

Surfaces carry an area-form coefficient on a 2D chart grid; the sphere
chart is (azimuth, height) so the round area form has constant coefficient
and totals are quadrature exact.  A leaf family is an interval of leaves
with a prescribed area function, component count, and leaf template.
"""

from __future__ import annotations

import copy
import math
import sys

import numpy as np

from ..density.grids import Axis, Grid, integrate, positive_finite
from ..expressions import (COUNT, INT, NUMBER, REQUIRED, Descriptor, Kind, ModelKind,
                           ScenarioError, choice, compile_field, integer, listed, record)


class SymplecticPairModel:
    """Pair groupoid of a compact surface with a fixed area density."""

    def __init__(self, grid: Grid, area_coefficient: np.ndarray, name: str = "surface"):
        self.grid = grid
        self.area_density = np.asarray(area_coefficient, dtype=float)
        if not positive_finite(self.area_density):
            raise ScenarioError("area density must be positive and finite")
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
    rescaled to A(t); the transverse lattice density is |A'(t)|.  A
    degenerate lattice, one whose density vanishes (is below the smallest
    normal float, as ``Axis`` rules for spacings) on base mass > 0, is
    rejected here, so every leaf-family check sees a lattice of positive
    density.  The template and the leaf totals are integrated once per
    family; ``with_iota`` twins share them.
    """

    def __init__(self, base: Grid, area_fn, area_derivative_fn, iota: int = 1,
                 leaf: str = "sphere", leaf_nodes: int = 64):
        if base.ndim != 1:
            raise ScenarioError("leaf families have a one-dimensional base")
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
            raise ScenarioError(f"unknown leaf template {leaf!r}")
        t = base.nodes(0)
        self.areas = np.asarray(area_fn(t), dtype=float) + np.zeros(base.shape)
        self.area_slopes = np.asarray(area_derivative_fn(t), dtype=float) \
            + np.zeros(base.shape)
        if not positive_finite(self.areas):
            raise ScenarioError("leaf areas must be positive and finite")
        degenerate_mass = float(base.weights[self.lattice_density() < sys.float_info.min].sum())
        if degenerate_mass > 0:
            raise ScenarioError(
                "affine structure is degenerate: the lattice density vanishes "
                f"on base mass {degenerate_mass:.3e}")
        self.template_total = integrate(self.leaf.grid, self.leaf.area_density)
        # quadrature total of every leaf_liouville(i)
        self.leaf_totals = np.array([integrate(self.leaf.grid, self.leaf_liouville(i))
                                     for i in range(base.shape[0])])
        self.leaf_totals.flags.writeable = False

    def with_iota(self, iota: int) -> "LeafFamilyModel":
        """The same leaves with another component count."""
        twin = copy.copy(self)
        twin.iota = _component_count(iota)
        return twin

    def lattice_density(self) -> np.ndarray:
        return np.abs(self.area_slopes)

    def leaf_liouville(self, t_index: int) -> np.ndarray:
        """Liouville density of the leaf over node t on the leaf grid, total
        mass A(t)."""
        scale = self.areas[t_index] / self.template_total
        return self.leaf.area_density * scale


def _component_count(iota: int) -> int:
    # every integer up to 2**53 is a float, so iota * volume stays exact
    if not 1 <= iota <= 2 ** 53:
        raise ScenarioError("component count must be a positive integer of at most 2**53")
    return iota


_INTERVAL = record("{lo, hi, n}", Axis, lo=(NUMBER, REQUIRED), hi=(NUMBER, REQUIRED),
                   n=(COUNT, REQUIRED))
_SAMPLES = listed(NUMBER, "numbers")
_AREA = Kind("expression or list of numbers", lambda value, name:
             value if isinstance(value, str) else _SAMPLES.convert(value, name))


def _area_function(value, key: str, n: int):
    """An expression in t, or a list of samples on the n base nodes."""
    if isinstance(value, str):
        return compile_field(value, 1)
    samples = np.array(value)
    if samples.shape != (n,):
        raise ScenarioError(f"{key} needs one sample per base node ({n}), "
                            f"got shape {samples.shape}")
    return lambda t: samples


def _leaf_family(B: Axis, area, area_derivative, iota: int, leaf: str,
                 leaf_nodes: int) -> LeafFamilyModel:
    return LeafFamilyModel(Grid([B]), _area_function(area, "area", B.n),
                           _area_function(area_derivative, "area_derivative", B.n),
                           iota=iota, leaf=leaf, leaf_nodes=leaf_nodes)


# a leaf family: its document has no kind
LEAF_FAMILY = ModelKind(("leaf_family",), _leaf_family, {
    "B": (_INTERVAL, Axis(65, 1.0, 2.0)), "area": (_AREA, "4*pi*t"),
    "area_derivative": (_AREA, "4*pi + 0*t"), "iota": (INT, 1),
    "leaf": (choice("leaf template", "sphere", "torus"), "sphere"),
    "leaf_nodes": (integer(2), 64)})


def leaf_family_from_doc(doc: dict) -> LeafFamilyModel:
    """Build a leaf family from {B:{lo,hi,n}, area, area_derivative, iota, leaf,
    leaf_nodes}, read through ``LEAF_FAMILY``; any malformed or undeclared
    field is a ScenarioError.

    ``area`` and ``area_derivative`` are expressions in t or sample lists on
    the base nodes.  Defaults: B = [1, 2] with 65 nodes, area 4*pi*t with
    derivative 4*pi, iota 1, a sphere leaf on 64 azimuth nodes.
    """
    return Descriptor.read({None: LEAF_FAMILY}, doc).build()
