"""Liouville, orbit-space and affine-measure computations for the models.

Normalization convention: the lattice density of a leaf family is the
absolute area variation |A'(t)| with no angular factor, and the canonical
orbit-space measure divides it by the component count iota (disconnected
isotropy shrinks the identity-component normalization by that factor).
All identities below use the convention consistently.
"""

from __future__ import annotations

import numpy as np

from ..density.grids import integrate
from .models import LeafFamilyModel, SymplecticPairModel


def liouville_density(model: SymplecticPairModel) -> np.ndarray:
    """Nodewise absolute area coefficient; total is the symplectic area."""
    return np.abs(model.area_density)


def dh_density(model: SymplecticPairModel) -> np.ndarray:
    """Source-fiber integral of the pair groupoid's Liouville density.

    For the pair groupoid of a surface the source fiber over x is a copy
    of the surface, so the result is the Liouville density scaled by the
    total Liouville volume.
    """
    liouville = liouville_density(model)
    return integrate(model.grid, liouville) * liouville


def dh_total_mass_two_ways(model: SymplecticPairModel) -> tuple[float, float]:
    """Total DH mass, as (via the density, via the arrow-space pushforward).

    The pushforward path integrates the product Liouville density over the
    arrow space (surface times surface) by Fubini, which is the square of
    the Liouville total; the density path scales the Liouville density by
    its total first and integrates the result.
    """
    density_total = integrate(model.grid, dh_density(model))
    per_point = integrate(model.grid, liouville_density(model))
    return density_total, per_point * per_point


def affine_measure(model: LeafFamilyModel) -> np.ndarray:
    """Density of the affine measure on the base grid: the lattice density |A'|."""
    return model.lattice_density()


def canonical_base_density(model: LeafFamilyModel) -> np.ndarray:
    """Density of the measure induced on the base by the canonical data.

    Computed through the cut-off normalization: the fiber volume over a
    point of the leaf at t is iota * A(t), so the lattice density is
    divided by iota.
    """
    leaf_totals = model.leaf_totals
    fiber_volumes = model.iota * leaf_totals
    return model.lattice_density() * leaf_totals / fiber_volumes


def dh_weyl_check(model: LeafFamilyModel, f_leaf_values) -> tuple[float, float]:
    """Disintegration over leaves with the component-count correction, as
    (lhs, rhs).

    ``f_leaf_values`` maps a base node index to samples on the leaf grid.
    lhs integrates f against leafwise Liouville times the lattice density;
    rhs multiplies the leaf integrals by iota and integrates against the
    canonical base density.
    """
    n = model.base.shape[0]
    leaf_integrals = np.array([
        integrate(model.leaf.grid, np.asarray(f_leaf_values(i), dtype=float)
                  * model.leaf_liouville(i))
        for i in range(n)
    ])
    lhs = integrate(model.base, leaf_integrals * model.lattice_density())
    rhs = integrate(model.base, model.iota * leaf_integrals * canonical_base_density(model))
    return lhs, rhs


def affine_volume(model: LeafFamilyModel) -> tuple[float, float]:
    """Total canonical base mass, as (direct, reciprocal orbit-volume integral).

    The second path integrates 1 / (iota * Vol(leaf)) against the measure
    that pairs leafwise Liouville with the lattice density.
    """
    leaf_totals = model.leaf_totals
    direct = integrate(model.base, canonical_base_density(model))
    reciprocal = integrate(model.base, leaf_totals / (model.iota * leaf_totals)
                           * model.lattice_density())
    return direct, reciprocal
