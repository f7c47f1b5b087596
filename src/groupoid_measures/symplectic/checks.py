"""Liouville, orbit-space and affine-measure computations for the models.

Normalization convention: the lattice density of a leaf family is the
absolute area variation |A'(t)| with no angular factor, and the canonical
orbit-space measure divides it by the component count iota (disconnected
isotropy shrinks the identity-component normalization by that factor).
All identities below use the convention consistently.
"""

from __future__ import annotations

import numpy as np

from ..density.grids import DensityField, integrate
from ..density.measures import MeasureFunctional
from ..smooth.transverse import TwoSidedCheck
from .models import LeafFamilyModel, SymplecticModelError, SymplecticPairModel


def liouville_density(model: SymplecticPairModel) -> DensityField:
    """Nodewise absolute area coefficient; total is the symplectic area."""
    return DensityField(model.grid, np.abs(model.area_density.values))


def dh_density(model: SymplecticPairModel) -> DensityField:
    """Source-fiber integral of the pair groupoid's Liouville density.

    For the pair groupoid of a surface the source fiber over x is a copy
    of the surface, so the result is the Liouville density scaled by the
    total Liouville volume.
    """
    liouville = liouville_density(model)
    return DensityField(model.grid, integrate(liouville) * liouville.values)


def dh_total_mass_two_ways(model: SymplecticPairModel) -> TwoSidedCheck:
    """Total DH mass via the density field vs the arrow-space pushforward.

    The pushforward path integrates the product Liouville density over the
    arrow space (surface times surface) by Fubini, which is the square of
    the Liouville total; the field path scales the Liouville field by its
    total first and integrates the result.
    """
    field_total = integrate(dh_density(model))
    per_point = integrate(liouville_density(model))
    return TwoSidedCheck(field_total, per_point * per_point)


def affine_measure(model: LeafFamilyModel, lattice_density=None) -> MeasureFunctional:
    """Measure on the leaf interval with the lattice density |A'| (or given).

    Degenerate lattices (density vanishing on a positive-measure set) are
    rejected.
    """
    ell = model.lattice_density() if lattice_density is None \
        else np.asarray(lattice_density, dtype=float)
    weights = model.base_weights()
    degenerate_mass = float(weights[ell <= 0].sum())
    if degenerate_mass > 0:
        raise SymplecticModelError(
            "affine structure is degenerate: the lattice density vanishes "
            f"on base mass {degenerate_mass:.3e}")
    rho = DensityField(model.base, ell)
    return MeasureFunctional.from_density(rho, support="leaf interval")


def canonical_base_density(model: LeafFamilyModel) -> np.ndarray:
    """Density of the measure induced on the base by the canonical data.

    Computed through the cut-off normalization: the fiber volume over a
    point of the leaf at t is iota * A(t), so the lattice density is
    divided by iota.
    """
    leaf_totals = model.leaf_totals
    fiber_volumes = model.iota * leaf_totals
    return model.lattice_density() * leaf_totals / fiber_volumes


def base_measure_of_leaf_function(model: LeafFamilyModel, values: np.ndarray,
                                  density: np.ndarray) -> float:
    return float((values * density * model.base_weights()).sum())


def dh_weyl_check(model: LeafFamilyModel, f_leaf_values) -> TwoSidedCheck:
    """Disintegration over leaves with the component-count correction.

    ``f_leaf_values`` maps a base node index to samples on the leaf grid.
    lhs integrates f against leafwise Liouville times the lattice density;
    rhs multiplies the leaf integrals by iota and integrates against the
    canonical base density.
    """
    n = model.base.shape[0]
    leaf_integrals = np.array([
        integrate(DensityField(model.leaf.grid,
                               np.asarray(f_leaf_values(i), dtype=float)
                               * model.leaf_liouville(i).values))
        for i in range(n)
    ])
    lhs = base_measure_of_leaf_function(model, leaf_integrals,
                                        model.lattice_density())
    rhs = base_measure_of_leaf_function(model, model.iota * leaf_integrals,
                                        canonical_base_density(model))
    return TwoSidedCheck(lhs, rhs)


def affine_volume(model: LeafFamilyModel) -> TwoSidedCheck:
    """Total canonical base mass vs the reciprocal orbit-volume integral.

    The second path integrates 1 / (iota * Vol(leaf)) against the measure
    that pairs leafwise Liouville with the lattice density.
    """
    n = model.base.shape[0]
    leaf_totals = model.leaf_totals
    direct = base_measure_of_leaf_function(model, np.ones(n),
                                           canonical_base_density(model))
    reciprocal = float((leaf_totals / (model.iota * leaf_totals)
                        * model.lattice_density() * model.base_weights()).sum())
    return TwoSidedCheck(direct, reciprocal)
