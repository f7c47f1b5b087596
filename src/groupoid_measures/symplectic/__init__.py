"""Symplectic groupoid specializations: Liouville, DH and affine measures."""

from .models import (
    LeafFamilyModel,
    SymplecticPairModel,
    leaf_family_from_doc,
)
from .checks import (
    affine_measure,
    affine_volume,
    canonical_base_density,
    dh_density,
    dh_total_mass_two_ways,
    dh_weyl_check,
    liouville_density,
)

__all__ = [
    "LeafFamilyModel", "SymplecticPairModel",
    "leaf_family_from_doc",
    "affine_measure", "affine_volume", "canonical_base_density", "dh_density",
    "dh_total_mass_two_ways", "dh_weyl_check", "liouville_density",
]
