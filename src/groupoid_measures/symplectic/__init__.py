"""Symplectic groupoid specializations: Liouville, DH and affine measures."""

from .models import (
    LeafFamilyModel,
    SymplecticModelError,
    SymplecticPairModel,
    leaf_family_from_doc,
    leaf_family_from_json,
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
    "LeafFamilyModel", "SymplecticModelError", "SymplecticPairModel",
    "leaf_family_from_doc", "leaf_family_from_json",
    "affine_measure", "affine_volume", "canonical_base_density", "dh_density",
    "dh_total_mass_two_ways", "dh_weyl_check", "liouville_density",
]
