"""Quadrature substrate: grids, density fields and measures."""

from .grids import Axis, DensityField, Grid, fiber_integrate, integrate, interval
from .measures import MeasureFunctional

__all__ = [
    "Axis", "DensityField", "Grid", "fiber_integrate", "integrate", "interval",
    "MeasureFunctional",
]
