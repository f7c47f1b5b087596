"""Quadrature substrate: grids, density fields, measures, model groups."""

from .grids import Axis, DensityField, Grid, circle, fiber_integrate, integrate, interval
from .groups import GroupModel
from .measures import MeasureFunctional

__all__ = [
    "Axis", "DensityField", "Grid", "circle", "fiber_integrate", "integrate",
    "interval", "GroupModel", "MeasureFunctional",
]
