"""Quadrature substrate: product grids and the one canonical integral."""

from .grids import Axis, Grid, integrate

__all__ = ["Axis", "Grid", "integrate"]
