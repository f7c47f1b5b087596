"""Measures as positive linear functionals on grid-sampled test functions."""

from __future__ import annotations

import numpy as np

from .grids import DensityField, Grid, integrate


class MeasureFunctional:
    """Evaluates test functions sampled on a fixed grid.

    The evaluator must be linear and positive on nonnegative inputs; neither
    property is enforced structurally.
    """

    def __init__(self, grid: Grid, evaluator, support: str = ""):
        self.grid = grid
        self._evaluator = evaluator
        self.support = support

    def __call__(self, test: DensityField | np.ndarray) -> float:
        values = test.values if isinstance(test, DensityField) else np.asarray(test)
        if values.shape != self.grid.shape:
            raise ValueError("test function lives on the wrong grid")
        return float(self._evaluator(values))

    @staticmethod
    def from_density(rho: DensityField, support: str = "") -> "MeasureFunctional":
        rho.check_nonnegative("measure density")
        return MeasureFunctional(
            rho.grid,
            lambda f: integrate(DensityField(rho.grid, f * rho.values)),
            support=support or "full grid",
        )

    def total_mass(self) -> float:
        return self(np.ones(self.grid.shape))
