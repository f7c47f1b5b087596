"""Measures as positive linear functionals on grid-sampled test functions."""

from __future__ import annotations

import numpy as np

from .grids import DensityField, Grid, integrate


class MeasureFunctional:
    """Evaluates test functions sampled on a fixed grid.

    The evaluator must be linear and positive on nonnegative inputs; both
    properties are spot-checked by ``check_linearity``/``check_positivity``
    on sampled fields rather than enforced structurally.
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

    def check_linearity(self, rng: np.random.Generator, samples: int = 4,
                        tol: float = 1e-9) -> float:
        worst = 0.0
        for _ in range(samples):
            f = rng.standard_normal(self.grid.shape)
            g = rng.standard_normal(self.grid.shape)
            c = float(rng.uniform(-2, 2))
            lhs = self(c * f + g)
            rhs = c * self(f) + self(g)
            worst = max(worst, abs(lhs - rhs) / max(1.0, abs(rhs)))
        if worst > tol:
            raise AssertionError(f"functional is not linear (defect {worst:.3e})")
        return worst

    def check_positivity(self, rng: np.random.Generator, samples: int = 4) -> None:
        for _ in range(samples):
            f = np.abs(rng.standard_normal(self.grid.shape))
            if self(f) < -1e-12 * float(np.max(f) + 1.0):
                raise AssertionError("functional is negative on a nonnegative input")
