"""Two-engine library for transverse measures on groupoids.

``finite`` holds the exact rational engine (coinvariants, convolution
traces, nerve homology, restriction checks); ``density``, ``smooth`` and
``symplectic`` hold the quadrature engine for parametrized proper models
(averaging, cut-offs, disintegration formulas, orbit volumes, modular
cocycles, leafwise Stokes identities, Liouville and affine measures).
``read_scenario`` and ``run_scenario`` run a scenario document, as ``gm`` does.
"""

from . import density, finite, smooth, symplectic
from .reports import CheckRow, Report
from .scenario import read_scenario, run_scenario

__all__ = ["density", "finite", "smooth", "symplectic", "CheckRow", "Report",
           "read_scenario", "run_scenario"]
__version__ = "0.1.0"
