"""Transverse-measure operations on action groupoid models.

All operations work in the weight-trivialized picture: an arrow function
u(g, x) is integrated over source fibers against the fiber measure whose
mass at the arrow (g, x) is haar(g) * rho(a(g, x)), and a transverse
density (rho, tau) pairs the result with tau on the base.  Target-fiber
integration is source-fiber integration after composing with inversion.

Arrow functions are sums of terms a(g) b(g^e x), e in {0, 1}, so a fiber
integral is one model ``pull_sum`` per term: an FFT correlation along the
axis (one reduction when the weights are equal) on cyclic models, one
gather per group element on finite models.  Random test functions have
separable fields (products of per-axis profiles, evaluated on the axis
nodes only), and the invariance and inversion defects share one s- and one
t-integral per test function (``invariance_defects``).
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .models import ActionGroupoidModel, ModelError, TransverseDensityData

QUADRATURE_TOL = 1e-6
ANALYTIC_TOL = 1e-9
# size of the default test set of the invariance and inversion defects
DEFAULT_TEST_COUNT = 8


class SaturationError(ValueError):
    """Some source fiber carries no mass: the seed misses an orbit."""


class ArrowFunction:
    """Test function on the arrow space: terms (a, b, e) summing a[j] b(g_j^e x).

    b is read at the source x (e = 0) or the target a(g_j, x) (e = 1).  An
    opaque ``slice_fn`` (j -> x -> u(g_j, x)) becomes one term per group
    node with a unit coefficient vector.
    """

    def __init__(self, model: ActionGroupoidModel, slice_fn=None, terms=None):
        self.model = model
        if terms is None:
            terms = [(a, np.asarray(slice_fn(j), dtype=float), 0)
                     for j, a in enumerate(np.eye(model.group_size))]
        self.terms = terms

    def slice(self, j: int) -> np.ndarray:
        """The array x -> u(g_j, x) on the model grid."""
        acc = np.zeros(self.model.grid.shape)
        for a, b, e in self.terms:
            acc += a[j] * (self.model.pull(j, b) if e else b)
        return acc

    def inverted(self) -> "ArrowFunction":
        """The composition with groupoid inversion: (g, x) -> u(g^-1, a(g, x))."""
        inv = [self.model.inv(j) for j in range(self.model.group_size)]
        return ArrowFunction(self.model,
                             terms=[(a[inv], b, 1 - e) for a, b, e in self.terms])

    @staticmethod
    def separable(model, coefficients: np.ndarray, fields) -> "ArrowFunction":
        """Sum of products a_k(g) b_k(x) given per-slice coefficients."""
        coefficients = np.asarray(coefficients, dtype=float)
        return ArrowFunction(model, terms=[
            (a, np.asarray(b, dtype=float), 0) for a, b in zip(coefficients, fields)])

    @staticmethod
    def from_base_function(model, values: np.ndarray) -> "ArrowFunction":
        """Pullback along the source: (g, x) -> f(x)."""
        return ArrowFunction.separable(model, np.ones((1, model.group_size)), [values])

    @staticmethod
    def from_target_function(model, values: np.ndarray) -> "ArrowFunction":
        """Pullback along the target: (g, x) -> f(a(g, x))."""
        return ArrowFunction(model, terms=[
            (np.ones(model.group_size), np.asarray(values, dtype=float), 1)])

    @staticmethod
    def random(model, rng: np.random.Generator, rank: int = 3) -> "ArrowFunction":
        """Seeded random smooth-ish test function (trigonometric profiles).

        Each field is a product of 1-D per-axis profiles, so cosines are
        evaluated on the axis nodes only; each axis adds its dimension, so
        the product is a full grid array.
        """
        coeffs = rng.standard_normal((rank, model.group_size))
        fields = []
        for _ in range(rank):
            acc = 1.0
            for axis, ax in enumerate(model.grid.axes):
                scaled = 2 * np.pi * (ax.nodes() - ax.lo) / ax.length
                acc = acc * model.grid.along(axis, 1.0 + 0.5 * np.cos(
                    scaled * int(rng.integers(1, 3)) + float(rng.uniform(0, 2 * np.pi))))
            fields.append(acc)
        return ArrowFunction.separable(model, coeffs, fields)


def s_fiber_integrate(model, rho_values: np.ndarray, u: ArrowFunction) -> np.ndarray:
    """Source-fiber integral: sum of haar(g) u(g, x) rho(a(g, x)) over the group."""
    haar = model.haar_masses()
    acc = np.zeros(model.grid.shape)
    for a, b, e in u.terms:
        acc += (model.pull_sum(haar * a, b * rho_values) if e
                else b * model.pull_sum(haar * a, rho_values))
    return acc


def t_fiber_integrate(model, rho_values: np.ndarray, u: ArrowFunction) -> np.ndarray:
    return s_fiber_integrate(model, rho_values, u.inverted())


def fiber_volumes(model, rho_values: np.ndarray) -> np.ndarray:
    """Mass of each source fiber (equals the induced orbit volume)."""
    return s_fiber_integrate(model, rho_values,
                             ArrowFunction.from_base_function(
                                 model, np.ones(model.grid.shape)))


def pair_with_base_density(model, tau_values: np.ndarray, f: np.ndarray) -> float:
    return model.integrate(f * tau_values)


def default_test_set(model, rng: np.random.Generator,
                     count: int = DEFAULT_TEST_COUNT) -> list[ArrowFunction]:
    """Random arrow functions plus a deliberate angular-harmonic probe.

    The harmonic probe is the classical witness that separates invariant
    from non-invariant base densities, so defect checks do not rely on
    random functions happening to overlap it.
    """
    tests = [ArrowFunction.random(model, rng) for _ in range(count - 1)]
    probe = 1.0
    for axis, ax in enumerate(model.grid.axes):
        coord = ax.nodes()
        if ax.periodic:
            profile = np.cos(coord)
        else:
            mid, width = (ax.lo + ax.hi) / 2, ax.length
            profile = np.exp(-8.0 * ((coord - mid) / width) ** 2)
        probe = probe * model.grid.along(axis, profile)
    tests.append(ArrowFunction.from_base_function(model, probe))
    return tests


def invariance_defects(model, sigma: TransverseDensityData,
                       test_set: list[ArrowFunction]) -> tuple[float, float]:
    """Both invariance defects from one s- and one t-integral per test function.

    The first is the largest |mu_sigma(s-integral - t-integral)|; the second
    the largest |mu_sigma(s-integral) - mu_sigma(t-integral)|, the violation
    of arrow-space measure symmetry under inversion (the t-integral of u is
    the s-integral of u composed with inversion).
    """
    invariance = inversion = 0.0
    for u in test_set:
        s_part = s_fiber_integrate(model, sigma.rho_values, u)
        t_part = t_fiber_integrate(model, sigma.rho_values, u)
        invariance = max(invariance, abs(pair_with_base_density(
            model, sigma.tau_values, s_part - t_part)))
        inversion = max(inversion, abs(
            pair_with_base_density(model, sigma.tau_values, s_part)
            - pair_with_base_density(model, sigma.tau_values, t_part)))
    return invariance, inversion


def invariance_defect(model, sigma: TransverseDensityData,
                      test_set: list[ArrowFunction]) -> float:
    """Largest violation of mu_sigma(s-integral) = mu_sigma(t-integral)."""
    return invariance_defects(model, sigma, test_set)[0]


def inversion_invariance_check(model, sigma: TransverseDensityData,
                               test_set: list[ArrowFunction]) -> float:
    """Largest violation of arrow-space measure symmetry under inversion.

    The arrow-space measure integrates u over source fibers and then the
    base against tau; sigma is invariant exactly when this measure is
    inversion symmetric.
    """
    return invariance_defects(model, sigma, test_set)[1]


@dataclass
class AveragingResult:
    values: np.ndarray          # orbit-constant function on the model grid
    base_values: np.ndarray     # representative values on the orbit space
    base_descriptor: object
    constancy_defect: float


def averaging(model, rho_values: np.ndarray, section_values: np.ndarray,
              tol: float = QUADRATURE_TOL) -> AveragingResult:
    """Fiber mass of the section h * rho, as a function on the orbit space.

    Raises ModelError when the result fails to be constant on orbits
    (which signals a broken model, not bad data).
    """
    if not model.proper:
        raise ModelError("averaging needs a proper model")
    av = s_fiber_integrate(model, rho_values,
                           ArrowFunction.from_target_function(model, section_values))
    # constancy is judged against the size of the integrand, not of the
    # average itself, so that averages that are legitimately zero pass
    scale = float(np.max(np.abs(section_values * rho_values))) or 1.0
    defect = model.orbit_spread(av) / scale
    if defect > tol:
        raise ModelError(f"averaged section is not orbit constant ({defect:.3e})")
    base_values, base = model.project_to_base(av)
    return AveragingResult(av, base_values, base, defect)


def cutoff_construct(model, rho_values: np.ndarray, phi_values: np.ndarray,
                     threshold: float = 1e-12) -> np.ndarray:
    """Cut-off function: normalize a nonnegative seed by its fiber averages.

    The construction divides phi by the source-fiber average of phi, so the
    normalization identity (fiber integral of c over targets equals one)
    holds nodewise by the right invariance of the fiber measures.
    """
    if np.any(phi_values < 0):
        raise ValueError("cut-off seed must be nonnegative")
    fiber_avg = s_fiber_integrate(
        model, rho_values, ArrowFunction.from_target_function(model, phi_values))
    if float(np.min(fiber_avg)) <= threshold:
        raise SaturationError(
            "saturation failure: the seed support misses an orbit "
            f"(minimum fiber mass {float(np.min(fiber_avg)):.3e})")
    return phi_values / fiber_avg


def cutoff_normalization_defect(model, rho_values: np.ndarray,
                                cutoff: np.ndarray) -> float:
    """Nodewise deviation of the cut-off normalization from one."""
    norm = s_fiber_integrate(model, rho_values,
                             ArrowFunction.from_target_function(model, cutoff))
    return float(np.max(np.abs(norm - 1.0)))


@dataclass
class TwoSidedCheck:
    lhs: float
    rhs: float

    @property
    def abs_err(self) -> float:
        return abs(self.lhs - self.rhs)

    @property
    def rel_err(self) -> float:
        scale = max(abs(self.lhs), abs(self.rhs))
        return self.abs_err / scale if scale else 0.0


def _constant_cutoff(model, sigma: TransverseDensityData) -> np.ndarray:
    return cutoff_construct(model, sigma.rho_values, np.ones(model.grid.shape))


def weyl_check(model, sigma: TransverseDensityData, f_values: np.ndarray,
               *, cutoff: np.ndarray | None = None) -> TwoSidedCheck:
    """Disintegration of the base measure into orbit integrals.

    lhs integrates f against tau on the base; rhs integrates the orbit
    integrals of f (against the induced orbit densities) with the measure
    that the transverse density induces on the orbit space, realized by a
    cut-off function of sigma (default: from the constant seed).  The rhs
    does not depend on the seed of the cut-off.
    """
    if cutoff is None:
        cutoff = _constant_cutoff(model, sigma)
    lhs = pair_with_base_density(model, sigma.tau_values, f_values)
    orbit_integrals = s_fiber_integrate(
        model, sigma.rho_values, ArrowFunction.from_target_function(model, f_values))
    rhs = model.integrate(cutoff * orbit_integrals * sigma.tau_values)
    return TwoSidedCheck(lhs, rhs)


def weinstein_volume(model, sigma: TransverseDensityData,
                     *, cutoff: np.ndarray | None = None,
                     volume_threshold: float = 1e-12) -> TwoSidedCheck:
    """Orbit-space volume two ways: cut-off measure of 1 vs reciprocal orbit volumes.

    ``cutoff`` is a cut-off function of sigma (default: from the constant seed).
    """
    volumes = fiber_volumes(model, sigma.rho_values)
    if float(np.min(volumes)) <= volume_threshold:
        raise ModelError("an orbit volume is below threshold; model is not compact")
    if cutoff is None:
        cutoff = _constant_cutoff(model, sigma)
    direct = model.integrate(cutoff * sigma.tau_values)
    reciprocal = model.integrate(sigma.tau_values / volumes)
    return TwoSidedCheck(direct, reciprocal)


@dataclass
class DiscreteMeasure:
    """Masses attached to flat grid node indices."""

    grid_shape: tuple
    masses: dict[int, float]

    def total(self) -> float:
        return float(sum(self.masses.values()))

    def distance(self, other: "DiscreteMeasure") -> float:
        keys = set(self.masses) | set(other.masses)
        return max(abs(self.masses.get(k, 0.0) - other.masses.get(k, 0.0))
                   for k in keys)


def orbit_density(model, rho_values: np.ndarray, node: tuple) -> DiscreteMeasure:
    """Target pushforward of the source-fiber measure at a grid node.

    Group nodes landing on the same grid node accumulate, so fixed points
    receive atoms; for a free circle action on a circle of nodes this is
    the normalized transported Haar mass.
    """
    if not model.proper:
        raise ModelError("orbit densities need a proper model")
    haar = model.haar_masses()
    flat = np.ravel_multi_index(node, model.grid.shape)
    masses: dict[int, float] = {}
    rho_flat = rho_values.ravel()
    for j in range(model.group_size):
        target = model.node_image(j, flat)
        masses[target] = masses.get(target, 0.0) + float(haar[j]) * float(rho_flat[target])
    return DiscreteMeasure(model.grid.shape, masses)


def modular_cocycle(model, sigma: TransverseDensityData, j: int, point) -> float:
    """Log failure of sigma to be invariant along the arrow (g_j, point).

    Computed from the transport conventions in the models module: the base
    density contributes log(tau(y) |J| / tau(x)), the algebroid weight the
    negative of log(rho(y) adj / rho(x)).
    """
    x = tuple(np.asarray(c, dtype=float) for c in point)
    y = model.act_points(j, x)
    tau_x = float(sigma.tau_fn(*x))
    tau_y = float(sigma.tau_fn(*y))
    rho_x = float(sigma.rho_fn(*x))
    rho_y = float(sigma.rho_fn(*y))
    if tau_x <= 0 or tau_y <= 0 or rho_x <= 0 or rho_y <= 0:
        raise ValueError("sigma must be strictly positive at both endpoints")
    jac = abs(float(model.jacobian_points(j, x)))
    adj = abs(float(model.adjoint_factor(j)))
    return (np.log(tau_y) + np.log(jac) - np.log(tau_x)) \
        - (np.log(rho_y) + np.log(adj) - np.log(rho_x))


@dataclass
class ModularCocycleData:
    """A transverse density together with its per-arrow cocycle evaluator."""

    sigma: TransverseDensityData

    def __call__(self, j: int, point) -> float:
        return modular_cocycle(self.sigma.model, self.sigma, j, point)

    def additivity_defect(self, rng: np.random.Generator,
                          samples: int = 100) -> float:
        return cocycle_additivity_defect(self.sigma.model, self.sigma, rng,
                                         samples=samples)


def cocycle_additivity_defect(model, sigma: TransverseDensityData,
                              rng: np.random.Generator, samples: int = 100) -> float:
    """Additivity of the cocycle on seeded random composable pairs.

    Pairs are drawn uniformly over group x group x grid nodes, redrawing
    when the model's partial composition is undefined.
    """
    mesh = model.grid.meshgrid()
    flat = [m.ravel() for m in mesh]
    worst = 0.0
    drawn = 0
    while drawn < samples:
        j = int(rng.integers(model.group_size))
        k = int(rng.integers(model.group_size))
        jk = model.mul(j, k)
        if jk is None:
            continue
        drawn += 1
        p = int(rng.integers(len(flat[0])))
        x = tuple(c[p] for c in flat)
        c_k = modular_cocycle(model, sigma, k, x)
        c_j = modular_cocycle(model, sigma, j, model.act_points(k, x))
        c_jk = modular_cocycle(model, sigma, jk, x)
        worst = max(worst, abs(c_j + c_k - c_jk))
    return worst
