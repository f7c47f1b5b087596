"""Transverse-measure operations on action groupoid models.

All operations work in the weight-trivialized picture: an arrow function
u(g, x) is integrated over source fibers against the fiber measure whose
mass at the arrow (g, x) is haar(g) * rho(a(g, x)), and a transverse
density (rho, tau) pairs the result with tau on the base.  Target-fiber
integration is source-fiber integration after composing with inversion.

Arrow functions are sums of terms a(g) b(g^e x), e in {0, 1}, so a fiber
integral is one model ``pull_sum`` per term, the terms added by
broadcasting: one gather per group element on finite models; on cyclic
models an FFT along the axis, or for equal weights one sum along it, kept
at length 1 there.  So fiber volumes, cut-off normalizations, orbit
integrals and averages on a cyclic model stay on the orbit space.

Random test functions keep their fields factored (``SeparableField``,
per-axis profiles on the axis nodes).  Two checks use that, when rho is
constant along the cyclic axis (decided once per read-only rho) and every
term is factored: ``invariance_defects`` pairs u and its inversion with
tau in row space, and ``shriek_average`` averages s_!(u) - t_!(u) there.
Each factored term integrates to a row along the axis (the field's profile
there times the total weight, or correlated for a target term) times a
column, the field's profile of the other axes (``_factored_parts``), so
no grid-sized array is built.  Every other test function, and every fiber
integral, goes through ``s_fiber_integrate``.

Hot loops keep at most one grid-sized temporary alive per step (a base
pairing is the one expression ``(f * tau * weights).sum()``; differences
are formed in place; a slice scales each term in the array it made):
whenever two or more 512 KB arrays of the 256 x 256 rotation model are
freed together, the allocator returns the heap top to the kernel and the
next step faults the same pages in again.  A ``gm run`` of the 14 bundled
scenarios in a fresh process takes about 2 400 minor page faults from its
first check to its report, and 3 330 while the scenario context kept every
memo until the scenario ended (5 runs each, 2 cores, Python 3.11, numpy 2.4).
"""

from __future__ import annotations

import random
from dataclasses import dataclass

import numpy as np

from ..density.grids import positive_finite
from ..expressions import ScenarioError
from .models import ActionGroupoidModel, CyclicAxisModel, ModelError, TransverseDensityData

# size of the default test set of the invariance and inversion defects
DEFAULT_TEST_COUNT = 8


class SaturationError(ScenarioError):
    """Some source fiber carries no mass: the seed misses an orbit."""


class SeparableField:
    """A grid field kept as the product of one profile per axis.

    ``values`` multiplies the profiles out, in axis order, on each read, so
    no grid array outlives its use; ``split(axis)`` gives the profile along
    one axis and the product of the others.  Both broadcast against the grid.
    """

    def __init__(self, grid, profiles):
        self.profiles = [grid.along(axis, np.asarray(p, dtype=float))
                         for axis, p in enumerate(profiles)]

    @property
    def values(self) -> np.ndarray:
        acc = 1.0
        for p in self.profiles:
            acc = acc * p
        return acc

    def split(self, axis: int):
        rest = 1.0
        for i, p in enumerate(self.profiles):
            if i != axis:
                rest = rest * p
        return self.profiles[axis], rest


def field_values(b) -> np.ndarray:
    """The grid array of a term field (an array or a ``SeparableField``)."""
    return b.values if isinstance(b, SeparableField) else b


class ArrowFunction:
    """Test function on the arrow space: terms (a, b, e) summing a[j] b(g_j^e x).

    b is read at the source x (e = 0) or the target a(g_j, x) (e = 1); it is
    a grid array or a ``SeparableField``.
    """

    def __init__(self, model: ActionGroupoidModel, terms):
        self.model = model
        self.terms = terms

    def slice(self, j: int) -> np.ndarray:
        """The array x -> u(g_j, x) on the model grid.

        Each term is one grid array: a pull or the product of a
        ``SeparableField``, which the slice made, is scaled in place, and
        the terms are added into the first.  The final ``+= 0.0`` turns a
        -0.0 into 0.0, as a sum that starts from 0.0 would.
        """
        shape, acc = self.model.grid.shape, None
        for a, b, e in self.terms:
            values = field_values(b)
            if e:
                values = self.model.pull(j, values)
            if e or isinstance(b, SeparableField):
                values *= a[j]
            else:
                values = a[j] * values
            if acc is None:
                acc = values if values.shape == shape else values + np.zeros(shape)
            else:
                acc += values
            del values  # the next term's array takes its place, not one beside it
        if acc is None:
            return np.zeros(shape)
        acc += 0.0
        return acc

    def inverted(self) -> "ArrowFunction":
        """The composition with groupoid inversion: (g, x) -> u(g^-1, a(g, x))."""
        inv = self.model.inverse_index
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
    def random(model, rng: random.Random, rank: int = 3) -> "ArrowFunction":
        """Seeded random smooth-ish test function (trigonometric profiles).

        The group coefficients are uniform on [-1, 1): the top 53 bits of
        each little-endian 64-bit word of one ``randbytes`` draw.  Each field
        is a ``SeparableField`` of 1-D per-axis profiles: a frequency and a
        phase are drawn per field and axis, in that order, and each axis
        then takes one cosine over the (rank, n) stack of its profiles.
        """
        words = np.frombuffer(rng.randbytes(8 * rank * model.group_size), dtype="<u8")
        coeffs = ((words >> 11) * 2.0 ** -52 - 1.0).reshape(rank, model.group_size)
        axes = model.grid.axes
        draws = np.array([[(rng.randrange(1, 3), rng.uniform(0, 2 * np.pi)) for _ in axes]
                          for _ in range(rank)])
        stacks = []
        for i, ax in enumerate(axes):
            scaled = 2 * np.pi * (ax.nodes() - ax.lo) / ax.length
            freq, phase = draws[:, i, 0, None], draws[:, i, 1, None]
            stacks.append(1.0 + 0.5 * np.cos(scaled * freq + phase))
        fields = [SeparableField(model.grid, [p[k] for p in stacks]) for k in range(rank)]
        return ArrowFunction(model, terms=[(a, b, 0) for a, b in zip(coeffs, fields)])


def s_fiber_integrate(model, rho_values: np.ndarray, u: ArrowFunction) -> np.ndarray:
    """Source-fiber integral: sum of haar(g) u(g, x) rho(a(g, x)) over the group.

    One ``pull_sum`` per term, the terms added by broadcasting.
    """
    haar = model.haar_masses()
    acc = 0.0
    for a, b, e in u.terms:
        b = field_values(b)
        acc = acc + (model.pull_sum(haar * a, b * rho_values) if e
                     else b * model.pull_sum(haar * a, rho_values))
    return acc


def _is_factored(model, rho_values: np.ndarray, u: ArrowFunction) -> bool:
    """Whether u has terms, each a ``SeparableField``, on a cyclic model whose
    rho is constant along the axis: then u stays factored in row space."""
    return (bool(u.terms) and all(isinstance(b, SeparableField) for _, b, _ in u.terms)
            and isinstance(model, CyclicAxisModel) and model.constant_along_axis(rho_values))


def _factored_parts(model, haar: np.ndarray, terms):
    """The factors of ``SeparableField`` terms integrated over rho = 1 on a
    cyclic model, as (cols K x M, rows K x n).

    Each term integrates to a profile along the axis (the field's own, times
    the total weight for e = 0, correlated along the axis for e = 1), row k,
    times the field's profile of the other axes raveled over the M nodes off
    the axis (one entry when M = 1), column k.  The unequal-weight
    correlations of all terms are one FFT pair over their stacked rows.
    """
    rows = np.empty((len(terms), model.group_size))
    cols, stacked = [], []
    for k, (a, b, e) in enumerate(terms):
        along, rest = b.split(model.axis)
        cols.append(np.ravel(rest))
        w = haar * a
        if e and not np.all(w == w[0]):
            stacked.append((k, w, along.ravel()))
        else:
            rows[k] = (model.pull_sum(w, along) if e else w.sum() * along).ravel()
    if stacked:
        index, weights, profiles = zip(*stacked)
        rows[list(index)] = model.correlate(np.array(weights), np.array(profiles))
    return np.array(cols), rows


def t_fiber_integrate(model, rho_values: np.ndarray, u: ArrowFunction) -> np.ndarray:
    return s_fiber_integrate(model, rho_values, u.inverted())


def shriek_difference(model, rho_values: np.ndarray, u: ArrowFunction) -> np.ndarray:
    """The s-integral minus the t-integral of u, s_!(u) - t_!(u), on the grid."""
    diff = s_fiber_integrate(model, rho_values, u)
    diff -= t_fiber_integrate(model, rho_values, u)
    return diff


def _difference_terms(u: ArrowFunction) -> list:
    """u's terms and the negated terms of ``u.inverted()``: s_!(u) - t_!(u)."""
    return u.terms + [(-a, b, e) for a, b, e in u.inverted().terms]


def shriek_average(model, rho_values: np.ndarray, u: ArrowFunction) -> np.ndarray:
    """The fiber average of s_!(u) - t_!(u).  A factored u is averaged in row
    space, at orbit-space shape: haar[0] * rho_base**2 * (cols.T @ rows.sum(1))
    from the ``_factored_parts`` of ``_difference_terms(u)`` (one rho in s - t,
    one in the fiber weight).  Any other u averages its ``shriek_difference``."""
    if not _is_factored(model, rho_values, u):
        return averaging(model, rho_values, shriek_difference(model, rho_values, u)).values
    haar = model.haar_masses()
    cols, rows = _factored_parts(model, haar, _difference_terms(u))
    rho_base = rho_values[(slice(None),) * model.axis + (slice(0, 1),)]
    return haar[0] * rho_base ** 2 * (cols.T @ rows.sum(1)).reshape(rho_base.shape)


def fiber_volumes(model, rho_values: np.ndarray) -> np.ndarray:
    """Mass of each source fiber, the target integral of 1 (the orbit volume);
    the 1 is one node that broadcasts against the grid."""
    return s_fiber_integrate(model, rho_values, ArrowFunction.from_target_function(
        model, np.ones((1,) * model.grid.ndim)))


def pair_with_base_density(model, tau_values: np.ndarray, f: np.ndarray) -> float:
    """The base integral of f against tau: the flat sum of f * tau against
    ``grid.weights`` as one expression, so that numpy reuses the product for
    the weighted one."""
    return float((f * tau_values * model.grid.weights).sum())


def default_test_set(model, rng: random.Random,
                     count: int = DEFAULT_TEST_COUNT) -> list[ArrowFunction]:
    """Random arrow functions plus a deliberate angular-harmonic probe.

    The harmonic probe is the classical witness that separates invariant
    from non-invariant base densities, so defect checks do not rely on
    random functions happening to overlap it.
    """
    tests = [ArrowFunction.random(model, rng) for _ in range(count - 1)]
    profiles = []
    for ax in model.grid.axes:
        coord = ax.nodes()
        if ax.periodic:
            profiles.append(np.cos(coord))
        else:
            mid, width = (ax.lo + ax.hi) / 2, ax.length
            profiles.append(np.exp(-8.0 * ((coord - mid) / width) ** 2))
    probe = SeparableField(model.grid, profiles)
    tests.append(ArrowFunction(model, terms=[(np.ones(model.group_size), probe, 0)]))
    return tests


def invariance_defects(model, sigma: TransverseDensityData,
                       test_set: list[ArrowFunction]) -> tuple[float, float]:
    """Both invariance defects from one pass over the test set.

    The first is the largest |mu_sigma(s-integral - t-integral)|; the second
    the largest |mu_sigma(s-integral) - mu_sigma(t-integral)|, the violation
    of arrow-space measure symmetry under inversion (the t-integral of u is
    the s-integral of u composed with inversion).

    A factored test function (``_is_factored``) is paired in row space: u
    and ``u.inverted()`` share their columns, so with q = rho tau weights as
    an M x n matrix and a = cols @ q, mu_sigma of the s-integral is the sum
    of rows_s * a, that of the t-integral the sum of rows_t * a, and no
    grid-sized integral is built.  Every other test function pairs its s-
    and t-integral on the grid.
    """
    invariance = inversion = 0.0
    rho, tau = sigma.rho_values, sigma.tau_values
    haar = q = None
    for u in test_set:
        if _is_factored(model, rho, u):
            if q is None:
                haar = model.haar_masses()
                q = np.moveaxis(rho * tau * model.grid.weights, model.axis, -1).reshape(
                    -1, model.group_size)
            cols, s_rows = _factored_parts(model, haar, u.terms)
            t_rows = _factored_parts(model, haar, u.inverted().terms)[1]
            a = cols @ q
            s_pair, t_pair = float((s_rows * a).sum()), float((t_rows * a).sum())
            s_rows -= t_rows
            difference = float((s_rows * a).sum())
        else:
            s_part = s_fiber_integrate(model, rho, u)
            t_part = t_fiber_integrate(model, rho, u)
            s_pair = pair_with_base_density(model, tau, s_part)
            t_pair = pair_with_base_density(model, tau, t_part)
            s_part -= t_part
            difference = pair_with_base_density(model, tau, s_part)
        invariance = max(invariance, abs(difference))
        inversion = max(inversion, abs(s_pair - t_pair))
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
    values: np.ndarray          # broadcasts against the grid; on the orbit space if cyclic
    constancy_defect: float     # orbit spread of values over the largest |h * rho|


def averaging(model, rho_values: np.ndarray, section_values: np.ndarray) -> AveragingResult:
    """Fiber mass of the section h * rho, as a function on the orbit space,
    and how far it is from constant on orbits; the caller judges the defect."""
    if not model.proper:
        raise ModelError("averaging needs a proper model")
    # the s-fiber integral of the target function of the section, as one pull
    weighted = section_values * rho_values
    av = model.pull_sum(model.haar_masses(), weighted)
    # constancy is measured against the size of the integrand, not of the
    # average itself, so that averages that are legitimately zero pass
    defect = model.orbit_spread(av)
    if defect:  # zero is exact: a NaN in the section gives a NaN spread
        defect /= float(np.max(np.abs(weighted, out=weighted))) or 1.0
    return AveragingResult(av, defect)


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


def weyl_check(model, sigma: TransverseDensityData, f_values: np.ndarray,
               *, cutoff: np.ndarray) -> tuple[float, float]:
    """Disintegration of the base measure into orbit integrals, as (lhs, rhs).

    lhs integrates f against tau on the base; rhs integrates the orbit
    integrals of f (against the induced orbit densities) with the measure
    that the transverse density induces on the orbit space, realized by a
    cut-off function of sigma.  The rhs does not depend on the seed of the
    cut-off.
    """
    lhs = pair_with_base_density(model, sigma.tau_values, f_values)
    return lhs, cutoff_pairing(model, sigma, cutoff,
                               orbit_integrals(model, sigma.rho_values, f_values))


def orbit_integrals(model, rho_values: np.ndarray, f_values: np.ndarray) -> np.ndarray:
    """The integral of f over the orbit through each node, against the induced
    orbit density: the source-fiber integral of f's pullback along the
    target.  On a cyclic model it stays on the orbit space."""
    return s_fiber_integrate(model, rho_values,
                             ArrowFunction.from_target_function(model, f_values))


def cutoff_pairing(model, sigma: TransverseDensityData, cutoff: np.ndarray,
                   orbit_values: np.ndarray) -> float:
    """The integral of a function on the orbit space (given at each node)
    against the measure that sigma induces there, realized by a cut-off
    function of sigma."""
    return float((cutoff * orbit_values * sigma.tau_values * model.grid.weights).sum())


def weinstein_volume(model, sigma: TransverseDensityData,
                     *, cutoff: np.ndarray,
                     volume_threshold: float = 1e-12) -> tuple[float, float]:
    """Orbit-space volume two ways, as (cut-off measure of 1, reciprocal orbit
    volumes).

    ``cutoff`` is a cut-off function of sigma.
    """
    volumes = fiber_volumes(model, sigma.rho_values)
    if float(np.min(volumes)) <= volume_threshold:
        raise ScenarioError("an orbit volume is below threshold; model is not compact")
    direct = pair_with_base_density(model, sigma.tau_values, cutoff)
    reciprocal = float((sigma.tau_values / volumes * model.grid.weights).sum())
    return direct, reciprocal


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
    targets = model.node_images(np.ravel_multi_index(node, model.grid.shape))
    contributions = model.haar_masses() * rho_values.ravel()[targets]
    masses: dict[int, float] = {}
    for target, mass in zip(targets.tolist(), contributions.tolist()):
        masses[target] = masses.get(target, 0.0) + mass
    return DiscreteMeasure(model.grid.shape, masses)


def modular_cocycle(model, sigma: TransverseDensityData, j, point):
    """Log failure of sigma to be invariant along the arrow (g_j, point).

    Computed from the transport conventions in the models module: the base
    density contributes log(tau(y) |J| / tau(x)), the algebroid weight the
    negative of log(rho(y) adj / rho(x)).  ``j`` is one group index with a
    point, or an integer array of them with one coordinate array per axis;
    the result is a float or an array of one value per arrow.
    """
    x = tuple(np.asarray(c, dtype=float) for c in point)
    y = model.act_points(j, x)
    tau_x, tau_y = sigma.tau_fn(*x), sigma.tau_fn(*y)
    rho_x, rho_y = sigma.rho_fn(*x), sigma.rho_fn(*y)
    if not all(positive_finite(v) for v in (tau_x, tau_y, rho_x, rho_y)):
        raise ScenarioError("sigma must be strictly positive and finite at both endpoints")
    jac = np.abs(model.jacobian_points(j, x))
    adj = np.abs(model.adjoint_factor(j))
    out = (np.log(tau_y) + np.log(jac) - np.log(tau_x)) \
        - (np.log(rho_y) + np.log(adj) - np.log(rho_x))
    return float(out) if np.ndim(j) == 0 else out


def cocycle_additivity_defect(model, sigma: TransverseDensityData,
                              rng: random.Random, samples: int = 100) -> float:
    """Additivity of the cocycle on seeded random composable pairs.

    Pairs are drawn uniformly over group x group x grid nodes, redrawing
    when the model's partial composition is undefined; the cocycle is then
    evaluated once on all 3 * samples arrows.
    """
    n_nodes = int(np.prod(model.grid.shape))
    draws = []
    while len(draws) < samples:
        j = rng.randrange(model.group_size)
        k = rng.randrange(model.group_size)
        jk = model.mul(j, k)
        if jk is None:
            continue
        draws.append((j, k, jk, rng.randrange(n_nodes)))
    j, k, jk, p = (np.array(column, dtype=np.intp) for column in zip(*draws))
    x = model.node_points(p)
    kx = model.act_points(k, x)
    c_k, c_j, c_jk = np.split(modular_cocycle(
        model, sigma, np.concatenate([k, j, jk]),
        [np.concatenate(parts) for parts in zip(x, kx, x)]), 3)
    return _max_abs(c_j + c_k - c_jk)


def cocycle_vanishing_defect(model, sigma: TransverseDensityData,
                             rng: random.Random, samples: int = 50) -> float:
    """Largest |cocycle| over arrows drawn uniformly from group x grid nodes."""
    n_nodes = int(np.prod(model.grid.shape))
    draws = [(rng.randrange(model.group_size), rng.randrange(n_nodes))
             for _ in range(samples)]
    j, p = (np.array(column, dtype=np.intp) for column in zip(*draws))
    return _max_abs(modular_cocycle(model, sigma, j, model.node_points(p)))


def _max_abs(values: np.ndarray) -> float:
    """Largest absolute value, 0 for no values; a NaN anywhere gives NaN."""
    return float(np.max(np.abs(values), initial=0.0))
