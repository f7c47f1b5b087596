"""Parametrized proper groupoid models over quadrature grids.

An action model couples a compact group quadrature to a base grid so that
every group quadrature node acts by an exact node permutation (rotations
act by rolling the periodic axis, finite groups by index maps).  Fiber
integrals are weighted sums of pulled arrays (``pull_sum``), and
change-of-variables identities hold at machine precision, which is what
lets invariance defects act as sharp diagnostics.

Conventions for the density action (fixing the splitting of arrow-space
densities into an algebroid factor and a base factor): an arrow from x to
y = a(g, x) pushes a base density coefficient tau(x) to tau(x) / |J(g, x)|
at y, and scales the algebroid factor by the adjoint determinant (1 for
all abelian and finite models here).  The modular cocycle below is the
log-ratio of sigma against this transport.
"""

from __future__ import annotations

import random
from functools import cached_property

import numpy as np

from ..density.grids import Axis, Grid, positive_finite
from ..expressions import (BOOLEAN, COUNT, NATURAL, NUMBER, REQUIRED, ScenarioError,
                           listed, record)


class ModelError(ValueError):
    pass


class ActionGroupoidModel:
    """Base class: finite quadrature presentation of a group action on a grid.

    Subclasses fix the group structure on quadrature indices (``mul``,
    ``inv``), the node action (``pull`` on samples, ``node_images`` on
    single nodes), the analytic action on coordinates (``act_points``) and
    the base-direction Jacobian.
    """

    name = "action"
    proper = True

    def __init__(self, grid: Grid, group_size: int):
        self.grid = grid
        self.group_size = group_size
        w = grid.axis_weight(0, grid.ndim).astype(float)
        for axis in range(1, grid.ndim):
            w = w * grid.axis_weight(axis, grid.ndim)
        self.grid_weights = np.broadcast_to(w, grid.shape).copy()

    # group structure on quadrature indices
    def haar_masses(self) -> np.ndarray:
        raise NotImplementedError

    def mul(self, j: int, k: int) -> int:
        raise NotImplementedError

    def inv(self, j: int) -> int:
        raise NotImplementedError

    @cached_property
    def inverse_index(self) -> np.ndarray:
        """``inv(j)`` for every group index j, computed once per model."""
        return np.array([self.inv(j) for j in range(self.group_size)], dtype=np.intp)

    def identity_index(self) -> int:
        raise NotImplementedError

    # action
    def pull(self, j: int, values: np.ndarray) -> np.ndarray:
        """Values of x -> f(a(g_j, x)) for grid samples f."""
        raise NotImplementedError

    def pull_sum(self, weights: np.ndarray, values: np.ndarray) -> np.ndarray:
        """Sum over group nodes of weights[j] * pull(j, values)."""
        acc = np.zeros(self.grid.shape)
        for j in np.flatnonzero(weights):
            acc += weights[j] * self.pull(int(j), values)
        return acc

    def orbit_spread(self, values: np.ndarray) -> float:
        """Largest change of the values along an arrow: max |pull(j, v) - v|."""
        return max(float(np.max(np.abs(self.pull(j, values) - values)))
                   for j in range(self.group_size))

    def act_points(self, j: int, pts):
        """Image a(g_j, x) of chart points; ``j`` may be an integer array
        with one group index per point."""
        raise NotImplementedError

    def jacobian_points(self, j: int, pts):
        """|det| of the base-direction differential of a(g_j, .) in the chart;
        ``j`` as in ``act_points``."""
        raise NotImplementedError

    def adjoint_factor(self, j: int) -> float:
        return 1.0

    def node_images(self, flat: int) -> np.ndarray:
        """Flat indices of a(g_j, x), j = 0 .. G-1, for the node x with flat
        index ``flat``."""
        raise NotImplementedError

    def node_points(self, flat: np.ndarray) -> list[np.ndarray]:
        """Chart coordinates of the grid nodes with flat indices ``flat``, one
        array per axis (the meshgrid entries, read from the axis nodes)."""
        return [ax.nodes()[i] for ax, i in
                zip(self.grid.axes, np.unravel_index(flat, self.grid.shape))]

    def volume_coefficient(self, *coords):
        """Chart coefficient of the Lebesgue density; 1 unless overridden."""
        return np.ones_like(coords[0])

    # orbit space
    def project_to_base(self, values: np.ndarray):
        """Representative values on the orbit-space grid; model specific."""
        raise NotImplementedError

    def integrate(self, values: np.ndarray) -> float:
        return float((values * self.grid_weights).sum())

    def check_axioms(self, rng: random.Random, samples: int = 20,
                     tol: float = 1e-9) -> float:
        """Sampled unit/compatibility/cocycle checks; returns the worst defect.

        The draws are the scalar draws of a per-sample loop, in its order;
        each axiom is then one array call over all samples, and the worst
        defect is the running maximum of that loop.
        """
        n_nodes = int(np.prod(self.grid.shape))
        draws = []
        for _ in range(samples):
            p = rng.randrange(n_nodes)
            jk = None
            while jk is None:  # redraw pairs a partial composition leaves undefined
                j = rng.randrange(self.group_size)
                k = rng.randrange(self.group_size)
                jk = self.mul(j, k)
            draws.append((p, j, k, jk))
        p, j, k, jk = np.array(draws, dtype=np.intp).reshape(-1, 4).T
        pt = self.node_points(p)
        kpt = self.act_points(k, pt)
        unit = self._point_distance(self.act_points(self.identity_index(), pt), pt)
        compatible = self._point_distance(self.act_points(j, kpt), self.act_points(jk, pt))
        chain = np.abs(self.jacobian_points(j, kpt) * self.jacobian_points(k, pt)
                       - self.jacobian_points(jk, pt))
        per_sample = np.column_stack(np.broadcast_arrays(unit, compatible, chain))
        worst = max([0.0, *per_sample.ravel().tolist()])
        if worst > tol:
            raise ModelError(f"action axioms fail on samples (defect {worst:.3e})")
        return worst

    def _point_distance(self, p, q):
        """Chart distance of each pair of points; periodic coordinates compare
        modulo their period."""
        worst = 0.0
        for ax, a, b in zip(self.grid.axes, p, q):
            d = np.abs(np.subtract(a, b))
            if ax.periodic:
                d = d % ax.length
                d = np.minimum(d, ax.length - d)
            worst = np.maximum(worst, d)
        return worst


class CyclicAxisModel(ActionGroupoidModel):
    """The circle rotating one periodic angle axis [0, 2 pi) of the grid.

    Group quadrature nodes coincide with the nodes of that axis, so g_j acts
    by rolling the axis j places.  Rotations have unit Jacobian; in a polar
    chart (radius, angle) the Lebesgue coefficient is the radius.
    """

    name = "cyclic_axis"

    def __init__(self, grid: Grid, axis: int, name: str = "cyclic_axis",
                 polar: bool = False):
        ax = grid.axes[axis]
        if not (ax.periodic and ax.lo == 0.0 and ax.hi == 2 * np.pi):
            raise ModelError("a cyclic axis must be the periodic angle [0, 2 pi)")
        super().__init__(grid, ax.n)
        self.axis = axis
        self.name = name
        self.polar = polar

    def haar_masses(self):
        return self.grid.axes[self.axis].weights() * (1.0 / (2 * np.pi))

    def mul(self, j, k):
        return (j + k) % self.group_size

    def inv(self, j):
        return (-j) % self.group_size

    def identity_index(self):
        return 0

    def pull(self, j, values):
        return np.roll(values, -j, axis=self.axis)

    def pull_sum(self, weights, values):
        """Circular correlation along the axis, on one of two exact paths.

        Equal weights give one sum along the axis, returned as a read-only
        broadcast of the sums, so no grid-sized array is written.  Other
        weights correlate by an FFT along the axis: of the axis length for
        a 1-D profile along it, of the full array otherwise.  Values need
        only broadcast against the grid; the result has their shape.
        """
        if np.all(weights == weights[0]):
            shape = list(np.shape(values))
            shape[self.axis] = self.group_size
            return np.broadcast_to(weights[0] * values.sum(self.axis, keepdims=True),
                                   shape)
        v_hat = np.fft.rfft(np.moveaxis(values, self.axis, -1))
        out = np.fft.irfft(np.conj(np.fft.rfft(weights)) * v_hat, n=self.group_size)
        return np.moveaxis(out, -1, self.axis)

    def orbit_spread(self, values):
        # orbits are rows along the axis; rounding is monotone, so max - min
        # wins.  A row broadcast along the axis (an equal-weight pull_sum) is
        # read once: its spread is x - x either way.
        if values.shape[self.axis] > 1 and values.strides[self.axis] == 0:
            values = values[(slice(None),) * self.axis + (slice(0, 1),)]
        return float(np.max(np.ptp(values, axis=self.axis)))

    def node_images(self, flat):
        # rolling by j moves the node's axis index i to i + j mod n
        stride = int(np.prod(self.grid.shape[self.axis + 1:]))
        i = flat // stride % self.group_size
        return flat + ((i + np.arange(self.group_size)) % self.group_size - i) * stride

    def act_points(self, j, pts):
        pts = list(pts)
        pts[self.axis] = np.mod(pts[self.axis] + 2 * np.pi * j / self.group_size,
                                2 * np.pi)
        return tuple(pts)

    def jacobian_points(self, j, pts):
        return 1.0

    def volume_coefficient(self, *coords):
        return coords[0] if self.polar else super().volume_coefficient(*coords)

    def project_to_base(self, values):
        """Values at angle node 0; the base keeps the other axes (or is a point)."""
        rest = [i for i in range(self.grid.ndim) if i != self.axis]
        return (np.atleast_1d(np.take(values, 0, axis=self.axis)),
                self.grid.subgrid(rest) if rest else "point")


class FiniteActionModel(ActionGroupoidModel):
    """A finite group acting by exact node permutations of the grid."""

    name = "finite_action"

    def __init__(self, grid: Grid, table: list[list[int]], node_maps, point_maps,
                 jacobians=None, name: str = "finite_action"):
        super().__init__(grid, len(table))
        self.table = [list(row) for row in table]
        self.identity = self.table.index(list(range(self.group_size)))
        self.inverse = [row.index(self.identity) for row in self.table]
        self.node_maps = [np.asarray(m, dtype=np.intp) for m in node_maps]
        self.point_maps = point_maps
        self.jacobians = jacobians
        self.name = name
        n_nodes = int(np.prod(grid.shape))
        for m in self.node_maps:
            if sorted(m.ravel().tolist()) != list(range(n_nodes)):
                raise ModelError("node maps must be permutations of the grid")
        # row j: the flat index of a(g_j, x) for every node x
        self.node_table = np.stack([m.ravel() for m in self.node_maps])

    def haar_masses(self):
        return np.full(self.group_size, 1.0 / self.group_size)

    def mul(self, j, k):
        return self.table[j][k]

    def inv(self, j):
        return self.inverse[j]

    def identity_index(self):
        return self.identity

    def pull(self, j, values):
        return values.ravel()[self.node_maps[j]].reshape(self.grid.shape)

    def node_images(self, flat):
        return self.node_table[:, flat]

    def _elements(self, j):
        """(e, mask of the entries of j equal to e) for each element e in j."""
        for e in range(self.group_size):
            at = j == e
            if at.any():
                yield e, at

    def act_points(self, j, pts):
        if np.ndim(j) == 0:
            return self.point_maps[j](*pts)
        out = [np.empty(np.shape(j)) for _ in pts]
        for e, at in self._elements(j):
            for o, v in zip(out, self.point_maps[e](*(np.asarray(p)[at] for p in pts))):
                o[at] = v
        return tuple(out)

    def jacobian_points(self, j, pts):
        if self.jacobians is None:
            return 1.0
        if np.ndim(j) == 0:
            return self.jacobians[j](*pts)
        out = np.empty(np.shape(j))
        for e, at in self._elements(j):
            out[at] = self.jacobians[e](*(np.asarray(p)[at] for p in pts))
        return out

    def orbit_representatives(self) -> np.ndarray:
        """Smallest flat node index of each node orbit."""
        n = int(np.prod(self.grid.shape))
        rep = np.arange(n)
        for m in self.node_maps:
            rep = np.minimum(rep, m.ravel())
        changed = True
        while changed:
            new = rep[rep]
            changed = bool(np.any(new != rep))
            rep = new
        # every node now points at the fixed point of its orbit
        return np.flatnonzero(rep == np.arange(n))

    def project_to_base(self, values):
        reps = self.orbit_representatives()
        return values.ravel()[reps].copy(), reps


class ScalingLineModel(ActionGroupoidModel):
    """Dyadic scalings of the line: arrows (2^k, x), composition partial.

    Not proper, and the scalings move grid nodes off the grid; the model
    only supports the pointwise operations needed by cocycle checks.
    Composition of powers is defined while the result stays in the stored
    window, so composable-pair sampling must consult ``mul``.
    """

    name = "scaling_line"
    proper = False

    def __init__(self, max_power: int = 2, lo: float = 0.5, hi: float = 3.0, n: int = 16):
        if max_power > 1022:
            raise ModelError("max_power must be at most 1022, where the scales 2**k "
                             "are still normal floats")
        grid = Grid([Axis(n, lo, hi)])
        super().__init__(grid, 2 * max_power + 1)
        self.max_power = max_power

    def power(self, j: int) -> int:
        return j - self.max_power

    def scale(self, j: int) -> float:
        return 2.0 ** self.power(j)

    def haar_masses(self):
        raise ModelError("scaling model has no invariant group quadrature")

    def mul(self, j, k):
        p = self.power(j) + self.power(k)
        if abs(p) > self.max_power:
            return None
        return p + self.max_power

    def inv(self, j):
        return 2 * self.max_power - j

    def identity_index(self):
        return self.max_power

    def pull(self, j, values):
        raise ModelError("scaling model does not act on grid samples")

    def act_points(self, j, pts):
        (x,) = pts
        return (self.scale(j) * x,)

    def jacobian_points(self, j, pts):
        return self.scale(j)

    def project_to_base(self, values):
        raise ModelError("scaling model is not proper")


class SubmersionGroupoidModel:
    """Groupoid of a grid submersion: pairs of points in the same fiber.

    The projection forgets the listed fiber axes; only the fiber geometry
    matters for the operations implemented here.
    """

    name = "submersion"

    def __init__(self, total: Grid, fiber_axes: list[int]):
        self.total = total
        self.fiber_axes = sorted(set(fiber_axes))
        if not self.fiber_axes:
            raise ModelError("a submersion model needs at least one fiber axis")
        for ax in self.fiber_axes:
            if not 0 <= ax < total.ndim:
                raise ModelError(f"no axis {ax} to project out")
        if len(self.fiber_axes) == total.ndim:
            raise ModelError("base must keep at least one axis")
        self.base = total.subgrid([i for i in range(total.ndim)
                                   if i not in self.fiber_axes])


# ---------------------------------------------------------------------------
# model construction helpers and JSON descriptors

def RotationPlaneModel(n_r: int, n_phi: int, r_lo: float, r_hi: float
                       ) -> CyclicAxisModel:
    """Circle rotations of a planar region in the polar chart (radius, angle)."""
    if r_lo < 0:
        raise ModelError("radius axis cannot be negative")
    grid = Grid([Axis(n_r, r_lo, r_hi),
                 Axis(n_phi, 0.0, 2 * np.pi, periodic=True)])
    return CyclicAxisModel(grid, axis=1, name="rotation2d", polar=True)


def circle_self_model(n: int) -> CyclicAxisModel:
    """The circle acting on itself by rotation; one orbit, trivial isotropy."""
    grid = Grid([Axis(n, 0.0, 2 * np.pi, periodic=True)])
    return CyclicAxisModel(grid, axis=0, name="circle_self")


def TrivialActionModel(grid: Grid) -> FiniteActionModel:
    """Trivial group: source and target coincide, orbits are points."""
    return FiniteActionModel(grid, table=[[0]],
                             node_maps=[np.arange(int(np.prod(grid.shape)))],
                             point_maps=[lambda *c: c], name="trivial")


def antipodal_circle_model(n: int) -> FiniteActionModel:
    """Z/2 acting on the circle by the half-turn; n must be even."""
    if n % 2:
        raise ModelError("antipodal model needs an even node count")
    grid = Grid([Axis(n, 0.0, 2 * np.pi, periodic=True)])
    idx = np.arange(n)
    return FiniteActionModel(
        grid,
        table=[[0, 1], [1, 0]],
        node_maps=[idx, (idx + n // 2) % n],
        point_maps=[lambda t: (t,), lambda t: (np.mod(t + np.pi, 2 * np.pi),)],
        name="antipodal_circle",
    )


def mirror_interval_model(n: int, half_width: float) -> FiniteActionModel:
    """Z/2 acting on a symmetric interval by x -> -x."""
    grid = Grid([Axis(n, -half_width, half_width)])
    idx = np.arange(n)
    return FiniteActionModel(
        grid,
        table=[[0, 1], [1, 0]],
        node_maps=[idx, idx[::-1].copy()],
        point_maps=[lambda x: (x,), lambda x: (-x,)],
        name="mirror_interval",
    )


_AXIS = record("{n, lo, hi, periodic}", Axis, n=(COUNT, REQUIRED), lo=(NUMBER, REQUIRED),
               hi=(NUMBER, REQUIRED), periodic=(BOOLEAN, False))
_GRID = record('{"axes": [{n, lo, hi, periodic}]}', Grid,
               axes=(listed(_AXIS, "axes"), REQUIRED))


def build_model(descriptor: dict) -> ActionGroupoidModel:
    """Instantiate a model from its JSON descriptor (External Interfaces)."""
    kind = descriptor.get("kind")
    params = descriptor.get("params", {})
    if not isinstance(params, dict):
        raise ScenarioError(f"model params must be an object, got {params!r}")

    if kind == "rotation2d":
        return RotationPlaneModel(
            n_r=COUNT.read(params, "n_r", 64), n_phi=COUNT.read(params, "n_phi", 64),
            r_lo=NUMBER.read(params, "r_lo", 1.0), r_hi=NUMBER.read(params, "r_hi", 2.0))
    if kind == "finite_action":
        kind = params.get("preset")
        if kind not in ("antipodal_circle", "mirror_interval"):
            raise ScenarioError(f"unknown finite action preset {kind!r}")
    if kind == "antipodal_circle":
        return antipodal_circle_model(COUNT.read(params, "n", 256))
    if kind == "mirror_interval":
        return mirror_interval_model(COUNT.read(params, "n", 257),
                                     NUMBER.read(params, "half_width", 1.0))
    if kind == "circle_self":
        return circle_self_model(COUNT.read(params, "n", 256))
    if kind == "trivial":
        return TrivialActionModel(_GRID.read(descriptor, "grid"))
    if kind == "scaling_line":
        return ScalingLineModel(max_power=NATURAL.read(params, "max_power", 2))
    raise ScenarioError(f"unknown model kind {kind!r}")


class TransverseDensityData:
    """A decomposed transverse density: algebroid weight and base density.

    ``rho_fn`` is the strictly positive object-side weight whose right
    translation gives the source-fiber densities; ``tau_fn`` the chart
    coefficient of the base density.  Both are kept as callables (for
    pointwise cocycle evaluation) and sampled on the model grid.
    """

    def __init__(self, model, rho_fn, tau_fn):
        self.model = model
        self.rho_fn = rho_fn
        self.tau_fn = tau_fn
        mesh = model.grid.meshgrid()
        self.rho_values = np.asarray(rho_fn(*mesh), dtype=float) + np.zeros(model.grid.shape)
        self.tau_values = np.asarray(tau_fn(*mesh), dtype=float) + np.zeros(model.grid.shape)
        if not positive_finite(self.rho_values):
            raise ModelError("algebroid weight must be strictly positive and finite (full)")
        if not positive_finite(self.tau_values, strict=False):
            raise ModelError("base density must be nonnegative and finite")

    @staticmethod
    def lebesgue(model) -> "TransverseDensityData":
        """Unit weight with the model's natural volume coefficient."""
        return TransverseDensityData(model, lambda *c: np.ones_like(c[0]),
                                     model.volume_coefficient)
