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
at y, and scales the algebroid factor by the adjoint determinant, which is
1 for every model here (each group is abelian or finite), so no model
declares it.  The modular cocycle is the log-ratio of sigma against this
transport.
"""

from __future__ import annotations

import random
import weakref
from functools import cached_property

import numpy as np

from ..density.grids import Axis, Grid, positive_finite, stored_part
from ..expressions import (BOOLEAN, COUNT, FIELD, NATURAL, NUMBER, REQUIRED, Descriptor,
                           Kind, ModelKind, ScenarioError, as_object, listed, record)


class ModelError(ValueError):
    """A model bug or a misuse of the API; no scenario document reaches one."""


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
        """Values of x -> f(a(g_j, x)) for grid samples f, in a new array
        (``ArrowFunction.slice`` scales it in place)."""
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

    def node_images(self, flat: int) -> np.ndarray:
        """Flat indices of a(g_j, x), j = 0 .. G-1, for the node x with flat
        index ``flat``."""
        raise NotImplementedError

    def node_points(self, flat: np.ndarray) -> list[np.ndarray]:
        """Chart coordinates of the grid nodes with flat indices ``flat``, one
        array per axis (read from the axis nodes)."""
        return [ax.nodes()[i] for ax, i in
                zip(self.grid.axes, np.unravel_index(flat, self.grid.shape))]

    def volume_coefficient(self, *coords):
        """Chart coefficient of the Lebesgue density; 1 unless overridden."""
        return np.ones_like(coords[0])

    def check_axioms(self, rng: random.Random, samples: int = 20) -> float:
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
        return max([0.0, *per_sample.ravel().tolist()])

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
        self._constancy = None  # (weak ref to a read-only array, whether constant)

    def haar_masses(self):
        return self.grid.axes[self.axis].weights() * (1.0 / (2 * np.pi))

    def mul(self, j, k):
        return (j + k) % self.group_size

    def inv(self, j):
        return (-j) % self.group_size

    def identity_index(self):
        return 0

    def pull(self, j, values):
        # C-ordered: a roll keeps the order of its input, and a broadcast view
        # that varies along the last axis alone is in Fortran order
        return np.ascontiguousarray(np.roll(values, -j, axis=self.axis))

    def pull_sum(self, weights, values):
        """Circular correlation along the axis, on one of two exact paths.

        Equal weights give one sum along the axis, kept at length 1 there (an
        orbit-space array that broadcasts against the grid).  Other weights
        correlate by an FFT along the axis: of the axis length for a 1-D
        profile along it, of the full array otherwise.  Values need only
        broadcast against the grid, and so does the result.
        """
        if np.all(weights == weights[0]):
            return weights[0] * values.sum(self.axis, keepdims=True)
        out = self.correlate(weights, np.moveaxis(values, self.axis, -1))
        # C-ordered, as for a full sample: the FFT keeps its input's order
        return np.ascontiguousarray(np.moveaxis(out, -1, self.axis))

    def correlate(self, weights, values):
        """Circular correlation along the last axis by one FFT pair:
        out[..., i] = sum_j weights[..., j] * values[..., (i + j) mod n].

        Stacked rows (K x n) are transformed row by row, so each row comes
        out bit for bit as it would alone."""
        return np.fft.irfft(np.conj(np.fft.rfft(weights)) * np.fft.rfft(values),
                            n=self.group_size)

    def constant_along_axis(self, values) -> bool:
        """Whether the values do not change along the axis (``orbit_spread`` 0).

        The answer for a read-only array is kept for the last such array
        asked about (compared by identity, through a weak reference so that
        the memo keeps no density alive), so a density's rho is tested once;
        a writable array is tested on every call.
        """
        if values.flags.writeable:
            return self.orbit_spread(values) == 0.0
        if self._constancy is None or self._constancy[0]() is not values:
            self._constancy = (weakref.ref(values), self.orbit_spread(values) == 0.0)
        return self._constancy[1]

    def orbit_spread(self, values):
        # orbits are rows along the axis; rounding is monotone: max - min wins
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


class FiniteActionModel(ActionGroupoidModel):
    """A finite group acting by exact node permutations of the grid."""

    name = "finite_action"

    def __init__(self, grid: Grid, table: list[list[int]], node_maps, point_maps,
                 jacobians=None, name: str = "finite_action"):
        super().__init__(grid, len(table))
        self.table = [list(row) for row in table]
        self.identity = self.table.index(list(range(self.group_size)))
        self.inverse = [row.index(self.identity) for row in self.table]
        node_maps = [np.asarray(m, dtype=np.intp) for m in node_maps]
        self.point_maps = point_maps
        self.jacobians = jacobians
        self.name = name
        n_nodes = int(np.prod(grid.shape))
        for m in node_maps:
            if sorted(m.ravel().tolist()) != list(range(n_nodes)):
                raise ModelError("node maps must be permutations of the grid")
        # row j: the flat index of a(g_j, x) for every node x
        self.node_table = np.stack([m.ravel() for m in node_maps])

    def haar_masses(self):
        return np.full(self.group_size, 1.0 / self.group_size)

    def mul(self, j, k):
        return self.table[j][k]

    def inv(self, j):
        return self.inverse[j]

    def identity_index(self):
        return self.identity

    def pull(self, j, values):
        return values.ravel()[self.node_table[j]].reshape(self.grid.shape)

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
            raise ScenarioError("max_power must be at most 1022, where the scales 2**k "
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


# ---------------------------------------------------------------------------
# model construction helpers and JSON descriptors

def RotationPlaneModel(n_r: int, n_phi: int, r_lo: float, r_hi: float
                       ) -> CyclicAxisModel:
    """Circle rotations of a planar region in the polar chart (radius, angle)."""
    if r_lo < 0:
        raise ScenarioError("radius axis cannot be negative")
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
        raise ScenarioError("antipodal model needs an even node count")
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
# a transverse density: an absent rho with the "lebesgue" tau is the model's
# Lebesgue density (TransverseDensityData.lebesgue)
_DENSITY = record("{rho, tau}", dict, rho=(FIELD, None), tau=(FIELD, "lebesgue"))
_SIGMA = (_DENSITY, _DENSITY.convert({}, "sigma"))
_PROPER = ("group_action", "proper_action")


def _action(make, serves=_PROPER, grid: bool = False, **params) -> ModelKind:
    """A group action kind: ``make`` takes the fields of its ``params`` object
    (and its ``grid``) by keyword; ``sigma`` is the scenario's density."""
    fields = record("{" + ", ".join(params) + "}", dict, **params)
    declared = {"params": (fields, fields.convert({}, "params")), "sigma": _SIGMA}
    if grid:
        declared["grid"] = (_GRID, REQUIRED)
    return ModelKind(serves, lambda params, sigma, **grid: make(**params, **grid), declared)


_PRESETS = ("antipodal_circle", "mirror_interval")


def _preset(value, name) -> Descriptor:
    """The params of a ``finite_action``: a ``preset`` kind and its params."""
    params = dict(as_object(value, name))
    return Descriptor.read({kind: ACTION_KINDS[kind] for kind in _PRESETS},
                           {"kind": params.pop("preset", None), "params": params})


# the group action kinds of smooth scenarios, read by build_model
ACTION_KINDS = {
    "rotation2d": _action(RotationPlaneModel, n_r=(COUNT, 64), n_phi=(COUNT, 64),
                          r_lo=(NUMBER, 1.0), r_hi=(NUMBER, 2.0)),
    "finite_action": ModelKind(_PROPER, lambda params, sigma: params.build(),
                               {"params": (Kind("{preset, ...}", _preset), REQUIRED),
                                "sigma": _SIGMA}),
    "antipodal_circle": _action(antipodal_circle_model, n=(COUNT, 256)),
    "mirror_interval": _action(mirror_interval_model, n=(COUNT, 257),
                               half_width=(NUMBER, 1.0)),
    "circle_self": _action(circle_self_model, n=(COUNT, 256)),
    "trivial": _action(TrivialActionModel, grid=True),
    "scaling_line": _action(ScalingLineModel, ("group_action",), max_power=(NATURAL, 2)),
}


def build_model(descriptor) -> ActionGroupoidModel:
    """Instantiate a model from its JSON descriptor (External Interfaces),
    read through ``ACTION_KINDS``, or from a ``Descriptor`` read already."""
    if not isinstance(descriptor, Descriptor):
        descriptor = Descriptor.read(ACTION_KINDS, descriptor)
    return descriptor.build()


class TransverseDensityData:
    """A decomposed transverse density: algebroid weight and base density.

    ``rho_fn`` is the strictly positive object-side weight whose right
    translation gives the source-fiber densities; ``tau_fn`` the chart
    coefficient of the base density.  Both are kept as callables (for
    pointwise cocycle evaluation) and sampled on the model grid, each as a
    read-only view at the grid's shape that stores only the axes its sample
    varies on (the polar Lebesgue rho and tau = r one column each).
    Read-only, so a model can decide once per density whether rho is
    constant along its orbits.
    """

    def __init__(self, model, rho_fn, tau_fn):
        self.model = model
        self.rho_fn = rho_fn
        self.tau_fn = tau_fn
        mesh = model.grid.meshgrid()
        # + 0.0 gives the values of a sum with a zero grid: -0.0 reads 0.0
        rho, tau = (stored_part(np.asarray(fn(*mesh), dtype=float)) + 0.0
                    for fn in (rho_fn, tau_fn))
        if not positive_finite(rho):
            raise ScenarioError("algebroid weight must be strictly positive and finite (full)")
        if not positive_finite(tau, strict=False):
            raise ScenarioError("base density must be nonnegative and finite")
        self.rho_values = np.broadcast_to(rho, model.grid.shape)
        self.tau_values = np.broadcast_to(tau, model.grid.shape)

    @staticmethod
    def lebesgue(model) -> "TransverseDensityData":
        """Unit weight with the model's natural volume coefficient."""
        return TransverseDensityData(model, lambda *c: np.ones_like(c[0]),
                                     model.volume_coefficient)
