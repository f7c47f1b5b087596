"""Exact transverse-measure calculus on finite groupoids.

Arrow weights play the role of compactly supported densities on the arrow
space, object weights the role of densities on the objects (all density
bundles are canonically trivial in the finite case, so weights are plain
rational vectors).  The two fiber-summation maps send an arrow weight u to

    s_down(u)(x) = sum of u over arrows with source x,
    t_down(u)(y) = sum of u over arrows with target y,

and the coinvariant space is the cokernel of their difference.  Its dual
cone of invariant functionals realizes measures on the orbit space.
"""

from __future__ import annotations

from fractions import Fraction

from . import linalg_q
from .groupoid import FiniteGroupoid, orbit_index, orbits

Weights = list[Fraction]

_ZERO = Fraction(0)


def _as_fractions(values, length: int, what: str) -> Weights:
    out = [v if isinstance(v, Fraction) else Fraction(v) for v in values]
    if len(out) != length:
        raise ValueError(f"{what} must have length {length}, got {len(out)}")
    return out


def s_shriek(g: FiniteGroupoid, u) -> Weights:
    u = _as_fractions(u, g.n_arrows, "arrow weights")
    out = [Fraction(0)] * g.n_objects
    for a in g.arrows():
        out[g.src[a]] += u[a]
    return out


def t_shriek(g: FiniteGroupoid, u) -> Weights:
    u = _as_fractions(u, g.n_arrows, "arrow weights")
    out = [Fraction(0)] * g.n_objects
    for a in g.arrows():
        out[g.tgt[a]] += u[a]
    return out


def difference_matrix(g: FiniteGroupoid) -> linalg_q.Matrix:
    """Matrix of s_down - t_down, objects by arrows."""
    m = linalg_q.zeros(g.n_objects, g.n_arrows)
    for a in g.arrows():
        m[g.src[a]][a] += 1
        m[g.tgt[a]][a] -= 1
    return m


def coinvariants(g: FiniteGroupoid) -> tuple[int, list[Weights]]:
    """Dimension and representatives of coker(s_down - t_down).

    The dimension is computed as n_objects minus the exact rank of the
    difference matrix; the returned representatives are the orbit
    indicator weights, which descend to a basis of the cokernel.
    """
    dim = g.n_objects - linalg_q.rank(difference_matrix(g))
    basis = []
    for orb in orbits(g):
        vec = [Fraction(0)] * g.n_objects
        for x in orb:
            vec[x] = Fraction(1)
        basis.append(vec)
    if dim != len(basis):
        raise AssertionError("cokernel dimension disagrees with orbit count")
    return dim, basis


def transverse_measure_cone(g: FiniteGroupoid) -> list[tuple[Weights, bool]]:
    """Basis of {v : v o s_down = v o t_down}, with a positivity flag per vector.

    The invariance condition on an object functional v reduces, on arrow
    indicators, to v(src(a)) = v(tgt(a)) for every arrow a.  The solution
    space is an exact kernel (its dimension is n_objects minus the rank of
    those constraints) and is recombined to the orbit indicator basis; each
    indicator spans a ray of the positive cone, so every flag is True.
    Positive functionals are exactly the nonnegative combinations of the
    returned basis.
    """
    constraints = []
    for a in g.arrows():
        if g.src[a] != g.tgt[a]:
            row = [Fraction(0)] * g.n_objects
            row[g.src[a]] += 1
            row[g.tgt[a]] -= 1
            constraints.append(row)
    kernel_dim = g.n_objects - linalg_q.rank(constraints)
    basis = []
    for orb in orbits(g):
        vec = [Fraction(0)] * g.n_objects
        for x in orb:
            vec[x] = Fraction(1)
        basis.append((vec, True))
    if kernel_dim != len(basis):
        raise AssertionError("invariant functional space is not spanned by orbits")
    return basis


def is_invariant_functional(g: FiniteGroupoid, v) -> bool:
    v = _as_fractions(v, g.n_objects, "object weights")
    return all(v[g.src[a]] == v[g.tgt[a]] for a in g.arrows())


def convolve(g: FiniteGroupoid, u, v) -> Weights:
    """Convolution product: (u * v)(c) sums u(a) v(b) over factorizations c = ab."""
    u = _as_fractions(u, g.n_arrows, "arrow weights")
    v = _as_fractions(v, g.n_arrows, "arrow weights")
    out = [_ZERO] * g.n_arrows
    for a, ua in enumerate(u):
        if ua:
            for b, c in g.by_left[a]:
                if v[b]:
                    out[c] += ua * v[b]
    return out


def unit_trace(g: FiniteGroupoid, w, u) -> Fraction:
    """Localization at units: sum of w(x) u(unit(x)) over objects x."""
    w = _as_fractions(w, g.n_objects, "object weights")
    u = _as_fractions(u, g.n_arrows, "arrow weights")
    return sum((w[x] * u[g.unit[x]] for x in g.objects()), Fraction(0))


def is_trace(g: FiniteGroupoid, w) -> tuple[bool, tuple[int, int] | None]:
    """Brute-force trace test for the unit-localized functional of w.

    Checks tr(delta_a * delta_b) = tr(delta_b * delta_a) over all pairs of
    arrow indicators; returns (True, None) or (False, witness pair).  The
    outcome always coincides with w being constant on orbits.
    """
    w = _as_fractions(w, g.n_objects, "object weights")
    units = {g.unit[x]: x for x in g.objects()}

    def tr_product(a: int, b: int) -> Fraction:
        if not g.composable(a, b):
            return _ZERO
        x = units.get(g.compose_table[(a, b)])
        return w[x] if x is not None else _ZERO

    for a in g.arrows():
        for b in g.arrows():
            if tr_product(a, b) != tr_product(b, a):
                return False, (a, b)
    return True, None


def is_orbit_constant(g: FiniteGroupoid, w) -> bool:
    w = _as_fractions(w, g.n_objects, "object weights")
    return all(len({w[x] for x in orb}) == 1 for orb in orbits(g))


class HaarWeight:
    """Nonnegative object weight inducing the fiber measures mu^x(a) = rho(tgt(a)).

    Right invariance of the induced fiber measures is automatic for this
    encoding.  Validity requires the saturation of the support to be all
    objects, which is equivalent to every s-fiber carrying positive mass.
    """

    def __init__(self, g: FiniteGroupoid, rho):
        rho = _as_fractions(rho, g.n_objects, "Haar weight")
        if any(r < 0 for r in rho):
            raise ValueError("Haar weight must be nonnegative")
        support_orbits = {k for x, k in enumerate(orbit_index(g)) if rho[x] > 0}
        if len(support_orbits) != len(orbits(g)):
            raise ValueError("support of the Haar weight misses an orbit")
        self.groupoid = g
        self.rho = rho

    def fiber_mass(self, x: int) -> Fraction:
        g = self.groupoid
        return sum((self.rho[g.tgt[a]] for a in g.arrows_from(x)), Fraction(0))

    def normalized(self) -> "HaarWeight":
        """Rescale per orbit so every s-fiber has mass one.

        Fiber masses are constant along orbits for this encoding, so a
        single factor per orbit suffices.
        """
        g = self.groupoid
        scale = {}
        for orb in orbits(g):
            scale[orb[0]] = 1 / self.fiber_mass(orb[0])
        idx = orbit_index(g)
        reps = [orb[0] for orb in orbits(g)]
        return HaarWeight(g, [self.rho[x] * scale[reps[idx[x]]] for x in g.objects()])


def counting_haar(g: FiniteGroupoid) -> HaarWeight:
    return HaarWeight(g, [1] * g.n_objects)


def average_function(g: FiniteGroupoid, haar: HaarWeight, f) -> Weights:
    """Average of an object function over s-fibers: sum of f(tgt) rho(tgt).

    The result is constant on orbits; when the Haar weight is normalized
    the average fixes orbit-constant functions.
    """
    f = _as_fractions(f, g.n_objects, "object weights")
    out = []
    for x in g.objects():
        mass = haar.fiber_mass(x)
        if mass == 0:
            raise ValueError(f"s-fiber over object {x} has zero Haar mass")
        out.append(sum((f[g.tgt[a]] * haar.rho[g.tgt[a]] for a in g.arrows_from(x)),
                       Fraction(0)))
    return out

