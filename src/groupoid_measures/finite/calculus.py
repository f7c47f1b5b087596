"""Exact transverse-measure calculus on finite groupoids.

Arrow weights play the role of compactly supported densities on the arrow
space, object weights the role of densities on the objects (all density
bundles are canonically trivial in the finite case, so weights are plain
rational values).  Object weights are lists with one value per object.  Arrow
weights are sparse: a dict arrow -> nonzero ``int`` or ``Fraction``, and a
full-length sequence is read as well.  The two fiber-summation maps send an
arrow weight u to

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
ArrowWeights = dict[int, int | Fraction]


def _as_fractions(values, length: int, what: str) -> Weights:
    out = [v if isinstance(v, Fraction) else Fraction(v) for v in values]
    if len(out) != length:
        raise ValueError(f"{what} must have length {length}, got {len(out)}")
    return out


def _arrow_weights(g: FiniteGroupoid, u) -> ArrowWeights:
    """Sparse arrow weights: a dict arrow -> exact nonzero value.

    ``u`` is such a dict (zeros allowed) or a sequence with one value per
    arrow.  Zeros are left out, and ``int`` values stay ``int``.
    """
    n = len(g.src)
    if isinstance(u, dict):
        items = u.items()
    else:
        u = list(u)
        if len(u) != n:
            raise ValueError(f"arrow weights must have length {n}, got {len(u)}")
        items = enumerate(u)
    out = {}
    for a, v in items:
        if not 0 <= a < n:
            raise ValueError(f"arrow weights name arrow {a}, outside range({n})")
        if type(v) is not int and type(v) is not Fraction:
            v = Fraction(v)
        if v:
            out[a] = v
    return out


def s_shriek(g: FiniteGroupoid, u) -> Weights:
    return _fiber_sum(g, u, g.src)


def t_shriek(g: FiniteGroupoid, u) -> Weights:
    return _fiber_sum(g, u, g.tgt)


def _fiber_sum(g: FiniteGroupoid, u, ends: list[int]) -> Weights:
    """Sum of u over the arrows a with ends[a] = x, for each object x."""
    out = [Fraction(0)] * g.n_objects
    for a, w in _arrow_weights(g, u).items():
        out[ends[a]] += w
    return out


def coinvariants_dimension(g: FiniteGroupoid) -> int:
    """Dimension of coker(s_down - t_down): n_objects minus the exact rank of
    s_down - t_down, whose image is spanned by the columns
    {src(a): 1, tgt(a): -1} of the arrows that are not loops (a loop's column
    is zero).  No basis is built."""
    columns = [{g.src[a]: 1, g.tgt[a]: -1} for a in g.arrows() if g.src[a] != g.tgt[a]]
    return g.n_objects - linalg_q._reduce(columns)


def coinvariants(g: FiniteGroupoid) -> tuple[int, list[Weights]]:
    """Dimension and representatives of coker(s_down - t_down).

    The dimension is ``coinvariants_dimension``.  The representatives are the
    orbit indicator weights, which descend to a basis of the cokernel when the
    dimension equals the orbit count: orbits x objects entries.
    """
    dim = coinvariants_dimension(g)
    basis = []
    for orb in orbits(g):
        vec = [Fraction(0)] * g.n_objects
        for x in orb:
            vec[x] = Fraction(1)
        basis.append(vec)
    return dim, basis


def transverse_measure_cone(g: FiniteGroupoid) -> tuple[int, list[Weights]]:
    """Dimension of {v : v o s_down = v o t_down} and the rays of its positive cone.

    The invariance condition on an object functional v reduces, on arrow
    indicators, to v(src(a)) = v(tgt(a)) for every arrow a: v is in the
    kernel of the transpose of s_down - t_down, whose dimension is the
    cokernel's, n_objects minus the exact rank.  Each orbit indicator spans a
    ray of the positive cone, and positive functionals are exactly the
    nonnegative combinations of the rays when the dimension equals the orbit
    count.
    """
    return coinvariants(g)


def convolve(g: FiniteGroupoid, u, v) -> ArrowWeights:
    """Convolution product: (u * v)(c) sums u(a) v(b) over factorizations c = ab.

    Walks the nonzeros of both factors: those of v grouped by target, then
    each nonzero u(a) meets the v(b) with tgt(b) = src(a).  Returns the
    nonzero entries as arrow weights.
    """
    u, v = _arrow_weights(g, u), _arrow_weights(g, v)
    if not (u and v):
        return {}
    v_into: dict[int, list] = {}
    tgt = g.tgt
    for b, vb in v.items():
        v_into.setdefault(tgt[b], []).append((b, vb))
    table, src = g.compose_table, g.src
    out: ArrowWeights = {}
    for a, ua in u.items():
        for b, vb in v_into.get(src[a], ()):
            c = table[(a, b)]
            out[c] = out.get(c, 0) + ua * vb
    return {c: w for c, w in out.items() if w}


def unit_trace(g: FiniteGroupoid, w, u) -> Fraction:
    """Localization at units: sum of w(x) u(unit(x)) over objects x."""
    w = _as_fractions(w, g.n_objects, "object weights")
    u = _arrow_weights(g, u)
    return sum((w[x] * u.get(g.unit[x], 0) for x in g.objects()), Fraction(0))


def is_trace(g: FiniteGroupoid, w) -> tuple[bool, tuple[int, int] | None]:
    """Trace test for the unit-localized functional of w: (True, None) or
    (False, witness pair).

    tr(delta_a * delta_b) is w(x) when a * b is the unit at x and 0 otherwise,
    so the trace identity can fail only on a pair one of whose products is a
    unit.  The walk of those table entries gives the verdict of a scan over
    all arrow pairs on any table whose keys are in range, valid or not.
    """
    w = _as_fractions(w, g.n_objects, "object weights")
    units = {g.unit[x]: x for x in g.objects()}
    table = g.compose_table
    for (a, b), c in table.items():
        if c in units:
            y = units.get(table.get((b, a)))
            if w[units[c]] != (0 if y is None else w[y]):
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
        """Rescale so every s-fiber has mass one: rho over the fiber mass at
        each object (fiber masses are constant along orbits for this
        encoding, so this is one factor per orbit)."""
        return HaarWeight(self.groupoid,
                          [r / self.fiber_mass(x) for x, r in enumerate(self.rho)])


def counting_haar(g: FiniteGroupoid) -> HaarWeight:
    return HaarWeight(g, [1] * g.n_objects)


def average_function(g: FiniteGroupoid, haar: HaarWeight, f) -> Weights:
    """Average of an object function over s-fibers: the ``s_shriek`` of the
    arrow weight a -> f(tgt a) rho(tgt a).

    The result is constant on orbits; when the Haar weight is normalized
    the average fixes orbit-constant functions.
    """
    f = _as_fractions(f, g.n_objects, "object weights")
    weighted = [v * r for v, r in zip(f, haar.rho)]
    return s_shriek(g, [weighted[y] for y in g.tgt])
