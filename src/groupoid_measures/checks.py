"""Named check catalog: every operation exposed as a scenario-runnable check.

Each check declares its parameters once, as ``key=(kind, default)``.  A runner
gets the scenario context, the tolerance and the values read through those
declarations, and returns ``(lhs, rhs)`` or ``{label: (lhs, rhs)}``.  Exact-engine
checks compare with zero tolerance; quadrature checks carry the module default
tolerances (1e-6 quadrature, 1e-9 analytic, 1e-4 for derivative identities).
"""

from __future__ import annotations

import json
import random
from dataclasses import dataclass
from fractions import Fraction
from typing import Callable

import numpy as np

from . import finite
from .density.grids import Axis, Grid, integrate, positive_finite
from .expressions import (COUNT, FIELD, INT, NATURAL, NUMBER, REQUIRED, SCALAR, ScenarioError,
                          compile_field, integer, listed)
from .reports import CheckRow
from .smooth import (
    DEFAULT_TEST_COUNT,
    ActionGroupoidModel,
    ArrowFunction,
    FiberObstructionError,
    FoliatedGrid,
    ModelError,
    OneForm,
    SaturationError,
    SubmersionGroupoidModel,
    TransverseDensityData,
    averaging,
    build_model,
    cocycle_additivity_defect,
    cocycle_vanishing_defect,
    cutoff_construct,
    cutoff_normalization_defect,
    default_test_set,
    exactness_probe,
    exterior_derivative,
    invariance_defects,
    modular_cocycle,
    orbit_density,
    ruelle_sullivan_evaluate,
    s_fiber_integrate,
    stokes_defect,
    t_fiber_integrate,
    weinstein_volume,
    weyl_check,
)
from .symplectic import (
    LeafFamilyModel,
    SymplecticPairModel,
    affine_measure,
    affine_volume,
    dh_total_mass_two_ways,
    dh_weyl_check,
    leaf_family_from_doc,
    liouville_density,
)


# ---------------------------------------------------------------------------
# model construction from scenario descriptors

_SWAPS = listed(listed(INT, "points"), "point pairs")

# The most composable pairs a finite groupoid may have, checked on its descriptor
# before any list or table is built: at 100 to 170 bytes per composition-table
# entry, 2**20 pairs take up to 170 MiB.  The largest bundled groupoid has 27.
MAX_COMPOSABLE_PAIRS = 2 ** 20
# the composable pairs of a kind from its size: n, n**3, n**2 and 4 * points
_PAIRS = {"unit": ("n", lambda n: n), "pair": ("n", lambda n: n ** 3),
          "cyclic": ("n", lambda n: n ** 2), "z2_action": ("points", lambda p: 4 * p)}
# The most nerve strings a check may enumerate, summed over its degrees and
# counted by finite.nerve_size before any string is built.  Each string, with its
# boundary column and reduction, took 1.1 to 1.4 KB of peak RSS (homology up to
# degree 2 of Z32 and Z48: 33 825 and 112 945 strings; Z48 took 13.9 s on 2 cores,
# Python 3.11), so 2**17 strings take about 190 MB.  The largest bundled
# enumeration has 120.
MAX_NERVE_STRINGS = 2 ** 17


def composable_pairs(doc: dict) -> int:
    """The composable pairs of a descriptor's groupoid, summed over the parts
    of a disjoint union; a ``json`` document lists its own table and counts 0."""
    kind = doc.get("kind")
    if kind == "disjoint_union":
        parts = doc.get("parts")
        if not (isinstance(parts, list) and parts and all(isinstance(p, dict) for p in parts)):
            raise ScenarioError(f"'parts' must be a nonempty list of groupoid "
                                f"descriptors, got {parts!r}")
        return sum(composable_pairs(p) for p in parts)
    if not (isinstance(kind, str) and kind in _PAIRS):
        return 0
    size, pairs = _PAIRS[kind]
    return pairs(COUNT.read(doc, size))


def check_nerve_size(g: finite.FiniteGroupoid, kmax: int) -> None:
    """Refuse a check that would enumerate the nerve of g in degrees 0..kmax
    when that is more than MAX_NERVE_STRINGS strings."""
    strings = sum(finite.nerve_size(g, k) for k in range(kmax + 1))
    if strings > MAX_NERVE_STRINGS:
        raise ScenarioError(f"the nerve has {strings} strings in degrees 0..{kmax}, "
                            f"more than {MAX_NERVE_STRINGS}")


def build_finite_groupoid(doc: dict) -> finite.FiniteGroupoid:
    """A groupoid descriptor; an empty groupoid would make every check vacuous,
    and one of more than MAX_COMPOSABLE_PAIRS composable pairs is refused."""
    if composable_pairs(doc) > MAX_COMPOSABLE_PAIRS:
        raise ScenarioError(f"a {doc['kind']!r} groupoid has more than "
                            f"{MAX_COMPOSABLE_PAIRS} composable pairs")
    kind = doc.get("kind")
    if kind == "unit":
        return finite.unit_groupoid(COUNT.read(doc, "n"))
    if kind == "pair":
        return finite.pair_groupoid(COUNT.read(doc, "n"))
    if kind == "cyclic":
        n = COUNT.read(doc, "n")
        return finite.group_groupoid(finite.cyclic_group_table(n), name=f"Z{n}")
    if kind == "z2_action":
        points = COUNT.read(doc, "points")
        perm = list(range(points))
        for pair in _SWAPS.read(doc, "swaps", ()):
            if len(pair) != 2 or not all(0 <= p < points for p in pair):
                raise ScenarioError(f"swap {list(pair)} is not a pair of points "
                                    f"in range({points})")
            a, b = pair
            perm[a], perm[b] = perm[b], perm[a]
        action = [list(range(points)), perm]
        return finite.action_groupoid(finite.cyclic_group_table(2), action,
                                      points, name="z2_action")
    if kind == "disjoint_union":  # composable_pairs has read its parts
        out = build_finite_groupoid(doc["parts"][0])
        for p in doc["parts"][1:]:
            out = finite.disjoint_union(out, build_finite_groupoid(p))
        return out
    if kind == "json":
        try:
            return finite.from_json(json.dumps(doc.get("doc")))
        except finite.GroupoidFormatError as exc:
            raise ScenarioError(str(exc)) from exc
    raise ScenarioError(f"unknown finite groupoid kind {kind!r}")


class ScenarioContext:
    """Lazily builds the engine objects a scenario's checks operate on."""

    def __init__(self, name: str, engine: str, model_doc: dict, seed: int):
        self.name = name
        self.engine = engine
        self.model_doc = model_doc
        self.seed = seed
        self._cache: dict = {}

    def rng(self, salt: int = 0) -> random.Random:
        return random.Random(self.seed + salt)

    def groupoid(self) -> finite.FiniteGroupoid:
        if "groupoid" not in self._cache:
            self._cache["groupoid"] = build_finite_groupoid(self.model_doc)
        return self._cache["groupoid"]

    def homology(self, kmax: int) -> finite.HomologyReport:
        """Nerve homology of the groupoid up to degree kmax, computed once.

        Degrees up to k of a report need only the ranks of d_1..d_{k+1}, so
        the report for the largest kmax asked so far answers every smaller one.
        A nerve of more than MAX_NERVE_STRINGS strings in degrees 0..kmax+1 is
        refused.
        """
        rep = self._cache.get("homology")
        if rep is None or len(rep.degrees) <= kmax:
            check_nerve_size(self.groupoid(), kmax + 1)
            rep = self._cache["homology"] = finite.homology(self.groupoid(), kmax)
        return finite.HomologyReport(rep.degrees[:kmax + 1])

    def model(self) -> ActionGroupoidModel:
        """The scenario's group action model."""
        if "model" not in self._cache:
            try:
                self._cache["model"] = build_model(self.model_doc)
            except ModelError as exc:  # a model that its values do not describe
                raise ScenarioError(str(exc)) from exc
        return self._cache["model"]

    def proper_model(self) -> ActionGroupoidModel:
        """The scenario's model, for a check that integrates over its
        invariant group quadrature; a model without one is an input error."""
        model = self.model()
        if not model.proper:
            raise ScenarioError(f"model {model.name!r} is not a proper action "
                                "model: it has no invariant group quadrature")
        return model

    def sigma(self) -> TransverseDensityData:
        if "sigma" not in self._cache:
            doc = self.model_doc.get("sigma", {})
            if not isinstance(doc, dict):
                raise ScenarioError(f"sigma must be an object, got {doc!r}")
            self._cache["sigma"] = self.sigma_from(doc)
        return self._cache["sigma"]

    def sigma_from(self, doc: dict) -> TransverseDensityData:
        model = self.model()
        ndim = model.grid.ndim
        tau = doc.get("tau", "lebesgue")
        tau_fn = model.volume_coefficient if tau == "lebesgue" else compile_field(tau, ndim)
        if "rho" not in doc and tau == "lebesgue":
            return TransverseDensityData.lebesgue(model)
        rho_fn = compile_field(doc.get("rho", "1.0 + 0*c0"), ndim)
        try:
            return TransverseDensityData(model, rho_fn, tau_fn)
        except ModelError as exc:  # a weight or density of the wrong sign
            raise ScenarioError(str(exc)) from exc

    def defects(self, sigma_doc: dict | None,
                count: int = DEFAULT_TEST_COUNT) -> tuple[float, float]:
        """(invariance, inversion) defect of a transverse density over the
        ``count`` test functions drawn from rng(4), computed once per
        (density document, count).

        ``sigma_doc`` None means the scenario's own density.
        """
        key = ("defects", json.dumps(sigma_doc, sort_keys=True), count)
        if key not in self._cache:
            model = self.proper_model()
            sigma = self.sigma() if sigma_doc is None else self.sigma_from(sigma_doc)
            tests = default_test_set(model, self.rng(4), count=count)
            self._cache[key] = invariance_defects(model, sigma, tests)
        return self._cache[key]

    def model_of_kind(self, kind: str) -> dict:
        """The model document of a check that builds its own model of ``kind``."""
        if self.model_doc.get("kind") != kind:
            raise ScenarioError(f"needs a {kind!r} model, got kind "
                                f"{self.model_doc.get('kind')!r}")
        return self.model_doc

    def foliation(self, min_leaf: int = 3, min_transverse: int = 2) -> FoliatedGrid:
        """The unit-square foliation; a derivative stencil needs 3 nodes, a rule 2."""
        doc = self.model_of_kind("foliation")
        n_leaf = INT.read(doc, "n_leaf", 257)
        n_tr = INT.read(doc, "n_transverse", 33)
        if n_leaf < min_leaf or n_tr < min_transverse:
            raise ScenarioError(f"needs n_leaf >= {min_leaf} and n_transverse >= "
                                f"{min_transverse}, got {n_leaf} and {n_tr}")
        if "foliation" not in self._cache:
            grid = Grid([Axis(n_leaf, 0.0, 1.0), Axis(n_tr, 0.0, 1.0)])
            self._cache["foliation"] = FoliatedGrid(grid, leaf_axis=0)
        return self._cache["foliation"]

    def cutoff(self, expr: str, key: str) -> np.ndarray:
        """Cut-off of the scenario's density from a seed expression, built
        once per expression; a seed that misses an orbit raises SaturationError.
        """
        model = self.proper_model()
        memo = ("cutoff", expr)
        if memo not in self._cache:
            phi = compile_field(expr, model.grid.ndim)(*model.grid.meshgrid())
            if not positive_finite(phi, strict=False):
                raise ScenarioError(f"cut-off seed {key!r} must be nonnegative and "
                                    f"finite, got {expr!r}")
            self._cache[memo] = cutoff_construct(model, self.sigma().rho_values, phi)
        return self._cache[memo]

    def surface(self) -> SymplecticPairModel:
        """The scenario's symplectic surface: ``kind`` "sphere" or "torus_cell"."""
        if "surface" not in self._cache:
            kind = self.model_doc.get("kind")
            if kind == "sphere":
                self._cache["surface"] = SymplecticPairModel.sphere(
                    area=NUMBER.read(self.model_doc, "area", 4 * np.pi))
            elif kind == "torus_cell":
                self._cache["surface"] = SymplecticPairModel.torus_cell()
            else:
                raise ScenarioError(f"needs a 'sphere' or 'torus_cell' model, "
                                    f"got kind {kind!r}")
        return self._cache["surface"]

    def leaf_family(self, iota: int | None = None) -> LeafFamilyModel:
        """The scenario's leaf family, built once; another iota gives a twin
        that shares its leaves.  A leaf-family document carries no ``kind``."""
        key = ("leaf_family", iota)
        if "kind" in self.model_doc:
            raise ScenarioError(f"needs a leaf-family model, which has no kind, "
                                f"got kind {self.model_doc['kind']!r}")
        if key not in self._cache:
            self._cache[key] = (leaf_family_from_doc(self.model_doc) if iota is None
                                else self.leaf_family().with_iota(iota))
        return self._cache[key]


# ---------------------------------------------------------------------------
# the catalog

@dataclass(frozen=True)
class CheckDef:
    """A catalog entry; ``params`` maps each key to ``(kind, default)``."""
    name: str
    engine: str
    runner: Callable
    default_tol: float
    exact: bool
    params: dict

    def read_params(self, params) -> dict:
        """The values of every declared parameter, read from a scenario entry."""
        if not isinstance(params, dict):
            raise ScenarioError(f"params must be an object, got {params!r}")
        for key in params:
            if key not in self.params:
                raise ScenarioError(f"unknown parameter {key!r}; declared: "
                                    f"{', '.join(self.params) or 'none'}")
        return {key: kind.read(params, key, default)
                for key, (kind, default) in self.params.items()}

    def rows(self, scenario: str, result, tol: float) -> list[CheckRow]:
        """Report rows; exact checks keep ``int`` and ``Fraction`` sides."""
        labelled = result if isinstance(result, dict) else {self.name: result}
        side = _exact_side if self.exact else float
        return [CheckRow(scenario, label, side(lhs), side(rhs), tol, self.exact)
                for label, (lhs, rhs) in labelled.items()]


def _exact_side(value):
    return value if isinstance(value, (int, Fraction)) else float(value)


REGISTRY: dict[str, CheckDef] = {}


def register(name: str, engine: str, default_tol: float, exact: bool | None = None,
             **params):
    def wrap(fn):
        REGISTRY[name] = CheckDef(name, engine, fn, default_tol,
                                  engine == "finite" if exact is None else exact, params)
        return fn
    return wrap


# ---------------------------------------------------------------------------
# finite engine checks (all exact: tolerance 0)

@register("axioms_valid", "finite", 0.0)
def _axioms_valid(ctx, tol):
    return len(finite.validate(ctx.groupoid())), 0


@register("coinvariants_dimension", "finite", 0.0)
def _coinv_dim(ctx, tol):
    g = ctx.groupoid()
    return finite.coinvariants(g)[0], len(finite.orbits(g))


@register("cone_dimension", "finite", 0.0)
def _cone_dim(ctx, tol):
    g = ctx.groupoid()
    return len(finite.transverse_measure_cone(g)), len(finite.orbits(g))


@register("betti_zero", "finite", 0.0)
def _betti_zero(ctx, tol):
    return ctx.homology(0).degrees[0].betti, len(finite.orbits(ctx.groupoid()))


@register("homology_betti", "finite", 0.0, kmax=(NATURAL, 2),
          expected=(listed(INT, "Betti numbers"), None))
def _homology(ctx, tol, kmax, expected):
    if expected is not None and len(expected) < kmax + 1:
        raise ScenarioError(f"expected lists {len(expected)} Betti numbers, "
                            f"kmax {kmax} needs {kmax + 1}")
    rep = ctx.homology(kmax)
    if expected is None:
        expected = [len(finite.orbits(ctx.groupoid()))] + [0] * kmax
    return {f"homology_betti[{d.degree}]": (d.betti, expected[d.degree])
            for d in rep.degrees}


@register("boundary_squares", "finite", 0.0, kmax=(integer(2), 3))
def _boundary_squares(ctx, tol, kmax):
    g = ctx.groupoid()
    check_nerve_size(g, kmax)
    nerves = [finite.nerve(g, k) for k in range(kmax + 1)]
    d = [None] + [finite.boundary_columns(g, k, nerves[k], nerves[k - 1])
                  for k in range(1, kmax + 1)]
    rows = {}
    for k in range(2, kmax + 1):
        prod = finite.linalg_q.compose(d[k - 1], d[k])
        worst = max((abs(v) for col in prod for v in col.values()), default=0)
        rows[f"boundary_squares[{k}]"] = (worst, 0)
    return rows


@register("trace_matches_orbit_constancy", "finite", 0.0, samples=(COUNT, 6))
def _trace_equiv(ctx, tol, samples):
    g = ctx.groupoid()
    rng = ctx.rng(1)
    weights = [[Fraction(1)] * g.n_objects]
    for orb in finite.orbits(g):
        vec = [Fraction(0)] * g.n_objects
        for x in orb:
            vec[x] = Fraction(2)
        weights.append(vec)
    for _ in range(samples):
        weights.append([Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                        for _ in range(g.n_objects)])
    return sum(finite.is_trace(g, w)[0] != finite.is_orbit_constant(g, w)
               for w in weights), 0


@register("morita_restriction", "finite", 0.0,
          subset=(listed(INT, "objects"), None), kmax=(NATURAL, 2))
def _morita(ctx, tol, subset, kmax):
    g = ctx.groupoid()
    if subset is None:
        subset = [orb[0] for orb in finite.orbits(g)]
    try:
        sub = finite.restrict_full_subgroupoid(g, list(subset))
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    full = ctx.homology(kmax).betti()
    # a full subgroupoid's nerve is part of the nerve that ctx.homology capped
    restricted = finite.homology(sub, kmax).betti()
    return {f"morita_restriction[{k}]": (restricted[k], full[k]) for k in range(kmax + 1)}


@register("convolution_associative", "finite", 0.0)
def _assoc(ctx, tol):
    g = ctx.groupoid()
    deltas = [{a: 1} for a in g.arrows()]
    # each product of two indicators once; both bracketings of every triple
    # still go through convolve
    pairs = [[finite.convolve(g, da, db) for db in deltas] for da in deltas]
    violations = 0
    for a, da in enumerate(deltas):
        for b in g.arrows():
            for c, dc in enumerate(deltas):
                if finite.convolve(g, pairs[a][b], dc) != finite.convolve(g, da, pairs[b][c]):
                    violations += 1
    return violations, 0


@register("average_orbit_constant", "finite", 0.0, samples=(COUNT, 5))
def _avg_const(ctx, tol, samples):
    g = ctx.groupoid()
    haar = finite.counting_haar(g)
    rng = ctx.rng(2)
    violations = 0
    for _ in range(samples):
        f = [Fraction(rng.randrange(-5, 6), 2) for _ in range(g.n_objects)]
        av = finite.average_function(g, haar, f)
        violations += sum(av[g.src[a]] != av[g.tgt[a]] for a in g.arrows())
    return violations, 0


# ---------------------------------------------------------------------------
# smooth engine checks

@register("model_axioms", "smooth", 1e-9)
def _model_axioms(ctx, tol):
    # the row compares the defect with tol; check_axioms itself never raises here
    return ctx.model().check_axioms(ctx.rng(3), tol=np.inf), 0.0


@register("invariance_defect", "smooth", 1e-6, count=(COUNT, DEFAULT_TEST_COUNT))
def _inv_defect(ctx, tol, count):
    return ctx.defects(None, count)[0], 0.0


@register("inversion_defect", "smooth", 1e-6, count=(COUNT, DEFAULT_TEST_COUNT))
def _invsn_defect(ctx, tol, count):
    return ctx.defects(None, count)[1], 0.0


_CONSTANT_SEED = "1.0 + 0*c0"
_WITNESS = {"tau": (FIELD, REQUIRED), "rho": (FIELD, _CONSTANT_SEED),
            "min_defect": (NUMBER, 1e-3)}


@register("invariance_witness", "smooth", 0.0, **_WITNESS)
def _inv_witness(ctx, tol, tau, rho, min_defect):
    invariance, _ = ctx.defects({"rho": rho, "tau": tau})
    return max(0.0, min_defect - invariance), 0.0


@register("inversion_witness", "smooth", 0.0, **_WITNESS)
def _invsn_witness(ctx, tol, tau, rho, min_defect):
    _, inversion = ctx.defects({"rho": rho, "tau": tau})
    return max(0.0, min_defect - inversion), 0.0


@register("averaging_annihilates", "smooth", 1e-6, count=(COUNT, 20))
def _avg_annihilates(ctx, tol, count):
    model, sigma = ctx.proper_model(), ctx.sigma()
    rng = ctx.rng(5)
    worst = 0.0
    for _ in range(count):
        u = ArrowFunction.random(model, rng)
        diff = s_fiber_integrate(model, sigma.rho_values, u)
        diff -= t_fiber_integrate(model, sigma.rho_values, u)
        res = averaging(model, sigma.rho_values, diff)
        worst = max(worst, float(np.max(np.abs(res.values))))
    return worst, 0.0


@register("averaging_orbit_constant", "smooth", 1e-6)
def _avg_orbit_const(ctx, tol):
    model, sigma = ctx.proper_model(), ctx.sigma()
    section = ArrowFunction.random(model, ctx.rng(6)).slice(0)
    return averaging(model, sigma.rho_values, section, tol=tol).constancy_defect, 0.0


def _cutoff(ctx, expr: str, key: str) -> np.ndarray:
    """The cut-off of the seed parameter ``key``; a seed that misses an orbit
    is an input error."""
    try:
        return ctx.cutoff(expr, key)
    except SaturationError as exc:
        raise ScenarioError(f"cut-off seed {key!r}: {exc}") from exc


@register("cutoff_normalization", "smooth", 1e-9, phi=(FIELD, _CONSTANT_SEED))
def _cutoff_norm(ctx, tol, phi):
    model, sigma = ctx.proper_model(), ctx.sigma()
    return cutoff_normalization_defect(model, sigma.rho_values,
                                       _cutoff(ctx, phi, "phi")), 0.0


@register("weyl", "smooth", 1e-6, f=(FIELD, REQUIRED), phi=(FIELD, _CONSTANT_SEED))
def _weyl(ctx, tol, f, phi):
    model, sigma = ctx.proper_model(), ctx.sigma()
    values = compile_field(f, model.grid.ndim)(*model.grid.meshgrid())
    return weyl_check(model, sigma, values, cutoff=_cutoff(ctx, phi, "phi"))


@register("weyl_seed_independence", "smooth", 2e-6, f=(FIELD, REQUIRED),
          phi1=(FIELD, REQUIRED), phi2=(FIELD, REQUIRED))
def _weyl_seeds(ctx, tol, f, phi1, phi2):
    model, sigma = ctx.proper_model(), ctx.sigma()
    values = compile_field(f, model.grid.ndim)(*model.grid.meshgrid())
    c1, c2 = _cutoff(ctx, phi1, "phi1"), _cutoff(ctx, phi2, "phi2")
    return (weyl_check(model, sigma, values, cutoff=c1)[1],
            weyl_check(model, sigma, values, cutoff=c2)[1])


@register("weinstein_two_ways", "smooth", 1e-6, phi=(FIELD, _CONSTANT_SEED))
def _weinstein(ctx, tol, phi):
    return weinstein_volume(ctx.proper_model(), ctx.sigma(),
                            cutoff=_cutoff(ctx, phi, "phi"))


@register("weinstein_expected", "smooth", 1e-9, expected=(SCALAR, REQUIRED))
def _weinstein_expected(ctx, tol, expected):
    direct, _ = weinstein_volume(ctx.proper_model(), ctx.sigma(),
                                 cutoff=_cutoff(ctx, _CONSTANT_SEED, "phi"))
    return direct, expected


def _grid_node(model, node) -> tuple[int, ...]:
    """``node`` as a multi-index of the model grid; None is the first node."""
    shape = model.grid.shape
    if node is None:
        return (0,) * len(shape)
    if len(node) != len(shape) or not all(0 <= i < n for i, n in zip(node, shape)):
        raise ScenarioError(f"node {list(node)} is not a node of the {shape} grid")
    return node


_NODE = (listed(INT, "grid indices"), None)


@register("orbit_density_mass", "smooth", 1e-9, node=_NODE, expected=(NUMBER, 1.0))
def _orbit_mass(ctx, tol, node, expected):
    model, sigma = ctx.proper_model(), ctx.sigma()
    measure = orbit_density(model, sigma.rho_values, _grid_node(model, node))
    return measure.total(), expected


@register("orbit_density_basepoint", "smooth", 1e-9, node=_NODE)
def _orbit_basepoint(ctx, tol, node):
    model, sigma = ctx.proper_model(), ctx.sigma()
    first = orbit_density(model, sigma.rho_values, _grid_node(model, node))
    other = np.unravel_index(max(first.masses), model.grid.shape)
    second = orbit_density(model, sigma.rho_values, tuple(int(i) for i in other))
    return first.distance(second), 0.0


def _cocycle_input(cocycle, *args):
    """A cocycle value or defect; a sigma that is not positive and finite at
    the ends of an arrow (which may leave the model grid) is an input error."""
    try:
        return cocycle(*args)
    except ModelError as exc:
        raise ScenarioError(str(exc)) from exc


@register("cocycle_additivity", "smooth", 1e-9, samples=(COUNT, 100))
def _cocycle_add(ctx, tol, samples):
    return _cocycle_input(cocycle_additivity_defect, ctx.model(), ctx.sigma(),
                         ctx.rng(7), samples), 0.0


@register("cocycle_vanishes", "smooth", 1e-12, samples=(COUNT, 50))
def _cocycle_zero(ctx, tol, samples):
    return _cocycle_input(cocycle_vanishing_defect, ctx.model(), ctx.sigma(),
                         ctx.rng(8), samples), 0.0


@register("cocycle_expected", "smooth", 1e-9, element=(INT, REQUIRED),
          point=(listed(NUMBER, "coordinates"), (1.0,)), expected=(SCALAR, REQUIRED))
def _cocycle_expected(ctx, tol, element, point, expected):
    model = ctx.model()
    if not 0 <= element < model.group_size or len(point) != model.grid.ndim:
        raise ScenarioError(f"needs an element in range({model.group_size}) and a "
                            f"point with {model.grid.ndim} coordinates")
    return _cocycle_input(modular_cocycle, model, ctx.sigma(), element, point), expected


@register("cutoff_saturation_error", "smooth", 0.0, exact=True, phi=(FIELD, REQUIRED))
def _cutoff_saturation(ctx, tol, phi):
    try:
        ctx.cutoff(phi, "phi")
    except SaturationError:
        return 1, 1
    return 0, 1


_TRANSVERSE = (FIELD, "1.0 + 0.5*sin(2*pi*y)")
_LEAF_FORM = (FIELD, "x*(1-x)**2 * exp(-3*y)")


def _transverse_profile(fol, expr: str):
    nodes = fol.grid.nodes(1)
    return compile_field(expr, 2)(np.zeros_like(nodes), nodes)


def _foliation_data(ctx, omega: str, transverse: str):
    fol = ctx.foliation()
    omega_values = compile_field(omega, 2)(*fol.grid.meshgrid())
    return fol, _transverse_profile(fol, transverse), omega_values


@register("stokes_closed", "smooth", 1e-4, omega=_LEAF_FORM, transverse=_TRANSVERSE)
def _stokes(ctx, tol, omega, transverse):
    return stokes_defect(*_foliation_data(ctx, omega, transverse)), 0.0


@register("stokes_order", "smooth", 0.0, omega=_LEAF_FORM, transverse=_TRANSVERSE,
          min_order=(NUMBER, 1.8))
def _stokes_order(ctx, tol, omega, transverse, min_order):
    # the half-resolution level keeps 3 leaf nodes
    n = ctx.foliation(min_leaf=5).grid.shape[0] - 1
    defects = []
    for resolution in (n // 2, n):
        sub = ScenarioContext(ctx.name, ctx.engine,
                              dict(ctx.model_doc, n_leaf=resolution + 1), ctx.seed)
        defects.append(stokes_defect(*_foliation_data(sub, omega, transverse)))
    # a zero fine defect means the scheme is exact for this omega
    order = float(np.log2(defects[0] / defects[1])) if defects[1] else np.inf
    return max(0.0, min_order - order), 0.0


@register("ruelle_sullivan_closed", "smooth", 1e-4, beta=_LEAF_FORM,
          transverse=_TRANSVERSE)
def _rs_closed(ctx, tol, beta, transverse):
    fol = ctx.foliation(min_transverse=3)
    beta_values = compile_field(beta, 2)(*fol.grid.meshgrid())
    value = ruelle_sullivan_evaluate(fol, _transverse_profile(fol, transverse),
                                     exterior_derivative(fol, beta_values))
    return abs(value), 0.0


@register("ruelle_sullivan_pairing", "smooth", 1e-6, transverse=_TRANSVERSE)
def _rs_pairing(ctx, tol, transverse):
    fol = ctx.foliation()
    weights = _transverse_profile(fol, transverse)
    shape = fol.grid.shape
    value = ruelle_sullivan_evaluate(fol, weights,
                                     OneForm(np.ones(shape), np.zeros(shape)))
    leaf_len = fol.grid.axes[0].length
    return value, leaf_len * (weights * fol.grid.axes[1].weights()).sum()


def _submersion(ctx) -> SubmersionGroupoidModel:
    doc = ctx.model_of_kind("submersion_probe")
    nodes = integer(2)  # the fewest an interval rule takes
    grid = Grid([Axis(nodes.read(doc, "n_base", 9), -2.0, 2.0),
                 Axis(nodes.read(doc, "n_fiber", 8193), -4.0, 4.0)])
    return SubmersionGroupoidModel(grid, fiber_axes=[1])


@register("exactness_reconstruction", "smooth", 1e-6)
def _exactness(ctx, tol):
    model = _submersion(ctx)
    X, Y = model.total.meshgrid()
    bump = np.exp(-(X ** 2 + Y ** 2))
    report = exactness_probe(model, -2.0 * Y * bump)
    err = float(np.max(np.abs(report.antiderivative - bump)))
    return {"exactness_reconstruction": (err, 0.0),
            "exactness_tail": (report.tail_magnitude, 0.0)}


@register("exactness_obstruction", "smooth", 0.0, exact=True)
def _obstruction(ctx, tol):
    model = _submersion(ctx)
    X, Y = model.total.meshgrid()
    try:
        exactness_probe(model, np.exp(-(X ** 2 + Y ** 2)))
    except FiberObstructionError:
        return 1, 1
    return 0, 1


# ---------------------------------------------------------------------------
# symplectic checks

@register("liouville_total", "symplectic", 1e-6, expected=(SCALAR, REQUIRED))
def _liouville(ctx, tol, expected):
    return integrate(liouville_density(ctx.surface())), expected


@register("dh_two_ways", "symplectic", 1e-5)
def _dh_two(ctx, tol):
    return dh_total_mass_two_ways(ctx.surface())


@register("dh_expected", "symplectic", 1e-5, expected=(SCALAR, REQUIRED))
def _dh_expected(ctx, tol, expected):
    return dh_total_mass_two_ways(ctx.surface())[0], expected


@register("affine_total", "symplectic", 1e-6, expected=(SCALAR, REQUIRED))
def _affine_total(ctx, tol, expected):
    return affine_measure(ctx.leaf_family()).total_mass(), expected


@register("dh_weyl", "symplectic", 1e-6, f=(FIELD, "1.0 + 0*t"))
def _dh_weyl(ctx, tol, f):
    family = ctx.leaf_family()
    profile = compile_field(f, 1)(family.base.nodes(0))
    return dh_weyl_check(family, lambda i: np.full(family.leaf.grid.shape, profile[i]))


@register("affine_volume_two_ways", "symplectic", 1e-6)
def _affine_vol(ctx, tol):
    return affine_volume(ctx.leaf_family())


@register("iota_scaling", "symplectic", 1e-9)
def _iota_scaling(ctx, tol):
    family = ctx.leaf_family()
    base = affine_volume(family)[0]
    doubled = affine_volume(ctx.leaf_family(iota=2 * family.iota))[0]
    return doubled / base, 0.5


def catalog() -> list[CheckDef]:
    return sorted(REGISTRY.values(), key=lambda d: (d.engine, d.name))
