"""Named check catalog: every operation exposed as a scenario-runnable check.

A check receives a scenario context, parameter dict and tolerance and
returns report rows.  Exact-engine checks compare with zero tolerance;
quadrature checks carry the module default tolerances (1e-6 quadrature,
1e-9 analytic, 1e-4 for discretized-derivative identities).
"""

from __future__ import annotations

import json
from dataclasses import dataclass
from fractions import Fraction

import numpy as np

from . import finite
from .density import Axis, DensityField, Grid, integrate
from .expressions import compile_field, evaluate_scalar
from .reports import CheckRow
from .smooth import (
    DEFAULT_TEST_COUNT,
    ArrowFunction,
    FiberObstructionError,
    FoliatedGrid,
    ModelError,
    OneForm,
    SaturationError,
    SubmersionGroupoidModel,
    TransverseDensityData,
    as_int,
    averaging,
    build_model,
    cocycle_additivity_defect,
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
    SymplecticModelError,
    SymplecticPairModel,
    affine_measure,
    affine_volume,
    dh_total_mass_two_ways,
    dh_weyl_check,
    leaf_family_from_doc,
    liouville_density,
)


class ScenarioError(ValueError):
    """Scenario input is malformed (unknown kinds, bad parameters)."""


def _required(params: dict, key: str):
    """A parameter the check cannot default; a missing one is an input error."""
    if key not in params:
        raise ScenarioError(f"missing required parameter {key!r}")
    return params[key]


def _int(params: dict, key: str, default: int | None = None) -> int:
    """An integer parameter; without a default it is required."""
    value = _required(params, key) if default is None else params.get(key, default)
    return as_int(value, f"parameter {key!r}", ScenarioError)


# ---------------------------------------------------------------------------
# model construction from scenario descriptors

def build_finite_groupoid(doc: dict) -> finite.FiniteGroupoid:
    kind = doc.get("kind")
    if kind == "unit":
        return finite.unit_groupoid(_int(doc, "n"))
    if kind == "pair":
        return finite.pair_groupoid(_int(doc, "n"))
    if kind == "cyclic":
        return finite.group_groupoid(finite.cyclic_group_table(_int(doc, "n")),
                                     name=f"Z{doc['n']}")
    if kind == "z2_action":
        points = _int(doc, "points")
        perm = list(range(points))
        for a, b in doc.get("swaps", []):
            perm[a], perm[b] = perm[b], perm[a]
        action = [list(range(points)), perm]
        return finite.action_groupoid(finite.cyclic_group_table(2), action,
                                      points, name="z2_action")
    if kind == "disjoint_union":
        parts = [build_finite_groupoid(p) for p in doc["parts"]]
        out = parts[0]
        for p in parts[1:]:
            out = finite.disjoint_union(out, p)
        return out
    if kind == "json":
        import json as _json
        return finite.from_json(_json.dumps(doc["doc"]))
    raise ScenarioError(f"unknown finite groupoid kind {kind!r}")


class ScenarioContext:
    """Lazily builds the engine objects a scenario's checks operate on."""

    def __init__(self, name: str, engine: str, model_doc: dict, seed: int):
        self.name = name
        self.engine = engine
        self.model_doc = model_doc
        self.seed = seed
        self._cache: dict = {}

    def rng(self, salt: int = 0) -> np.random.Generator:
        return np.random.default_rng(self.seed + salt)

    def groupoid(self) -> finite.FiniteGroupoid:
        if "groupoid" not in self._cache:
            self._cache["groupoid"] = build_finite_groupoid(self.model_doc)
        return self._cache["groupoid"]

    def homology(self, kmax: int) -> finite.HomologyReport:
        """Nerve homology of the groupoid up to degree kmax, computed once.

        Degrees up to k of a report need only the ranks of d_1..d_{k+1}, so
        the report for the largest kmax asked so far answers every smaller one.
        """
        if kmax < 0:
            raise ScenarioError(f"kmax must be nonnegative, got {kmax}")
        rep = self._cache.get("homology")
        if rep is None or len(rep.degrees) <= kmax:
            rep = self._cache["homology"] = finite.homology(self.groupoid(), kmax)
        return finite.HomologyReport(rep.degrees[:kmax + 1])

    def model(self):
        if "model" not in self._cache:
            try:
                self._cache["model"] = build_model(self.model_doc)
            except ModelError as exc:
                raise ScenarioError(str(exc)) from exc
        return self._cache["model"]

    def sigma(self) -> TransverseDensityData:
        if "sigma" not in self._cache:
            doc = self.model_doc.get("sigma", {})
            self._cache["sigma"] = self.sigma_from(doc)
        return self._cache["sigma"]

    def sigma_from(self, doc: dict) -> TransverseDensityData:
        model = self.model()
        ndim = model.grid.ndim
        tau = doc.get("tau", "lebesgue")
        tau_fn = (TransverseDensityData.lebesgue(model).tau_fn
                  if tau == "lebesgue" else compile_field(tau, ndim))
        if "rho" not in doc and tau == "lebesgue":
            return TransverseDensityData.lebesgue(model)
        rho_fn = compile_field(doc.get("rho", "1.0 + 0*c0"), ndim)
        return TransverseDensityData(model, rho_fn, tau_fn)

    def defects(self, sigma_doc: dict | None,
                count: int = DEFAULT_TEST_COUNT) -> tuple[float, float]:
        """(invariance, inversion) defect of a transverse density over the
        ``count`` test functions drawn from rng(4), computed once per
        (density document, count).

        ``sigma_doc`` None means the scenario's own density.
        """
        key = ("defects", json.dumps(sigma_doc, sort_keys=True), count)
        if key not in self._cache:
            model = self.model()
            sigma = self.sigma() if sigma_doc is None else self.sigma_from(sigma_doc)
            tests = default_test_set(model, self.rng(4), count=count)
            self._cache[key] = invariance_defects(model, sigma, tests)
        return self._cache[key]

    def foliation(self, min_leaf: int = 3, min_transverse: int = 2) -> FoliatedGrid:
        """The unit-square foliation; a derivative stencil needs 3 nodes, a rule 2."""
        n_leaf = _int(self.model_doc, "n_leaf", 257)
        n_tr = _int(self.model_doc, "n_transverse", 33)
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
        model = self.model()
        seed = compile_field(expr, model.grid.ndim)  # a non-string seed fails here, not as a key
        memo = ("cutoff", expr)
        if memo not in self._cache:
            phi = seed(*model.grid.meshgrid())
            if np.any(phi < 0):
                raise ScenarioError(f"cut-off seed {key!r} must be nonnegative, "
                                    f"got {expr!r}")
            self._cache[memo] = cutoff_construct(model, self.sigma().rho_values, phi)
        return self._cache[memo]

    def surface(self) -> SymplecticPairModel:
        if "surface" not in self._cache:
            kind = self.model_doc.get("kind", "sphere")
            if kind == "sphere":
                area = self.model_doc.get("area", 4 * np.pi)
                try:  # float() and a nonpositive area raise ValueError
                    self._cache["surface"] = SymplecticPairModel.sphere(area=float(area))
                except (TypeError, ValueError) as exc:
                    raise ScenarioError(f"sphere area must be a positive number, "
                                        f"got {area!r}") from exc
            elif kind == "torus_cell":
                self._cache["surface"] = SymplecticPairModel.torus_cell()
            else:
                raise ScenarioError(f"unknown surface kind {kind!r}")
        return self._cache["surface"]

    def leaf_family(self, iota: int | None = None) -> LeafFamilyModel:
        """The scenario's leaf family, built once; another iota gives a twin
        that shares its leaves."""
        key = ("leaf_family", iota)
        if key not in self._cache:
            try:
                self._cache[key] = (leaf_family_from_doc(self.model_doc) if iota is None
                                    else self.leaf_family().with_iota(iota))
            except SymplecticModelError as exc:
                raise ScenarioError(str(exc)) from exc
        return self._cache[key]


@dataclass(frozen=True)
class CheckDef:
    name: str
    engine: str
    runner: object
    default_tol: float
    params_doc: str


REGISTRY: dict[str, CheckDef] = {}


def register(name: str, engine: str, default_tol: float, params_doc: str = ""):
    def wrap(fn):
        REGISTRY[name] = CheckDef(name, engine, fn, default_tol, params_doc)
        return fn
    return wrap


def _row(ctx, check, lhs, rhs, tol, exact=False, label=None):
    return CheckRow(ctx.name, label or check, float(lhs), float(rhs), tol, exact)


# ---------------------------------------------------------------------------
# finite engine checks (all exact: tolerance 0)

@register("axioms_valid", "finite", 0.0)
def _axioms_valid(ctx, params, tol):
    problems = finite.validate(ctx.groupoid())
    return [_row(ctx, "axioms_valid", len(problems), 0, tol, exact=True)]


@register("coinvariants_dimension", "finite", 0.0)
def _coinv_dim(ctx, params, tol):
    g = ctx.groupoid()
    dim, _ = finite.coinvariants(g)
    return [_row(ctx, "coinvariants_dimension", dim, len(finite.orbits(g)), tol,
                 exact=True)]


@register("cone_dimension", "finite", 0.0)
def _cone_dim(ctx, params, tol):
    g = ctx.groupoid()
    basis = finite.transverse_measure_cone(g)
    return [_row(ctx, "cone_dimension", len(basis), len(finite.orbits(g)), tol,
                 exact=True)]


@register("betti_zero", "finite", 0.0)
def _betti_zero(ctx, params, tol):
    g = ctx.groupoid()
    rep = ctx.homology(0)
    return [_row(ctx, "betti_zero", rep.degrees[0].betti, len(finite.orbits(g)),
                 tol, exact=True)]


@register("homology_betti", "finite", 0.0, "kmax, expected: list of Betti numbers")
def _homology(ctx, params, tol):
    kmax = _int(params, "kmax", 2)
    expected = params.get("expected")
    if expected is not None:
        if not isinstance(expected, list):
            raise ScenarioError(f"expected must be a list of Betti numbers, "
                                f"got {expected!r}")
        expected = [as_int(b, "expected Betti number", ScenarioError) for b in expected]
        if len(expected) < kmax + 1:
            raise ScenarioError(f"expected lists {len(expected)} Betti numbers, "
                                f"kmax {kmax} needs {kmax + 1}")
    rep = ctx.homology(kmax)
    if expected is None:
        expected = [len(finite.orbits(ctx.groupoid()))] + [0] * kmax
    return [_row(ctx, "homology_betti", d.betti, expected[d.degree], tol,
                 exact=True, label=f"homology_betti[{d.degree}]")
            for d in rep.degrees]


@register("boundary_squares", "finite", 0.0, "kmax")
def _boundary_squares(ctx, params, tol):
    g = ctx.groupoid()
    kmax = _int(params, "kmax", 3)
    rows = []
    for k in range(2, kmax + 1):
        prod = finite.linalg_q.matmul(finite.boundary_matrix(g, k - 1),
                                      finite.boundary_matrix(g, k))
        worst = max((abs(v) for row in prod for v in row), default=Fraction(0))
        rows.append(_row(ctx, "boundary_squares", worst, 0, tol, exact=True,
                         label=f"boundary_squares[{k}]"))
    return rows


@register("trace_matches_orbit_constancy", "finite", 0.0, "samples")
def _trace_equiv(ctx, params, tol):
    g = ctx.groupoid()
    rng = ctx.rng(1)
    weights = [[Fraction(1)] * g.n_objects]
    for orb in finite.orbits(g):
        vec = [Fraction(0)] * g.n_objects
        for x in orb:
            vec[x] = Fraction(2)
        weights.append(vec)
    for _ in range(_int(params, "samples", 6)):
        weights.append([Fraction(int(rng.integers(-4, 5)), int(rng.integers(1, 4)))
                        for _ in range(g.n_objects)])
    disagreements = sum(
        finite.is_trace(g, w)[0] != finite.is_orbit_constant(g, w) for w in weights)
    return [_row(ctx, "trace_matches_orbit_constancy", disagreements, 0, tol,
                 exact=True)]


@register("morita_restriction", "finite", 0.0, "subset: object list, kmax")
def _morita(ctx, params, tol):
    g = ctx.groupoid()
    kmax = _int(params, "kmax", 2)
    subset = params.get("subset")
    if subset is None:
        subset = [orb[0] for orb in finite.orbits(g)]
    subset = [as_int(x, "subset entry", ScenarioError) for x in subset]
    try:
        sub = finite.restrict_full_subgroupoid(g, subset)
    except ValueError as exc:
        raise ScenarioError(str(exc)) from exc
    full = ctx.homology(kmax).betti()
    restricted = finite.homology(sub, kmax).betti()
    return [_row(ctx, "morita_restriction", restricted[k], full[k], tol,
                 exact=True, label=f"morita_restriction[{k}]")
            for k in range(kmax + 1)]


@register("convolution_associative", "finite", 0.0)
def _assoc(ctx, params, tol):
    g = ctx.groupoid()
    zero, one = Fraction(0), Fraction(1)
    deltas = [[one if b == a else zero for b in g.arrows()] for a in g.arrows()]
    # each product of two indicators once; both bracketings of every triple
    # still go through convolve
    pairs = [[finite.convolve(g, da, db) for db in deltas] for da in deltas]
    violations = 0
    for a, da in enumerate(deltas):
        for b in g.arrows():
            for c, dc in enumerate(deltas):
                if finite.convolve(g, pairs[a][b], dc) != finite.convolve(g, da, pairs[b][c]):
                    violations += 1
    return [_row(ctx, "convolution_associative", violations, 0, tol, exact=True)]


@register("average_orbit_constant", "finite", 0.0, "samples")
def _avg_const(ctx, params, tol):
    g = ctx.groupoid()
    haar = finite.counting_haar(g)
    rng = ctx.rng(2)
    violations = 0
    for _ in range(_int(params, "samples", 5)):
        f = [Fraction(int(rng.integers(-5, 6)), 2) for _ in range(g.n_objects)]
        av = finite.average_function(g, haar, f)
        violations += sum(av[g.src[a]] != av[g.tgt[a]] for a in g.arrows())
    return [_row(ctx, "average_orbit_constant", violations, 0, tol, exact=True)]


# ---------------------------------------------------------------------------
# smooth engine checks

@register("model_axioms", "smooth", 1e-9)
def _model_axioms(ctx, params, tol):
    defect = ctx.model().check_axioms(ctx.rng(3), tol=max(tol, 1e-30))
    return [_row(ctx, "model_axioms", defect, 0.0, tol)]


@register("invariance_defect", "smooth", 1e-6, "count")
def _inv_defect(ctx, params, tol):
    invariance, _ = ctx.defects(None, _int(params, "count", DEFAULT_TEST_COUNT))
    return [_row(ctx, "invariance_defect", invariance, 0.0, tol)]


@register("inversion_defect", "smooth", 1e-6, "count")
def _invsn_defect(ctx, params, tol):
    _, inversion = ctx.defects(None, _int(params, "count", DEFAULT_TEST_COUNT))
    return [_row(ctx, "inversion_defect", inversion, 0.0, tol)]


def _witness_shortfall(defect: float, floor: float) -> float:
    return max(0.0, floor - defect)


def _witness_defects(ctx, params) -> tuple[float, float]:
    return ctx.defects({"rho": params.get("rho", "1.0 + 0*c0"),
                        "tau": _required(params, "tau")})


@register("invariance_witness", "smooth", 0.0, "tau: expression, min_defect")
def _inv_witness(ctx, params, tol):
    invariance, _ = _witness_defects(ctx, params)
    floor = float(params.get("min_defect", 1e-3))
    return [_row(ctx, "invariance_witness", _witness_shortfall(invariance, floor),
                 0.0, tol)]


@register("inversion_witness", "smooth", 0.0, "tau: expression, min_defect")
def _invsn_witness(ctx, params, tol):
    _, inversion = _witness_defects(ctx, params)
    floor = float(params.get("min_defect", 1e-3))
    return [_row(ctx, "inversion_witness", _witness_shortfall(inversion, floor),
                 0.0, tol)]


@register("averaging_annihilates", "smooth", 1e-6, "count")
def _avg_annihilates(ctx, params, tol):
    model, sigma = ctx.model(), ctx.sigma()
    rng = ctx.rng(5)
    worst = 0.0
    for _ in range(_int(params, "count", 20)):
        u = ArrowFunction.random(model, rng)
        diff = s_fiber_integrate(model, sigma.rho_values, u) \
            - t_fiber_integrate(model, sigma.rho_values, u)
        res = averaging(model, sigma.rho_values, diff)
        worst = max(worst, float(np.max(np.abs(res.values))))
    return [_row(ctx, "averaging_annihilates", worst, 0.0, tol)]


@register("averaging_orbit_constant", "smooth", 1e-6)
def _avg_orbit_const(ctx, params, tol):
    model, sigma = ctx.model(), ctx.sigma()
    section = ArrowFunction.random(model, ctx.rng(6)).slice(0)
    res = averaging(model, sigma.rho_values, section, tol=tol)
    return [_row(ctx, "averaging_orbit_constant", res.constancy_defect, 0.0, tol)]


_CONSTANT_SEED = "1.0 + 0*c0"


def _cutoff(ctx, expr: str, key: str) -> np.ndarray:
    """The cut-off of the seed parameter ``key``; a seed that misses an orbit
    is an input error."""
    try:
        return ctx.cutoff(expr, key)
    except SaturationError as exc:
        raise ScenarioError(f"cut-off seed {key!r}: {exc}") from exc


@register("cutoff_normalization", "smooth", 1e-9, "phi: seed expression")
def _cutoff_norm(ctx, params, tol):
    model, sigma = ctx.model(), ctx.sigma()
    c = _cutoff(ctx, params.get("phi", _CONSTANT_SEED), "phi")
    return [_row(ctx, "cutoff_normalization",
                 cutoff_normalization_defect(model, sigma.rho_values, c), 0.0, tol)]


@register("weyl", "smooth", 1e-6, "f: expression, phi: seed expression")
def _weyl(ctx, params, tol):
    model, sigma = ctx.model(), ctx.sigma()
    mesh = model.grid.meshgrid()
    f = compile_field(_required(params, "f"), model.grid.ndim)(*mesh)
    res = weyl_check(model, sigma, f,
                     cutoff=_cutoff(ctx, params.get("phi", _CONSTANT_SEED), "phi"))
    return [_row(ctx, "weyl", res.lhs, res.rhs, tol)]


@register("weyl_seed_independence", "smooth", 2e-6, "f, phi1, phi2")
def _weyl_seeds(ctx, params, tol):
    model, sigma = ctx.model(), ctx.sigma()
    mesh = model.grid.meshgrid()
    ndim = model.grid.ndim
    f = compile_field(_required(params, "f"), ndim)(*mesh)
    c1, c2 = (_cutoff(ctx, _required(params, key), key) for key in ("phi1", "phi2"))
    rhs1 = weyl_check(model, sigma, f, cutoff=c1).rhs
    rhs2 = weyl_check(model, sigma, f, cutoff=c2).rhs
    return [_row(ctx, "weyl_seed_independence", rhs1, rhs2, tol)]


@register("weinstein_two_ways", "smooth", 1e-6, "phi: seed expression")
def _weinstein(ctx, params, tol):
    model, sigma = ctx.model(), ctx.sigma()
    res = weinstein_volume(model, sigma,
                           cutoff=_cutoff(ctx, params.get("phi", _CONSTANT_SEED), "phi"))
    return [_row(ctx, "weinstein_two_ways", res.lhs, res.rhs, tol)]


@register("weinstein_expected", "smooth", 1e-9, "expected: scalar expression")
def _weinstein_expected(ctx, params, tol):
    model, sigma = ctx.model(), ctx.sigma()
    res = weinstein_volume(model, sigma, cutoff=_cutoff(ctx, _CONSTANT_SEED, "phi"))
    return [_row(ctx, "weinstein_expected", res.lhs,
                 evaluate_scalar(_required(params, "expected")), tol)]


def _node(params, model) -> tuple[int, ...]:
    return tuple(as_int(i, "node entry", ScenarioError)
                 for i in params.get("node", (0,) * model.grid.ndim))


@register("orbit_density_mass", "smooth", 1e-9, "node: multi-index, expected")
def _orbit_mass(ctx, params, tol):
    model, sigma = ctx.model(), ctx.sigma()
    node = _node(params, model)
    measure = orbit_density(model, sigma.rho_values, node)
    return [_row(ctx, "orbit_density_mass", measure.total(),
                 float(params.get("expected", 1.0)), tol)]


@register("orbit_density_basepoint", "smooth", 1e-9, "node")
def _orbit_basepoint(ctx, params, tol):
    model, sigma = ctx.model(), ctx.sigma()
    node = _node(params, model)
    first = orbit_density(model, sigma.rho_values, node)
    other_flat = max(first.masses)
    other = np.unravel_index(other_flat, model.grid.shape)
    second = orbit_density(model, sigma.rho_values, tuple(int(i) for i in other))
    return [_row(ctx, "orbit_density_basepoint", first.distance(second), 0.0, tol)]


@register("cocycle_additivity", "smooth", 1e-9, "samples")
def _cocycle_add(ctx, params, tol):
    model, sigma = ctx.model(), ctx.sigma()
    defect = cocycle_additivity_defect(model, sigma, ctx.rng(7),
                                       samples=_int(params, "samples", 100))
    return [_row(ctx, "cocycle_additivity", defect, 0.0, tol)]


@register("cocycle_vanishes", "smooth", 1e-12, "samples")
def _cocycle_zero(ctx, params, tol):
    model, sigma = ctx.model(), ctx.sigma()
    rng = ctx.rng(8)
    mesh = model.grid.meshgrid()
    flat = [m.ravel() for m in mesh]
    worst = 0.0
    for _ in range(_int(params, "samples", 50)):
        j = int(rng.integers(model.group_size))
        p = int(rng.integers(len(flat[0])))
        x = tuple(c[p] for c in flat)
        worst = max(worst, abs(modular_cocycle(model, sigma, j, x)))
    return [_row(ctx, "cocycle_vanishes", worst, 0.0, tol)]


@register("cocycle_expected", "smooth", 1e-9, "element, point, expected")
def _cocycle_expected(ctx, params, tol):
    model, sigma = ctx.model(), ctx.sigma()
    j = _int(params, "element")
    x = tuple(float(v) for v in params.get("point", (1.0,)))
    return [_row(ctx, "cocycle_expected", modular_cocycle(model, sigma, j, x),
                 evaluate_scalar(_required(params, "expected")), tol)]


@register("cutoff_saturation_error", "smooth", 0.0, "phi: off-orbit seed expression")
def _cutoff_saturation(ctx, params, tol):
    try:
        ctx.cutoff(_required(params, "phi"), "phi")
        raised = 0
    except SaturationError:
        raised = 1
    return [_row(ctx, "cutoff_saturation_error", raised, 1, tol, exact=True)]


def _transverse_profile(fol, expr: str):
    nodes = fol.grid.nodes(1)
    return compile_field(expr, 2)(np.zeros_like(nodes), nodes)


def _foliation_data(ctx, params):
    fol = ctx.foliation()
    mesh = fol.grid.meshgrid()
    omega = compile_field(params.get("omega", "x*(1-x)**2 * exp(-3*y)"), 2)(*mesh)
    weights = _transverse_profile(fol, params.get("transverse",
                                                  "1.0 + 0.5*sin(2*pi*y)"))
    return fol, weights, omega


@register("stokes_closed", "smooth", 1e-4, "omega, transverse")
def _stokes(ctx, params, tol):
    fol, weights, omega = _foliation_data(ctx, params)
    return [_row(ctx, "stokes_closed", stokes_defect(fol, weights, omega), 0.0, tol)]


@register("stokes_order", "smooth", 0.0, "omega, transverse, min_order")
def _stokes_order(ctx, params, tol):
    ctx.foliation(min_leaf=5)  # the half-resolution level keeps 3 leaf nodes
    doc = dict(ctx.model_doc)
    n = _int(doc, "n_leaf", 257) - 1
    defects = []
    for resolution in (n // 2, n):
        sub = ScenarioContext(ctx.name, ctx.engine,
                              dict(doc, n_leaf=resolution + 1), ctx.seed)
        fol, weights, omega = _foliation_data(sub, params)
        defects.append(stokes_defect(fol, weights, omega))
    # a zero fine defect means the scheme is exact for this omega
    order = float(np.log2(defects[0] / defects[1])) if defects[1] else np.inf
    shortfall = _witness_shortfall(order, float(params.get("min_order", 1.8)))
    return [_row(ctx, "stokes_order", shortfall, 0.0, tol)]


@register("ruelle_sullivan_closed", "smooth", 1e-4, "beta, transverse")
def _rs_closed(ctx, params, tol):
    fol = ctx.foliation(min_transverse=3)
    mesh = fol.grid.meshgrid()
    beta = compile_field(params.get("beta", "x*(1-x)**2 * exp(-3*y)"), 2)(*mesh)
    weights = _transverse_profile(fol, params.get("transverse",
                                                  "1.0 + 0.5*sin(2*pi*y)"))
    value = ruelle_sullivan_evaluate(fol, weights, exterior_derivative(fol, beta))
    return [_row(ctx, "ruelle_sullivan_closed", abs(value), 0.0, tol)]


@register("ruelle_sullivan_pairing", "smooth", 1e-6, "transverse")
def _rs_pairing(ctx, params, tol):
    fol = ctx.foliation()
    weights = _transverse_profile(fol, params.get("transverse",
                                                  "1.0 + 0.5*sin(2*pi*y)"))
    shape = fol.grid.shape
    alpha = OneForm(np.ones(shape), np.zeros(shape))
    value = ruelle_sullivan_evaluate(fol, weights, alpha)
    leaf_len = fol.grid.axes[0].length
    expected = leaf_len * float((weights * fol.grid.axes[1].weights()).sum())
    return [_row(ctx, "ruelle_sullivan_pairing", value, expected, tol)]


def _submersion(ctx) -> SubmersionGroupoidModel:
    doc = ctx.model_doc
    grid = Grid([Axis(_int(doc, "n_base", 9), -2.0, 2.0),
                 Axis(_int(doc, "n_fiber", 8193), -4.0, 4.0)])
    return SubmersionGroupoidModel(grid, fiber_axes=[1])


@register("exactness_reconstruction", "smooth", 1e-6)
def _exactness(ctx, params, tol):
    model = _submersion(ctx)
    X, Y = model.total.meshgrid()
    bump = np.exp(-(X ** 2 + Y ** 2))
    report = exactness_probe(model, -2.0 * Y * bump)
    err = float(np.max(np.abs(report.antiderivative - bump)))
    return [_row(ctx, "exactness_reconstruction", err, 0.0, tol),
            _row(ctx, "exactness_reconstruction", report.tail_magnitude, 0.0, tol,
                 label="exactness_tail")]


@register("exactness_obstruction", "smooth", 0.0)
def _obstruction(ctx, params, tol):
    model = _submersion(ctx)
    X, Y = model.total.meshgrid()
    try:
        exactness_probe(model, np.exp(-(X ** 2 + Y ** 2)))
        raised = 0
    except FiberObstructionError:
        raised = 1
    return [_row(ctx, "exactness_obstruction", raised, 1, tol, exact=True)]


# ---------------------------------------------------------------------------
# symplectic checks

@register("liouville_total", "symplectic", 1e-6, "expected: scalar expression")
def _liouville(ctx, params, tol):
    total = integrate(liouville_density(ctx.surface()))
    return [_row(ctx, "liouville_total", total,
                 evaluate_scalar(_required(params, "expected")), tol)]


@register("dh_two_ways", "symplectic", 1e-5)
def _dh_two(ctx, params, tol):
    res = dh_total_mass_two_ways(ctx.surface())
    return [_row(ctx, "dh_two_ways", res.lhs, res.rhs, tol)]


@register("dh_expected", "symplectic", 1e-5, "expected: scalar expression")
def _dh_expected(ctx, params, tol):
    res = dh_total_mass_two_ways(ctx.surface())
    return [_row(ctx, "dh_expected", res.lhs,
                 evaluate_scalar(_required(params, "expected")), tol)]


@register("affine_total", "symplectic", 1e-6, "expected: scalar expression")
def _affine_total(ctx, params, tol):
    try:
        mu = affine_measure(ctx.leaf_family())
    except SymplecticModelError as exc:
        raise ScenarioError(str(exc)) from exc
    return [_row(ctx, "affine_total", mu.total_mass(),
                 evaluate_scalar(_required(params, "expected")), tol)]


@register("dh_weyl", "symplectic", 1e-6, "f: leaf expression in t")
def _dh_weyl(ctx, params, tol):
    family = ctx.leaf_family()
    profile = compile_field(params.get("f", "1.0 + 0*t"), 1)(family.base.nodes(0))

    res = dh_weyl_check(family,
                        lambda i: np.full(family.leaf.grid.shape, profile[i]))
    return [_row(ctx, "dh_weyl", res.lhs, res.rhs, tol)]


@register("affine_volume_two_ways", "symplectic", 1e-6)
def _affine_vol(ctx, params, tol):
    res = affine_volume(ctx.leaf_family())
    return [_row(ctx, "affine_volume_two_ways", res.lhs, res.rhs, tol)]


@register("iota_scaling", "symplectic", 1e-9)
def _iota_scaling(ctx, params, tol):
    base = affine_volume(ctx.leaf_family()).lhs
    doubled = affine_volume(ctx.leaf_family(
        iota=2 * _int(ctx.model_doc, "iota", 1))).lhs
    return [_row(ctx, "iota_scaling", doubled / base, 0.5, tol)]


def catalog() -> list[CheckDef]:
    return sorted(REGISTRY.values(), key=lambda d: (d.engine, d.name))
