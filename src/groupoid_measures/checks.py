"""Named check catalog: every operation exposed as a scenario-runnable check.

Each check declares its parameters once, as ``key=(kind, default)``.  A runner
gets the scenario context, the tolerance and the values read through those
declarations, and returns ``(lhs, rhs)`` or ``{label: (lhs, rhs)}``: the library
computes both sides, and only the row judges them, so a violated identity is a
failing row.  Exact-engine checks compare with zero tolerance; quadrature checks
carry their own default tolerances (1e-6 quadrature, 1e-9 analytic, 1e-4 for
derivative identities).
"""

from __future__ import annotations

import json
import math
import random
from collections import Counter
from dataclasses import dataclass, replace
from fractions import Fraction
from functools import reduce
from typing import Callable

import numpy as np

from . import finite
from .density.grids import Axis, Grid, integrate, positive_finite
from .expressions import (COUNT, FIELD, INT, NUMBER, OBJECT, REQUIRED, SCALAR, Descriptor,
                          Kind, ModelKind, ScenarioError, as_object, compile_field, integer,
                          listed, read_fields)
from .reports import CheckRow
from .smooth import (
    DEFAULT_TEST_COUNT,
    ArrowFunction,
    FiberObstructionError,
    FoliatedGrid,
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
    cutoff_pairing,
    default_test_set,
    exactness_probe,
    exterior_derivative,
    invariance_defects,
    modular_cocycle,
    orbit_density,
    orbit_integrals,
    ruelle_sullivan_evaluate,
    shriek_average,
    stokes_defect,
    weinstein_volume,
    weyl_check,
)
from .smooth.models import ACTION_KINDS
from .symplectic import (
    SymplecticPairModel,
    affine_measure,
    affine_volume,
    dh_total_mass_two_ways,
    dh_weyl_check,
    liouville_density,
)
from .symplectic.models import LEAF_FAMILY


# ---------------------------------------------------------------------------
# the model kinds of scenario documents

# The most composable pairs a finite groupoid may have, checked on its descriptor
# before any list or table is built: at 100 to 170 bytes per composition-table
# entry, 2**20 pairs take up to 170 MiB.  The largest bundled groupoid has 27.
MAX_COMPOSABLE_PAIRS = 2 ** 20
# The most nerve strings a check may enumerate, summed over its degrees and
# counted by finite.nerve_sizes before any string is built.  Each string, with its
# boundary column and reduction, took 1.1 to 1.4 KB of peak RSS (homology up to
# degree 2 of Z32 and Z48: 33 825 and 112 945 strings; Z48 took 13.9 s on 2 cores,
# Python 3.11), so 2**17 strings take about 190 MB.  The largest bundled
# enumeration has 120.
MAX_NERVE_STRINGS = 2 ** 17
# The most draws a check may take (its ``count`` of test functions or its
# ``samples``): 10 times the largest default, the 100 samples of
# cocycle_additivity.  Each draw is one more pass over the model, so the time
# grows linearly: 1 000 draws took at most 0.19 s on any bundled model (2 cores,
# Python 3.11), and 1e308, which reads as an integer, ran until it was stopped.
MAX_DRAWS = 1000
# The highest degree ``kmax`` a check may ask for.  A k-string has k + 1 faces,
# so under MAX_NERVE_STRINGS the work still grows with the degree: on unit(n),
# the largest n the nerve cap lets through, homology_betti took 17 s up to
# degree 100, and every kmax check took at most 2.4 s at degree 16.  The
# largest bundled degree is 3.
MAX_DEGREE = 16
DRAWS, DEGREE = integer(1, MAX_DRAWS), integer(0, MAX_DEGREE)
# The most samples times arrows average_orbit_constant may take, and samples
# times objects trace_matches_orbit_constancy may take: each sample is averaged
# over every arrow, or drawn and tested on every object.  On unit(4096), at 32
# samples, the 2**17 took 1.4 s (2 cores, Python 3.11).  The largest bundled
# product is 45.
MAX_SAMPLE_ARROWS = 2 ** 17

# the families of checks: the engine of each, and the error that refuses a
# model that does not serve it
FAMILIES = {
    "finite_groupoid": ("finite", "needs a finite groupoid model, got kind {kind!r}"),
    "group_action": ("smooth", "needs a group action model, got kind {kind!r}"),
    "proper_action": ("smooth", "model {kind!r} is not a proper action model: it has "
                                "no invariant group quadrature"),
    "foliation": ("smooth", "needs a 'foliation' model, got kind {kind!r}"),
    "submersion_probe": ("smooth", "needs a 'submersion_probe' model, got kind {kind!r}"),
    "surface": ("symplectic", "needs a 'sphere' or 'torus_cell' model, got kind {kind!r}"),
    "leaf_family": ("symplectic", "needs a leaf-family model, which has no kind, "
                                  "got kind {kind!r}"),
}


def _z2_action(points: int, swaps) -> finite.FiniteGroupoid:
    perm = list(range(points))
    for pair in swaps:
        if len(pair) != 2 or not all(0 <= p < points for p in pair):
            raise ScenarioError(f"swap {list(pair)} is not a pair of points "
                                f"in range({points})")
        a, b = pair
        perm[a], perm[b] = perm[b], perm[a]
    return finite.action_groupoid(finite.cyclic_group_table(2), [list(range(points)), perm],
                                  points, name="z2_action")


def _parts(value, name) -> list[Descriptor]:
    if not (isinstance(value, list) and value):
        raise ScenarioError(f"{name} must be a nonempty list of groupoid "
                            f"descriptors, got {value!r}")
    return [Descriptor.read(MODEL_KINDS["finite"], part) for part in value]


_N, _GROUPOID = {"n": (COUNT, REQUIRED)}, ("finite_groupoid",)
# Every model kind of each engine: the families it serves, its builder, its
# fields and, for a finite groupoid, its composable pairs.  The builders look
# the library's functions up when they run, where gmbench/tracer.py wraps them.
MODEL_KINDS = {
    "finite": {
        "unit": ModelKind(_GROUPOID, lambda n: finite.unit_groupoid(n), _N, lambda n: n),
        "pair": ModelKind(_GROUPOID, lambda n: finite.pair_groupoid(n), _N, lambda n: n ** 3),
        "cyclic": ModelKind(_GROUPOID, lambda n: finite.group_groupoid(
            finite.cyclic_group_table(n), name=f"Z{n}"), _N, lambda n: n ** 2),
        "z2_action": ModelKind(
            _GROUPOID, _z2_action,
            {"points": (COUNT, REQUIRED),
             "swaps": (listed(listed(INT, "points"), "point pairs"), ())},
            lambda points, swaps: 4 * points),
        "disjoint_union": ModelKind(
            _GROUPOID, lambda parts: reduce(finite.disjoint_union, (p.build() for p in parts)),
            {"parts": (Kind("groupoid descriptors", _parts), REQUIRED)},
            lambda parts: sum(p.pairs for p in parts)),
        "json": ModelKind(  # from_json reports a document that is not a table
            _GROUPOID, lambda doc: finite.from_json(json.dumps(doc)),
            {"doc": (OBJECT, REQUIRED)},
            lambda doc: len(doc["compose"]) if isinstance(doc.get("compose"), list) else 0),
    },
    "smooth": {
        **ACTION_KINDS,
        # a derivative stencil needs 3 nodes, an interval rule 2
        "foliation": ModelKind(
            ("foliation",), lambda n_leaf, n_transverse: FoliatedGrid(
                Grid([Axis(n_leaf, 0.0, 1.0), Axis(n_transverse, 0.0, 1.0)]), leaf_axis=0),
            {"n_leaf": (integer(3), 257), "n_transverse": (integer(2), 33)}),
        "submersion_probe": ModelKind(
            ("submersion_probe",), lambda n_base, n_fiber: SubmersionGroupoidModel(
                Grid([Axis(n_base, -2.0, 2.0), Axis(n_fiber, -4.0, 4.0)]), fiber_axes=[1]),
            {"n_base": (integer(2), 9), "n_fiber": (integer(2), 8193)}),
    },
    "symplectic": {
        "sphere": ModelKind(("surface",), lambda area: SymplecticPairModel.sphere(area=area),
                            {"area": (NUMBER, 4 * np.pi)}),
        "torus_cell": ModelKind(("surface",), lambda: SymplecticPairModel.torus_cell(), {}),
        None: LEAF_FAMILY,
    },
}


def read_model(engine: str, doc) -> Descriptor:
    """A scenario's model descriptor, read through the kinds of its engine; a
    finite groupoid of more than MAX_COMPOSABLE_PAIRS composable pairs is
    refused."""
    try:
        descriptor = Descriptor.read(MODEL_KINDS[engine], doc)
    except RecursionError as exc:  # parts of parts, each read by its own call
        raise ScenarioError("the model descriptor is nested too deep to read") from exc
    if descriptor.pairs > MAX_COMPOSABLE_PAIRS:
        raise ScenarioError(f"a {descriptor.kind!r} groupoid has more than "
                            f"{MAX_COMPOSABLE_PAIRS} composable pairs")
    return descriptor


def check_nerve_size(g: finite.FiniteGroupoid, kmax: int) -> None:
    """Refuse a check that would enumerate the nerve of g in degrees 0..kmax
    when that is more than MAX_NERVE_STRINGS strings."""
    strings = sum(finite.nerve_sizes(g, kmax))
    if strings > MAX_NERVE_STRINGS:
        raise ScenarioError(f"the nerve has {strings} strings in degrees 0..{kmax}, "
                            f"more than {MAX_NERVE_STRINGS}")


class ScenarioContext:
    """Builds a scenario's model from its descriptor as read, once, when a
    check first asks, and caches what the checks derive from it.

    ``plan`` is a scenario's ``(check, tol, values)`` list as
    ``scenario.read_scenario`` reads it.  The context counts how often its
    checks read each grid-sized memo, a field sample ``("field", expr)`` or a
    cut-off ``("cutoff", expr)`` (``CheckDef.memos``); building a cut-off
    reads the sample of its seed once more.  A memo is dropped at its last
    planned read, and a read the plan does not count keeps nothing.
    """

    def __init__(self, name: str, descriptor: Descriptor, seed: int, plan=()):
        self.name = name
        self.descriptor = descriptor
        self.seed = seed
        self._cache: dict = {}
        reads = Counter(key for check, _, values in plan for key in check.memos(values))
        self._reads = reads + Counter(("field", expr) for kind, expr in reads if kind == "cutoff")

    def rng(self, salt: int = 0) -> random.Random:
        return random.Random(self.seed + salt)

    def model(self):
        """The scenario's model; a group action is built by build_model."""
        if "model" not in self._cache:
            d = self.descriptor
            build = build_model if "group_action" in d.entry.serves else Descriptor.build
            self._cache["model"] = build(d)
        return self._cache["model"]

    def homology(self, kmax: int) -> finite.HomologyReport:
        """Nerve homology of the groupoid up to degree kmax, computed once.

        Degrees up to k of a report need only the ranks of d_1..d_{k+1}, so
        the report for the largest kmax asked so far answers every smaller one.
        A nerve of more than MAX_NERVE_STRINGS strings in degrees 0..kmax+1 is
        refused.
        """
        rep = self._cache.get("homology")
        if rep is None or len(rep.degrees) <= kmax:
            check_nerve_size(self.model(), kmax + 1)
            rep = self._cache["homology"] = finite.homology(self.model(), kmax)
        return finite.HomologyReport(rep.degrees[:kmax + 1])

    def sigma(self, doc: dict | None = None) -> TransverseDensityData:
        """The density of a ``sigma`` record's ``rho`` and ``tau``; the
        scenario's own, built once, when ``doc`` is None."""
        if doc is None:
            if "sigma" not in self._cache:
                self._cache["sigma"] = self.sigma(self.descriptor.values["sigma"])
            return self._cache["sigma"]
        model = self.model()
        ndim = model.grid.ndim
        rho, tau = doc["rho"], doc["tau"]
        tau_fn = model.volume_coefficient if tau == "lebesgue" else compile_field(tau, ndim)
        if rho is None and tau == "lebesgue":
            return TransverseDensityData.lebesgue(model)
        return TransverseDensityData(
            model, compile_field(_CONSTANT_SEED if rho is None else rho, ndim), tau_fn)

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
            sigma = self.sigma(sigma_doc)
            tests = default_test_set(model, self.rng(4), count=count)
            self._cache[key] = invariance_defects(model, sigma, tests)
        return self._cache[key]

    def _read(self, key: tuple, make: Callable):
        """The memo ``key``, made by ``make`` if it is not held, and held
        after this read while the plan counts later reads of it."""
        value = self._cache[key] if key in self._cache else make()
        if self._reads[key] > 1:
            self._reads[key] -= 1
            self._cache[key] = value
        else:
            self._reads.pop(key, None)
            self._cache.pop(key, None)
        return value

    def field(self, expr: str) -> np.ndarray:
        """A field sampled on the model grid, read-only, once per expression."""
        def sample():
            grid = self.model().grid
            values = compile_field(expr, grid.ndim)(*grid.meshgrid())
            values.setflags(write=False)
            return values
        return self._read(("field", expr), sample)

    def cutoff(self, expr: str, key: str) -> np.ndarray:
        """Cut-off of the scenario's density from the seed parameter ``key``,
        built once per expression; a seed that misses an orbit raises
        SaturationError.
        """
        def build():
            phi = self.field(expr)
            if not positive_finite(phi, strict=False):
                raise ScenarioError(f"cut-off seed {key!r} must be nonnegative and "
                                    f"finite, got {expr!r}")
            try:
                return cutoff_construct(self.model(), self.sigma().rho_values, phi)
            except SaturationError as exc:
                raise SaturationError(f"cut-off seed {key!r}: {exc}") from exc
        return self._read(("cutoff", expr), build)


# ---------------------------------------------------------------------------
# the catalog

@dataclass(frozen=True)
class CheckDef:
    """A catalog entry; ``model`` is the family of models it runs on (a key of
    FAMILIES), and ``params`` maps each key to ``(kind, default)``."""
    name: str
    engine: str
    runner: Callable
    default_tol: float
    exact: bool
    params: dict
    model: str
    reads: tuple = ()

    def read_params(self, params) -> dict:
        """The values of every declared parameter, read from a scenario entry."""
        return read_fields(as_object(params, "params"), self.params,
                           lambda key: f"parameter {key!r}")

    def memos(self, values: dict) -> list[tuple]:
        """The scenario memos one run of the check reads, as keys of
        ``ScenarioContext``: one per parameter of a memo kind, then ``reads``."""
        return [(kind.memo, values[key]) for key, (kind, _) in self.params.items()
                if kind.memo] + list(self.reads)

    def rows(self, scenario: str, result, tol: float) -> list[CheckRow]:
        """Report rows; exact checks keep ``int`` and ``Fraction`` sides.  A
        float row whose error |lhs - rhs| overflows is an input error."""
        labelled = result if isinstance(result, dict) else {self.name: result}
        side = _exact_side if self.exact else float
        rows = [CheckRow(scenario, label, side(lhs), side(rhs), tol, self.exact)
                for label, (lhs, rhs) in labelled.items()]
        for row in rows:
            if not (self.exact or math.isfinite(row.abs_err)):
                raise ScenarioError(f"the error of row {row.check!r} is not finite "
                                    f"(lhs {row.lhs!r}, rhs {row.rhs!r})")
        return rows


def _exact_side(value):
    return value if isinstance(value, (int, Fraction)) else float(value)


REGISTRY: dict[str, CheckDef] = {}


def register(name: str, model: str, default_tol: float, exact: bool | None = None,
             reads: tuple = (), **params):
    """Declares a check that runs on the ``model`` family, whose engine it takes;
    ``reads`` are the scenario memos it reads whatever its parameters."""
    engine = FAMILIES[model][0]

    def wrap(fn):
        REGISTRY[name] = CheckDef(name, engine, fn, default_tol,
                                  engine == "finite" if exact is None else exact, params,
                                  model, tuple(reads))
        return fn
    return wrap


# ---------------------------------------------------------------------------
# finite engine checks (all exact: tolerance 0)

@register("axioms_valid", "finite_groupoid", 0.0)
def _axioms_valid(ctx, tol):
    check_nerve_size(ctx.model(), 3)  # the work: the composable triples, in degree 3
    return len(finite.validate(ctx.model())), 0


# the two dimensions, by one runner, without the orbits x objects basis of
# coinvariants and transverse_measure_cone: the invariant functionals are the
# dual of the coinvariants, of the same dimension
@register("cone_dimension", "finite_groupoid", 0.0)
@register("coinvariants_dimension", "finite_groupoid", 0.0)
def _orbit_dimensions(ctx, tol):
    g = ctx.model()
    return finite.coinvariants_dimension(g), len(finite.orbits(g))


@register("betti_zero", "finite_groupoid", 0.0)
def _betti_zero(ctx, tol):
    return ctx.homology(0).degrees[0].betti, len(finite.orbits(ctx.model()))


@register("homology_betti", "finite_groupoid", 0.0, kmax=(DEGREE, 2),
          expected=(listed(INT, "Betti numbers"), None))
def _homology(ctx, tol, kmax, expected):
    if expected is not None and len(expected) < kmax + 1:
        raise ScenarioError(f"expected lists {len(expected)} Betti numbers, "
                            f"kmax {kmax} needs {kmax + 1}")
    rep = ctx.homology(kmax)
    if expected is None:
        expected = [len(finite.orbits(ctx.model()))] + [0] * kmax
    return {f"homology_betti[{d.degree}]": (d.betti, expected[d.degree])
            for d in rep.degrees}


@register("boundary_squares", "finite_groupoid", 0.0, kmax=(integer(2, MAX_DEGREE), 3))
def _boundary_squares(ctx, tol, kmax):
    g = ctx.model()
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


@register("trace_matches_orbit_constancy", "finite_groupoid", 0.0, samples=(DRAWS, 6))
def _trace_equiv(ctx, tol, samples):
    g = ctx.model()
    if samples * g.n_objects > MAX_SAMPLE_ARROWS:
        raise ScenarioError(f"{samples} samples over {g.n_objects} objects are more than "
                            f"{MAX_SAMPLE_ARROWS} sample objects")
    rng = ctx.rng(1)
    # every trace condition reads w(x) = w(y) or w(x) = 0, so a distinct nonzero
    # value on each orbit fails one whenever an orbit indicator does
    weights = [[Fraction(1)] * g.n_objects,
               [Fraction(2 * k + 2) for k in finite.orbit_index(g)]]
    for _ in range(samples):
        weights.append([Fraction(rng.randrange(-4, 5), rng.randrange(1, 4))
                        for _ in range(g.n_objects)])
    return sum(finite.is_trace(g, w)[0] != finite.is_orbit_constant(g, w)
               for w in weights), 0


@register("morita_restriction", "finite_groupoid", 0.0,
          subset=(listed(INT, "objects"), None), kmax=(DEGREE, 2))
def _morita(ctx, tol, subset, kmax):
    g = ctx.model()
    if subset is None:
        subset = [orb[0] for orb in finite.orbits(g)]
    sub = finite.restrict_full_subgroupoid(g, list(subset))
    full = ctx.homology(kmax).betti()
    # a full subgroupoid's nerve is part of the nerve that ctx.homology capped
    restricted = finite.homology(sub, kmax).betti()
    return {f"morita_restriction[{k}]": (restricted[k], full[k]) for k in range(kmax + 1)}


@register("convolution_associative", "finite_groupoid", 0.0)
def _assoc(ctx, tol):
    g = ctx.model()
    check_nerve_size(g, 3)  # the work: the composable triples, in degree 3
    deltas = [{a: 1} for a in g.arrows()]
    into, src, convolve = g.arrows_into, g.src, finite.convolve
    # products[a]: (b, delta_a * delta_b) for each b composable with a, once;
    # both bracketings of every composable triple still go through convolve
    products = [[(b, convolve(g, da, deltas[b])) for b in into[src[a]]]
                for a, da in enumerate(deltas)]
    violations = 0
    for a, da in enumerate(deltas):
        for b, ab in products[a]:
            for c, bc in products[b]:
                if convolve(g, ab, deltas[c]) != convolve(g, da, bc):
                    violations += 1
    return violations, 0


@register("average_orbit_constant", "finite_groupoid", 0.0, samples=(DRAWS, 5))
def _avg_const(ctx, tol, samples):
    g = ctx.model()
    if samples * g.n_arrows > MAX_SAMPLE_ARROWS:
        raise ScenarioError(f"{samples} samples over {g.n_arrows} arrows are more than "
                            f"{MAX_SAMPLE_ARROWS} sample arrows")
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

@register("model_axioms", "group_action", 1e-9)
def _model_axioms(ctx, tol):
    return ctx.model().check_axioms(ctx.rng(3)), 0.0


@register("invariance_defect", "proper_action", 1e-6, count=(DRAWS, DEFAULT_TEST_COUNT))
def _inv_defect(ctx, tol, count):
    return ctx.defects(None, count)[0], 0.0


@register("inversion_defect", "proper_action", 1e-6, count=(DRAWS, DEFAULT_TEST_COUNT))
def _invsn_defect(ctx, tol, count):
    return ctx.defects(None, count)[1], 0.0


_CONSTANT_SEED = "1.0 + 0*c0"
# the field kinds whose values name a memo of the scenario context: a field
# sampled on the grid, and the seed of a cut-off
SAMPLED, CUTOFF_SEED = replace(FIELD, memo="field"), replace(FIELD, memo="cutoff")
_WITNESS = {"tau": (FIELD, REQUIRED), "rho": (FIELD, _CONSTANT_SEED),
            "min_defect": (NUMBER, 1e-3)}


def _shortfall(floor: float, value: float) -> float:
    """How far ``value`` falls below ``floor``: 0 when it clears the floor, and
    NaN for a NaN value, which ``max(0.0, floor - value)`` would turn into 0."""
    return 0.0 if value >= floor else floor - value


@register("invariance_witness", "proper_action", 0.0, **_WITNESS)
def _inv_witness(ctx, tol, tau, rho, min_defect):
    invariance, _ = ctx.defects({"rho": rho, "tau": tau})
    return _shortfall(min_defect, invariance), 0.0


@register("inversion_witness", "proper_action", 0.0, **_WITNESS)
def _invsn_witness(ctx, tol, tau, rho, min_defect):
    _, inversion = ctx.defects({"rho": rho, "tau": tau})
    return _shortfall(min_defect, inversion), 0.0


@register("averaging_annihilates", "proper_action", 1e-6, count=(DRAWS, 20))
def _avg_annihilates(ctx, tol, count):
    model, sigma = ctx.model(), ctx.sigma()
    rng = ctx.rng(5)
    worst = 0.0
    for _ in range(count):
        av = shriek_average(model, sigma.rho_values, ArrowFunction.random(model, rng))
        worst = max(worst, float(np.max(np.abs(av))))
    return worst, 0.0


@register("averaging_orbit_constant", "proper_action", 1e-6)
def _avg_orbit_const(ctx, tol):
    model, sigma = ctx.model(), ctx.sigma()
    section = ArrowFunction.random(model, ctx.rng(6)).slice(0)
    return averaging(model, sigma.rho_values, section).constancy_defect, 0.0


@register("cutoff_normalization", "proper_action", 1e-9, phi=(CUTOFF_SEED, _CONSTANT_SEED))
def _cutoff_norm(ctx, tol, phi):
    model, sigma = ctx.model(), ctx.sigma()
    return cutoff_normalization_defect(model, sigma.rho_values,
                                       ctx.cutoff(phi, "phi")), 0.0


@register("weyl", "proper_action", 1e-6, f=(SAMPLED, REQUIRED),
          phi=(CUTOFF_SEED, _CONSTANT_SEED))
def _weyl(ctx, tol, f, phi):
    model, sigma = ctx.model(), ctx.sigma()
    return weyl_check(model, sigma, ctx.field(f), cutoff=ctx.cutoff(phi, "phi"))


@register("weyl_seed_independence", "proper_action", 2e-6, f=(SAMPLED, REQUIRED),
          phi1=(CUTOFF_SEED, REQUIRED), phi2=(CUTOFF_SEED, REQUIRED))
def _weyl_seeds(ctx, tol, f, phi1, phi2):
    model, sigma = ctx.model(), ctx.sigma()
    # the orbit integrals of f, once; the sample of f goes before any cut-off
    # is built when this is its last planned read
    integrals = orbit_integrals(model, sigma.rho_values, ctx.field(f))
    return (cutoff_pairing(model, sigma, ctx.cutoff(phi1, "phi1"), integrals),
            cutoff_pairing(model, sigma, ctx.cutoff(phi2, "phi2"), integrals))


@register("weinstein_two_ways", "proper_action", 1e-6, phi=(CUTOFF_SEED, _CONSTANT_SEED))
def _weinstein(ctx, tol, phi):
    return weinstein_volume(ctx.model(), ctx.sigma(),
                            cutoff=ctx.cutoff(phi, "phi"))


@register("weinstein_expected", "proper_action", 1e-9, reads=[("cutoff", _CONSTANT_SEED)],
          expected=(SCALAR, REQUIRED))
def _weinstein_expected(ctx, tol, expected):
    direct, _ = weinstein_volume(ctx.model(), ctx.sigma(),
                                 cutoff=ctx.cutoff(_CONSTANT_SEED, "phi"))
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


@register("orbit_density_mass", "proper_action", 1e-9, node=_NODE, expected=(NUMBER, 1.0))
def _orbit_mass(ctx, tol, node, expected):
    model, sigma = ctx.model(), ctx.sigma()
    measure = orbit_density(model, sigma.rho_values, _grid_node(model, node))
    return measure.total(), expected


@register("orbit_density_basepoint", "proper_action", 1e-9, node=_NODE)
def _orbit_basepoint(ctx, tol, node):
    model, sigma = ctx.model(), ctx.sigma()
    first = orbit_density(model, sigma.rho_values, _grid_node(model, node))
    other = np.unravel_index(max(first.masses), model.grid.shape)
    second = orbit_density(model, sigma.rho_values, tuple(int(i) for i in other))
    return first.distance(second), 0.0


@register("cocycle_additivity", "group_action", 1e-9, samples=(DRAWS, 100))
def _cocycle_add(ctx, tol, samples):
    return cocycle_additivity_defect(ctx.model(), ctx.sigma(), ctx.rng(7), samples), 0.0


@register("cocycle_vanishes", "group_action", 1e-12, samples=(DRAWS, 50))
def _cocycle_zero(ctx, tol, samples):
    return cocycle_vanishing_defect(ctx.model(), ctx.sigma(), ctx.rng(8), samples), 0.0


@register("cocycle_expected", "group_action", 1e-9, element=(INT, REQUIRED),
          point=(listed(NUMBER, "coordinates"), (1.0,)), expected=(SCALAR, REQUIRED))
def _cocycle_expected(ctx, tol, element, point, expected):
    model = ctx.model()
    if not 0 <= element < model.group_size or len(point) != model.grid.ndim:
        raise ScenarioError(f"needs an element in range({model.group_size}) and a "
                            f"point with {model.grid.ndim} coordinates")
    return modular_cocycle(model, ctx.sigma(), element, point), expected


@register("cutoff_saturation_error", "proper_action", 0.0, exact=True,
          phi=(CUTOFF_SEED, REQUIRED))
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


def _foliation_data(fol, omega: str, transverse: str):
    omega_values = compile_field(omega, 2)(*fol.grid.meshgrid())
    return fol, _transverse_profile(fol, transverse), omega_values


@register("stokes_closed", "foliation", 1e-4, omega=_LEAF_FORM, transverse=_TRANSVERSE)
def _stokes(ctx, tol, omega, transverse):
    return stokes_defect(*_foliation_data(ctx.model(), omega, transverse)), 0.0


@register("stokes_order", "foliation", 0.0, omega=_LEAF_FORM, transverse=_TRANSVERSE,
          min_order=(NUMBER, 1.8))
def _stokes_order(ctx, tol, omega, transverse, min_order):
    n = ctx.model().grid.shape[0] - 1
    if n < 4:  # the half-resolution level keeps 3 leaf nodes
        raise ScenarioError(f"needs n_leaf >= 5, got {n + 1}")
    defects = []
    for resolution in (n // 2, n):
        fol = replace(ctx.descriptor, values=dict(ctx.descriptor.values,
                                                  n_leaf=resolution + 1)).build()
        defects.append(stokes_defect(*_foliation_data(fol, omega, transverse)))
    # a zero fine defect means the scheme is exact for this omega
    order = float(np.log2(defects[0] / defects[1])) if defects[1] else np.inf
    return _shortfall(min_order, order), 0.0


@register("ruelle_sullivan_closed", "foliation", 1e-4, beta=_LEAF_FORM,
          transverse=_TRANSVERSE)
def _rs_closed(ctx, tol, beta, transverse):
    fol = ctx.model()
    if fol.grid.shape[1] < 3:  # a transverse derivative stencil needs 3 nodes
        raise ScenarioError(f"needs n_transverse >= 3, got {fol.grid.shape[1]}")
    beta_values = compile_field(beta, 2)(*fol.grid.meshgrid())
    value = ruelle_sullivan_evaluate(fol, _transverse_profile(fol, transverse),
                                     exterior_derivative(fol, beta_values))
    return abs(value), 0.0


@register("ruelle_sullivan_pairing", "foliation", 1e-6, transverse=_TRANSVERSE)
def _rs_pairing(ctx, tol, transverse):
    fol = ctx.model()
    weights = _transverse_profile(fol, transverse)
    shape = fol.grid.shape
    value = ruelle_sullivan_evaluate(fol, weights,
                                     OneForm(np.ones(shape), np.zeros(shape)))
    leaf_len = fol.grid.axes[0].length
    return value, leaf_len * (weights * fol.grid.axes[1].weights()).sum()


@register("exactness_reconstruction", "submersion_probe", 1e-6)
def _exactness(ctx, tol):
    model = ctx.model()
    X, Y = model.total.meshgrid()
    bump = np.exp(-(X ** 2 + Y ** 2))
    report = exactness_probe(model, -2.0 * Y * bump)
    # |antiderivative - bump|, in place of bump
    np.subtract(report.antiderivative, bump, out=bump)
    err = float(np.max(np.abs(bump, out=bump)))
    return {"exactness_reconstruction": (err, 0.0),
            "exactness_tail": (report.tail_magnitude, 0.0)}


@register("exactness_obstruction", "submersion_probe", 0.0, exact=True)
def _obstruction(ctx, tol):
    model = ctx.model()
    X, Y = model.total.meshgrid()
    try:
        exactness_probe(model, np.exp(-(X ** 2 + Y ** 2)))
    except FiberObstructionError:
        return 1, 1
    return 0, 1


# ---------------------------------------------------------------------------
# symplectic checks

@register("liouville_total", "surface", 1e-6, expected=(SCALAR, REQUIRED))
def _liouville(ctx, tol, expected):
    surface = ctx.model()
    return integrate(surface.grid, liouville_density(surface)), expected


@register("dh_two_ways", "surface", 1e-5)
def _dh_two(ctx, tol):
    return dh_total_mass_two_ways(ctx.model())


@register("dh_expected", "surface", 1e-5, expected=(SCALAR, REQUIRED))
def _dh_expected(ctx, tol, expected):
    return dh_total_mass_two_ways(ctx.model())[0], expected


@register("affine_total", "leaf_family", 1e-6, expected=(SCALAR, REQUIRED))
def _affine_total(ctx, tol, expected):
    family = ctx.model()
    return integrate(family.base, affine_measure(family)), expected


@register("dh_weyl", "leaf_family", 1e-6, f=(FIELD, "1.0 + 0*t"))
def _dh_weyl(ctx, tol, f):
    family = ctx.model()
    profile = compile_field(f, 1)(family.base.nodes(0))
    return dh_weyl_check(family, lambda i: np.full(family.leaf.grid.shape, profile[i]))


@register("affine_volume_two_ways", "leaf_family", 1e-6)
def _affine_vol(ctx, tol):
    return affine_volume(ctx.model())


@register("iota_scaling", "leaf_family", 1e-9)
def _iota_scaling(ctx, tol):
    family = ctx.model()
    base = affine_volume(family)[0]
    doubled = affine_volume(family.with_iota(2 * family.iota))[0]
    return np.divide(doubled, base), 0.5


def catalog() -> list[CheckDef]:
    return sorted(REGISTRY.values(), key=lambda d: (d.engine, d.name))
