"""Spans around the program's layer calls, installed from outside the program.

``install`` wraps the public functions of each layer in every module of the
package that binds them (``checks`` imports most quadrature functions by
name; ``transverse`` calls ``s_fiber_integrate`` through its own globals),
plus the methods of the model and leaf classes and every check runner in
the registry.  A span records its name, start, end and parent; spans are
kept in memory and handed back when the pass ends.

Self time of a span is its duration minus its child spans and minus the
bookkeeping done inside it for counters (array digests, nonzero counts).
That bookkeeping is charged to ``trace.unattributed_s`` together with the
time spent outside every span, so that the self times of all layers plus
``trace.unattributed_s`` add up to the pass time exactly.
"""

from __future__ import annotations

import dataclasses
import functools
import hashlib
import importlib
import inspect
import sys
import time
from collections import defaultdict

import numpy as np

_now = time.perf_counter_ns

PACKAGE = "groupoid_measures"

# self-time buckets: a span's self time goes to the longest bucket that is
# its name or a dotted prefix of it
BUCKETS = (
    "smooth.transverse.s_fiber_integrate", "smooth.transverse.t_fiber_integrate",
    "smooth.transverse.ArrowFunction.slice", "smooth.transverse.averaging",
    "smooth.transverse.invariance_defect", "smooth.transverse.inversion_invariance_check",
    "smooth.transverse.weyl_check", "smooth.transverse.weinstein_volume",
    "smooth.transverse.orbit_density", "smooth.transverse.modular_cocycle",
    "smooth.transverse.cutoff_construct",
    "smooth.models.pull", "smooth.models.build_model",
    "smooth.models.TransverseDensityData",
    "finite.linalg_q.rank", "finite.linalg_q.nullspace", "finite.linalg_q.matmul",
    "finite.homology.homology", "finite.homology.nerve", "finite.homology.boundary_matrix",
    "finite.groupoid.validate", "finite.groupoid.orbits", "finite.groupoid.build",
    "finite.calculus",
    "cli.load_scenario", "cli.run_scenario", "checks.runner", "reports.render",
    "expressions.compile_field", "expressions.evaluate", "density.grids.integrate",
    "smooth.foliation", "symplectic",
)

# span names whose call count is reported as <name>.calls
COUNTED = [
    "smooth.transverse.s_fiber_integrate", "smooth.transverse.t_fiber_integrate",
    "smooth.transverse.ArrowFunction.slice", "smooth.transverse.modular_cocycle",
    "smooth.transverse.cutoff_construct", "smooth.models.pull",
    "finite.linalg_q.rank", "finite.homology.homology", "finite.homology.nerve",
    "finite.homology.boundary_matrix", "finite.groupoid.orbits",
    "finite.calculus.convolve", "cli.run_scenario", "checks.runner",
    "expressions.compile_field", "expressions.evaluate", "density.grids.integrate",
]

# the per-layer metrics a traced run reports, in order, with units
PER_LAYER = (
    [(f"{name}.calls", "count") for name in COUNTED]
    + [(f"{bucket}.self_s", "s") for bucket in BUCKETS]
    + [
        ("smooth.transverse.cutoff_construct.distinct_ratio", "ratio"),
        ("smooth.models.pull.bytes_computed", "bytes"),
        ("finite.linalg_q.rank.cells", "count"),
        ("finite.linalg_q.rank.nonzero_ratio", "ratio"),
        ("finite.homology.homology.distinct_ratio", "ratio"),
        ("finite.homology.nerve.strings", "count"),
        ("finite.homology.nerve.distinct_ratio", "ratio"),
        ("finite.homology.boundary_matrix.cells", "count"),
        ("reports.render.bytes", "bytes"),
        ("trace.unattributed_s", "s"),
        ("trace.overhead_s", "s"),
    ]
)


def bucket_of(span_name: str) -> str:
    matches = [b for b in BUCKETS if span_name == b or span_name.startswith(b + ".")]
    if not matches:
        raise KeyError(f"span {span_name!r} has no self-time bucket")
    return max(matches, key=len)


def _digest(values) -> bytes:
    arr = np.ascontiguousarray(values)
    return hashlib.blake2b(arr.tobytes(), digest_size=16).digest() + repr(arr.shape).encode()


class Tracer:
    """In-memory span recorder for one pass."""

    def __init__(self):
        self.names: list[str] = []
        self._name_index: dict[str, int] = {}
        self.spans: list = []       # span id -> (name index, parent id, start, end)
        self._stack: list[int] = []
        self._bookkeeping: dict[int, int] = defaultdict(int)  # span id -> ns
        self.counts: dict[str, float] = defaultdict(float)
        self.keys: dict[str, set] = defaultdict(set)
        self.scenario = -1
        self._groupoid_ids: dict[int, tuple] = {}
        self._groupoid_keys: dict[tuple, int] = {}

    def _name(self, name: str) -> int:
        if name not in self._name_index:
            self._name_index[name] = len(self.names)
            self.names.append(name)
        return self._name_index[name]

    def _book(self, hook, *args):
        t0 = _now()
        out = hook(*args)
        self._bookkeeping[self._stack[-1] if self._stack else -1] += _now() - t0
        return out

    def wrap(self, fn, name: str, before=None, after=None):
        """Wrap ``fn`` in a span; ``after(args, kwargs, result)`` may return a
        replacement result (used to wrap the closures compile_field returns)."""
        idx = self._name(name)
        spans, stack = self.spans, self._stack

        @functools.wraps(fn)
        def traced(*args, **kwargs):
            if before is not None:
                self._book(before, args, kwargs)
            sid = len(spans)
            spans.append(None)
            stack.append(sid)
            t0 = _now()
            try:
                result = fn(*args, **kwargs)
            finally:
                t1 = _now()
                stack.pop()
                spans[sid] = (idx, stack[-1] if stack else -1, t0, t1)
            if after is not None:
                replaced = self._book(after, args, kwargs, result)
                if replaced is not None:
                    result = replaced
            return result

        return traced

    # -- counters -----------------------------------------------------------

    def groupoid_key(self, g) -> int:
        """Content identifier of a finite groupoid, memoised per object."""
        entry = self._groupoid_ids.get(id(g))
        if entry is None or entry[0] is not g:
            content = (g.n_objects, g.src, g.tgt)
            key = self._groupoid_keys.setdefault(content, len(self._groupoid_keys))
            entry = (g, key)
            self._groupoid_ids[id(g)] = entry
        return entry[1]

    def distinct(self, metric: str, key) -> None:
        self.keys[metric].add((self.scenario, key))

    # -- aggregation --------------------------------------------------------

    def aggregate(self, pass_ns: int) -> dict[str, float]:
        """Per-layer metrics of this pass (without trace.overhead_s)."""
        child = defaultdict(int)
        for idx, parent, t0, t1 in self.spans:
            if parent >= 0:
                child[parent] += t1 - t0
        self_ns: dict[str, int] = {b: 0 for b in BUCKETS}
        calls: dict[str, int] = defaultdict(int)
        buckets = [bucket_of(n) for n in self.names]
        for sid, (idx, parent, t0, t1) in enumerate(self.spans):
            self_ns[buckets[idx]] += t1 - t0 - child[sid] - self._bookkeeping.get(sid, 0)
            calls[self.names[idx]] += 1
        out: dict[str, float] = {}
        for name in COUNTED:
            out[f"{name}.calls"] = sum(n for span, n in calls.items()
                                       if span == name or span.startswith(name + "."))
        for bucket, ns in self_ns.items():
            out[f"{bucket}.self_s"] = ns / 1e9
        out["trace.unattributed_s"] = (pass_ns - sum(self_ns.values())) / 1e9

        def ratio(metric, base):
            return len(self.keys[metric]) / base if base else 0.0

        out["smooth.transverse.cutoff_construct.distinct_ratio"] = ratio(
            "cutoff_construct", out["smooth.transverse.cutoff_construct.calls"])
        out["finite.homology.homology.distinct_ratio"] = ratio(
            "homology", out["finite.homology.homology.calls"])
        out["finite.homology.nerve.distinct_ratio"] = ratio(
            "nerve", out["finite.homology.nerve.calls"])
        cells = self.counts["rank.cells"]
        out["finite.linalg_q.rank.cells"] = cells
        out["finite.linalg_q.rank.nonzero_ratio"] = \
            self.counts["rank.nonzeros"] / cells if cells else 0.0
        out["smooth.models.pull.bytes_computed"] = self.counts["pull.bytes"]
        out["finite.homology.nerve.strings"] = self.counts["nerve.strings"]
        out["finite.homology.boundary_matrix.cells"] = self.counts["boundary_matrix.cells"]
        out["reports.render.bytes"] = self.counts["render.bytes"]
        return out

    def span_records(self) -> dict:
        return {"names": self.names,
                "spans": [list(s) for s in self.spans]}


# ---------------------------------------------------------------------------
# installation

def _rebind(original, wrapped) -> None:
    """Replace ``original`` by ``wrapped`` in every package module binding it."""
    for mod_name, module in list(sys.modules.items()):
        if module is None or not (mod_name == PACKAGE or mod_name.startswith(PACKAGE + ".")):
            continue
        for attr, value in list(vars(module).items()):
            if value is original:
                setattr(module, attr, wrapped)


# A traced layer function or method that is missing fails the run: a
# metric that silently read zero would look like a gain.

def _wrap_function(tracer, module, attr, name, **hooks):
    if not hasattr(module, attr):
        raise AttributeError(f"traced layer {name!r}: {module.__name__} has no {attr!r}")
    original = getattr(module, attr)
    _rebind(original, tracer.wrap(original, name, **hooks))


def _wrap_method(tracer, cls, attr, name, **hooks):
    raw = cls.__dict__.get(attr)
    if raw is None:
        raise AttributeError(f"traced layer {name!r}: {cls.__qualname__} defines no {attr!r}")
    if isinstance(raw, staticmethod):
        setattr(cls, attr, staticmethod(tracer.wrap(raw.__func__, name, **hooks)))
    else:
        setattr(cls, attr, tracer.wrap(raw, name, **hooks))


def _public_functions(module):
    return [n for n, v in vars(module).items()
            if inspect.isfunction(v) and v.__module__ == module.__name__
            and not n.startswith("_")]


def _public_methods(cls):
    return [n for n, v in cls.__dict__.items()
            if (inspect.isfunction(v) or isinstance(v, staticmethod))
            and (not n.startswith("_") or n == "__init__")]


def install(tracer: Tracer) -> None:
    """Wrap every traced layer of the imported package."""
    def mod(name):
        return importlib.import_module(f"{PACKAGE}.{name}")

    t = tracer
    transverse, models = mod("smooth.transverse"), mod("smooth.models")
    linalg, homology = mod("finite.linalg_q"), mod("finite.homology")
    groupoid, calculus = mod("finite.groupoid"), mod("finite.calculus")
    cli, checks, reports = mod("cli"), mod("checks"), mod("reports")
    expressions, grids = mod("expressions"), mod("density.grids")
    foliation = mod("smooth.foliation")
    sym_checks, sym_models = mod("symplectic.checks"), mod("symplectic.models")

    def fn(module, attr, name, **hooks):
        _wrap_function(t, module, attr, name, **hooks)

    # smooth.transverse
    for attr in ("s_fiber_integrate", "t_fiber_integrate", "averaging",
                 "invariance_defect", "inversion_invariance_check", "weyl_check",
                 "weinstein_volume", "orbit_density", "modular_cocycle"):
        fn(transverse, attr, f"smooth.transverse.{attr}")

    def cutoff_key(args, kwargs, result):
        model, rho, phi = args[:3]
        t.distinct("cutoff_construct", (id(model), _digest(rho), _digest(phi),
                                        args[3:], tuple(sorted(kwargs.items()))))

    fn(transverse, "cutoff_construct", "smooth.transverse.cutoff_construct",
       after=cutoff_key)
    _wrap_method(t, transverse.ArrowFunction, "slice",
                 "smooth.transverse.ArrowFunction.slice")

    # smooth.models
    def pull_bytes(args, kwargs, result):
        t.counts["pull.bytes"] += result.nbytes

    for cls in vars(models).values():
        if inspect.isclass(cls) and "pull" in cls.__dict__:
            _wrap_method(t, cls, "pull", "smooth.models.pull", after=pull_bytes)
    fn(models, "build_model", "smooth.models.build_model")
    _wrap_method(t, models.TransverseDensityData, "__init__",
                 "smooth.models.TransverseDensityData")

    # finite.linalg_q
    def rank_cells(args, kwargs, result):
        a = args[0]
        if a and a[0]:
            t.counts["rank.cells"] += len(a) * len(a[0])
            t.counts["rank.nonzeros"] += sum(1 for row in a for v in row if v)

    fn(linalg, "rank", "finite.linalg_q.rank", after=rank_cells)
    fn(linalg, "nullspace", "finite.linalg_q.nullspace")
    fn(linalg, "matmul", "finite.linalg_q.matmul")

    # finite.homology
    # homology(g, k) for a smaller k repeats a prefix of the work on g, so
    # the groupoid alone is the input that counts as distinct
    def homology_key(args, kwargs, result):
        t.distinct("homology", t.groupoid_key(args[0]))

    def nerve_key(args, kwargs, result):
        t.distinct("nerve", (t.groupoid_key(args[0]), args[1]))
        t.counts["nerve.strings"] += len(result)

    def matrix_cells(args, kwargs, result):
        if result:
            t.counts["boundary_matrix.cells"] += len(result) * len(result[0])

    fn(homology, "homology", "finite.homology.homology", after=homology_key)
    fn(homology, "nerve", "finite.homology.nerve", after=nerve_key)
    fn(homology, "boundary_matrix", "finite.homology.boundary_matrix",
       after=matrix_cells)

    # finite.groupoid and finite.calculus
    fn(groupoid, "validate", "finite.groupoid.validate")
    fn(groupoid, "orbits", "finite.groupoid.orbits")
    for attr in ("unit_groupoid", "pair_groupoid", "group_groupoid", "action_groupoid",
                 "disjoint_union", "restrict_full_subgroupoid", "from_json"):
        fn(groupoid, attr, f"finite.groupoid.build.{attr}")
    for attr in _public_functions(calculus):
        fn(calculus, attr, f"finite.calculus.{attr}")

    # cli, checks, reports
    def next_scenario(args, kwargs):
        t.scenario += 1

    fn(cli, "load_scenario", "cli.load_scenario")
    fn(cli, "run_scenario", "cli.run_scenario", before=next_scenario)
    for name, check in list(checks.REGISTRY.items()):
        checks.REGISTRY[name] = dataclasses.replace(
            check, runner=t.wrap(check.runner, f"checks.runner.{name}"))

    def render_bytes(args, kwargs, result):
        t.counts["render.bytes"] += len(result.encode("utf-8"))

    for attr in ("to_csv", "to_json"):
        _wrap_method(t, reports.Report, attr, f"reports.render.{attr}",
                     after=render_bytes)

    # expressions and density.grids
    def wrap_compiled(args, kwargs, result):
        return t.wrap(result, "expressions.evaluate")

    fn(expressions, "compile_field", "expressions.compile_field", after=wrap_compiled)
    fn(grids, "integrate", "density.grids.integrate")

    # smooth.foliation and symplectic
    for attr in _public_functions(foliation):
        fn(foliation, attr, f"smooth.foliation.{attr}")
    for attr in _public_methods(foliation.FoliatedGrid):
        _wrap_method(t, foliation.FoliatedGrid, attr, f"smooth.foliation.FoliatedGrid.{attr}")
    for attr in _public_functions(sym_checks):
        fn(sym_checks, attr, f"symplectic.{attr}")
    for cls in (sym_models.SymplecticPairModel, sym_models.LeafFamilyModel):
        for attr in _public_methods(cls):
            _wrap_method(t, cls, attr, f"symplectic.{cls.__name__}.{attr}")
