"""Scenario inputs for the workloads, and the truths to check them by.

Each workload yields ``Scenario`` records: the scenario document handed to
``gm run`` plus one ``Expect`` per report row it must produce.  Expected
values never come from the program's output: orbit counts come from a
union-find over the arrow endpoints built here, Betti numbers from theory
(rationally the nerve of a finite groupoid has homology Q per orbit in
degree 0 and nothing above), and quadrature values from closed forms.

The seed moves labels, parameters and coefficients but never sizes, so
every seed asks for the same amount of work.
"""

from __future__ import annotations

import json
import math
import os
import random
from dataclasses import dataclass

# Tolerance contract of the check catalog; a report row must carry the same.
DEFAULT_TOL = {
    "model_axioms": 1e-9, "invariance_defect": 1e-6, "inversion_defect": 1e-6,
    "invariance_witness": 0.0, "inversion_witness": 0.0,
    "averaging_annihilates": 1e-6, "averaging_orbit_constant": 1e-6,
    "cutoff_normalization": 1e-9, "weyl": 1e-6, "weyl_seed_independence": 2e-6,
    "weinstein_two_ways": 1e-6, "weinstein_expected": 1e-9,
    "orbit_density_mass": 1e-9, "orbit_density_basepoint": 1e-9,
    "cocycle_additivity": 1e-9, "cocycle_vanishes": 1e-12,
    "cocycle_expected": 1e-9, "cutoff_saturation_error": 0.0,
    "stokes_closed": 1e-4, "stokes_order": 0.0, "ruelle_sullivan_closed": 1e-4,
    "ruelle_sullivan_pairing": 1e-6, "exactness_reconstruction": 1e-6,
    "exactness_obstruction": 0.0,
    "liouville_total": 1e-6, "dh_two_ways": 1e-5, "dh_expected": 1e-5,
    "affine_total": 1e-6, "dh_weyl": 1e-6, "affine_volume_two_ways": 1e-6,
    "iota_scaling": 1e-9,
}

# Rows whose left side is a defect that must stay within tolerance of zero.
ZERO_CHECKS = {
    "model_axioms", "invariance_defect", "inversion_defect",
    "averaging_annihilates", "averaging_orbit_constant", "cutoff_normalization",
    "orbit_density_basepoint", "cocycle_additivity", "cocycle_vanishes",
    "stokes_closed", "ruelle_sullivan_closed", "exactness_reconstruction",
}
# Rows whose left side is a shortfall below a floor: exactly zero when the
# witness defect (or the measured convergence order) clears its floor.
SHORTFALL_CHECKS = {"invariance_witness", "inversion_witness", "stokes_order"}
# Rows reporting that an expected error was raised (1) or not (0).
RAISES_CHECKS = {"cutoff_saturation_error", "exactness_obstruction"}
# Method properties: the two sides of an identity agree within tolerance.
TWO_SIDED_CHECKS = {"weyl_seed_independence", "weinstein_two_ways", "dh_two_ways",
                    "affine_volume_two_ways", "dh_weyl", "weyl"}
# Exact-engine rows that count violations: both sides exactly zero.
FINITE_ZERO_CHECKS = {"axioms_valid", "trace_matches_orbit_constancy",
                      "convolution_associative", "average_orbit_constant"}
# Exact-engine rows whose sides both equal the orbit count.
FINITE_ORBIT_CHECKS = {"coinvariants_dimension", "cone_dimension", "betti_zero"}


@dataclass(frozen=True)
class Expect:
    """What one report row must show.

    ``rule`` is one of exact, zero, shortfall, raises, two_sided, close,
    bounded.  ``value`` is the independent truth for the left side (exact,
    close, bounded), ``rhs`` the truth for the right side when it is fixed,
    ``bound`` an absolute error bound (bounded).
    """

    label: str
    rule: str
    tol: float
    value: float = 0.0
    rhs: float | None = None
    bound: float = 0.0


@dataclass
class Scenario:
    doc: dict
    expects: list[Expect]

    @property
    def name(self) -> str:
        return self.doc["name"]


# ---------------------------------------------------------------------------
# independent finite-groupoid facts

def arrow_endpoints(model: dict) -> tuple[int, list[tuple[int, int]]]:
    """Object count and (src, tgt) of every arrow of a finite model descriptor."""
    kind = model["kind"]
    if kind == "pair":
        n = int(model["n"])
        return n, [(x, y) for x in range(n) for y in range(n)]
    if kind == "cyclic":
        return 1, [(0, 0)] * int(model["n"])
    if kind == "z2_action":
        n = int(model["points"])
        perm = list(range(n))
        for a, b in model.get("swaps", []):
            perm[a], perm[b] = perm[b], perm[a]
        return n, [(x, x) for x in range(n)] + [(x, perm[x]) for x in range(n)]
    raise ValueError(f"no endpoint model for finite kind {kind!r}")


def orbit_classes(n: int, arrows) -> list[list[int]]:
    """Connected components of the objects under the arrows (union-find)."""
    parent = list(range(n))

    def find(x):
        root = x
        while parent[root] != root:
            root = parent[root]
        while parent[x] != root:
            parent[x], x = root, parent[x]
        return root

    for s, t in arrows:
        rs, rt = find(s), find(t)
        if rs != rt:
            parent[rs] = rt
    classes: dict[int, list[int]] = {}
    for x in range(n):
        classes.setdefault(find(x), []).append(x)
    return sorted(classes.values())


def finite_expects(model: dict, checks: list[dict]) -> list[Expect]:
    n, arrows = arrow_endpoints(model)
    orbit_count = len(orbit_classes(n, arrows))
    out = []
    for entry in checks:
        name, params = entry["name"], entry.get("params", {})
        if name in FINITE_ZERO_CHECKS:
            out.append(Expect(name, "exact", 0.0, 0, 0))
        elif name in FINITE_ORBIT_CHECKS:
            out.append(Expect(name, "exact", 0.0, orbit_count, orbit_count))
        elif name in ("homology_betti", "morita_restriction"):
            kmax = int(params.get("kmax", 2))
            for k in range(kmax + 1):
                betti = orbit_count if k == 0 else 0
                out.append(Expect(f"{name}[{k}]", "exact", 0.0, betti, betti))
        elif name == "boundary_squares":
            for k in range(2, int(params.get("kmax", 3)) + 1):
                out.append(Expect(f"boundary_squares[{k}]", "exact", 0.0, 0, 0))
        else:
            raise ValueError(f"no rule for finite check {name!r}")
    return out


def betti_expected(model: dict, kmax: int) -> list[int]:
    n, arrows = arrow_endpoints(model)
    return [len(orbit_classes(n, arrows))] + [0] * kmax


# ---------------------------------------------------------------------------
# quadrature truths

def smooth_expects(checks: list[dict], truth: dict) -> list[Expect]:
    """Row rules for quadrature checks; ``truth`` holds closed forms by check."""
    out = []
    for entry in checks:
        name = entry["name"]
        tol = DEFAULT_TOL[name]
        if name in ZERO_CHECKS:
            out.append(Expect(name, "zero", tol))
            if name == "exactness_reconstruction":
                out.append(Expect("exactness_tail", "zero", tol))
        elif name in SHORTFALL_CHECKS:
            out.append(Expect(name, "shortfall", tol))
        elif name in RAISES_CHECKS:
            out.append(Expect(name, "raises", tol, 1, 1))
        elif name in truth and name in TWO_SIDED_CHECKS:
            value, bound = truth[name]
            out.append(Expect(name, "bounded", tol, value, bound=bound))
        elif name in TWO_SIDED_CHECKS:
            out.append(Expect(name, "two_sided", tol))
        elif name in truth:
            value, rhs = truth[name]
            out.append(Expect(name, "close", tol, value, rhs))
        else:
            raise ValueError(f"no truth for check {name!r}")
    return out


def trapezoid_bound(h: float, length: float, second_derivative_max: float) -> float:
    """Composite trapezoid error bound (b - a) h^2 / 12 * max |f''|."""
    return length * h * h / 12.0 * second_derivative_max


def _max_abs(fn, lo: float, hi: float, samples: int = 20001) -> float:
    # a sampled maximum; the 1.05 margin covers the gap between samples
    step = (hi - lo) / (samples - 1)
    return 1.05 * max(abs(fn(lo + i * step)) for i in range(samples))


def rotation_weyl_lhs() -> tuple[float, float]:
    """2 pi int_1^2 r exp(-30 (r - 1.5)^2) dr, and the radial trapezoid bound.

    The angular factor 1 + 0.3 cos(phi) sums to 2 pi under the rectangle
    rule on 256 periodic nodes, so only the radial rule (256 nodes on
    [1, 2]) contributes error.
    """
    a, c = 30.0, 1.5
    exact = 2 * math.pi * c * math.sqrt(math.pi / a) * math.erf(0.5 * math.sqrt(a))

    def g2(u):  # second derivative of (u + c) exp(-a u^2)
        return math.exp(-a * u * u) * (-2 * a * (2 * u + c) - 2 * a * u
                                       + 4 * a * a * u * u * (u + c))

    bound = 2 * math.pi * trapezoid_bound(1.0 / 255, 1.0, _max_abs(g2, -0.5, 0.5))
    return exact, bound


def gaussian_square_lhs(nx: int, ny: int, a: float = 4.0) -> tuple[float, float]:
    """int over [0,1]^2 of exp(-a (x-1/2)^2 - a (y-1/2)^2), trapezoid bound.

    With p(x) = exp(-a (x-1/2)^2) the product rule T_x T_y errs from
    I_x I_y by at most e_x |T_y| + |I_x| e_y, where e is the 1D bound and
    |T_y| <= I_y + e_y.
    """
    one_d = math.sqrt(math.pi / a) * math.erf(0.5 * math.sqrt(a))

    def p2(u):
        return math.exp(-a * u * u) * (4 * a * a * u * u - 2 * a)

    m2 = _max_abs(p2, -0.5, 0.5)
    ex = trapezoid_bound(1.0 / (nx - 1), 1.0, m2)
    ey = trapezoid_bound(1.0 / (ny - 1), 1.0, m2)
    return one_d * one_d, ex * (one_d + ey) + one_d * ey


# Closed forms for the bundled scenarios, keyed by scenario then check.
BUNDLED_TRUTH = {
    "antipodal_weinstein": {"weinstein_expected": (math.pi, math.pi)},
    "circle_self": {"weinstein_expected": (1.0, 1.0),
                    "orbit_density_mass": (1.0, 1.0)},
    "rotation_weyl": {"weyl": rotation_weyl_lhs(),
                      "orbit_density_mass": (1.0, 1.0)},
    "trivial_group": {"weyl": gaussian_square_lhs(33, 17)},
    "scaling_cocycle": {"cocycle_expected": (math.log(2.0), math.log(2.0))},
    "sphere_dh": {"liouville_total": (4 * math.pi, 4 * math.pi),
                  "dh_expected": (16 * math.pi ** 2, 16 * math.pi ** 2)},
    "torus_dh": {"liouville_total": (1.0, 1.0), "dh_expected": (1.0, 1.0)},
    "leaf_family_affine": {"affine_total": (4 * math.pi, 4 * math.pi),
                           "iota_scaling": (0.5, 0.5)},
    "foliation_stokes": {"ruelle_sullivan_pairing": (1.0, 1.0)},
}


def expects_for(doc: dict, truth: dict) -> list[Expect]:
    if doc["engine"] == "finite":
        return finite_expects(doc["model"], doc["checks"])
    return smooth_expects(doc["checks"], truth)


# ---------------------------------------------------------------------------
# bundled: the 14 scenarios shipped with the package

def bundled(scenario_dir: str) -> list[Scenario]:
    out = []
    for name in sorted(os.listdir(scenario_dir)):
        if not name.endswith(".json"):
            continue
        with open(os.path.join(scenario_dir, name), encoding="utf-8") as fh:
            doc = json.load(fh)
        out.append(Scenario(doc, expects_for(doc, BUNDLED_TRUTH.get(doc["name"], {}))))
    return out


# ---------------------------------------------------------------------------
# many_small: a few hundred small scenarios over all three engines

def _num(x: float) -> str:
    return repr(float(x))


def _small_antipodal(i, rng):
    n = (8, 16, 32)[i % 3]
    a, b = rng.uniform(0.5, 3.0), rng.uniform(0.5, 2.0)
    c = rng.uniform(0.1, 0.6)
    node = rng.randrange(n)
    preset = i % 2 == 1
    model = ({"kind": "finite_action", "params": {"preset": "antipodal_circle", "n": n}}
             if preset else {"kind": "antipodal_circle", "params": {"n": n}})
    model["sigma"] = {"rho": f"{_num(a)} + 0*t", "tau": f"{_num(b)} + 0*t"}
    volume = 2 * math.pi * b / a
    checks = [
        {"name": "model_axioms"},
        {"name": "weinstein_expected", "params": {"expected": f"2*pi*{_num(b)}/{_num(a)}"}},
        {"name": "weinstein_two_ways", "params": {"phi": f"1 + {_num(c)}*cos(2*t)"}},
        {"name": "invariance_defect", "params": {"count": 3}},
        {"name": "inversion_defect", "params": {"count": 3}},
        {"name": "cutoff_normalization", "params": {"phi": f"1 + {_num(c)}*sin(t)"}},
        {"name": "averaging_orbit_constant"},
        {"name": "orbit_density_mass", "params": {"node": [node], "expected": a}},
        {"name": "cocycle_vanishes", "params": {"samples": 8}},
    ]
    truth = {"weinstein_expected": (volume, volume), "orbit_density_mass": (a, a)}
    return "smooth", model, checks, truth


def _small_mirror(i, rng):
    n = (9, 17, 33)[i % 3]
    w = rng.uniform(0.5, 2.0)
    a, b = rng.uniform(0.5, 3.0), rng.uniform(0.5, 2.0)
    c = rng.uniform(0.1, 0.4)
    preset = i % 2 == 1
    params = {"n": n, "half_width": w}
    model = ({"kind": "finite_action", "params": dict(params, preset="mirror_interval")}
             if preset else {"kind": "mirror_interval", "params": params})
    model["sigma"] = {"rho": f"{_num(a)} + 0*x", "tau": f"{_num(b)} + 0*x"}
    volume = 2 * w * b / a
    checks = [
        {"name": "model_axioms"},
        {"name": "weinstein_expected",
         "params": {"expected": f"2*{_num(w)}*{_num(b)}/{_num(a)}"}},
        {"name": "weinstein_two_ways", "params": {"phi": f"1 + {_num(c)}*x*x"}},
        {"name": "invariance_defect", "params": {"count": 3}},
        {"name": "inversion_defect", "params": {"count": 3}},
        {"name": "cutoff_normalization", "params": {"phi": f"1 + {_num(c)}*x"}},
        {"name": "weyl", "params": {"f": f"exp(-{_num(c)}*x*x)", "phi": f"1 + {_num(c)}*x"}},
    ]
    return "smooth", model, checks, {"weinstein_expected": (volume, volume)}


def _small_circle_self(i, rng):
    n = (16, 32, 64)[i % 3]
    a, b = rng.uniform(0.5, 3.0), rng.uniform(0.5, 2.0)
    c = rng.uniform(0.1, 0.6)
    node = rng.randrange(n)
    model = {"kind": "circle_self", "params": {"n": n},
             "sigma": {"rho": f"{_num(a)} + 0*t", "tau": f"{_num(b)}/(2*pi) + 0*t"}}
    checks = [
        {"name": "weinstein_expected", "params": {"expected": f"{_num(b)}/{_num(a)}"}},
        {"name": "weinstein_two_ways", "params": {"phi": f"1 + {_num(c)}*sin(t)"}},
        {"name": "invariance_defect", "params": {"count": 2}},
        {"name": "averaging_annihilates", "params": {"count": 2}},
        {"name": "orbit_density_mass", "params": {"node": [node], "expected": a}},
        {"name": "orbit_density_basepoint", "params": {"node": [node]}},
    ]
    return "smooth", model, checks, {"weinstein_expected": (b / a, b / a),
                                     "orbit_density_mass": (a, a)}


def _small_trivial(i, rng):
    nx, ny = (5, 9, 17)[i % 3], (5, 9)[i % 2]
    a, b = rng.uniform(0.5, 3.0), rng.uniform(0.5, 2.0)
    model = {"kind": "trivial",
             "grid": {"axes": [{"n": nx, "lo": 0.0, "hi": 1.0, "periodic": False},
                               {"n": ny, "lo": 0.0, "hi": 1.0, "periodic": False}]},
             "sigma": {"rho": f"{_num(a)} + 0*x", "tau": f"{_num(b)} + 0*x"}}
    checks = [
        {"name": "invariance_defect", "params": {"count": 3}},
        {"name": "inversion_defect", "params": {"count": 3}},
        {"name": "weyl", "params": {"f": "exp(-4*(x-0.5)**2 - 4*(y-0.5)**2)"}},
        {"name": "weinstein_two_ways"},
        {"name": "weinstein_expected", "params": {"expected": f"{_num(b)}/{_num(a)}"}},
    ]
    value, bound = gaussian_square_lhs(nx, ny)
    return "smooth", model, checks, {"weinstein_expected": (b / a, b / a),
                                     "weyl": (b * value, b * bound)}


def _small_scaling(i, rng):
    max_power = 2
    j = rng.randrange(2 * max_power + 1)
    x = rng.uniform(0.5, 3.0)
    c = rng.uniform(0.1, 1.0)
    model = {"kind": "scaling_line", "params": {"max_power": max_power},
             "sigma": {"rho": "1 + 0*x", "tau": f"1 + {_num(c)}*x"}}
    # cocycle log(tau(y) |J| / tau(x)) with y = 2^p x, |J| = 2^p, rho constant
    p = j - max_power
    y = 2.0 ** p * x
    value = math.log((1 + c * y) * 2.0 ** p / (1 + c * x))
    checks = [
        {"name": "cocycle_expected",
         "params": {"element": j, "point": [x], "expected": _num(value)}},
        {"name": "cocycle_additivity", "params": {"samples": 20}},
    ]
    return "smooth", model, checks, {"cocycle_expected": (value, value)}


def _small_foliation(i, rng):
    c = rng.uniform(0.1, 0.6)
    model = {"kind": "foliation", "n_leaf": 129, "n_transverse": (5, 9, 17)[i % 3]}
    transverse = f"1.0 + {_num(c)}*sin(2*pi*y)"
    checks = [
        {"name": "stokes_closed", "params": {"transverse": transverse}},
        {"name": "stokes_order", "params": {"transverse": transverse, "min_order": 1.8}},
        {"name": "ruelle_sullivan_closed", "params": {"transverse": transverse}},
        {"name": "ruelle_sullivan_pairing", "params": {"transverse": transverse}},
    ]
    # the trapezoid sum of sin(2 pi y) over [0, 1] vanishes up to rounding
    return "smooth", model, checks, {"ruelle_sullivan_pairing": (1.0, 1.0)}


def _small_submersion(i, rng):
    model = {"kind": "submersion_probe", "n_base": (5, 9)[i % 2], "n_fiber": 4097}
    checks = [{"name": "exactness_reconstruction"}, {"name": "exactness_obstruction"}]
    return "smooth", model, checks, {}


def _small_sphere(i, rng):
    area = rng.uniform(1.0, 20.0)
    model = {"kind": "sphere", "area": area}
    checks = [
        {"name": "liouville_total", "params": {"expected": _num(area)}},
        {"name": "dh_two_ways"},
        {"name": "dh_expected", "params": {"expected": f"{_num(area)}**2"}},
    ]
    return "symplectic", model, checks, {"liouville_total": (area, area),
                                         "dh_expected": (area ** 2, area ** 2)}


def _small_torus(i, rng):
    model = {"kind": "torus_cell"}
    checks = [
        {"name": "liouville_total", "params": {"expected": "1"}},
        {"name": "dh_two_ways"},
        {"name": "dh_expected", "params": {"expected": "1"}},
    ]
    return "symplectic", model, checks, {"liouville_total": (1.0, 1.0),
                                         "dh_expected": (1.0, 1.0)}


def _small_leaf_family(i, rng):
    lo = rng.uniform(0.5, 1.5)
    hi = lo + rng.uniform(0.5, 1.5)
    c = rng.uniform(1.0, 15.0)
    mid = (lo + hi) / 2
    model = {"B": {"lo": lo, "hi": hi, "n": (9, 17, 33)[i % 3]},
             "area": f"{_num(c)}*t", "area_derivative": f"{_num(c)} + 0*t",
             "iota": 1 + i % 3, "leaf": ("sphere", "torus")[i % 2]}
    # the lattice density |A'| = c is constant, so the trapezoid rule is exact
    total = c * (hi - lo)
    checks = [
        {"name": "affine_total", "params": {"expected": f"{_num(c)}*({_num(hi)}-{_num(lo)})"}},
        {"name": "dh_weyl", "params": {"f": f"exp(-4*(t-{_num(mid)})**2)"}},
        {"name": "affine_volume_two_ways"},
        {"name": "iota_scaling"},
    ]
    return "symplectic", model, checks, {"affine_total": (total, total),
                                         "iota_scaling": (0.5, 0.5)}


def _small_z2(i, rng):
    points = (2, 3, 4, 5)[i % 4]
    order = list(range(points))
    rng.shuffle(order)
    swaps = sorted(sorted(order[2 * k:2 * k + 2]) for k in range(points // 2))
    model = {"kind": "z2_action", "points": points, "swaps": swaps}
    n, arrows = arrow_endpoints(model)
    reps = sorted(rng.choice(cls) for cls in orbit_classes(n, arrows))
    checks = [
        {"name": "axioms_valid"},
        {"name": "coinvariants_dimension"},
        {"name": "cone_dimension"},
        {"name": "homology_betti", "params": {"kmax": 2, "expected": betti_expected(model, 2)}},
        {"name": "betti_zero"},
        {"name": "trace_matches_orbit_constancy", "params": {"samples": 3}},
        {"name": "morita_restriction", "params": {"subset": reps, "kmax": 1}},
        {"name": "boundary_squares", "params": {"kmax": 2}},
        {"name": "average_orbit_constant", "params": {"samples": 3}},
    ]
    if points <= 3:
        checks.append({"name": "convolution_associative"})
    return "finite", model, checks, {}


# (kind, builder, scenario count); counts and sizes are fixed, the seed
# moves only coefficients, labels and scenario seeds
MANY_SMALL_MIX = [
    ("antipodal", _small_antipodal, 30),
    ("mirror", _small_mirror, 30),
    ("circle_self", _small_circle_self, 24),
    ("trivial", _small_trivial, 30),
    ("scaling", _small_scaling, 30),
    ("foliation", _small_foliation, 15),
    ("submersion", _small_submersion, 10),
    ("sphere", _small_sphere, 25),
    ("torus", _small_torus, 15),
    ("leaf_family", _small_leaf_family, 45),
    ("z2", _small_z2, 40),
]


def many_small(seed: int) -> list[Scenario]:
    rng = random.Random(seed)
    out = []
    for kind, build, count in MANY_SMALL_MIX:
        for i in range(count):
            engine, model, checks, truth = build(i, rng)
            doc = {"name": f"{kind}_{i:03d}", "engine": engine, "model": model,
                   "seed": rng.randrange(1 << 30), "checks": checks}
            out.append(Scenario(doc, expects_for(doc, truth)))
    return out
