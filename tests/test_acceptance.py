"""Acceptance suite: every exit criterion at its stated tolerance.

Each criterion prints one PASS/FAIL line (visible with ``pytest -s`` or on
failure) and asserts the same condition, so the module doubles as a
machine-checkable gate and a human-readable checklist.
"""

import itertools
import time
from fractions import Fraction

import numpy as np
import pytest

from groupoid_measures import finite
from groupoid_measures.finite import linalg_q
from groupoid_measures.smooth import (
    ArrowFunction,
    FiberObstructionError,
    FoliatedGrid,
    RotationPlaneModel,
    ScalingLineModel,
    SubmersionGroupoidModel,
    TransverseDensityData,
    TrivialActionModel,
    antipodal_circle_model,
    averaging,
    circle_self_model,
    cocycle_additivity_defect,
    cutoff_construct,
    cutoff_normalization_defect,
    default_test_set,
    exactness_probe,
    exterior_derivative,
    invariance_defect,
    inversion_invariance_check,
    modular_cocycle,
    ruelle_sullivan_evaluate,
    s_fiber_integrate,
    stokes_defect,
    t_fiber_integrate,
    weinstein_volume,
    weyl_check,
)
from groupoid_measures.density import Axis, Grid, integrate
from groupoid_measures.symplectic import (
    LeafFamilyModel,
    SymplecticPairModel,
    affine_volume,
    dh_total_mass_two_ways,
    dh_weyl_check,
)


def verdict(number: int, name: str, ok: bool, detail: str = "") -> bool:
    status = "PASS" if ok else "FAIL"
    suffix = f"  ({detail})" if detail else ""
    print(f"ACCEPTANCE {number:02d} {status}  {name}{suffix}")
    return ok


def groupoid_suite():
    suite = [
        finite.unit_groupoid(1),
        finite.unit_groupoid(3),
        finite.pair_groupoid(2),
        finite.pair_groupoid(3),
        finite.pair_groupoid(4),
        finite.group_groupoid(finite.cyclic_group_table(2), "Z2"),
        finite.group_groupoid(finite.cyclic_group_table(3), "Z3"),
        finite.action_groupoid(finite.cyclic_group_table(2),
                               [[0, 1, 2], [1, 0, 2]], 3, "swap+fix"),
        finite.action_groupoid(finite.cyclic_group_table(2),
                               [[0, 1, 2, 3], [1, 0, 3, 2]], 4, "two-swaps"),
        finite.disjoint_union(finite.pair_groupoid(2),
                              finite.group_groupoid(finite.cyclic_group_table(2), "Z2")),
    ]
    assert len(suite) >= 10 and all(g.n_arrows <= 30 for g in suite)
    return suite


# -- 1 ----------------------------------------------------------------------

def test_criterion_01_finite_coinvariants():
    start = time.perf_counter()
    ok = True
    for g in groupoid_suite():
        orbits = len(finite.orbits(g))
        dim, _ = finite.coinvariants(g)
        betti0 = finite.homology(g, 0).degrees[0].betti
        ok = ok and (dim == orbits == betti0)
    elapsed = time.perf_counter() - start
    ok = ok and elapsed < 1.0
    assert verdict(1, "coinvariant dimension = orbits = betti_0 on the suite",
                   ok, f"{elapsed:.3f}s for 10 groupoids")


# -- 2 ----------------------------------------------------------------------

def test_criterion_02_trace_equivalence():
    rng = np.random.default_rng(2)
    ok = True
    for g in groupoid_suite():
        candidates = [[Fraction(1)] * g.n_objects]
        for orb in finite.orbits(g):
            vec = [Fraction(0)] * g.n_objects
            for x in orb:
                vec[x] = Fraction(5, 2)
            candidates.append(vec)
        for _ in range(4):
            candidates.append([Fraction(int(rng.integers(-3, 4)))
                               for _ in range(g.n_objects)])
        for w in candidates:
            ok = ok and (finite.is_trace(g, w)[0] == finite.is_orbit_constant(g, w))
    assert verdict(2, "brute-force traces agree with orbit constancy", ok)


# -- 3 ----------------------------------------------------------------------

def test_criterion_03_finite_morita_invariance():
    point = finite.homology(finite.unit_groupoid(1), 2).betti()
    ok = True
    checked = 0
    for n in (2, 3, 4):
        g = finite.pair_groupoid(n)
        ok = ok and finite.homology(g, 2).betti() == point
        # every nonempty subset meets the single orbit
        for size in range(1, n + 1):
            for subset in itertools.combinations(range(n), size):
                sub = finite.restrict_full_subgroupoid(g, list(subset))
                ok = ok and finite.homology(sub, 2).betti() == point
                checked += 1
    assert verdict(3, "pair groupoids are homologically points, stable under "
                      "restriction", ok, f"{checked} subsets")


# -- 4 ----------------------------------------------------------------------

def test_criterion_04_boundary_squares_to_zero():
    ok = True
    for g in groupoid_suite():
        for k in (2, 3):
            prod = linalg_q.matmul(finite.boundary_matrix(g, k - 1),
                                   finite.boundary_matrix(g, k))
            ok = ok and linalg_q.is_zero(prod)
    assert verdict(4, "boundary composites vanish up to degree 3", ok)


# -- 5..9 share the production-size rotation model ---------------------------

@pytest.fixture(scope="module")
def rotation():
    return RotationPlaneModel(n_r=256, n_phi=256, r_lo=1.0, r_hi=2.0)


@pytest.fixture(scope="module")
def lebesgue(rotation):
    return TransverseDensityData.lebesgue(rotation)


def test_criterion_05_weyl_formula(rotation, lebesgue):
    start = time.perf_counter()
    r, phi = rotation.grid.meshgrid()
    f = np.exp(-30 * (r - 1.5) ** 2) * (1 + 0.3 * np.cos(phi))
    seed1 = np.exp(-4 * (r - 1.5) ** 2) * (1.3 + np.cos(phi))
    seed2 = 0.5 + 0.1 * np.sin(phi) + (r - 1.5) ** 2
    res1 = weyl_check(rotation, lebesgue, f,
                      cutoff=cutoff_construct(rotation, lebesgue.rho_values, seed1))
    res2 = weyl_check(rotation, lebesgue, f,
                      cutoff=cutoff_construct(rotation, lebesgue.rho_values, seed2))
    elapsed = time.perf_counter() - start
    seed_gap = abs(res1.rhs - res2.rhs) / abs(res1.rhs)
    ok = res1.rel_err <= 1e-6 and seed_gap <= 2e-6 and elapsed < 10.0
    assert verdict(5, "disintegration formula on the annulus", ok,
                   f"rel={res1.rel_err:.2e}, seeds={seed_gap:.2e}, {elapsed:.2f}s")


def test_criterion_06_averaging_annihilates(rotation, lebesgue):
    rng = np.random.default_rng(6)
    worst = 0.0
    for _ in range(20):
        u = ArrowFunction.random(rotation, rng)
        diff = s_fiber_integrate(rotation, lebesgue.rho_values, u) \
            - t_fiber_integrate(rotation, lebesgue.rho_values, u)
        res = averaging(rotation, lebesgue.rho_values, diff)
        worst = max(worst, float(np.max(np.abs(res.values))))
    ok = worst <= 1e-6
    assert verdict(6, "averaging annihilates fiber-sum differences", ok,
                   f"max={worst:.2e} over 20 draws")


def test_criterion_07_cutoff_normalization(rotation, lebesgue):
    r, phi = rotation.grid.meshgrid()
    seed = np.exp(-4 * (r - 1.5) ** 2) * (1.3 + np.cos(phi))
    c = cutoff_construct(rotation, lebesgue.rho_values, seed)
    defect = cutoff_normalization_defect(rotation, lebesgue.rho_values, c)
    ok = defect <= 1e-9
    assert verdict(7, "cut-off fiber averages equal one nodewise", ok,
                   f"defect={defect:.2e}")


def test_criterion_08_invariance_criteria_covanish(rotation, lebesgue):
    tests = default_test_set(rotation, np.random.default_rng(8))
    inv_good = invariance_defect(rotation, lebesgue, tests)
    isym_good = inversion_invariance_check(rotation, lebesgue, tests)
    witness = TransverseDensityData(rotation, lambda r, p: np.ones_like(r),
                                    lambda r, p: r * (1 + 0.5 * np.cos(p)))
    wtests = default_test_set(rotation, np.random.default_rng(8))
    inv_bad = invariance_defect(rotation, witness, wtests)
    isym_bad = inversion_invariance_check(rotation, witness, wtests)
    ok = inv_good <= 1e-6 and isym_good <= 1e-6 \
        and inv_bad > 1e-3 and isym_bad > 1e-3
    assert verdict(8, "invariance and inversion criteria co-vanish", ok,
                   f"good=({inv_good:.1e},{isym_good:.1e}), "
                   f"witness=({inv_bad:.1e},{isym_bad:.1e})")


def test_criterion_09_modular_cocycle(rotation, lebesgue):
    additivity = cocycle_additivity_defect(rotation, lebesgue,
                                           np.random.default_rng(9), samples=100)
    scaling = ScalingLineModel(max_power=2)
    sigma = TransverseDensityData(scaling, lambda x: np.ones_like(x),
                                  lambda x: 2.0 + np.sin(x))
    additivity = max(additivity,
                     cocycle_additivity_defect(scaling, sigma,
                                               np.random.default_rng(9), samples=100))
    rng = np.random.default_rng(90)
    worst_c = 0.0
    for _ in range(64):
        j = int(rng.integers(rotation.group_size))
        x = (float(rng.uniform(1, 2)), float(rng.uniform(0, 2 * np.pi)))
        worst_c = max(worst_c, abs(modular_cocycle(rotation, lebesgue, j, x)))
    ok = additivity <= 1e-9 and worst_c <= 1e-12
    assert verdict(9, "modular cocycle additivity and rotation vanishing", ok,
                   f"additivity={additivity:.1e}, |c|={worst_c:.1e}")


# -- 10 -----------------------------------------------------------------------

def test_criterion_10_stokes_and_current_closedness():
    defects, rs_defects = [], []
    for n in (128, 256):
        grid = Grid([Axis(n + 1, 0.0, 1.0), Axis(33, 0.0, 1.0)])
        fol = FoliatedGrid(grid, leaf_axis=0)
        x, y = grid.meshgrid()
        omega = x * (1 - x) ** 2 * np.exp(-3 * y)
        w = 1.0 + 0.5 * np.sin(2 * np.pi * grid.nodes(1))
        defects.append(stokes_defect(fol, w, omega))
        rs_defects.append(abs(ruelle_sullivan_evaluate(
            fol, w, exterior_derivative(fol, omega))))
    order = float(np.log2(defects[0] / defects[1]))
    rs_order = float(np.log2(rs_defects[0] / rs_defects[1]))
    ok = defects[1] <= 1e-4 and order >= 1.8 \
        and rs_defects[1] <= 1e-4 and rs_order >= 1.8
    assert verdict(10, "leafwise Stokes and current closedness at order 2", ok,
                   f"h=1/256 defect={defects[1]:.2e}, order={order:.2f}")


# -- 11 -----------------------------------------------------------------------

def test_criterion_11_exactness_probe():
    grid = Grid([Axis(9, -2.0, 2.0), Axis(8193, -4.0, 4.0)])
    model = SubmersionGroupoidModel(grid, fiber_axes=[1])
    x, y = grid.meshgrid()
    bump = np.exp(-(x ** 2 + y ** 2))
    report = exactness_probe(model, -2.0 * y * bump)
    err = float(np.max(np.abs(report.antiderivative - bump)))
    try:
        exactness_probe(model, bump)
        rejected = False
    except FiberObstructionError:
        rejected = True
    ok = err <= 1e-6 and rejected
    assert verdict(11, "fiberwise antiderivative reconstruction and obstruction",
                   ok, f"err={err:.2e}, obstruction rejected={rejected}")


# -- 12 -----------------------------------------------------------------------

def test_criterion_12_symplectic_measures():
    dh = dh_total_mass_two_ways(SymplecticPairModel.sphere())
    dh_ok = dh.rel_err <= 1e-5 and \
        abs(dh.lhs - 16 * np.pi ** 2) <= 1e-5 * 16 * np.pi ** 2

    def family(iota):
        base = Grid([Axis(65, 1.0, 2.0)])
        return LeafFamilyModel(base, lambda t: 4 * np.pi * t,
                               lambda t: 4 * np.pi + 0 * t, iota=iota)

    fam1, fam2 = family(1), family(2)
    weyl1 = dh_weyl_check(fam1, lambda i: np.ones(fam1.leaf.grid.shape))
    weyl2 = dh_weyl_check(fam2, lambda i: np.ones(fam2.leaf.grid.shape))
    vol1, vol2 = affine_volume(fam1), affine_volume(fam2)
    scaling_ok = abs(vol2.lhs - 0.5 * vol1.lhs) <= 1e-9 * vol1.lhs
    ok = dh_ok and weyl1.rel_err <= 1e-6 and weyl2.rel_err <= 1e-6 \
        and vol1.rel_err <= 1e-6 and vol2.rel_err <= 1e-6 and scaling_ok
    assert verdict(12, "DH mass, leaf-family disintegration, affine volume", ok,
                   f"dh={dh.lhs:.6f}, vol ratio={vol2.lhs / vol1.lhs:.3f}")


# -- 13 -----------------------------------------------------------------------

def test_criterion_13_weinstein_volumes(rotation, lebesgue):
    antipodal = antipodal_circle_model(256)
    sigma2 = TransverseDensityData(antipodal, lambda t: 2.0 * np.ones_like(t),
                                   lambda t: np.ones_like(t))
    seed = 1.0 + 0.5 * np.cos(2 * antipodal.grid.nodes(0))
    res = weinstein_volume(antipodal, sigma2,
                           cutoff=cutoff_construct(antipodal, sigma2.rho_values, seed))
    pi_ok = abs(res.lhs - np.pi) <= 1e-9

    scenarios = [(antipodal, sigma2)]
    circle = circle_self_model(256)
    scenarios.append((circle, TransverseDensityData(
        circle, lambda t: np.ones_like(t), lambda t: np.ones_like(t) / (2 * np.pi))))
    scenarios.append((rotation, lebesgue))
    trivial = TrivialActionModel(Grid([Axis(33, 0.0, 1.0)]))
    scenarios.append((trivial, TransverseDensityData(
        trivial, lambda x: np.ones_like(x), lambda x: 1.0 + x)))
    two_path_ok = True
    for model, sigma in scenarios:
        mesh0 = model.grid.meshgrid()[0]
        seed = 1.0 + 0.25 * np.cos(mesh0)
        check = weinstein_volume(
            model, sigma, cutoff=cutoff_construct(model, sigma.rho_values, seed))
        two_path_ok = two_path_ok and check.rel_err <= 1e-6
    ok = pi_ok and two_path_ok
    assert verdict(13, "orbit-space volumes: closed form and two paths", ok,
                   f"antipodal={res.lhs:.12f}")
