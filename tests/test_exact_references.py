"""The exact engine's fast kernels against slow reference paths, and the exact
engine as the reference for the quadrature engine's finite models.

The references are the dense implementations the kernels replaced: a dense
row echelon form for rank and kernel, a convolution that walks the whole
composition table, a nerve that scans every arrow for every extension,
builders that fill the composition table by a scan over all arrow pairs, and
an axiom check and a trace test that scan every pair and triple of arrows.
A ``FiniteActionModel`` is a finite group permuting grid nodes, which is an
action groupoid; its fiber integrals are sums that the exact engine computes
over the rationals.  The JSON report's row template has the encoder it
replaced, ``json.dumps(..., indent=2)``, as its reference.
"""

import json
import math
from dataclasses import replace
from fractions import Fraction

import numpy as np
import pytest
from hypothesis import assume, given, settings
from hypothesis import strategies as st

from groupoid_measures.density import Axis, Grid
from groupoid_measures.finite import (
    FiniteGroupoid,
    HaarWeight,
    action_groupoid,
    average_function,
    boundary_columns,
    boundary_matrix,
    convolve,
    cyclic_group_table,
    disjoint_union,
    face,
    from_json,
    group_groupoid,
    homology,
    is_orbit_constant,
    is_trace,
    nerve,
    nerve_sizes,
    orbit_index,
    orbits,
    pair_groupoid,
    unit_groupoid,
    validate,
)
from groupoid_measures.finite import linalg_q
from groupoid_measures.reports import CheckRow, Report
from groupoid_measures.smooth import (
    FiniteActionModel,
    SaturationError,
    averaging,
    cutoff_construct,
    fiber_volumes,
)
from test_finite_groupoid import SUITE


# ---------------------------------------------------------------------------
# slow references

def dense_echelon(a):
    """Row-reduce a copy of ``a``; returns (RREF, pivot column list)."""
    m = [[Fraction(v) for v in row] for row in a]
    rows = len(m)
    cols = len(m[0]) if rows else 0
    pivots = []
    r = 0
    for c in range(cols):
        pivot = next((i for i in range(r, rows) if m[i][c]), None)
        if pivot is None:
            continue
        m[r], m[pivot] = m[pivot], m[r]
        inv = 1 / m[r][c]
        m[r] = [v * inv for v in m[r]]
        for i in range(rows):
            if i != r and m[i][c]:
                f = m[i][c]
                m[i] = [vi - f * vr for vi, vr in zip(m[i], m[r])]
        pivots.append(c)
        r += 1
        if r == rows:
            break
    return m, pivots


def dense_rank(a):
    if not a or not a[0]:
        return 0
    return len(dense_echelon(a)[1])


def table_convolve(g, u, v):
    """(u * v)(c) summed over the whole composition table; the nonzero entries."""
    out = [Fraction(0)] * g.n_arrows
    for (a, b), c in g.compose_table.items():
        if u[a] and v[b]:
            out[c] += Fraction(u[a]) * Fraction(v[b])
    return {c: w for c, w in enumerate(out) if w}


def dense_boundary(g, k):
    """The degree-k differential as a dense Fraction matrix, face by face."""
    rows = {s: i for i, s in enumerate(nerve(g, k - 1))}
    domain = nerve(g, k)
    mat = [[Fraction(0)] * len(domain) for _ in rows]
    for col, s in enumerate(domain):
        for i in range(k + 1):
            mat[rows[face(g, s, i)]][col] += (-1) ** i
    return mat


def dense(columns, n_rows):
    """Sparse columns as a dense list of rows."""
    mat = [[0] * len(columns) for _ in range(n_rows)]
    for j, col in enumerate(columns):
        for r, v in col.items():
            mat[r][j] = v
    return mat


def scanned_nerve(g, k):
    """Composable k-strings, extending each string by a scan over all arrows."""
    if k == 0:
        return [(x,) for x in g.objects()]
    strings = [(a,) for a in g.arrows()]
    for _ in range(k - 1):
        strings = [s + (b,) for s in strings
                   for b in g.arrows() if g.src[s[-1]] == g.tgt[b]]
    return strings


def scanned_validate(g):
    """Every groupoid axiom, the composition table checked on all arrows**2
    pairs and associativity on all arrows**3 triples."""
    problems = []
    n, m = g.n_objects, g.n_arrows
    if len(g.tgt) != m or len(g.inverse) != m or len(g.unit) != n:
        return ["index maps have inconsistent lengths"]
    for a in g.arrows():
        if not (0 <= g.src[a] < n and 0 <= g.tgt[a] < n):
            problems.append(f"arrow {a}: src/tgt out of range")
        if not 0 <= g.inverse[a] < m:
            problems.append(f"arrow {a}: inverse out of range")
    for x in g.objects():
        if not 0 <= g.unit[x] < m:
            problems.append(f"object {x}: unit out of range")
    if problems:
        return problems
    for x in g.objects():
        u = g.unit[x]
        if g.src[u] != x or g.tgt[u] != x:
            problems.append(f"unit of object {x} is not an endo-arrow at {x}")
    for a in g.arrows():
        for b in g.arrows():
            composable = g.src[a] == g.tgt[b]
            defined = (a, b) in g.compose_table
            if composable != defined:
                kind = "missing" if composable else "spurious"
                problems.append(f"composition {kind} for pair ({a}, {b})")
                continue
            if defined:
                c = g.compose_table[(a, b)]
                if not 0 <= c < m:
                    problems.append(f"composite of ({a}, {b}) out of range")
                elif g.src[c] != g.src[b] or g.tgt[c] != g.tgt[a]:
                    problems.append(f"composition mismatch for pair ({a}, {b})")
    if problems:
        return problems
    table = g.compose_table
    for a in g.arrows():
        x, y = g.src[a], g.tgt[a]
        if table[(a, g.unit[x])] != a or table[(g.unit[y], a)] != a:
            problems.append(f"unit law fails at arrow {a}")
        ai = g.inverse[a]
        if g.src[ai] != y or g.tgt[ai] != x:
            problems.append(f"inverse of arrow {a} has wrong endpoints")
        elif table[(a, ai)] != g.unit[y] or table[(ai, a)] != g.unit[x]:
            problems.append(f"inverse law fails at arrow {a}")
    for a in g.arrows():
        for b in g.arrows():
            for c in g.arrows():
                if g.src[a] == g.tgt[b] and g.src[b] == g.tgt[c] and (
                        table[(table[(a, b)], c)] != table[(a, table[(b, c)])]):
                    problems.append(f"associativity fails on ({a}, {b}, {c})")
    return problems


def scanned_is_trace(g, w):
    """tr(delta_a * delta_b) = tr(delta_b * delta_a) on all arrows**2 pairs."""
    units = {g.unit[x]: x for x in g.objects()}

    def tr_product(a, b):
        x = units.get(g.compose_table.get((a, b)))
        return Fraction(w[x]) if x is not None else Fraction(0)

    for a in g.arrows():
        for b in g.arrows():
            if tr_product(a, b) != tr_product(b, a):
                return False, (a, b)
    return True, None


def scanned_unit_groupoid(n):
    ids = tuple(range(n))
    return FiniteGroupoid(
        n_objects=n, src=ids, tgt=ids,
        compose_table={(i, i): i for i in range(n)},
        inverse=ids, unit=ids, name=f"unit({n})",
    )


def scanned_pair_groupoid(n):
    pairs = [(y, x) for y in range(n) for x in range(n)]
    index = {p: k for k, p in enumerate(pairs)}
    table = {}
    for (y1, x1) in pairs:
        for (y2, x2) in pairs:
            if x1 == y2:
                table[(index[(y1, x1)], index[(y2, x2)])] = index[(y1, x2)]
    return FiniteGroupoid(
        n_objects=n,
        src=tuple(x for _, x in pairs),
        tgt=tuple(y for y, _ in pairs),
        compose_table=table,
        inverse=tuple(index[(x, y)] for y, x in pairs),
        unit=tuple(index[(x, x)] for x in range(n)),
        name=f"pair({n})",
    )


def scanned_group_groupoid(table, name="group"):
    m = len(table)
    identity = next(e for e in range(m) if all(table[e][b] == b for b in range(m)))
    inv = tuple(next(b for b in range(m) if table[a][b] == identity) for a in range(m))
    return FiniteGroupoid(
        n_objects=1,
        src=(0,) * m, tgt=(0,) * m,
        compose_table={(a, b): table[a][b] for a in range(m) for b in range(m)},
        inverse=inv, unit=(identity,), name=name,
    )


def scanned_action_groupoid(table, action, n_points, name="action"):
    m = len(table)
    identity = next(e for e in range(m) if all(table[e][b] == b for b in range(m)))
    ginv = [next(b for b in range(m) if table[a][b] == identity) for a in range(m)]
    arrows = [(a, x) for a in range(m) for x in range(n_points)]
    index = {p: k for k, p in enumerate(arrows)}
    comp = {}
    for (a, x1) in arrows:
        for (b, x) in arrows:
            if x1 == action[b][x]:
                comp[(index[(a, x1)], index[(b, x)])] = index[(table[a][b], x)]
    return FiniteGroupoid(
        n_objects=n_points,
        src=tuple(x for _, x in arrows),
        tgt=tuple(action[a][x] for a, x in arrows),
        compose_table=comp,
        inverse=tuple(index[(ginv[a], action[a][x])] for a, x in arrows),
        unit=tuple(index[(identity, x)] for x in range(n_points)),
        name=name,
    )


# ---------------------------------------------------------------------------
# strategies

entries = st.one_of(
    st.just(0), st.just(0), st.integers(-3, 3),
    st.builds(Fraction, st.integers(-5, 5), st.integers(1, 4)))


@st.composite
def matrices(draw):
    rows, cols = draw(st.integers(0, 7)), draw(st.integers(0, 7))
    return [[Fraction(draw(entries)) for _ in range(cols)] for _ in range(rows)]


def _order(perm):
    power, k = perm, 1
    while power != list(range(len(perm))):
        power = [perm[i] for i in power]
        k += 1
    return k


@st.composite
def permutation_actions(draw, max_points=3):
    """Action groupoid of Z_m on points by the powers of one permutation of order m."""
    n = draw(st.integers(1, max_points))
    perm = draw(st.permutations(list(range(n))))
    m = _order(perm)
    action = [list(range(n))]
    for _ in range(m - 1):
        action.append([perm[x] for x in action[-1]])
    return action_groupoid(cyclic_group_table(m), action, n, name=f"Z{m}:{perm}")


@st.composite
def permutation_groups(draw, max_points=4):
    """(table, action, points): the group of permutations of up to four points
    generated by one or two random ones, its elements in a random order."""
    n = draw(st.integers(1, max_points))
    gens = draw(st.lists(st.permutations(list(range(n))), min_size=1, max_size=2))
    elements = [tuple(range(n))]
    for p in elements:  # grows while it is walked: the closure under the generators
        for gen in gens:
            q = tuple(gen[x] for x in p)
            if q not in elements:
                elements.append(q)
    elements = draw(st.permutations(elements))
    index = {p: k for k, p in enumerate(elements)}
    table = [[index[tuple(a[x] for x in b)] for b in elements] for a in elements]
    return table, [list(p) for p in elements], n


groupoids = st.one_of(
    permutation_actions(),
    st.builds(disjoint_union, permutation_actions(2), permutation_actions(3)))


groupoids_and_groups = st.one_of(
    groupoids, permutation_groups().map(lambda group: action_groupoid(*group)),
    permutation_groups().map(lambda group: group_groupoid(group[0])))


@st.composite
def broken_groupoids(draw):
    """A valid groupoid with one fault put in on purpose: a dropped table
    entry, a spurious entry between arrows that do not compose, a wrong
    composite or a wrong inverse.  Every key stays in range."""
    g = draw(groupoids_and_groups)
    m, table = g.n_arrows, dict(g.compose_table)
    fault = draw(st.sampled_from(["dropped", "spurious", "composite", "inverse"]))
    if fault == "dropped":
        del table[draw(st.sampled_from(sorted(table)))]
        return replace(g, compose_table=table)
    if fault == "spurious":
        apart = [(a, b) for a in g.arrows() for b in g.arrows() if g.src[a] != g.tgt[b]]
        assume(apart)
        table[draw(st.sampled_from(apart))] = draw(st.integers(0, m - 1))
        return replace(g, compose_table=table)
    assume(m > 1)
    shift = draw(st.integers(1, m - 1))
    if fault == "composite":
        key = draw(st.sampled_from(sorted(table)))
        table[key] = (table[key] + shift) % m
        return replace(g, compose_table=table)
    a = draw(st.integers(0, m - 1))
    inverse = list(g.inverse)
    inverse[a] = (inverse[a] + shift) % m
    return replace(g, inverse=tuple(inverse))


@st.composite
def sparse_weights(draw, n):
    w = [Fraction(0)] * n
    for a in draw(st.lists(st.integers(0, n - 1), max_size=3)):
        w[a] = Fraction(draw(st.integers(-4, 4)), draw(st.integers(1, 3)))
    return w


# ---------------------------------------------------------------------------
# rank and kernel

def assert_rank_and_kernel(a):
    r = linalg_q.rank(a)
    assert r == dense_rank(a)
    basis = linalg_q.nullspace(a)
    if not a:
        assert basis == []
        return
    cols = len(a[0])
    assert len(basis) == cols - r
    for v in basis:
        assert len(v) == cols
        support = [j for j in range(cols) if v[j]]
        assert all(sum((row[j] * v[j] for j in support), Fraction(0)) == 0
                   for row in a)
    assert dense_rank(basis) == len(basis)


@settings(max_examples=200, deadline=None)
@given(matrices())
def test_sparse_rank_and_kernel_match_the_dense_reference(a):
    assert_rank_and_kernel(a)


@pytest.mark.parametrize("rows, cols", [(0, 0), (1, 0), (3, 0), (1, 1), (2, 5), (5, 2)])
def test_all_zero_matrices_have_rank_zero_and_a_full_kernel(rows, cols):
    a = linalg_q.zeros(rows, cols)
    assert_rank_and_kernel(a)
    assert linalg_q.rank(a) == 0


@settings(max_examples=40, deadline=None)
@given(groupoids, st.integers(1, 3))
def test_boundary_rank_and_kernel_match_the_dense_reference(g, k):
    assert_rank_and_kernel(boundary_matrix(g, k))


@settings(max_examples=40, deadline=None)
@given(groupoids, st.integers(1, 3))
def test_sparse_int_boundary_rank_matches_the_dense_echelon(g, k):
    columns = boundary_columns(g, k)
    reference = dense_boundary(g, k)
    assert dense(columns, len(reference)) == reference
    assert all(type(v) is int and v for col in columns for v in col.values())
    assert linalg_q._reduce(columns) == dense_rank(reference)


@st.composite
def integer_matrices(draw):
    """Integer matrices whose entries are mostly not units, so pivots need not divide."""
    rows, cols = draw(st.integers(1, 6)), draw(st.integers(1, 6))
    entry = st.one_of(st.just(0), st.sampled_from([2, -2, 3, -3, 4, 5, -6, 1]))
    return [[draw(entry) for _ in range(cols)] for _ in range(rows)]


def test_int_reduction_matches_the_dense_echelon_with_non_unit_pivots():
    quotients = []  # one entry per Fraction quotient the reduction takes

    def counting_fraction(*args):
        quotients.append(args)
        return Fraction(*args)

    @settings(max_examples=200, deadline=None)
    @given(integer_matrices())
    def check(a):
        columns = linalg_q._columns(a)
        linalg_q.Fraction = counting_fraction
        try:
            r = linalg_q._reduce(columns)
        finally:
            linalg_q.Fraction = Fraction
        assert r == dense_rank(a)

    check()
    assert quotients, "no pivot failed to divide: the Fraction branch never ran"


@settings(max_examples=100, deadline=None)
@given(matrices(), st.integers(0, 5), st.data())
def test_sparse_compose_matches_dense_matmul(a, width, data):
    assume(a and a[0])
    b = [[Fraction(data.draw(entries)) for _ in range(width)] for _ in a[0]]
    product = linalg_q.compose(linalg_q._columns(a), linalg_q._columns(b))
    assert dense(product, len(a)) == linalg_q.matmul(a, b)


@settings(max_examples=40, deadline=None)
@given(groupoids, st.integers(2, 3))
def test_sparse_boundary_composite_matches_dense_matmul(g, k):
    product = linalg_q.compose(boundary_columns(g, k - 1), boundary_columns(g, k))
    lower = dense_boundary(g, k - 1)
    assert dense(product, len(lower)) == linalg_q.matmul(lower, dense_boundary(g, k))
    assert all(not col for col in product)


@settings(max_examples=40, deadline=None)
@given(groupoids)
def test_betti_zero_is_the_orbit_count_on_random_actions(g):
    assert homology(g, 1).betti()[0] == len(orbits(g))


# ---------------------------------------------------------------------------
# convolution and nerve

@settings(max_examples=100, deadline=None)
@given(groupoids, st.data())
def test_convolve_matches_the_table_walk(g, data):
    u = data.draw(sparse_weights(g.n_arrows))
    v = data.draw(sparse_weights(g.n_arrows))
    assert convolve(g, u, v) == table_convolve(g, u, v)


@pytest.mark.parametrize("g", SUITE, ids=lambda g: g.name)
@pytest.mark.parametrize("k", [0, 1, 2, 3])
def test_nerve_matches_the_arrow_scan(g, k):
    assert nerve(g, k) == scanned_nerve(g, k)
    assert nerve_sizes(g, k) == [len(scanned_nerve(g, j)) for j in range(k + 1)]


@settings(max_examples=40, deadline=None)
@given(groupoids, st.integers(0, 3))
def test_nerve_matches_the_arrow_scan_on_random_actions(g, k):
    assert nerve(g, k) == scanned_nerve(g, k)
    assert nerve_sizes(g, k) == [len(scanned_nerve(g, j)) for j in range(k + 1)]


# ---------------------------------------------------------------------------
# axioms and the trace test

def object_weights(g, data):
    """The all-ones weight, one with a distinct nonzero value on each orbit,
    and two drawn ones, which are orbit constant now and then."""
    drawn = st.lists(st.integers(0, 2), min_size=g.n_objects, max_size=g.n_objects)
    return [[1] * g.n_objects, [2 * k + 2 for k in orbit_index(g)],
            data.draw(drawn), [2 * v for v in data.draw(drawn)]]


def assert_matches_the_scans(g, data):
    assert sorted(validate(g)) == sorted(scanned_validate(g))
    for w in object_weights(g, data):
        assert is_trace(g, w)[0] == scanned_is_trace(g, w)[0]


@settings(max_examples=80, deadline=None)
@given(groupoids_and_groups, st.data())
def test_table_walks_match_the_arrow_scans(g, data):
    assert validate(g) == []
    assert_matches_the_scans(g, data)
    for w in object_weights(g, data):
        assert is_trace(g, w)[0] == is_orbit_constant(g, w)


@settings(max_examples=200, deadline=None)
@given(broken_groupoids(), st.data())
def test_table_walks_match_the_arrow_scans_on_broken_tables(g, data):
    assert validate(g) != []
    assert_matches_the_scans(g, data)


def test_the_orbit_valued_weight_catches_a_broken_trace_condition(monkeypatch):
    # unit(2) with spurious entries that make delta_0 * delta_1 the unit at 0
    # and delta_1 * delta_0 the unit at 1: the one condition is w(0) = w(1),
    # which the all-ones weight and a constant sample keep
    from groupoid_measures import checks, finite
    g = unit_groupoid(2)
    broken = replace(g, compose_table={**g.compose_table, (0, 1): 0, (1, 0): 1})
    assert is_trace(broken, [1, 1])[0] and not is_trace(broken, [2, 4])[0]

    class ConstantRandom:
        def randrange(self, start, stop):
            return stop - 1

    monkeypatch.setattr(finite, "unit_groupoid", lambda n: broken)
    monkeypatch.setattr(checks.ScenarioContext, "rng", lambda self, salt=0: ConstantRandom())
    unit2 = checks.read_model("finite", {"kind": "unit", "n": 2})
    ctx = checks.ScenarioContext("x", unit2, 0)
    runner = checks.REGISTRY["trace_matches_orbit_constancy"].runner
    assert runner(ctx, 0.0, samples=1) == (1, 0)


def test_a_convolve_broken_on_one_product_fails_convolution_associative(monkeypatch):
    from groupoid_measures import checks, finite
    convolve_ok = finite.convolve

    def broken(g, u, v):
        # pair(2): arrow 1 is 1 -> 0 and arrow 2 is 0 -> 1, so 1 * 2 is the unit 0
        return {0: 2} if (u, v) == ({1: 1}, {2: 1}) else convolve_ok(g, u, v)

    pair2 = checks.read_model("finite", {"kind": "pair", "n": 2})
    ctx = checks.ScenarioContext("x", pair2, 0)
    runner = checks.REGISTRY["convolution_associative"].runner
    assert runner(ctx, 0.0) == (0, 0)
    monkeypatch.setattr(finite, "convolve", broken)
    violations, _ = runner(ctx, 0.0)
    assert violations > 0


# ---------------------------------------------------------------------------
# builders

def assert_same_groupoid(built, reference):
    assert built == reference
    assert built.name == reference.name


@settings(max_examples=60, deadline=None)
@given(permutation_groups())
def test_action_and_group_builders_match_the_arrow_pair_scan(group):
    table, action, n = group
    assert_same_groupoid(action_groupoid(table, action, n),
                         scanned_action_groupoid(table, action, n))
    assert_same_groupoid(group_groupoid(table, "G"), scanned_group_groupoid(table, "G"))
    assert_same_groupoid(group_groupoid(table), scanned_group_groupoid(table))


@given(st.integers(0, 6))
def test_unit_and_pair_builders_match_the_arrow_pair_scan(n):
    assert_same_groupoid(unit_groupoid(n), scanned_unit_groupoid(n))
    assert_same_groupoid(pair_groupoid(n), scanned_pair_groupoid(n))


# ---------------------------------------------------------------------------
# serialization

@settings(max_examples=40, deadline=None)
@given(groupoids)
def test_json_round_trip_keeps_the_groupoid(g):
    text = g.to_json()
    back = from_json(text)
    assert back.n_objects == g.n_objects
    assert (back.src, back.tgt) == (g.src, g.tgt)
    assert back.compose_table == g.compose_table
    assert (back.unit, back.inverse) == (g.unit, g.inverse)
    assert homology(back, 0).betti()[0] == homology(g, 0).betti()[0] == len(orbits(g))
    assert back.to_json() == text


@settings(max_examples=60, deadline=None)
@given(groupoids, st.data())
def test_convolve_reads_dicts_and_sequences_alike(g, data):
    u = data.draw(sparse_weights(g.n_arrows))
    v = data.draw(sparse_weights(g.n_arrows))
    as_dict = {a: w for a, w in enumerate(u) if w or a % 2}  # zeros may be present
    product = convolve(g, as_dict, dict(enumerate(v)))
    assert product == convolve(g, u, v)
    assert all(product.values())
    ints = convolve(g, [int(2 * w) for w in u], [int(3 * w) for w in v])
    assert all(type(w) is int for w in ints.values())


@pytest.mark.parametrize("model", [{"kind": "pair", "n": 3},
                                   {"kind": "z2_action", "points": 3, "swaps": [[0, 1]]}])
def test_finite_checks_return_exact_values(model):
    from groupoid_measures.checks import REGISTRY, ScenarioContext, read_model
    ctx = ScenarioContext("exact", read_model("finite", model), 7)
    for check in REGISTRY.values():
        if check.engine != "finite":
            continue
        result = check.runner(ctx, 0.0, **check.read_params({}))
        pairs = result.values() if isinstance(result, dict) else [result]
        for lhs, rhs in pairs:
            assert type(lhs) in (int, Fraction) and type(rhs) in (int, Fraction), check.name


# ---------------------------------------------------------------------------
# the exact engine as reference for finite smooth models

def _power(perm, k):
    out = np.arange(len(perm))
    for _ in range(k):
        out = np.asarray(perm)[out]
    return out


@st.composite
def finite_smooth_models(draw):
    """Z_m1 x Z_m2 acting on a grid of at most 3 x 3 nodes by one permutation
    per axis, conjugated by a permutation of all nodes; the same action as a
    ``FiniteActionModel`` and as an exact action groupoid."""
    shape = (draw(st.integers(1, 3)), draw(st.integers(1, 3)))
    perms = [draw(st.permutations(list(range(k)))) for k in shape]
    m1, m2 = (_order(p) * draw(st.integers(1, 2)) for p in perms)
    n_nodes = shape[0] * shape[1]
    shuffle = np.array(draw(st.permutations(list(range(n_nodes)))))
    rows, cols = np.indices(shape)
    node_maps = []
    for a in range(m1):
        for b in range(m2):
            image = np.ravel_multi_index(
                (_power(perms[0], a)[rows], _power(perms[1], b)[cols]), shape)
            # conjugated: x -> shuffle[image[shuffle^-1 x]]
            node_maps.append(shuffle[image.ravel()[np.argsort(shuffle)]].reshape(shape))
    table = [[(a1 + a2) % m1 * m2 + (b1 + b2) % m2
              for a2 in range(m1) for b2 in range(m2)]
             for a1 in range(m1) for b1 in range(m2)]
    grid = Grid([Axis(k, 0.0, 1.0, periodic=True) for k in shape])
    model = FiniteActionModel(grid, table, node_maps, point_maps=None)
    return model, action_groupoid(table, [m.ravel().tolist() for m in node_maps], n_nodes)


positive = st.builds(Fraction, st.integers(1, 9), st.integers(1, 4))
signed = st.builds(Fraction, st.integers(-9, 9), st.integers(1, 4))
seeds = st.one_of(st.just(Fraction(0)), positive, positive, positive)


@settings(max_examples=50, deadline=None)
@given(finite_smooth_models(), st.data())
def test_exact_engine_is_the_reference_for_finite_smooth_models(case, data):
    model, g = case
    n, size = g.n_objects, model.group_size
    rho, section, phi = (data.draw(st.lists(values, min_size=n, max_size=n))
                         for values in (positive, signed, seeds))

    def on_grid(values):
        return np.array([float(v) for v in values]).reshape(model.grid.shape)

    # the normalized Haar measure gives each group element the mass 1/|G|
    haar = HaarWeight(g, rho)
    assert np.allclose(fiber_volumes(model, on_grid(rho)).ravel(),
                       [float(haar.fiber_mass(x) / size) for x in g.objects()],
                       rtol=1e-12, atol=0)
    averaged = averaging(model, on_grid(rho), on_grid(section)).values
    assert np.allclose(averaged.ravel(),
                       [float(v / size) for v in average_function(g, haar, section)],
                       rtol=1e-12, atol=1e-12)

    # the seed saturates exactly when phi * rho is nonzero on every orbit,
    # which is when the exact engine accepts it as a Haar weight
    try:
        seed = HaarWeight(g, [p * r for p, r in zip(phi, rho)])
    except ValueError:
        with pytest.raises(SaturationError):
            cutoff_construct(model, on_grid(rho), on_grid(phi))
        return
    cutoff = cutoff_construct(model, on_grid(rho), on_grid(phi))
    assert np.allclose(cutoff.ravel(),
                       [float(p * size / seed.fiber_mass(x)) for x, p in enumerate(phi)],
                       rtol=1e-12, atol=0)


# ---------------------------------------------------------------------------
# the JSON report

def encoder_json(report):
    """``Report.to_json`` before the row template: the pure-Python encoder."""
    return json.dumps({
        "rows": [{
            "scenario": r.scenario, "check": r.check, **r.rendered(),
            "tolerance": r.tolerance, "pass": r.passed,
        } for r in report.rows],
        "summary": report.summary(),
    }, indent=2)


# quotes, backslashes, control characters, non-ASCII text and lone surrogates
names = st.text(st.one_of(st.characters(), st.sampled_from(
    '"\\/\x00\x08\x1f\x7f\u00e9\u2028\ud800\udfff\U0001f600')), max_size=8)
SPECIAL_FLOATS = [0.0, -0.0, 5e-324, 2.2250738585072014e-308, 1e308, 1.7976931348623157e308,
                  0.1, 1e16, 1e-7, math.nan, math.inf, -math.inf]
floats = st.one_of(st.floats(), st.sampled_from(SPECIAL_FLOATS + [-x for x in SPECIAL_FLOATS]))
exact_sides = st.one_of(st.integers(), st.fractions())


@st.composite
def check_rows(draw):
    exact = draw(st.booleans())
    side = exact_sides if exact else floats
    return CheckRow(draw(names), draw(names), draw(side), draw(side), draw(floats), exact)


def assert_renders_as_the_encoder(report):
    try:
        expected = encoder_json(report)
    except (OverflowError, ZeroDivisionError) as exc:
        # a side too large for a float, or a NaN against a zero reference
        with pytest.raises(type(exc)):
            report.to_json()
        return
    assert report.to_json() == expected


@settings(max_examples=100, deadline=None)
@given(st.lists(check_rows(), max_size=6))
def test_the_row_template_writes_the_encoders_bytes(rows):
    assert_renders_as_the_encoder(Report(rows))


def test_the_row_template_writes_the_encoders_bytes_on_every_special_value():
    rows = [CheckRow("q\"\\\x01\u00e9\ud800", "c", lhs, rhs, tol, False)
            for lhs in SPECIAL_FLOATS for rhs in SPECIAL_FLOATS
            for tol in (0.0, 1e-6, math.inf)]
    rows += [CheckRow("x", "exact", 3, Fraction(7, 2), 0.0, True),
             CheckRow("x", "exact", 2**60, 2**60, 0.0, True)]
    # a NaN against a zero lhs has no relative error in either renderer
    kept = [r for r in rows if not (r.lhs == 0 and math.isnan(r.rhs))]
    assert_renders_as_the_encoder(Report(kept))
    assert Report([]).to_json() == encoder_json(Report([]))
    assert '"rows": [],' in Report([]).to_json()
