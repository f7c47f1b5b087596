"""The exact engine's fast kernels against slow reference paths, and the exact
engine as the reference for the quadrature engine's finite models.

The references are the dense implementations the kernels replaced: a dense
row echelon form for rank and kernel, a convolution that walks the whole
composition table, a nerve that scans every arrow for every extension, and
builders that fill the composition table by a scan over all arrow pairs.
A ``FiniteActionModel`` is a finite group permuting grid nodes, which is an
action groupoid; its fiber integrals are sums that the exact engine computes
over the rationals.
"""

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
    nerve,
    nerve_size,
    orbits,
    pair_groupoid,
    unit_groupoid,
)
from groupoid_measures.finite import linalg_q
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
    assert nerve_size(g, k) == len(scanned_nerve(g, k))


@settings(max_examples=40, deadline=None)
@given(groupoids, st.integers(0, 3))
def test_nerve_matches_the_arrow_scan_on_random_actions(g, k):
    assert nerve(g, k) == scanned_nerve(g, k)
    assert nerve_size(g, k) == len(scanned_nerve(g, k))


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
    from groupoid_measures.checks import REGISTRY, ScenarioContext
    ctx = ScenarioContext("exact", "finite", model, 7)
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

    reps = model.orbit_representatives().tolist()
    assert len(reps) == len(orbits(g))
    assert reps == sorted(min(orb) for orb in orbits(g))

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
