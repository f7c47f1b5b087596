"""Tests for the exact fiber-summation calculus and convolution traces."""

import random
from fractions import Fraction

import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from groupoid_measures.finite import (
    HaarWeight,
    average_function,
    coinvariants,
    convolve,
    counting_haar,
    cyclic_group_table,
    group_groupoid,
    is_orbit_constant,
    is_trace,
    orbits,
    pair_groupoid,
    s_shriek,
    t_shriek,
    transverse_measure_cone,
    unit_groupoid,
    unit_trace,
)
from groupoid_measures.finite import linalg_q
from test_exact_references import dense_rank, groupoids, groupoids_and_groups
from test_finite_groupoid import SUITE, z2_swap_plus_fixed


def difference_matrix(g):
    """Matrix of s_down - t_down, objects by arrows: the dense oracle."""
    m = linalg_q.zeros(g.n_objects, g.n_arrows)
    for a in g.arrows():
        m[g.src[a]][a] += 1
        m[g.tgt[a]][a] -= 1
    return m


def random_weights(rng, n):
    return [Fraction(rng.randint(-6, 6), rng.randint(1, 4)) for _ in range(n)]


def test_s_shriek_on_unit_groupoid_is_identity():
    g = unit_groupoid(4)
    u = [Fraction(k, 3) for k in range(4)]
    assert s_shriek(g, u) == u
    assert t_shriek(g, u) == u


def test_s_shriek_pair_two_constant_one():
    g = pair_groupoid(2)
    # brute-force oracle: each object is the source of exactly 2 of 4 arrows
    expected = [sum(Fraction(1) for a in g.arrows() if g.src[a] == x)
                for x in g.objects()]
    assert expected == [Fraction(2), Fraction(2)]
    assert s_shriek(g, [1, 1, 1, 1]) == expected


def test_shriek_of_single_arrow_indicator():
    g = pair_groupoid(3)
    for a in g.arrows():
        u = [Fraction(0)] * g.n_arrows
        u[a] = Fraction(1)
        sv, tv = s_shriek(g, u), t_shriek(g, u)
        assert sv[g.src[a]] == 1 and sum(sv) == 1
        assert tv[g.tgt[a]] == 1 and sum(tv) == 1


def test_shrieks_are_linear():
    rng = random.Random(7)
    g = z2_swap_plus_fixed()
    u, v = random_weights(rng, g.n_arrows), random_weights(rng, g.n_arrows)
    c = Fraction(5, 3)
    lin = [c * a + b for a, b in zip(u, v)]
    assert s_shriek(g, lin) == [c * a + b for a, b in zip(s_shriek(g, u), s_shriek(g, v))]
    assert t_shriek(g, lin) == [c * a + b for a, b in zip(t_shriek(g, u), t_shriek(g, v))]


@pytest.mark.parametrize("g", SUITE, ids=lambda g: g.name)
def test_coinvariant_dimension_equals_orbit_count(g):
    dim, basis = coinvariants(g)
    assert dim == len(orbits(g))
    assert len(basis) == dim


@settings(max_examples=60, deadline=None)
@given(groupoids)
def test_orbit_space_dimension_is_the_dense_corank_of_the_difference_matrix(g):
    corank = g.n_objects - dense_rank(difference_matrix(g))
    assert coinvariants(g)[0] == corank
    assert transverse_measure_cone(g)[0] == corank


def test_coinvariants_examples():
    assert coinvariants(unit_groupoid(3))[0] == 3
    assert coinvariants(pair_groupoid(3))[0] == 1
    swap = z2_swap_plus_fixed()
    assert coinvariants(swap)[0] == 2  # {a,b} and {c}


@pytest.mark.parametrize("g", SUITE, ids=lambda g: g.name)
def test_cone_basis_is_invariant_and_spans_kernel(g):
    dim, basis = transverse_measure_cone(g)
    assert len(basis) == dim
    for vec in basis:
        assert all(v >= 0 for v in vec)  # a ray of the positive cone
        assert is_orbit_constant(g, vec)
    # oracle: exact kernel of the transposed difference matrix
    diff = difference_matrix(g)
    transpose = [[diff[r][c] for r in range(len(diff))]
                 for c in range(len(diff[0]))] if diff and diff[0] else []
    kernel = linalg_q.nullspace(transpose) if transpose else []
    assert len(kernel) == len(basis)
    for vec in kernel:
        assert is_orbit_constant(g, vec)


def test_cone_examples():
    assert transverse_measure_cone(unit_groupoid(3)) == (3, [[1, 0, 0], [0, 1, 0], [0, 0, 1]])
    assert transverse_measure_cone(pair_groupoid(3)) == (1, [[1, 1, 1]])
    assert transverse_measure_cone(z2_swap_plus_fixed()) == (2, [[1, 1, 0], [0, 0, 1]])


def test_convolution_on_unit_groupoid_is_pointwise():
    g = unit_groupoid(3)
    u, v = [1, 2, 3], [4, 5, 6]
    assert convolve(g, u, v) == {0: 4, 1: 10, 2: 18}


def test_z2_convolution_table():
    g = group_groupoid(cyclic_group_table(2), "Z2")
    delta_s = [Fraction(0), Fraction(1)]
    assert convolve(g, delta_s, delta_s) == {0: Fraction(1)}


def test_unit_indicator_convolution_restricts_targets():
    g = z2_swap_plus_fixed()
    rng = random.Random(3)
    u = random_weights(rng, g.n_arrows)
    for x in g.objects():
        delta_unit = [Fraction(0)] * g.n_arrows
        delta_unit[g.unit[x]] = Fraction(1)
        out = convolve(g, delta_unit, u)
        assert out == {a: u[a] for a in g.arrows() if g.tgt[a] == x and u[a]}


@pytest.mark.parametrize("g", [h for h in SUITE if h.n_arrows <= 30],
                         ids=lambda g: g.name)
def test_convolution_is_associative_on_basis_indicators(g):
    def delta(a):
        d = [Fraction(0)] * g.n_arrows
        d[a] = Fraction(1)
        return d

    for a in g.arrows():
        for b in g.arrows():
            ab = convolve(g, delta(a), delta(b))
            for c in g.arrows():
                left = convolve(g, ab, delta(c))
                right = convolve(g, delta(a), convolve(g, delta(b), delta(c)))
                assert left == right


def test_trace_examples_on_swap_groupoid():
    g = z2_swap_plus_fixed()
    ok, witness = is_trace(g, [1, 1, 1])
    assert ok and witness is None
    bad, witness = is_trace(g, [1, 0, 1])
    assert not bad and witness is not None
    a, b = witness
    # the witness pair really violates the trace identity
    w = [Fraction(1), Fraction(0), Fraction(1)]
    da = [Fraction(int(i == a)) for i in g.arrows()]
    db = [Fraction(int(i == b)) for i in g.arrows()]
    assert unit_trace(g, w, convolve(g, da, db)) != unit_trace(g, w, convolve(g, db, da))


def test_trace_on_unit_groupoid_always_holds():
    g = unit_groupoid(3)
    for w in ([1, 2, 3], [0, 0, 1], [-1, 5, 2]):
        assert is_trace(g, w)[0]


@pytest.mark.parametrize("g", SUITE, ids=lambda g: g.name)
def test_trace_iff_orbit_constant(g):
    rng = random.Random(11 + g.n_arrows)
    candidates = [[Fraction(1)] * g.n_objects]
    for orb in orbits(g):
        vec = [Fraction(0)] * g.n_objects
        for x in orb:
            vec[x] = Fraction(3, 2)
        candidates.append(vec)
    for _ in range(4):
        candidates.append(random_weights(rng, g.n_objects))
    for w in candidates:
        assert is_trace(g, w)[0] == is_orbit_constant(g, w)


def test_average_fixes_orbit_constant_functions():
    g = z2_swap_plus_fixed()
    haar = counting_haar(g).normalized()
    f = [Fraction(7, 2), Fraction(7, 2), Fraction(-1)]
    assert average_function(g, haar, f) == f


def test_average_swap_example():
    # free Z/2 swap on two points, normalized counting weight
    from groupoid_measures.finite import action_groupoid
    g = action_groupoid(cyclic_group_table(2), [[0, 1], [1, 0]], 2, "swap")
    haar = counting_haar(g).normalized()
    assert haar.rho == [Fraction(1, 2), Fraction(1, 2)]
    assert average_function(g, haar, [0, 1]) == [Fraction(1, 2), Fraction(1, 2)]


def test_average_is_orbit_constant():
    rng = random.Random(5)
    for g in SUITE:
        haar = counting_haar(g)
        f = random_weights(rng, g.n_objects)
        av = average_function(g, haar, f)
        for a in g.arrows():
            assert av[g.src[a]] == av[g.tgt[a]]


def loop_average(g, haar, f):
    """Reference: the per-object loop average_function replaced, each s-fiber
    walked through arrows_from, after its Haar mass is checked nonzero."""
    out = []
    for x in g.objects():
        assert haar.fiber_mass(x) != 0
        out.append(sum((f[g.tgt[a]] * haar.rho[g.tgt[a]] for a in g.arrows_from(x)),
                       Fraction(0)))
    return out


@settings(max_examples=60, deadline=None)
@given(groupoids_and_groups, st.data())
def test_average_function_equals_the_per_object_loop(g, data):
    fractions = st.builds(Fraction, st.integers(-6, 6), st.integers(1, 4))
    positive = st.builds(Fraction, st.integers(1, 9), st.integers(1, 4))
    f = data.draw(st.lists(fractions, min_size=g.n_objects, max_size=g.n_objects))
    rho = data.draw(st.lists(positive, min_size=g.n_objects, max_size=g.n_objects))
    for haar in (counting_haar(g), HaarWeight(g, rho)):
        av = average_function(g, haar, f)
        assert av == loop_average(g, haar, f)
        assert all(type(v) is Fraction for v in av)


def test_haar_weight_vanishing_on_an_orbit_is_rejected():
    g = z2_swap_plus_fixed()
    with pytest.raises(ValueError, match="misses an orbit"):
        HaarWeight(g, [1, 1, 0])
    with pytest.raises(ValueError, match="nonnegative"):
        HaarWeight(g, [1, -1, 1])
