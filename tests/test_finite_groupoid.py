"""Structure-level tests: builders, axioms, orbits, restriction, serialization."""

import pytest

from groupoid_measures.finite import (
    FiniteGroupoid,
    GroupoidFormatError,
    action_groupoid,
    cyclic_group_table,
    disjoint_union,
    from_json,
    group_groupoid,
    orbits,
    pair_groupoid,
    restrict_full_subgroupoid,
    unit_groupoid,
    validate,
)


def z2_swap_plus_fixed():
    # Z/2 acting on {a, b, c}: swaps a <-> b, fixes c
    return action_groupoid(cyclic_group_table(2), [[0, 1, 2], [1, 0, 2]], 3, "z2swap")


SUITE = [
    unit_groupoid(1),
    unit_groupoid(3),
    pair_groupoid(2),
    pair_groupoid(3),
    pair_groupoid(4),
    group_groupoid(cyclic_group_table(2), "Z2"),
    group_groupoid(cyclic_group_table(3), "Z3"),
    z2_swap_plus_fixed(),
    action_groupoid(cyclic_group_table(2), [[0, 1, 2, 3], [1, 0, 3, 2]], 4, "2swaps"),
    disjoint_union(pair_groupoid(2), group_groupoid(cyclic_group_table(2), "Z2")),
]


@pytest.mark.parametrize("g", SUITE, ids=lambda g: g.name)
def test_suite_members_are_valid(g):
    assert validate(g) == []
    assert g.n_arrows <= 30


def test_pair_groupoid_over_two_is_valid():
    assert validate(pair_groupoid(2)) == []


def test_corrupted_target_reports_composition_mismatch():
    g = pair_groupoid(2)
    tgt = list(g.tgt)
    tgt[1] = 1 - tgt[1]
    bad = FiniteGroupoid(g.n_objects, g.src, tuple(tgt), g.compose_table,
                         g.inverse, g.unit)
    problems = validate(bad)
    assert problems != []
    assert any("mismatch" in p or "endpoints" in p or "law" in p for p in problems)


def test_a_table_entry_naming_an_arrow_out_of_range_is_spurious():
    g = pair_groupoid(2)
    stray = FiniteGroupoid(g.n_objects, g.src, g.tgt, {**g.compose_table, (7, 0): 0},
                           g.inverse, g.unit)
    assert validate(stray) == ["composition spurious for pair (7, 0)"]


def test_cached_adjacency_is_computed_once_and_the_class_keeps_its_descriptor():
    g = pair_groupoid(3)
    assert g.arrows_into is g.arrows_into
    assert g.arrows_into == [[a for a in g.arrows() if g.tgt[a] == x] for x in g.objects()]
    assert FiniteGroupoid.arrows_into is vars(FiniteGroupoid)["arrows_into"]


def test_orbits_unit_and_pair():
    assert orbits(unit_groupoid(3)) == [[0], [1], [2]]
    assert orbits(pair_groupoid(3)) == [[0, 1, 2]]


def test_orbits_action_groupoid():
    # brute-force reachability oracle
    g = z2_swap_plus_fixed()
    reach = {(x, x) for x in g.objects()}
    for a in g.arrows():
        reach.add((g.src[a], g.tgt[a]))
        reach.add((g.tgt[a], g.src[a]))
    changed = True
    while changed:
        changed = False
        for (x, y) in list(reach):
            for (y2, z) in list(reach):
                if y == y2 and (x, z) not in reach:
                    reach.add((x, z))
                    changed = True
    classes = {x: frozenset(y for y in g.objects() if (x, y) in reach)
               for x in g.objects()}
    expected = sorted({tuple(sorted(c)) for c in classes.values()})
    assert [tuple(o) for o in orbits(g)] == expected
    assert orbits(g) == [[0, 1], [2]]


def test_restriction_to_one_object_of_pair_groupoid():
    g = pair_groupoid(3)
    sub = restrict_full_subgroupoid(g, [1])
    assert validate(sub) == []
    assert sub.n_objects == 1 and sub.n_arrows == 1


def test_restriction_missing_an_orbit_is_an_error():
    g = z2_swap_plus_fixed()
    with pytest.raises(ValueError, match="misses the orbit"):
        restrict_full_subgroupoid(g, [2])


@pytest.mark.parametrize("subset", [[0, 7], [-1, 0, 2], [3]])
def test_restriction_to_objects_outside_the_groupoid_is_an_error(subset):
    g = z2_swap_plus_fixed()
    with pytest.raises(ValueError, match=r"not in range\(3\)"):
        restrict_full_subgroupoid(g, subset)


def test_restriction_of_transitive_action_gives_isotropy_group():
    g = action_groupoid(cyclic_group_table(2), [[0, 1], [1, 0]], 2, "free-z2")
    sub = restrict_full_subgroupoid(g, [0])
    assert validate(sub) == []
    assert sub.n_objects == 1
    # the isotropy at a point of a free transitive Z/2 action is trivial
    assert sub.n_arrows == 1
    g2 = action_groupoid(cyclic_group_table(2), [[0], [0]], 1, "z2-on-point")
    sub2 = restrict_full_subgroupoid(g2, [0])
    assert sub2.n_arrows == 2


def test_json_round_trip():
    g = z2_swap_plus_fixed()
    g2 = from_json(g.to_json())
    assert g2.src == g.src and g2.tgt == g.tgt
    assert g2.compose_table == g.compose_table
    assert g2.inverse == g.inverse and g2.unit == g.unit


def test_json_loader_rejects_invalid_tables():
    g = pair_groupoid(2)
    import json
    doc = json.loads(g.to_json())
    doc["inverses"][0] = 1  # breaks the inverse law
    with pytest.raises(GroupoidFormatError):
        from_json(json.dumps(doc))
    with pytest.raises(GroupoidFormatError):
        from_json('{"objects": 2}')
