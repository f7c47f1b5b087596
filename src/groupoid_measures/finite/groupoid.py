"""Finite groupoids as explicit composition tables.

A finite groupoid is stored with integer object and arrow indices: two
index maps ``src``/``tgt``, a partial composition table, an involution
``inverse`` and a unit arrow per object.  Composition is stored as
``compose_table[(g, h)]`` for "h first, then g", so it is defined exactly
when ``src(g) == tgt(h)``.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from functools import cached_property

from ..expressions import ScenarioError, as_int


class _cached(cached_property):
    """cached_property through object.__setattr__: its write to the instance
    __dict__ makes CPython 3.11 load every later attribute the slow way, which
    cost convolve, bound by attribute loads, about 8%."""

    def __get__(self, obj, owner=None):
        if obj is None:
            return self
        value = self.func(obj)
        object.__setattr__(obj, self.attrname, value)
        return value


@dataclass(frozen=True)
class FiniteGroupoid:
    n_objects: int
    src: tuple[int, ...]
    tgt: tuple[int, ...]
    compose_table: dict[tuple[int, int], int]
    inverse: tuple[int, ...]
    unit: tuple[int, ...]
    name: str = field(default="", compare=False)

    @property
    def n_arrows(self) -> int:
        return len(self.src)

    def arrows(self) -> range:
        return range(self.n_arrows)

    def objects(self) -> range:
        return range(self.n_objects)

    def arrows_from(self, x: int) -> list[int]:
        """The arrows with source x, in index order."""
        return self._arrows_out[x]

    @_cached
    def _arrows_out(self) -> list[list[int]]:
        out: list[list[int]] = [[] for _ in self.objects()]
        for a, x in enumerate(self.src):
            out[x].append(a)
        return out

    @_cached
    def arrows_into(self) -> list[list[int]]:
        """arrows_into[x]: the arrows with target x, in index order."""
        into: list[list[int]] = [[] for _ in self.objects()]
        for a, y in enumerate(self.tgt):
            into[y].append(a)
        return into

    @_cached
    def _orbits(self) -> tuple[tuple[int, ...], ...]:
        """Connected components under arrows, each sorted, ordered by least object."""
        parent = list(range(self.n_objects))

        def find(x: int) -> int:
            while parent[x] != x:
                parent[x] = parent[parent[x]]
                x = parent[x]
            return x

        for x, y in zip(self.src, self.tgt):
            rx, ry = find(x), find(y)
            if rx != ry:
                parent[max(rx, ry)] = min(rx, ry)

        groups: dict[int, list[int]] = {}
        for x in self.objects():
            groups.setdefault(find(x), []).append(x)
        return tuple(tuple(groups[r]) for r in sorted(groups))

    @_cached
    def _orbit_index(self) -> tuple[int, ...]:
        idx = [0] * self.n_objects
        for k, orb in enumerate(self._orbits):
            for x in orb:
                idx[x] = k
        return tuple(idx)

    def to_json(self) -> str:
        doc = {
            "objects": self.n_objects,
            "arrows": [{"src": s, "tgt": t} for s, t in zip(self.src, self.tgt)],
            "compose": [[g, h, k] for (g, h), k in sorted(self.compose_table.items())],
            "units": list(self.unit),
            "inverses": list(self.inverse),
        }
        return json.dumps(doc, indent=2)


class GroupoidFormatError(ScenarioError):
    """Raised when a serialized groupoid is malformed or violates the axioms."""


def from_json(text: str, name: str = "") -> FiniteGroupoid:
    """Parse a groupoid from its JSON form and re-validate the axioms."""
    doc = json.loads(text)

    def index(value) -> int:
        return as_int(value, "an object or arrow index")

    try:
        n = as_int(doc["objects"], "objects")
        arrows = doc["arrows"]
        src = tuple(index(a["src"]) for a in arrows)
        tgt = tuple(index(a["tgt"]) for a in arrows)
        table = {(index(g), index(h)): index(k) for g, h, k in doc["compose"]}
        units = tuple(index(u) for u in doc["units"])
        inverses = tuple(index(i) for i in doc["inverses"])
    except (KeyError, TypeError, ValueError) as exc:
        raise GroupoidFormatError(f"bad groupoid document: {exc}") from exc
    g = FiniteGroupoid(n, src, tgt, table, inverses, units, name=name)
    problems = validate(g)
    if problems:
        raise GroupoidFormatError("invalid groupoid: " + "; ".join(problems))
    return g


def validate(g: FiniteGroupoid) -> list[str]:
    """Check every groupoid axiom; returns the list of violations (empty iff valid)."""
    n, m = g.n_objects, g.n_arrows
    src, tgt, table, unit = g.src, g.tgt, g.compose_table, g.unit
    if len(tgt) != m or len(g.inverse) != m or len(unit) != n:
        return ["index maps have inconsistent lengths"]
    problems: list[str] = []
    for a in g.arrows():
        if not (0 <= src[a] < n and 0 <= tgt[a] < n):
            problems.append(f"arrow {a}: src/tgt out of range")
        if not 0 <= g.inverse[a] < m:
            problems.append(f"arrow {a}: inverse out of range")
    for x, u in enumerate(unit):
        if not 0 <= u < m:
            problems.append(f"object {x}: unit out of range")
    if problems:
        return problems

    for x, u in enumerate(unit):
        if src[u] != x or tgt[u] != x:
            problems.append(f"unit of object {x} is not an endo-arrow at {x}")

    # composition defined exactly on composable pairs, with matching endpoints
    for (a, b), c in table.items():
        if not (0 <= a < m and 0 <= b < m and src[a] == tgt[b]):
            problems.append(f"composition spurious for pair ({a}, {b})")
        elif not 0 <= c < m:
            problems.append(f"composite of ({a}, {b}) out of range")
        elif src[c] != src[b] or tgt[c] != tgt[a]:
            problems.append(f"composition mismatch for pair ({a}, {b})")
    into = g.arrows_into  # src and tgt are in range
    for a in g.arrows():
        for b in into[src[a]]:
            if (a, b) not in table:
                problems.append(f"composition missing for pair ({a}, {b})")

    if problems:
        return problems

    for a in g.arrows():
        x, y = src[a], tgt[a]
        if table[(a, unit[x])] != a or table[(unit[y], a)] != a:
            problems.append(f"unit law fails at arrow {a}")
        ai = g.inverse[a]
        if src[ai] != y or tgt[ai] != x:
            problems.append(f"inverse of arrow {a} has wrong endpoints")
        elif table[(a, ai)] != unit[y] or table[(ai, a)] != unit[x]:
            problems.append(f"inverse law fails at arrow {a}")

    # the table's keys are now exactly the composable pairs, so every triple
    # (a, b, c) extends one entry (a, b) by an arrow c into src(b)
    for (a, b), ab in table.items():
        for c in into[src[b]]:
            if table[(ab, c)] != table[(a, table[(b, c)])]:
                problems.append(f"associativity fails on ({a}, {b}, {c})")
    return problems


def orbits(g: FiniteGroupoid) -> list[list[int]]:
    """Partition of the objects into orbits (connected components under arrows).

    Computed once per groupoid; each call returns a fresh copy.
    """
    return [list(orb) for orb in g._orbits]


def orbit_index(g: FiniteGroupoid) -> list[int]:
    """Map object -> index of its orbit in orbits(g)."""
    return list(g._orbit_index)


def restrict_full_subgroupoid(g: FiniteGroupoid, objects: list[int]) -> FiniteGroupoid:
    """Full subgroupoid over an object subset that meets every orbit.

    Restriction to such a subset preserves the orbit space, so homological
    invariants computed on the restriction agree with those of g.
    """
    selected = sorted(set(objects))
    outside = [x for x in selected if not 0 <= x < g.n_objects]
    if outside:
        raise ScenarioError(f"objects {outside} are not in range({g.n_objects})")
    sel_set = set(selected)
    for orb in orbits(g):
        if not sel_set & set(orb):
            raise ScenarioError(f"object subset misses the orbit {orb}")
    obj_new = {x: i for i, x in enumerate(selected)}
    keep = [a for a in g.arrows() if g.src[a] in sel_set and g.tgt[a] in sel_set]
    arr_new = {a: i for i, a in enumerate(keep)}
    return FiniteGroupoid(
        n_objects=len(selected),
        src=tuple(obj_new[g.src[a]] for a in keep),
        tgt=tuple(obj_new[g.tgt[a]] for a in keep),
        compose_table={
            (arr_new[a], arr_new[b]): arr_new[g.compose_table[(a, b)]]
            for a in keep for b in g.arrows_into[g.src[a]] if b in arr_new
        },
        inverse=tuple(arr_new[g.inverse[a]] for a in keep),
        unit=tuple(arr_new[g.unit[x]] for x in selected),
        name=f"{g.name}|{selected}" if g.name else "",
    )


# ---------------------------------------------------------------------------
# builders

def unit_groupoid(n: int) -> FiniteGroupoid:
    """Only identity arrows over n objects: the trivial group acting on n points."""
    return action_groupoid([[0]], [list(range(n))], n, name=f"unit({n})")


def pair_groupoid(n: int) -> FiniteGroupoid:
    """One arrow (y, x) = y * n + x from x to y for every ordered pair of
    objects, with (z, y)(y, x) = (z, x)."""
    arrows = range(n * n)
    return FiniteGroupoid(
        n_objects=n,
        src=tuple(a % n for a in arrows),
        tgt=tuple(a // n for a in arrows),
        compose_table={(z * n + y, y * n + x): z * n + x
                       for z in range(n) for y in range(n) for x in range(n)},
        inverse=tuple((a % n) * n + a // n for a in arrows),
        unit=tuple(x * n + x for x in range(n)),
        name=f"pair({n})",
    )


def group_groupoid(table: list[list[int]], name: str = "group") -> FiniteGroupoid:
    """One-object groupoid from a group multiplication table t[a][b] = a*b:
    the group acting on one point."""
    return action_groupoid(table, [[0]] * len(table), 1, name=name)


def cyclic_group_table(n: int) -> list[list[int]]:
    return [[(a + b) % n for b in range(n)] for a in range(n)]


def action_groupoid(table: list[list[int]], action: list[list[int]],
                    n_points: int, name: str = "action") -> FiniteGroupoid:
    """Action groupoid of a finite group on a finite set.

    ``table[a][b]`` is the group product a*b and ``action[a][x]`` the point
    a.x; arrows are pairs (a, x): x -> a.x, with index a * n_points + x, and
    (a, b.x)(b, x) = (ab, x).
    """
    m, n = len(table), n_points
    identity = next(e for e in range(m) if all(table[e][b] == b for b in range(m)))
    ginv = [next(b for b in range(m) if table[a][b] == identity) for a in range(m)]
    arrows = [(a, x) for a in range(m) for x in range(n)]
    return FiniteGroupoid(
        n_objects=n,
        src=tuple(x for _, x in arrows),
        tgt=tuple(action[a][x] for a, x in arrows),
        compose_table={(a * n + action[b][x], b * n + x): table[a][b] * n + x
                       for b, x in arrows for a in range(m)},
        inverse=tuple(ginv[a] * n + action[a][x] for a, x in arrows),
        unit=tuple(identity * n + x for x in range(n)),
        name=name,
    )


def disjoint_union(g1: FiniteGroupoid, g2: FiniteGroupoid) -> FiniteGroupoid:
    no, na = g1.n_objects, g1.n_arrows
    table = dict(g1.compose_table)
    table.update({(a + na, b + na): c + na for (a, b), c in g2.compose_table.items()})
    return FiniteGroupoid(
        n_objects=no + g2.n_objects,
        src=g1.src + tuple(s + no for s in g2.src),
        tgt=g1.tgt + tuple(t + no for t in g2.tgt),
        compose_table=table,
        inverse=g1.inverse + tuple(i + na for i in g2.inverse),
        unit=g1.unit + tuple(u + na for u in g2.unit),
        name=f"{g1.name}+{g2.name}",
    )
