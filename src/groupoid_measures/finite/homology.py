"""Nerve complex and homology of a finite groupoid, over exact rationals.

Degree-k chains are weights on composable k-strings (g_1, ..., g_k) with
src(g_i) = tgt(g_{i+1}); the differential is the alternating sum of the
face summation maps.  Betti numbers come from exact rank computations, so
statements like "betti_0 equals the orbit count" are tested with zero
tolerance.
"""

from __future__ import annotations

from dataclasses import dataclass

from . import linalg_q
from .groupoid import FiniteGroupoid, orbits


def nerve(g: FiniteGroupoid, k: int) -> list[tuple[int, ...]]:
    """Composable k-strings in lexicographic arrow-index order; objects for k = 0."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    if k == 0:
        return [(x,) for x in g.objects()]
    strings: list[tuple[int, ...]] = [(a,) for a in g.arrows()]
    into, src = g.arrows_into, g.src
    for _ in range(k - 1):
        strings = [s + (b,) for s in strings for b in into[src[s[-1]]]]
    return strings


def nerve_size(g: FiniteGroupoid, k: int) -> int:
    """len(nerve(g, k)), counted in O(k * arrows) without enumerating a string."""
    if k < 0:
        raise ValueError("degree must be nonnegative")
    # ends[x]: the strings of the degree reached whose last arrow has source x
    ends = [1] * g.n_objects
    tgt = g.tgt
    for _ in range(k):
        ends = [sum(ends[tgt[b]] for b in g.arrows_from(x)) for x in g.objects()]
    return sum(ends)


def face(g: FiniteGroupoid, string: tuple[int, ...], i: int) -> tuple[int, ...]:
    """i-th face of a k-string: drop an end arrow or compose an adjacent pair.

    In degree one the two faces are the source and target objects.
    """
    k = len(string)
    if k == 1:
        return (g.src[string[0]],) if i == 0 else (g.tgt[string[0]],)
    if i == 0:
        return string[1:]
    if i == k:
        return string[:-1]
    return string[:i - 1] + (g.compose_table[(string[i - 1], string[i])],) + string[i + 1:]


def boundary_columns(g: FiniteGroupoid, k: int, domain: list | None = None,
                     codomain: list | None = None) -> list[linalg_q.Column]:
    """Sparse columns of the degree-k differential (alternating face summations).

    Column j is a dict from row to a nonzero ``int``: the faces of the j-th
    degree-k string, with signs, indexed by the degree k-1 nerve; faces that
    coincide add up and may cancel.  Strings come in the enumeration order
    of nerve(); ``domain`` and ``codomain`` pass nerves already enumerated.
    """
    if k < 1:
        raise ValueError("boundary matrices start at degree 1")
    domain = nerve(g, k) if domain is None else domain
    codomain = nerve(g, k - 1) if codomain is None else codomain
    index = {s: i for i, s in enumerate(codomain)}
    columns = []
    for s in domain:
        col: linalg_q.Column = {}
        sign = 1
        for i in range(k + 1):
            r = index[face(g, s, i)]
            w = col.get(r, 0) + sign
            if w:
                col[r] = w
            else:
                del col[r]
            sign = -sign
        columns.append(col)
    return columns


def boundary_matrix(g: FiniteGroupoid, k: int) -> linalg_q.Matrix:
    """Dense view of the degree-k differential, rows by the degree k-1 nerve."""
    if k < 1:
        raise ValueError("boundary matrices start at degree 1")
    codomain = nerve(g, k - 1)
    columns = boundary_columns(g, k, codomain=codomain)
    mat = [[0] * len(columns) for _ in codomain]
    for j, col in enumerate(columns):
        for r, v in col.items():
            mat[r][j] = v
    return mat


@dataclass(frozen=True)
class DegreeReport:
    degree: int
    nerve_size: int
    boundary_rank: int
    betti: int


@dataclass(frozen=True)
class HomologyReport:
    degrees: list[DegreeReport]

    def betti(self) -> list[int]:
        return [d.betti for d in self.degrees]


def homology(g: FiniteGroupoid, kmax: int) -> HomologyReport:
    """Betti numbers for degrees 0..kmax: dim C_k - rank d_k - rank d_{k+1}."""
    if kmax < 0:
        raise ValueError("kmax must be nonnegative")
    nerves = [nerve(g, k) for k in range(kmax + 2)]
    ranks = [0]  # rank of the (zero) differential out of degree 0
    for k in range(1, kmax + 2):
        ranks.append(linalg_q._reduce(boundary_columns(g, k, nerves[k], nerves[k - 1])))
    sizes = [len(strings) for strings in nerves]
    degrees = [
        DegreeReport(k, sizes[k], ranks[k], sizes[k] - ranks[k] - ranks[k + 1])
        for k in range(kmax + 1)
    ]
    report = HomologyReport(degrees)
    if report.degrees[0].betti != len(orbits(g)):
        raise AssertionError("betti_0 disagrees with the orbit count")
    return report
