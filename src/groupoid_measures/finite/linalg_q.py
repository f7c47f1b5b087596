"""Exact linear algebra over the rationals.

Matrices are dense lists of ``Fraction`` rows at the interface.  Rank and
kernel come from one sparse column reduction: each column is a dict from
row to ``Fraction`` and is reduced left to right against the earlier
columns until its lowest nonzero row is a row no earlier column ends on
(the reduction of Zomorodian & Carlsson, "Computing persistent homology",
2005).  A nerve boundary column has at most k+1 nonzeros, and the
reduction touches nothing else.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[Fraction]]


def zeros(rows: int, cols: int) -> Matrix:
    return [[Fraction(0)] * cols for _ in range(rows)]


def matmul(a: Matrix, b: Matrix) -> Matrix:
    if not a or not b:
        return []
    n, k, m = len(a), len(b), len(b[0])
    out = zeros(n, m)
    for i in range(n):
        row = a[i]
        acc = out[i]
        for j in range(k):
            aij = row[j]
            if aij:
                brow = b[j]
                for c in range(m):
                    if brow[c]:
                        acc[c] += aij * brow[c]
    return out


def is_zero(a: Matrix) -> bool:
    return all(not v for row in a for v in row)


def _columns(a: Matrix) -> list[dict[int, Fraction]]:
    """The nonzero entries of each column of ``a``, keyed by row."""
    return [{r: v for r, v in enumerate(column) if v} for column in zip(*a)]


def _subtract(col: dict, f: Fraction, other: dict) -> None:
    """col -= f * other, dropping the entries that cancel."""
    for r, v in other.items():
        w = col.get(r, 0) - f * v
        if w:
            col[r] = w
        else:
            del col[r]


def _reduce(columns: list[dict], combos: list[dict] | None = None) -> int:
    """Column-reduce in place; returns the rank.

    With ``combos`` (one dict per column, starting as {j: 1}), each column
    operation is repeated there, so a column that reduces to zero leaves
    its combination of the original columns: a kernel vector.
    """
    lowest: dict[int, int] = {}  # lowest row -> index of the column ending there
    for j, col in enumerate(columns):
        while col:
            low = max(col)
            p = lowest.get(low)
            if p is None:
                lowest[low] = j
                break
            f = col[low] / columns[p][low]
            _subtract(col, f, columns[p])
            if combos is not None:
                _subtract(combos[j], f, combos[p])
    return len(lowest)


def rank(a: Matrix) -> int:
    return _reduce(_columns(a))


def nullspace(a: Matrix) -> list[list[Fraction]]:
    """Basis of the right kernel of ``a`` (len(a[0]) - rank(a) vectors)."""
    if not a:
        return []
    columns = _columns(a)
    combos = [{j: Fraction(1)} for j in range(len(columns))]
    _reduce(columns, combos)
    basis = []
    for col, combo in zip(columns, combos):
        if not col:
            v = [Fraction(0)] * len(columns)
            for j, c in combo.items():
                v[j] = c
            basis.append(v)
    return basis
