"""Exact linear algebra over the rationals.

The engine works on sparse columns: each column is a dict from row to a
nonzero exact value, a Python ``int`` or a ``Fraction``.  Rank and kernel
come from one column reduction, ``_reduce``: each column is reduced left to
right against the earlier columns until its lowest nonzero row is a row no
earlier column ends on (the reduction of Zomorodian & Carlsson, "Computing
persistent homology", 2005).  Nerve boundaries have integer entries, and
the reduction keeps them ``int`` while each pivot divides the entry it
clears; when it does not, it takes the exact ``Fraction`` quotient, so the
rank is the rank over Q (the integer-first, rational-fallback scheme of
Dumas, Saunders & Villard, J. Symbolic Comput. 32, 2001).  A nerve boundary
column has at most k+1 nonzeros, and the reduction touches nothing else.

``rank``, ``nullspace`` and ``matmul`` keep a dense interface (lists of
rows) for the callers that hold dense matrices.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[Fraction]]
Column = dict[int, int | Fraction]


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


def _columns(a: Matrix) -> list[Column]:
    """The nonzero entries of each column of ``a``, keyed by row."""
    return [{r: v for r, v in enumerate(column) if v} for column in zip(*a)]


def compose(left: list[Column], right: list[Column]) -> list[Column]:
    """Columns of the product left @ right, each column of ``right`` applied to ``left``.

    Entries that cancel are dropped, so a zero product is a list of empty
    columns.
    """
    out = []
    for col in right:
        acc: Column = {}
        for r, v in col.items():
            for row, w in left[r].items():
                acc[row] = acc.get(row, 0) + v * w
        out.append({row: v for row, v in acc.items() if v})
    return out


def _subtract(col: Column, f, other: Column) -> None:
    """col -= f * other, dropping the entries that cancel."""
    for r, v in other.items():
        w = col.get(r, 0) - f * v
        if w:
            col[r] = w
        else:
            del col[r]


def _reduce(columns: list[Column], combos: list[Column] | None = None) -> int:
    """Column-reduce in place; returns the rank over Q.

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
            a, b = col[low], columns[p][low]
            if type(a) is int and type(b) is int and not a % b:
                f = a // b
            else:
                f = Fraction(a) / b
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
