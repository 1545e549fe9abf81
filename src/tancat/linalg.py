"""Exact linear algebra over the rationals.

Three small dense routines, `rref`, `nullspace` and `invert`, serve
`tangent.certify_linear_pullback`: every linear pullback/equalizer
certificate in this package is an exact construction from one nullspace
and one inverse, never a numerical one.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[Fraction]]


def identity(n: int) -> Matrix:
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def rref(a: Matrix) -> tuple[Matrix, list[int]]:
    """Reduced row echelon form; returns (R, pivot column indices)."""
    r = [row[:] for row in a]
    rows = len(r)
    cols = len(r[0]) if rows else 0
    pivots: list[int] = []
    lead = 0
    for col in range(cols):
        if lead >= rows:
            break
        pivot = next((i for i in range(lead, rows) if r[i][col]), None)
        if pivot is None:
            continue
        r[lead], r[pivot] = r[pivot], r[lead]
        inv = Fraction(1) / r[lead][col]
        r[lead] = [x * inv for x in r[lead]]
        for i in range(rows):
            if i != lead and r[i][col]:
                factor = r[i][col]
                r[i] = [x - factor * y for x, y in zip(r[i], r[lead])]
        pivots.append(col)
        lead += 1
    return r, pivots


def nullspace(a: Matrix, cols: int) -> tuple[list[int], list[list[Fraction]]]:
    """(free, basis): the free columns of A, which has `cols` columns, and
    the kernel basis with one vector per free column f, 1 at f and 0 at the
    other free columns.  A matrix with no rows has all of Q^cols as kernel."""
    r, pivots = rref(a)
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for i, col in enumerate(pivots):
            v[col] = -r[i][f]
        basis.append(v)
    return free, basis


def invert(a: Matrix) -> Matrix | None:
    """Inverse of a square matrix, or None if singular."""
    n = len(a)
    aug = [row[:] + ident_row for row, ident_row in zip(a, identity(n))]
    r, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in r]
