"""Exact linear algebra over the rationals.

Small dense routines (rref, rank, nullspace, inverse) used by the
universality checkers: every pullback/equalizer certificate in this package
is an exact linear-algebra construction, never a numerical one.
"""

from __future__ import annotations

from fractions import Fraction

Matrix = list[list[Fraction]]


def identity(n: int) -> Matrix:
    return [[Fraction(1 if i == j else 0) for j in range(n)] for i in range(n)]


def mat_mul(a: Matrix, b: Matrix) -> Matrix:
    n, k = len(a), len(b)
    m = len(b[0]) if b else 0
    out = [[Fraction(0)] * m for _ in range(n)]
    for i in range(n):
        ai = a[i]
        oi = out[i]
        for t in range(k):
            c = ai[t]
            if c:
                bt = b[t]
                for j in range(m):
                    oi[j] += c * bt[j]
    return out


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


def rank(a: Matrix) -> int:
    return len(rref(a)[1]) if a else 0


def nullspace(a: Matrix) -> list[list[Fraction]]:
    """Basis of the kernel of A."""
    if not a:
        return []
    r, pivots = rref(a)
    cols = len(a[0])
    free = [c for c in range(cols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * cols
        v[f] = Fraction(1)
        for i, col in enumerate(pivots):
            v[col] = -r[i][f]
        basis.append(v)
    return basis


def invert(a: Matrix) -> Matrix | None:
    """Inverse of a square matrix, or None if singular."""
    n = len(a)
    aug = [row[:] + ident_row for row, ident_row in zip(a, identity(n))]
    r, pivots = rref(aug)
    if pivots != list(range(n)):
        return None
    return [row[n:] for row in r]


def left_inverse(a: Matrix) -> Matrix | None:
    """L with L·A = id (exists iff A has full column rank)."""
    gram = mat_mul(transpose(a), a)
    gram_inv = invert(gram)
    if gram_inv is None:
        return None
    return mat_mul(gram_inv, transpose(a))


def transpose(a: Matrix) -> Matrix:
    return [list(col) for col in zip(*a)] if a else []
