"""Small exact linear algebra over Fraction and Python ints.

Row reduction, kernels, solving and congruence diagonalization use rational
pivots.  Rank and determinant use fraction-free Bareiss elimination over
Python ints instead (Bareiss 1968): every entry after a step is a minor of
the input, so each division is exact and no Fraction is made.  Matrices are
sequences of row sequences; sizes stay tiny (rank at most five or six).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def frac_rows(rows) -> list[list[Fraction]]:
    return [[Fraction(x) for x in row] for row in rows]


def rref(rows, ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form; returns (rows, pivot column indices)."""
    m = frac_rows(rows)
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        sel = None
        for i in range(row, len(m)):
            if m[i][col] != 0:
                sel = i
                break
        if sel is None:
            continue
        m[row], m[sel] = m[sel], m[row]
        pv = m[row][col]
        m[row] = [x / pv for x in m[row]]
        for i in range(len(m)):
            if i != row and m[i][col] != 0:
                f = m[i][col]
                m[i] = [a - f * b for a, b in zip(m[i], m[row])]
        pivots.append(col)
        row += 1
        if row == len(m):
            break
    return m[:row], pivots


def _bareiss(m: list[list[int]], ncols: int) -> tuple[int, int]:
    """Fraction-free row echelon of integer rows, in place.

    Returns the rank and the last pivot signed by the row swaps; for a
    square matrix of full rank that is its determinant.
    """
    r, prev, sign = 0, 1, 1
    for c in range(ncols):
        if r == len(m):
            break
        sel = next((i for i in range(r, len(m)) if m[i][c]), None)
        if sel is None:
            continue
        if sel != r:
            m[r], m[sel] = m[sel], m[r]
            sign = -sign
        top = m[r]
        p = top[c]
        for i in range(r + 1, len(m)):
            f = m[i][c]
            m[i] = [(p * a - f * b) // prev for a, b in zip(m[i], top)]
        prev = p
        r += 1
    return r, sign * prev


def rank(rows, ncols: int) -> int:
    """Rank of rational rows, each scaled to a primitive integer row first."""
    if any(len(r) != ncols for r in rows):
        raise ValueError(f"rank of rows whose length is not {ncols}")
    return _bareiss([list(primitive(r)) for r in rows if any(r)], ncols)[0]


def det(m) -> int:
    """Determinant of a square integer matrix; 1 for the empty one."""
    n = len(m)
    if any(len(r) != n for r in m):
        raise ValueError("determinant of a matrix that is not square")
    r, d = _bareiss([list(row) for row in m], n)
    return d if r == n else 0


def nullspace(rows, ncols: int) -> list[tuple[Fraction, ...]]:
    """Basis of {x : rows @ x = 0}, one vector per free column."""
    red, pivots = rref(rows, ncols)
    free = [c for c in range(ncols) if c not in pivots]
    basis = []
    for f in free:
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(tuple(v))
    return basis


def solve(rows, rhs) -> tuple[Fraction, ...] | None:
    """One exact solution of rows @ x = rhs, or None when inconsistent.

    Free variables, if any, are set to zero.
    """
    n = len(rows[0]) if rows else 0
    aug = [list(r) + [b] for r, b in zip(rows, rhs)]
    red, pivots = rref(aug, n + 1)
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for i, p in enumerate(pivots):
        x[p] = red[i][n]
    return tuple(x)


def mat_vec(rows, v) -> tuple[Fraction, ...]:
    return tuple(sum(Fraction(a) * Fraction(b) for a, b in zip(row, v, strict=True))
                 for row in rows)


def dot(u, v) -> Fraction:
    return sum(Fraction(a) * Fraction(b) for a, b in zip(u, v, strict=True))


def primitive(vec) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers, keeping its direction."""
    fr = [x if isinstance(x, (int, Fraction)) else Fraction(x) for x in vec]
    mult = lcm(*(x.denominator for x in fr))
    ints = [x.numerator * mult // x.denominator for x in fr]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(x // g for x in ints)


def signature(gram) -> tuple[int, int, int]:
    """Inertia (positive, negative, zero) of a symmetric matrix.

    Exact congruence diagonalization; no eigenvalues involved.
    """
    a = frac_rows(gram)
    n = len(a)
    pos = neg = zero = 0
    for i in range(n):
        if a[i][i] == 0:
            swap = next((j for j in range(i + 1, n) if a[j][j] != 0), None)
            if swap is not None:
                a[i], a[swap] = a[swap], a[i]
                for row in a:
                    row[i], row[swap] = row[swap], row[i]
            else:
                off = next((j for j in range(i + 1, n) if a[i][j] != 0), None)
                if off is None:
                    zero += 1
                    continue
                # a[off][off] = 0 too, so adding row/col off makes the pivot 2*a[i][off]
                for k in range(n):
                    a[i][k] += a[off][k]
                for row in a:
                    row[i] += row[off]
        p = a[i][i]
        if p > 0:
            pos += 1
        else:
            neg += 1
        for j in range(i + 1, n):
            if a[i][j] != 0:
                f = a[i][j] / p
                for k in range(n):
                    a[j][k] -= f * a[i][k]
                for row in a:
                    row[j] -= f * row[i]
    return pos, neg, zero
