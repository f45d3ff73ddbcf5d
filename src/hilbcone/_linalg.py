"""Small exact linear algebra over Fraction.

Row reduction, kernels, solving and congruence diagonalization, all with
rational pivots.  Matrices are sequences of row sequences; sizes stay tiny
(rank at most five or six), so nothing here needs to be clever.
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


def rank(rows, ncols: int) -> int:
    return len(rref(rows, ncols)[1])


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
    fr = [Fraction(x) for x in vec]
    if all(x == 0 for x in fr):
        raise ValueError("zero vector has no primitive representative")
    mult = lcm(*(x.denominator for x in fr))
    ints = [int(x * mult) for x in fr]
    g = gcd(*ints)
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
