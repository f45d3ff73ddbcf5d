"""Small exact linear algebra: ints and Fractions, elimination over ints.

Rank, kernels and solving share one fraction-free Gauss-Jordan elimination
over Python ints (Bareiss 1968), run on rows first scaled to primitive
integer rows: every entry after a step is a minor of the input, so each
division is exact and no Fraction is made until solve divides by a pivot.
The elimination yields pivot columns only; no determinant is kept.
Congruence diagonalization (signature) is the symmetric form of the same
step.  Products and sums stay ints on int inputs and become exact Fractions
on Fraction inputs; there are no floats.  primitive, which every elimination
row and every cone ray passes through, divides an all-int vector by its gcd
and clears denominators (exact, lcm) only when something else comes in.
Matrices are sequences of row sequences; sizes stay tiny (rank at most five
or six).
"""

from __future__ import annotations

from fractions import Fraction
from math import gcd, lcm


def exact(vec) -> tuple:
    """The entries of vec as exact numbers: ints and Fractions pass through.

    Anything Fraction cannot read exactly (None, inf, nan) is a ValueError.
    """
    try:
        return tuple(x if isinstance(x, (int, Fraction)) else Fraction(x) for x in vec)
    except (TypeError, OverflowError):
        raise ValueError(f"{vec!r} is not a vector of finite numbers") from None


def _bareiss(m: list[list[int]], ncols: int) -> list[int]:
    """Fraction-free Gauss-Jordan elimination of integer rows, in place.

    Each pivot clears its column above and below.  Afterwards every pivot
    equals the last one, d, and the first len(pivots) rows are d times the
    reduced row echelon form; the other rows are zero.  Returns the pivot
    columns.
    """
    pivots: list[int] = []
    prev = 1
    for c in range(ncols):
        r = len(pivots)
        if r == len(m):
            break
        sel = next((i for i in range(r, len(m)) if m[i][c]), None)
        if sel is None:
            continue
        m[r], m[sel] = m[sel], m[r]
        top = m[r]
        p = top[c]
        for i, row in enumerate(m):
            if i != r:
                f = row[c]
                m[i] = [(p * a - f * b) // prev for a, b in zip(row, top)]
        pivots.append(c)
        prev = p
    return pivots


def _reduce(rows, ncols: int) -> tuple[list[list[int]], list[int]]:
    """The nonzero rows as primitive integer rows, after _bareiss."""
    if any(len(r) != ncols for r in rows):
        raise ValueError(f"rows whose length is not {ncols}")
    m = [list(primitive(r)) for r in rows if any(r)]
    return m, _bareiss(m, ncols)


def rank(rows, ncols: int) -> int:
    """Rank of rational rows."""
    return len(_reduce(rows, ncols)[1])


def nullspace(rows, ncols: int) -> tuple[list[tuple[int, ...]], list[int]]:
    """Kernel basis of rows, and their pivot columns.

    The basis of {x : rows @ x = 0} has one primitive integer vector per
    free column, positive there and zero at the other free columns.  The
    pivot columns are the greedy leftmost basis of the columns of rows;
    their standard basis vectors complete the kernel.
    """
    m, pivots = _reduce(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [0] * ncols
        v[f] = m[0][pivots[0]] if pivots else 1
        for row, p in zip(m, pivots):
            v[p] = -row[f]
        basis.append(primitive(v if v[f] > 0 else [-x for x in v]))
    return basis, pivots


def solve(rows, rhs) -> tuple[Fraction, ...] | None:
    """One exact solution of rows @ x = rhs, or None when inconsistent.

    Free variables, if any, are set to zero.
    """
    n = len(rows[0]) if rows else 0
    if len(rhs) != len(rows):
        raise ValueError("right-hand side does not match the rows")
    m, pivots = _reduce([tuple(r) + (b,) for r, b in zip(rows, rhs)], n + 1)
    if n in pivots:
        return None
    x = [Fraction(0)] * n
    for row, p in zip(m, pivots):
        x[p] = Fraction(row[n], row[p])
    return tuple(x)


def mat_vec(rows, v) -> tuple:
    return tuple(sum(a * b for a, b in zip(row, v, strict=True)) for row in rows)


def dot(u, v):
    """Exact dot product: an int on ints, a Fraction once a Fraction enters."""
    return sum(a * b for a, b in zip(u, v, strict=True))


def primitive(vec) -> tuple[int, ...]:
    """Scale a rational vector to coprime integers, keeping its direction.

    A vector of plain ints (bool is not one) is only divided by its gcd, and
    comes back as the same tuple when that is 1; anything else goes through
    exact and is cleared of denominators first.
    """
    vec = tuple(vec)
    if all(type(x) is int for x in vec):
        ints = vec
    else:
        fr = exact(vec)
        mult = lcm(*(x.denominator for x in fr))
        ints = [x.numerator * mult // x.denominator for x in fr]
    g = gcd(*ints)
    if g == 0:
        raise ValueError("zero vector has no primitive representative")
    return tuple(ints) if g == 1 else tuple(x // g for x in ints)


def signature(gram) -> tuple[int, int, int]:
    """Inertia (positive, negative, zero) of a symmetric integer matrix.

    Symmetric fraction-free elimination over ints: after a pivot p the
    trailing block becomes |p|/prev times its Schur complement, prev being
    the size of the pivot before (1 at first).  Up to sign the entries are
    those of _bareiss, so every division is exact, and as the factor is
    positive each pivot counts with its own sign (Sylvester's law of
    inertia).  A zero diagonal first takes a nonzero diagonal entry, or else
    adds the row and column of a nonzero entry a[0][k], which makes the pivot
    2*a[0][k]; a zero row counts as zero.
    """
    a = [list(row) for row in gram]
    pos = neg = zero = 0
    prev = 1
    while a:
        k = next((i for i in range(len(a)) if a[i][i]), None)
        if k is not None:
            a[0], a[k] = a[k], a[0]
            for row in a:
                row[0], row[k] = row[k], row[0]
        else:
            k = next((j for j in range(1, len(a)) if a[0][j]), None)
            if k is None:
                zero += 1
                a = [row[1:] for row in a[1:]]
                continue
            a[0] = [x + y for x, y in zip(a[0], a[k])]
            for row in a:
                row[0] += row[k]
        top = a[0]
        p, s = top[0], abs(top[0])
        if p > 0:
            pos += 1
        else:
            neg += 1
        # entry (s*x - sign(p)*row[0]*y) / prev; a row the pivot does not meet
        # only scales by s/prev, and stays as it is when that is 1
        a = [[(s * x - p // s * row[0] * y) // prev for x, y in zip(row[1:], top[1:])]
             if row[0] or s != prev else row[1:] for row in a[1:]]
        prev = s
    return pos, neg, zero
