"""Integer arithmetic for the output checks, independent of hilbcone.

Everything here works over Python ints only: no Fraction and no call into
the code under test, so a check built from these cannot share a defect with
the program it checks.
"""

from __future__ import annotations

import itertools
from math import gcd


def dot(u, v) -> int:
    if len(u) != len(v):
        raise ValueError("length mismatch")
    return sum(a * b for a, b in zip(u, v))


def primitive(v) -> tuple[int, ...]:
    """Divide an integer vector by the gcd of its entries, keeping the sign."""
    g = 0
    for x in v:
        g = gcd(g, x)
    if g == 0:
        raise ValueError("zero vector")
    return tuple(x // g for x in v)


def rank(rows) -> int:
    """Rank by fraction-free elimination over the integers."""
    m = [list(r) for r in rows if any(r)]
    r = 0
    ncols = len(m[0]) if m else 0
    for c in range(ncols):
        piv = next((i for i in range(r, len(m)) if m[i][c] != 0), None)
        if piv is None:
            continue
        m[r], m[piv] = m[piv], m[r]
        p = m[r]
        for i in range(r + 1, len(m)):
            f = m[i][c]
            if f:
                row = [p[c] * a - f * b for a, b in zip(m[i], p)]
                g = 0
                for x in row:
                    g = gcd(g, x)
                m[i] = [x // g for x in row] if g > 1 else row
        r += 1
    return r


def det(m) -> int:
    """Determinant of a small square integer matrix (Bareiss)."""
    a = [list(r) for r in m]
    n = len(a)
    sign, prev = 1, 1
    for k in range(n - 1):
        if a[k][k] == 0:
            swap = next((i for i in range(k + 1, n) if a[i][k] != 0), None)
            if swap is None:
                return 0
            a[k], a[swap] = a[swap], a[k]
            sign = -sign
        for i in range(k + 1, n):
            for j in range(k + 1, n):
                a[i][j] = (a[i][j] * a[k][k] - a[i][k] * a[k][j]) // prev
        prev = a[k][k]
    return sign * a[n - 1][n - 1] if n else 1


def normal(vectors, d: int) -> tuple[int, ...]:
    """Generalized cross product: a vector orthogonal to d-1 vectors in Z^d."""
    out = []
    for j in range(d):
        minor = [[v[c] for c in range(d) if c != j] for v in vectors]
        out.append((-1) ** j * det(minor))
    return tuple(out)


def facets_full_dim(gens, d: int) -> list[tuple[int, ...]]:
    """Inward primitive facet normals of a full-dimensional cone.

    Every facet of a full-dimensional cone contains d-1 linearly independent
    generators, so trying each (d-1)-subset finds them all.
    """
    found = set()
    for sub in itertools.combinations(gens, d - 1):
        n = normal(sub, d)
        if not any(n):
            continue
        vals = [dot(n, g) for g in gens]
        if all(v >= 0 for v in vals):
            found.add(primitive(n))
        elif all(v <= 0 for v in vals):
            found.add(primitive(tuple(-x for x in n)))
    return sorted(found)


def extreme_rays_pointed(gens, facets, d: int) -> list[tuple[int, ...]]:
    """Primitive extreme rays of a pointed full-dimensional cone."""
    rays = set()
    for g in gens:
        tight = [f for f in facets if dot(f, g) == 0]
        if rank(tight) == d - 1:
            rays.add(primitive(g))
    return sorted(rays)


def integer_kernel_vector(rows, d: int) -> tuple[int, ...] | None:
    """One nonzero integer vector orthogonal to every row, if rank < d."""
    r = rank(rows)
    if r >= d:
        return None
    # pad the rows with unit vectors until d-1 independent rows remain
    basis = []
    for row in list(rows) + [tuple(1 if j == i else 0 for j in range(d)) for i in range(d)]:
        if rank(basis + [row]) > len(basis):
            basis.append(row)
        if len(basis) == d - 1:
            break
    n = normal(basis, d)
    return primitive(n) if any(n) else None
