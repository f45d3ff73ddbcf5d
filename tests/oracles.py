"""Independent oracles that tests compare the library against."""

import math
from fractions import Fraction

from hilbcone import _linalg as la
from hilbcone import nslattice as ns
from hilbcone.chambers import Cone


def primitive(vec) -> tuple[int, ...]:
    """vec scaled to coprime integers in its direction, all through Fraction.

    The reference for _linalg.primitive, which the oracles here do not call.
    """
    fr = [Fraction(x) for x in vec]
    if not any(fr):
        raise ValueError("zero vector has no primitive representative")
    mult = math.lcm(*(x.denominator for x in fr))
    g = math.gcd(*(int(x * mult) for x in fr))
    return tuple(int(x * mult / g) for x in fr)


def rref(rows, ncols: int) -> tuple[list[list[Fraction]], list[int]]:
    """Reduced row echelon form over Fraction; returns (rows, pivot columns)."""
    m = [[Fraction(x) for x in row] for row in rows]
    pivots: list[int] = []
    row = 0
    for col in range(ncols):
        sel = next((i for i in range(row, len(m)) if m[i][col] != 0), None)
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
    """Basis of {x : rows @ x = 0}, one vector per free column, which is 1 there."""
    red, pivots = rref(rows, ncols)
    basis = []
    for f in range(ncols):
        if f in pivots:
            continue
        v = [Fraction(0)] * ncols
        v[f] = Fraction(1)
        for i, p in enumerate(pivots):
            v[p] = -red[i][f]
        basis.append(tuple(v))
    return basis


def solve(rows, rhs, ncols: int) -> tuple[Fraction, ...] | None:
    """The solution of rows @ x = rhs with free variables zero, or None."""
    red, pivots = rref([list(r) + [b] for r, b in zip(rows, rhs, strict=True)], ncols + 1)
    if ncols in pivots:
        return None
    x = [Fraction(0)] * ncols
    for i, p in enumerate(pivots):
        x[p] = red[i][ncols]
    return tuple(x)


def signature(gram) -> tuple[int, int, int]:
    """Inertia (positive, negative, zero) by congruence pivoting over Fraction."""
    a = [[Fraction(x) for x in row] for row in gram]
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


def k3_solutions(deg: int, n_max: int) -> list[tuple[int, int, bool]]:
    """(d, n, genus_ok) with deg d^2 / 2 + 2 = 3n and n <= n_max, by a Fraction
    walk over every d."""
    S = ns.make_k3(deg)
    sols = []
    d = 1
    while True:
        n = (Fraction(deg * d * d, 2) + 2) / 3
        if n > n_max:
            return sols
        if n.denominator == 1:
            pa = ns.arithmetic_genus(S, ns.make_class(S, [d]))
            sols.append((d, int(n), int(n) <= pa))
        d += 1


def _extend(red, row):
    """Reduced rows (pivot, row) of red plus row, or None when row depends on them."""
    for p, r in red:
        f = row[p]
        row = [a - f * b for a, b in zip(row, r)]
    p = next((i for i, x in enumerate(row) if x != 0), None)
    if p is None:
        return None
    row = [Fraction(x, row[p]) for x in row]
    return [(q, [a - r[p] * b for a, b in zip(r, row)]) for q, r in red] + [(p, row)]


def dual_description_subsets(rows: list, dim: int):
    """Extreme rays and lineality of {x : r.x >= 0 for r in rows}, by brute force.

    The reference for chambers.dual_description, which must return exactly
    this.  The lineality space is the kernel of the rows; the pointed
    quotient is taken in coordinates given by standard basis vectors
    completing that kernel, and there every extreme ray is the kernel of
    some subset of ddim-1 constraints of rank ddim-1, so enumerating those
    subsets with Fraction row reduction is complete.  Subsets grow depth
    first with their reduced rows (_extend), a prefix that is already
    dependent is dropped with all its extensions, and each kernel direction
    is sign-tested once.  All elimination here is
    over Fraction in this module, so none of it is shared with the library.
    """
    rows = [tuple(Fraction(x) for x in r) for r in rows]
    lineality = sorted(max(p, tuple(-x for x in p))
                       for p in map(primitive, nullspace(rows, dim)))
    lindim = len(lineality)
    ddim = dim - lindim
    if ddim == 0:
        return [], lineality

    comp: list[tuple[Fraction, ...]] = []
    span = [tuple(Fraction(x) for x in v) for v in lineality]
    for i in range(dim):
        e = tuple(Fraction(1 if j == i else 0) for j in range(dim))
        if rank(span + comp + [e], dim) > lindim + len(comp):
            comp.append(e)
    assert len(comp) == ddim

    reduced = [tuple(la.dot(r, c) for c in comp) for r in rows]
    # positive scaling changes no half-space, and a zero row constrains nothing
    reduced = [primitive(r) for r in reduced if any(r)]

    def independent(start, red):
        if len(red) == ddim - 1:
            yield red
            return
        for i in range(start, len(reduced)):
            ext = _extend(red, reduced[i])
            if ext is not None:
                yield from independent(i + 1, ext)

    rays, tried = set(), set()
    for red in independent(0, []):
        # the one free column carries the kernel vector
        free = min(set(range(ddim)) - {p for p, _ in red})
        u = [int(j == free) for j in range(ddim)]
        for p, r in red:
            u[p] = -r[free]
        u = primitive(u)
        if u in tried:
            continue
        tried.add(u)
        vals = [la.dot(r, u) for r in reduced]
        if all(v >= 0 for v in vals):
            pass
        elif all(v <= 0 for v in vals):
            u = tuple(-x for x in u)
        else:
            continue
        ray = tuple(sum(u[j] * comp[j][i] for j in range(ddim)) for i in range(dim))
        rays.add(primitive(ray))
    return sorted(rays), lineality


def restrict_cone(C: Cone, basis) -> Cone:
    """C intersected with span(basis), in basis coordinates, by brute force.

    The reference for chambers.intersect_subspace.  It takes the long way,
    all through dual_description_subsets: the restricted constraints give
    generators, the generators give facets and equations, and those give the
    generators once more, so the rays are canonical by construction.  The
    zero cone is cut out by the coordinate equations.
    """
    k = len(basis)

    def neg(v):
        return tuple(-x for x in v)

    eqs = [tuple(la.dot(e, b) for b in basis) for e in C.equations]
    rows = [tuple(la.dot(f, b) for b in basis) for f in C.facets] + eqs + [neg(e) for e in eqs]
    rays, lineality = dual_description_subsets(rows, k)
    gens = rays + lineality + [neg(l) for l in lineality]
    if not gens:
        return Cone(k, (), (), (), tuple(tuple(int(i == j) for j in range(k)) for i in range(k)))
    facets, equations = dual_description_subsets(gens, k)
    rays, lineality = dual_description_subsets(
        facets + equations + [neg(e) for e in equations], k)
    return Cone(k, tuple(rays), tuple(lineality), tuple(facets), tuple(equations))


def fm_member(C: Cone, v) -> bool:
    """Membership test that never looks at facets.

    Asks whether v is a nonnegative combination of the generators by
    Fourier-Motzkin elimination, so it cross-checks the dual description.
    """
    gens = list(C.rays) + list(C.lineality) + [tuple(-x for x in l) for l in C.lineality]
    return fm_feasible(gens, tuple(Fraction(x) for x in v))


def fm_feasible(rows, rhs) -> bool:
    """Fourier-Motzkin check for {x >= 0 : rows^T x = rhs} being nonempty.

    rows are the generators (one per variable); rhs the target vector.  Used
    as an independent membership oracle against the facet route.  Constraints
    are integer tuples (coefficients..., constant) meaning c.x + const >= 0,
    equations the same with == 0.  A variable that some equation involves is
    substituted away through it; the others are eliminated by Fourier-Motzkin,
    with gcd reduction and a set keeping the combinatorial growth tame.
    """
    m = len(rows)
    dim = len(rhs)

    def norm(vec: tuple[int, ...]) -> tuple[int, ...]:
        g = 0
        for x in vec:
            g = math.gcd(g, x)
        return vec if g in (0, 1) else tuple(x // g for x in vec)

    def combine(p, q, var):
        """p[var] * q - q[var] * p with p[var] > 0: cancels var, and keeps the
        sense of q when q is an inequality."""
        return norm(tuple(p[var] * b - q[var] * a for a, b in zip(p, q)))

    cons: set[tuple[int, ...]] = set()
    for i in range(m):
        cons.add(tuple(1 if j == i else 0 for j in range(m)) + (0,))
    eqs: list[tuple[int, ...]] = []
    for d in range(dim):
        col = [Fraction(rows[i][d]) for i in range(m)] + [-Fraction(rhs[d])]
        mult = math.lcm(*(x.denominator for x in col))
        eqs.append(norm(tuple(int(x * mult) for x in col)))
    for var in range(m):
        k = next((k for k, e in enumerate(eqs) if e[var] != 0), None)
        if k is not None:
            piv = eqs.pop(k)
            if piv[var] < 0:
                piv = tuple(-x for x in piv)
            eqs = [combine(piv, e, var) for e in eqs]
            cons = {combine(piv, c, var) for c in cons}
            continue
        pos = [c for c in cons if c[var] > 0]
        neg = [c for c in cons if c[var] < 0]
        new = {c for c in cons if c[var] == 0}
        for p in pos:
            for q in neg:
                comb = combine(p, q, var)
                if any(comb):
                    new.add(comb)
        cons = new
    return all(c[m] >= 0 for c in cons) and all(e[m] == 0 for e in eqs)


def roof_basis_change(r: int) -> tuple[tuple[int, int, int], ...]:
    """Basis change across the roof between F_r and F_{r+1}.

    The roof surface is the blowup of F_r at a point of its negative section,
    with exceptional class e; it is also a blowup of F_{r+1}.  Columns give
    the second projection's pullback basis in the first one's coordinates
    (E, F, e):

        E' = E - e,   F' = F,   ftilde = F - e.

    The matrix conjugates the roof gram for F_r into the roof gram for
    F_{r+1}, which test_roof_basis_change_is_gram_isometry pins down.
    """
    if r < 0:
        raise ValueError("Hirzebruch parameter must be nonnegative")
    return ((1, 0, 0), (0, 1, 1), (-1, 0, -1))


def roof_transport(a, b, beta, r: int, up: bool) -> tuple[Fraction, Fraction, Fraction]:
    """aE + bF + beta B pushed through the roof over F_r and F_{r+1}.

    Going up, the class is pulled back to the roof in first-projection
    coordinates, rewritten in second-projection coordinates by solving
    against the basis change, and the exceptional direction ftilde is
    discarded.  Going down, the basis change itself rewrites it, and e is
    discarded.  B passes through.
    """
    m = roof_basis_change(r)
    if up:
        x = solve(m, (a, b, 0), 3)
        if x is None:
            raise ValueError("roof basis change is singular")
    else:
        x = [sum(Fraction(m[i][j]) * v for j, v in enumerate((a, b, 0))) for i in range(3)]
    return x[0], x[1], Fraction(beta)


def roof_maps(r: int) -> tuple[tuple[tuple[Fraction, ...], ...], ...]:
    """The up and down roof maps on (E, F, B) coordinates, column by column."""
    units = ((1, 0, 0), (0, 1, 0), (0, 0, 1))
    out = []
    for up in (True, False):
        cols = [roof_transport(*u, r, up) for u in units]
        out.append(tuple(tuple(col[i] for col in cols) for i in range(3)))
    return tuple(out)
