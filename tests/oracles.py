"""Independent oracles that tests compare the library against."""

import math
from fractions import Fraction

from hilbcone.chambers import Cone


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
    are integer tuples (coefficients..., constant) meaning c.x + const >= 0;
    gcd reduction and a set keep the combinatorial growth tame.
    """
    m = len(rows)
    dim = len(rhs)

    def norm(vec: tuple[int, ...]) -> tuple[int, ...]:
        g = 0
        for x in vec:
            g = math.gcd(g, x)
        return vec if g in (0, 1) else tuple(x // g for x in vec)

    cons: set[tuple[int, ...]] = set()
    for i in range(m):
        cons.add(tuple(1 if j == i else 0 for j in range(m)) + (0,))
    for d in range(dim):
        col = [Fraction(rows[i][d]) for i in range(m)] + [-Fraction(rhs[d])]
        mult = math.lcm(*(x.denominator for x in col))
        ints = tuple(int(x * mult) for x in col)
        cons.add(norm(ints))
        cons.add(norm(tuple(-x for x in ints)))
    for var in range(m):
        pos = [c for c in cons if c[var] > 0]
        neg = [c for c in cons if c[var] < 0]
        new = {c for c in cons if c[var] == 0}
        for p in pos:
            for q in neg:
                sp, sq = -q[var], p[var]
                comb = tuple(sp * a + sq * b for a, b in zip(p, q))
                if any(comb):
                    new.add(norm(comb))
        cons = new
    return all(c[m] >= 0 for c in cons)
