"""Severi divisor classes and the enumeration solvers.

The class of the n-nodal locus is (K_X + 3C)[n] - 5/2 B on every surface in
scope; what varies is the precondition bookkeeping.  Results always carry
the class, even when a check fails: the failures are reported as flags so a
caller can see exactly which hypothesis broke.  Enumerators solve the
dimension equation chi(C) = 3n exactly and annotate every candidate with
per-filter verdicts instead of canonizing any one filter set.
"""

from __future__ import annotations

from dataclasses import dataclass, replace
from fractions import Fraction

from . import hilbpic as hp
from . import nslattice as ns
from .hilbpic import HilbDivClass
from .nslattice import SurfaceClass, SurfaceLattice, format_rational

FLAG_DIM = "DIM_EQUATION_FAIL"
FLAG_EQ_SEV = "EQ_SEV_PLUS_ONE"
FLAG_H0 = "H0_NE_3N"
FLAG_GENUS = "GENUS_BOUND_FAIL"
FLAG_K3C_NO = "K3C_NOT_EFFECTIVE"
FLAG_K3C_UNKNOWN = "K3C_EFFECTIVE_UNKNOWN"
FLAG_EXPECTED_DIM = "EXPECTED_DIM_FAIL"
FLAG_K3_SET = "K3_SOLUTION_SET_MISMATCH"
FLAG_FR12 = "FR12_LIST_MISMATCH"

HIRZEBRUCH_FILTERS = ("chi", "h0_exact", "genus", "expected_dim", "k3c_effective", "ample")


@dataclass(frozen=True)
class SeveriResult:
    cls: HilbDivClass
    checks: dict
    flags: tuple[str, ...]
    normalized_ray: HilbDivClass | None = None


def _h0_for(S: SurfaceLattice, C: SurfaceClass) -> int | None:
    """Closed-form section count per surface kind; None where none applies."""
    if not C.is_integral():
        return None
    c = [int(x) for x in C.coeffs]
    if S.kind == "p2":
        return ns.h0_p2(c[0])
    if S.kind == "hirzebruch":
        return ns.h0_hirzebruch(S.r, *c)
    if S.kind == "k3" and c[0] >= 1:
        return ns.h0_k3(S.deg, c[0])
    return None


def _base_checks(S: SurfaceLattice, C: SurfaceClass, k3c: SurfaceClass, n: int,
                 dim_lhs, codim: int):
    checks: dict = {}
    flags: list[str] = []

    rhs = 3 * n + codim
    if dim_lhs is None:
        checks["dimension_equation"] = {"lhs": None, "rhs": rhs, "pass": False}
        flags.append(FLAG_DIM)
    else:
        ok = dim_lhs == rhs
        checks["dimension_equation"] = {"lhs": dim_lhs, "rhs": rhs, "pass": ok}
        if not ok:
            flags.append(FLAG_DIM)
    if codim > 0:
        # the convention here is h0 = 3n + codim, the one the worked numbers
        # satisfy; the displayed equation elsewhere adds one more
        flags.append(FLAG_EQ_SEV)

    eff = ns.is_effective(S, k3c)
    checks["k3c_effective"] = eff
    if eff == "no":
        flags.append(FLAG_K3C_NO)
    elif eff == "unknown":
        flags.append(FLAG_K3C_UNKNOWN)

    pa = ns.arithmetic_genus(S, C)
    genus_ok = n <= pa
    checks["genus_bound"] = {"n": n, "p_a": pa, "pass": genus_ok}
    if not genus_ok:
        flags.append(FLAG_GENUS)

    if S.kind == "hirzebruch":
        a, b = C.coeffs
        ok = b >= a * S.r
        checks["expected_dim_condition"] = "pass" if ok else "fail"
        if not ok:
            flags.append(FLAG_EXPECTED_DIM)
    else:
        checks["expected_dim_condition"] = "not-applicable"

    return checks, flags


def severi_class_general(S: SurfaceLattice, C: SurfaceClass, n: int,
                         h0: int | None = None, codim: int = 0) -> SeveriResult:
    """Sev(n, L) = (K_X + 3C)[n] - 5/2 B for a curve class C with h0 sections.

    h0 is computed for the plane, Hirzebruch surfaces, and rank-one K3s; a
    supplied h0 replaces it, and any other lattice needs it supplied.  With
    codim > 0 the curves range over a linear subsystem of that codimension
    and the dimension equation becomes h0 = 3n + codim.  On F_r the
    dimension check is the relation chi(C) = (a+1)(b+1) - r a(a+1)/2 = 3n;
    the section count can exceed chi when b < ar, which gets its own flag.
    """
    if S.kind == "p2" and C.coeffs[0] < 1:
        raise ValueError("need a curve of positive degree")
    if S.kind == "hirzebruch" and min(C.coeffs) < 0:
        raise ValueError("need a nonnegative curve class")
    if h0 is None:
        h0 = _h0_for(S, C)
        if h0 is None and S.kind == "blowup":
            raise ValueError("section count is not computable here; pass h0")
    k3c = S.canonical + 3 * C
    cls = HilbDivClass(S, k3c, Fraction(-5, 2), n)
    if codim < 0:
        raise ValueError("codimension must be nonnegative")
    dim_lhs = ns.chi(S, C) if S.kind == "hirzebruch" else h0
    checks, flags = _base_checks(S, C, k3c, n, dim_lhs, codim)
    if S.kind == "hirzebruch" and h0 is not None and h0 != 3 * n:
        flags.append(FLAG_H0)
    return SeveriResult(cls, checks, tuple(flags))


def severi_class_p2(d: int, n: int, codim: int = 0) -> SeveriResult:
    """(3d-3)H - 5/2 B for degree-d plane curves with n nodes."""
    S = ns.make_p2()
    return severi_class_general(S, ns.make_class(S, [d]), n, codim=codim)


def severi_class_subcollection(d: int, n: int, m: int, l: int = 0) -> SeveriResult:
    """Class on P2^[m] of collections where some n of the m points are nodes.

    The count of n-subsets of a moving point's companions scales the lift,
    binom(m-1, n-1) on H and binom(m-2, n-2) on B; the normalized_ray field
    carries the same ray rescaled to B-coefficient -5/2.
    """
    from math import comb

    if n < 2:
        raise ValueError("a subcollection class needs at least two nodes")
    if m < n:
        raise ValueError("total point count cannot be below the node count")
    res = severi_class_p2(d, n, l)
    S, h = res.cls.surface, res.cls.surface_part.coeffs[0]
    cls = hp.hilb_class(S, [comb(m - 1, n - 1) * h], Fraction(-5, 2) * comb(m - 2, n - 2), m)
    ray = hp.hilb_class(S, [Fraction(m - 1, n - 1) * h], Fraction(-5, 2), m)
    return replace(res, cls=cls, normalized_ray=ray)


def severi_class_hirzebruch(r: int, a: int, b: int, n: int) -> SeveriResult:
    """(3a-2)E + (3b-r-2)F - 5/2 B for class aE + bF with n nodes on F_r."""
    S = ns.make_hirzebruch(r)
    return severi_class_general(S, ns.make_class(S, [a, b]), n)


@dataclass(frozen=True)
class P2Candidate:
    d: int
    n: int
    treger_birational: bool
    treger_exception: bool


def _p2_candidate(d: int, n: int) -> P2Candidate:
    in_window = d * (d + 3) <= 6 * n <= 3 * (d - 1) * (d - 2)
    exception = (d, n) == (6, 9)
    return P2Candidate(d, n, in_window and not exception, exception)


def enumerate_p2(n: int) -> list[P2Candidate]:
    """All d >= 1 with binom(d+2, 2) = 3n."""
    from math import isqrt

    disc = 1 + 24 * n
    s = isqrt(disc)
    if s * s != disc or (s - 3) % 2 != 0:
        return []
    d = (s - 3) // 2
    if d < 1:
        return []
    return [_p2_candidate(d, n)]


def enumerate_p2_by_d(d: int) -> P2Candidate | None:
    """The n solving binom(d+2, 2) = 3n, when it exists."""
    if d < 1:
        return None
    total = (d + 1) * (d + 2) // 2
    if total % 3 != 0:
        return None
    return _p2_candidate(d, total // 3)


@dataclass(frozen=True)
class HirzebruchCandidate:
    a: int
    b: int
    verdicts: dict
    passes: bool


def _divisors(x: int) -> list[int]:
    return [k for k in range(1, x + 1) if x % k == 0]


def enumerate_hirzebruch(r: int, n: int, filters) -> list[HirzebruchCandidate]:
    """Solutions of (a+1)(b+1) - r a(a+1)/2 = 3n with per-filter verdicts.

    Integrality forces a+1 to divide 6n, so the search runs over those
    divisors.  Every chi-solution is annotated with all six filter verdicts;
    the returned list keeps the candidates passing the requested filters.
    """
    if n < 1:
        raise ValueError("need at least one node")
    if r < 0:
        raise ValueError("Hirzebruch parameter must be nonnegative")
    filters = frozenset(filters)
    unknown = filters - set(HIRZEBRUCH_FILTERS)
    if unknown:
        raise ValueError(f"unknown filters: {sorted(unknown)}")
    S = ns.make_hirzebruch(r)
    out = []
    for a1 in _divisors(6 * n):
        a = a1 - 1
        twice = 6 * n // a1 + r * a
        if twice % 2 or twice // 2 < 1:
            continue
        b = twice // 2 - 1
        C = ns.make_class(S, [a, b])
        verdicts = {
            "chi": ns.chi(S, C) == 3 * n,
            "h0_exact": ns.h0_hirzebruch(r, a, b) == 3 * n,
            "genus": n <= ns.arithmetic_genus(S, C),
            "expected_dim": b >= a * r,
            "k3c_effective": 3 * a - 2 >= 0 and 3 * b - r - 2 >= 0,
            "ample": a >= 1 and b > a * r,
        }
        passes = all(verdicts[f] for f in filters)
        if passes:
            out.append(HirzebruchCandidate(a, b, verdicts, passes))
    return out


@dataclass(frozen=True)
class K3Candidate:
    d: int
    n: int
    genus_ok: bool


@dataclass(frozen=True)
class K3Enumeration:
    deg: int
    n_max: int
    solutions: tuple[K3Candidate, ...]
    flags: tuple[str, ...]


def enumerate_k3(deg: int, n_max: int) -> K3Enumeration:
    """All (d, n) with deg d^2 / 2 + 2 = 3n and n <= n_max.

    Degrees 4 and 6 have no solutions: d^2 is 0 or 1 mod 3, so 2d^2 + 2 is
    2 or 1 mod 3 and 3d^2 + 2 is 2 mod 3, never a multiple of 3.  The raw
    solution sets disagree with the claimed ones in two ways: the degree-4
    set is empty although claimed solvable, and the degree-8 one has a
    solution for every d not divisible by 3, far more than the single
    advertised pair (1, 2).  Both disagreements surface as a flag on the
    result.
    """
    if deg not in (4, 6, 8):
        raise ValueError("only the degree 4, 6, 8 families are modeled")
    sols = []
    if deg == 8:
        S = ns.make_k3(deg)
        d = 1
        while (total := deg * d * d // 2 + 2) <= 3 * n_max:
            if total % 3 == 0:
                pa = ns.arithmetic_genus(S, ns.make_class(S, [d]))
                sols.append(K3Candidate(d, total // 3, total // 3 <= pa))
            d += 1
    flags = []
    if deg == 4 and not sols:
        # claimed solvable, provably empty mod 3
        flags.append(FLAG_K3_SET)
    if deg == 8 and [(s.d, s.n) for s in sols] != [(1, 2)]:
        # claimed to stop at (1, 2)
        flags.append(FLAG_K3_SET)
    return K3Enumeration(deg, n_max, tuple(sols), tuple(flags))


@dataclass(frozen=True)
class ImposingWall:
    """The normalized Severi ray kH - B/2 when the degree allows it."""

    d: int
    k: int

    @property
    def h_coeff(self) -> Fraction:
        return Fraction(self.k)

    @property
    def b_coeff(self) -> Fraction:
        return Fraction(-1, 2)


def imposing_wall(d: int) -> ImposingWall:
    """Rescale (3d-3)H - 5/2 B to kH - B/2; integral exactly when d = 1 mod 5."""
    if d % 5 != 1:
        raise ValueError("the rescaled ray is integral only for d = 1 mod 5")
    return ImposingWall(d, (3 * d - 3) // 5)


_DEFAULT_SWEEP = {"p2": "H", "hirzebruch": "F", "k3": "L"}


def ramification_report(S: SurfaceLattice, C: SurfaceClass, n: int,
                        sweep: SurfaceClass | None = None) -> dict:
    """Degrees of the Severi class against the two test curves.

    gamma1 sweeps one point along a curve of the given class (defaults: H on
    the plane, F on a Hirzebruch surface, L on a K3); gamma2 is the diagonal
    fiber, whose degree is 5 for every Severi class.
    """
    if sweep is None:
        lab = _DEFAULT_SWEEP.get(S.kind)
        if lab is None:
            raise ValueError("no default sweep class here; pass one")
        sweep = ns.resolve_label(S, lab)
    res = severi_class_general(S, C, n)
    g1 = hp.curve_from_divisor(S, sweep, n).pair(res.cls)
    g2 = hp.gamma2(S, n).pair(res.cls)
    return {"gamma1_degree": g1, "gamma2_degree": g2}


def result_to_json(res: SeveriResult) -> dict:
    checks = {}
    for key, val in res.checks.items():
        if isinstance(val, dict):
            checks[key] = {
                k: (format_rational(v) if isinstance(v, (int, Fraction)) and k != "pass"
                    else v)
                for k, v in val.items()
            }
        else:
            checks[key] = val
    out = {
        "class": hp.div_to_json(res.cls),
        "pretty": hp.format_hilb(res.cls),
        "checks": checks,
        "flags": list(res.flags),
    }
    if res.normalized_ray is not None:
        out["normalized_ray"] = hp.div_to_json(res.normalized_ray)
        out["normalized_ray_pretty"] = hp.format_hilb(res.normalized_ray)
    return out
