"""Neron-Severi lattices of the surfaces in play.

A SurfaceLattice packages a labeled basis, the integer intersection form,
the canonical class, chi(O), and generators of the effective cone when they
are known.  Constructors cover the plane, Hirzebruch surfaces F_r, iterated
blowups, and rank-one K3 surfaces of degree 4, 6 or 8.  Scalars are ints
and Fractions, elimination is over ints (see _linalg); no floating point
exists anywhere downstream of this module.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from fractions import Fraction

from . import _linalg as la


def format_rational(x) -> str:
    """Serialize a rational as "p/q" with q > 0 and gcd 1, plain "p" for integers."""
    if x.denominator == 1:
        return str(x.numerator)
    return f"{x.numerator}/{x.denominator}"


@dataclass(frozen=True)
class SurfaceClass:
    """A divisor class: exact rational coefficients over a fixed surface basis."""

    coeffs: tuple[Fraction, ...]

    def __post_init__(self):
        object.__setattr__(self, "coeffs", la.exact(self.coeffs))

    def __add__(self, other: "SurfaceClass") -> "SurfaceClass":
        if len(self.coeffs) != len(other.coeffs):
            raise ValueError("classes live over bases of different ranks")
        return SurfaceClass(tuple(a + b for a, b in zip(self.coeffs, other.coeffs)))

    def __sub__(self, other: "SurfaceClass") -> "SurfaceClass":
        return self + (-other)

    def __neg__(self) -> "SurfaceClass":
        return SurfaceClass(tuple(-a for a in self.coeffs))

    def __mul__(self, scalar) -> "SurfaceClass":
        (s,) = la.exact((scalar,))
        return SurfaceClass(tuple(s * a for a in self.coeffs))

    __rmul__ = __mul__

    def is_integral(self) -> bool:
        return all(c.denominator == 1 for c in self.coeffs)

    def is_zero(self) -> bool:
        return all(c == 0 for c in self.coeffs)


@dataclass(frozen=True)
class SurfaceLattice:
    """Basis labels, intersection form, canonical class, chi(O), known Eff generators."""

    kind: str
    basis_labels: tuple[str, ...]
    gram: tuple[tuple[int, ...], ...]
    canonical: SurfaceClass
    chi_O: int
    eff_generators: tuple[SurfaceClass, ...] | None
    r: int | None = None
    deg: int | None = None
    parent: "SurfaceLattice | None" = None

    def __post_init__(self):
        n = len(self.basis_labels)
        if len(set(self.basis_labels)) != n:
            raise ValueError("basis labels must be distinct")
        if len(self.gram) != n or any(len(row) != n for row in self.gram):
            raise ValueError("gram matrix does not match basis rank")
        for i in range(n):
            for j in range(n):
                if not isinstance(self.gram[i][j], int):
                    raise ValueError("gram entries must be integers")
                if self.gram[i][j] != self.gram[j][i]:
                    raise ValueError("gram matrix must be symmetric")
        if la.signature(self.gram) != (1, n - 1, 0):
            raise ValueError("intersection form must have signature (1, rank-1)")
        if len(self.canonical.coeffs) != n:
            raise ValueError("canonical class has wrong rank")
        if self.eff_generators is not None:
            rows = [g.coeffs for g in self.eff_generators]
            if la.rank(rows, n) != len(rows):
                raise ValueError("effective-cone generators must be independent")

    @property
    def rank(self) -> int:
        return len(self.basis_labels)

    @property
    def blown_up_points(self) -> int:
        """The number of exceptional classes E1, E2, ... in the basis."""
        return sum(1 for lab in self.basis_labels if re.fullmatch(r"E\d+", lab))


def make_class(S: SurfaceLattice, coeffs) -> SurfaceClass:
    c = SurfaceClass(tuple(coeffs))
    if len(c.coeffs) != S.rank:
        raise ValueError("coefficient vector does not match lattice rank")
    return c


def label_map(labels, kind: str = "", r: int | None = None) -> dict[str, tuple[int, ...]]:
    """The vector each symbolic name stands for over a labeled basis.

    Every basis label names its unit vector; over the E, F basis of a
    Hirzebruch surface F_r, H also names the class E + rF.
    """
    out = {lab: tuple(int(j == i) for j in range(len(labels)))
           for i, lab in enumerate(labels)}
    if kind == "hirzebruch" and r is not None and {"E", "F"} <= out.keys():
        out.setdefault("H", tuple(e + r * f for e, f in zip(out["E"], out["F"])))
    return out


def resolve_label(S: SurfaceLattice, name: str) -> SurfaceClass:
    """The class a symbolic name stands for on S, read from label_map."""
    vec = label_map(S.basis_labels, S.kind, S.r).get(name)
    if vec is None:
        raise ValueError(f"unknown class label {name!r} on {S.kind}")
    return SurfaceClass(vec)


def make_p2() -> SurfaceLattice:
    return SurfaceLattice(
        kind="p2",
        basis_labels=("H",),
        gram=((1,),),
        canonical=SurfaceClass((-3,)),
        chi_O=1,
        eff_generators=(SurfaceClass((1,)),),
    )


def make_hirzebruch(r: int) -> SurfaceLattice:
    if r < 0:
        raise ValueError("Hirzebruch parameter must be nonnegative")
    return SurfaceLattice(
        kind="hirzebruch",
        basis_labels=("E", "F"),
        gram=((-r, 1), (1, 0)),
        canonical=SurfaceClass((-2, -(r + 2))),
        chi_O=1,
        eff_generators=(SurfaceClass((1, 0)), SurfaceClass((0, 1))),
        r=r,
    )


def make_k3(deg: int) -> SurfaceLattice:
    if deg not in (4, 6, 8):
        raise ValueError("only the degree 4, 6, 8 families are modeled")
    return SurfaceLattice(
        kind="k3",
        basis_labels=("L",),
        gram=((deg,),),
        canonical=SurfaceClass((0,)),
        chi_O=2,
        eff_generators=(SurfaceClass((1,)),),
        deg=deg,
    )


def blow_up(S: SurfaceLattice, k: int) -> SurfaceLattice:
    """Blow up k further general points.

    New exceptional classes get self-intersection -1 and are orthogonal to
    everything else; the canonical class gains their sum.  Effective-cone
    generators are dropped: for a blowup they are not known in general, and
    effectivity queries answer "unknown" rather than guess.
    """
    if k < 1:
        raise ValueError("need at least one point to blow up")
    start = 1 + S.blown_up_points
    new_labels = tuple(f"E{start + i}" for i in range(k))
    n = S.rank
    gram = [[S.gram[i][j] for j in range(n)] + [0] * k for i in range(n)]
    for i in range(k):
        row = [0] * (n + k)
        row[n + i] = -1
        gram.append(row)
    canonical = SurfaceClass(tuple(S.canonical.coeffs) + (1,) * k)
    return SurfaceLattice(
        kind="blowup",
        basis_labels=S.basis_labels + new_labels,
        gram=tuple(tuple(row) for row in gram),
        canonical=canonical,
        chi_O=S.chi_O,
        eff_generators=None,
        parent=S,
    )


def pair(S: SurfaceLattice, C: SurfaceClass, D: SurfaceClass) -> Fraction:
    """Intersection number C.D, evaluated exactly through the gram matrix."""
    if len(C.coeffs) != S.rank or len(D.coeffs) != S.rank:
        raise ValueError("class rank does not match lattice rank")
    gd = la.mat_vec(S.gram, D.coeffs)
    return la.dot(C.coeffs, gd)


def arithmetic_genus(S: SurfaceLattice, C: SurfaceClass) -> Fraction:
    """p_a(C) = 1 + (C^2 + C.K)/2 by adjunction."""
    return 1 + Fraction(pair(S, C, C) + pair(S, C, S.canonical), 2)


def chi(S: SurfaceLattice, C: SurfaceClass) -> Fraction:
    """Riemann-Roch: chi(O(C)) = chi(O) + (C^2 - C.K)/2."""
    return S.chi_O + Fraction(pair(S, C, C) - pair(S, C, S.canonical), 2)


def h0_p2(d: int) -> int:
    if d < 0:
        raise ValueError("negative degree has no sections")
    return (d + 1) * (d + 2) // 2


def h0_hirzebruch(r: int, a: int, b: int) -> int:
    """Sections of aE + bF on F_r, by pushing forward to the base ruling."""
    if a < 0:
        raise ValueError("negative multiple of E has no sections")
    if r < 0:
        raise ValueError("Hirzebruch parameter must be nonnegative")
    return sum(max(0, b - i * r + 1) for i in range(a + 1))


def h0_k3(deg: int, d: int) -> int:
    """Sections of dL on a rank-one K3 of degree L^2 = deg, for d >= 1.

    Riemann-Roch plus vanishing gives h0 = 2 + d^2 deg / 2 here.
    """
    if deg not in (4, 6, 8):
        raise ValueError("only the degree 4, 6, 8 families are modeled")
    if d < 1:
        raise ValueError("need a positive multiple of the polarization")
    return 2 + deg * d * d // 2


def is_effective(S: SurfaceLattice, C: SurfaceClass) -> str:
    """Tri-state effectivity: "yes", "no", or "unknown".

    Decided by nonnegative-combination membership in the stored generators;
    lattices without stored generators (blowups) report "unknown".
    """
    if S.eff_generators is None:
        return "unknown"
    cols = [[g.coeffs[i] for g in S.eff_generators] for i in range(S.rank)]
    x = la.solve(cols, C.coeffs)
    if x is None:
        return "no"
    return "yes" if all(v >= 0 for v in x) else "no"
