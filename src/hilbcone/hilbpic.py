"""Divisor and curve classes on Hilbert schemes of points.

N1 of X^[n] is spanned by lifts D[n] of surface divisor classes together
with the exceptional class B of the Hilbert-Chow morphism; B/2 is integral.
Curve classes are stored purely as pairing functionals, which is the only
way they are ever used.

The module also carries the transport maps between Hilbert schemes of
consecutive Hirzebruch surfaces, as the integer matrices ROOF_UP and
ROOF_DOWN on (E, F, B) coordinates.  They come from the roof, the blowup of
F_r at a point of its negative section with exceptional class e, which is
also a blowup of F_{r+1}.  In the roof's (E, F, e) coordinates the second
projection pulls back E' = E - e and F' = F, and contracts ftilde = F - e.
Going up, aE + bF equals aE' + (a+b)F' - a ftilde, and the ftilde part is
dropped; going down, aE' + bF' equals aE + bF - ae, and the e part is
dropped.  B passes through both.  test_roof_maps_match_the_oracle_derivation
in tests/test_hilbpic.py solves for both matrices again from that basis
change, for r = 0..10.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import _linalg as la
from . import nslattice as ns
from .nslattice import SurfaceClass, SurfaceLattice, format_rational


@dataclass(frozen=True)
class HilbDivClass:
    """A class a_1 D_1[n] + ... + a_k D_k[n] + b B on X^[n]."""

    surface: SurfaceLattice
    surface_part: SurfaceClass
    b_coeff: Fraction
    n: int

    def __post_init__(self):
        (b,) = la.exact((self.b_coeff,))
        object.__setattr__(self, "b_coeff", b)
        if self.n < 1:
            raise ValueError("need at least one point")
        if len(self.surface_part.coeffs) != self.surface.rank:
            raise ValueError("surface part does not match lattice rank")

    def __add__(self, other: "HilbDivClass") -> "HilbDivClass":
        self._check_compatible(other)
        return HilbDivClass(
            self.surface, self.surface_part + other.surface_part,
            self.b_coeff + other.b_coeff, self.n,
        )

    def __sub__(self, other: "HilbDivClass") -> "HilbDivClass":
        return self + (-other)

    def __neg__(self) -> "HilbDivClass":
        return HilbDivClass(self.surface, -self.surface_part, -self.b_coeff, self.n)

    def __mul__(self, scalar) -> "HilbDivClass":
        (s,) = la.exact((scalar,))
        return HilbDivClass(self.surface, s * self.surface_part, s * self.b_coeff, self.n)

    __rmul__ = __mul__

    def _check_compatible(self, other: "HilbDivClass") -> None:
        if self.surface != other.surface or self.n != other.n:
            raise ValueError("classes live on different Hilbert schemes")


@dataclass(frozen=True)
class HilbCurveClass:
    """A curve class stored as its pairings with the divisor basis and with B."""

    surface: SurfaceLattice
    values: tuple[Fraction, ...]
    b_value: Fraction
    n: int
    label: str = ""

    def __post_init__(self):
        *values, b = la.exact((*self.values, self.b_value))
        object.__setattr__(self, "values", tuple(values))
        object.__setattr__(self, "b_value", b)
        if len(self.values) != self.surface.rank:
            raise ValueError("pairing vector does not match lattice rank")

    def pair(self, D: HilbDivClass) -> Fraction:
        if D.surface != self.surface or D.n != self.n:
            raise ValueError("curve and divisor live on different Hilbert schemes")
        return la.dot(self.values, D.surface_part.coeffs) + self.b_value * D.b_coeff


def lift_divisor(S: SurfaceLattice, D: SurfaceClass, n: int) -> HilbDivClass:
    """D[n]: subschemes whose support meets a fixed curve of class D."""
    return HilbDivClass(S, D, 0, n)


def exceptional(S: SurfaceLattice, n: int) -> HilbDivClass:
    """B, the locus of non-reduced subschemes."""
    return HilbDivClass(S, SurfaceClass((0,) * S.rank), 1, n)


def hilb_class(S: SurfaceLattice, surface_coeffs, b, n: int) -> HilbDivClass:
    return HilbDivClass(S, ns.make_class(S, surface_coeffs), b, n)


def is_pic_integral(D: HilbDivClass) -> bool:
    """Membership in Pic(X^[n]): integral surface part and 2b integral."""
    return D.surface_part.is_integral() and (2 * D.b_coeff).denominator == 1


def curve_from_divisor(S: SurfaceLattice, D0: SurfaceClass, n: int,
                       label: str = "") -> HilbCurveClass:
    """The sweep curve: n-1 points fixed, one point moving along a curve of
    class D0.  The moving point stays reduced, so the pairing with B is zero.
    D0 pairs with the basis classes through the rows of the gram matrix."""
    return HilbCurveClass(S, la.mat_vec(S.gram, D0.coeffs), 0, n, label)


def gamma2(S: SurfaceLattice, n: int) -> HilbCurveClass:
    """Fiber of the Hilbert-Chow morphism over a general diagonal point.

    Pairs to zero with every lifted divisor and to -2 with B; the -2 is the
    unique value compatible with the ramification degree 5 of the Severi
    classes, whose B-coefficient is -5/2.
    """
    if n < 2:
        raise ValueError("the diagonal fiber needs at least two points")
    return HilbCurveClass(S, (0,) * S.rank, -2, n, "gamma2")


def curve_from_pairings(S: SurfaceLattice, values, b_value, n: int,
                        label: str = "") -> HilbCurveClass:
    return HilbCurveClass(S, tuple(values), b_value, n, label)


def pullback_blowup_hilb(target: SurfaceLattice, D: HilbDivClass) -> HilbDivClass:
    """Extend a class on Y^[n] to X^[n] for X a (possibly iterated) blowup of Y.

    Coefficients on the old basis and on B are preserved; the new exceptional
    directions get coefficient zero.
    """
    hops = 0
    S = target
    while S != D.surface:
        if S.parent is None:
            raise ValueError("target lattice is not a blowup of the class's lattice")
        hops += S.rank - S.parent.rank
        S = S.parent
    coeffs = tuple(D.surface_part.coeffs) + (0,) * hops
    return HilbDivClass(target, SurfaceClass(coeffs), D.b_coeff, D.n)


# aE + bF + beta B on F_r^[n] goes to aE + (a+b)F + beta B on F_{r+1}^[n],
# and aE + bF + beta B on F_{r+1}^[n] to the same coefficients on F_r^[n]
ROOF_UP = ((1, 0, 0), (1, 1, 0), (0, 0, 1))
ROOF_DOWN = ((1, 0, 0), (0, 1, 0), (0, 0, 1))


def _apply_roof(D: HilbDivClass, m, r: int) -> HilbDivClass:
    """Apply a roof matrix to D's (E, F, B) coordinates, landing on F_r^[n]."""
    a, b, beta = la.mat_vec(m, (*D.surface_part.coeffs, D.b_coeff))
    return HilbDivClass(ns.make_hirzebruch(r), SurfaceClass((a, b)), beta, D.n)


def transport_up(D: HilbDivClass) -> HilbDivClass:
    """Carry a class from F_r^[n] to F_{r+1}^[n] through the roof."""
    if D.surface.kind != "hirzebruch":
        raise ValueError("transport is defined between Hirzebruch surfaces")
    return _apply_roof(D, ROOF_UP, D.surface.r + 1)


def transport_down(D: HilbDivClass) -> HilbDivClass:
    """Carry a class from F_{r+1}^[n] to F_r^[n] through the roof."""
    if D.surface.kind != "hirzebruch":
        raise ValueError("transport is defined between Hirzebruch surfaces")
    if D.surface.r < 1:
        raise ValueError("no Hirzebruch surface below F_0")
    return _apply_roof(D, ROOF_DOWN, D.surface.r - 1)


def slope_decompose(D: HilbDivClass, J: HilbDivClass, H: HilbDivClass) -> Fraction:
    """Exact t with D ~ J + t H once D is scaled to match J's B-coefficient.

    D and J need nonzero B-coefficients and H must have none; raises when the
    leftover after subtracting J is not a multiple of H.
    """
    if D.b_coeff == 0 or J.b_coeff == 0:
        raise ValueError("slope decomposition needs nonzero B-coefficients")
    if H.b_coeff != 0:
        raise ValueError("the direction class must have zero B-coefficient")
    rest = Fraction(J.b_coeff, D.b_coeff) * D - J
    t = None
    for hv, rv in zip(H.surface_part.coeffs, rest.surface_part.coeffs):
        if hv == 0:
            if rv != 0:
                raise ValueError("difference is not proportional to the direction class")
            continue
        cand = Fraction(rv, hv)
        if t is None:
            t = cand
        elif cand != t:
            raise ValueError("difference is not proportional to the direction class")
    if t is None:
        raise ValueError("direction class is zero")
    return t


def div_to_json(D: HilbDivClass) -> dict:
    return {
        "surface": {
            "basis": list(D.surface.basis_labels),
            "coeffs": [format_rational(c) for c in D.surface_part.coeffs],
        },
        "b": format_rational(D.b_coeff),
        "n": D.n,
    }


def format_hilb(D: HilbDivClass, labels: tuple[str, ...] | None = None) -> str:
    """Human form like "18H-5/2B"; zero coefficients are dropped."""
    labels = labels or D.surface.basis_labels
    parts = []
    for coeff, lab in list(zip(D.surface_part.coeffs, labels)) + [(D.b_coeff, "B")]:
        if coeff == 0:
            continue
        sign = "-" if coeff < 0 else ("+" if parts else "")
        mag = abs(coeff)
        body = lab if mag == 1 else f"{format_rational(mag)}{lab}"
        parts.append(f"{sign}{body}")
    return "".join(parts) if parts else "0"
