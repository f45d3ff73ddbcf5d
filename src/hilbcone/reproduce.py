"""Registry of worked examples, runnable as a single report.

Every recorded numeric example is a case; each case recomputes its values
from scratch and checks them exactly.  Three cases document places where
the recorded claims and the recomputed arithmetic disagree; those report as
WARN, never FAIL, and carry the recomputed truth in their detail line.
"""

from __future__ import annotations

from dataclasses import dataclass
from fractions import Fraction

from . import chambers as ch
from . import hilbpic as hp
from . import nslattice as ns
from . import severi as sv


@dataclass(frozen=True)
class CaseResult:
    id: str
    status: str
    detail: str


_CASES: list[tuple[str, str, object]] = []


def _case(case_id: str, warn: bool = False):
    def wrap(fn):
        _CASES.append((case_id, "WARN" if warn else "PASS", fn))
        return fn
    return wrap


def run(filter_str: str | None = None) -> list[CaseResult]:
    out = []
    for case_id, status, fn in _CASES:
        if filter_str and filter_str not in case_id:
            continue
        try:
            detail = fn()
            out.append(CaseResult(case_id, status, detail))
        except Exception as exc:  # noqa: BLE001 - a report, not a crash
            out.append(CaseResult(case_id, "FAIL", f"{type(exc).__name__}: {exc}"))
    return out


# -- plane ------------------------------------------------------------------

@_case("p2-genus-deg7")
def _p2_genus():
    S = ns.make_p2()
    g = ns.arithmetic_genus(S, ns.make_class(S, [7]))
    assert g == 15
    return "a degree-7 plane curve has arithmetic genus 15"


@_case("p2-sections")
def _p2_sections():
    assert ns.h0_p2(7) == 36 == 3 * 12
    assert ns.h0_p2(28) == 435 == 3 * 145
    return "degree 7 carries 36 = 3*12 sections, degree 28 carries 435 = 3*145"


@_case("p2-class-n12")
def _p2_class_12():
    res = sv.severi_class_p2(7, 12)
    assert hp.format_hilb(res.cls) == "18H-5/2B"
    assert res.flags == ()
    assert res.checks["dimension_equation"]["pass"]
    return "severi_class_p2(7, 12) = 18H-5/2B with every check passing"


@_case("p2-class-n145")
def _p2_class_145():
    res = sv.severi_class_p2(28, 145)
    assert hp.format_hilb(res.cls) == "81H-5/2B"
    assert res.flags == ()
    return "severi_class_p2(28, 145) = 81H-5/2B"


@_case("p2-class-n18-codim1")
def _p2_class_18():
    res = sv.severi_class_p2(9, 18, codim=1)
    assert hp.format_hilb(res.cls) == "24H-5/2B"
    eq = res.checks["dimension_equation"]
    assert eq["lhs"] == 55 == eq["rhs"] and eq["pass"]
    return "severi_class_p2(9, 18, codim 1) = 24H-5/2B, 55 sections = 3*18 + 1"


@_case("p2-subcollection-n13")
def _p2_subcollection():
    res = sv.severi_class_subcollection(7, 12, 13)
    assert hp.format_hilb(res.cls) == "216H-55/2B"
    assert hp.format_hilb(res.normalized_ray) == "216/11H-5/2B"
    return "12-nodal degree-7 loci among 13 points sweep out 216H-55/2B"


@_case("p2-subcollection-testcurves")
def _p2_testcurves():
    S = ns.make_p2()
    D = sv.severi_class_subcollection(7, 12, 13).cls
    fixed = hp.curve_from_pairings(S, [1], 0, 13)
    moving = hp.curve_from_pairings(S, [1], 2, 13)
    assert fixed.pair(D) == 216 == 12 * 18
    assert moving.pair(D) == 161 == 18 + 11 * 13
    return "test curves meet 216H-55/2B in degrees 216 = 12*18 and 161 = 18+11*13"


@_case("p2-gamma-degrees")
def _p2_gammas():
    S = ns.make_p2()
    rep = sv.ramification_report(S, ns.make_class(S, [7]), 12)
    assert rep == {"gamma1_degree": 18, "gamma2_degree": 5}
    return "sweep curve degree 18 = 3*7 - 3 and diagonal fiber degree 5"


@_case("p2-pairings-p4")
def _p2_p4():
    S = ns.make_p2()
    p4 = hp.curve_from_pairings(S, [4], 28, 12, "P4")
    J = hp.hilb_class(S, [7], -1, 12)
    sev = sv.severi_class_p2(7, 12).cls
    B = hp.exceptional(S, 12)
    assert p4.pair(J) == 0
    assert p4.pair(sev) == 2
    assert p4.pair(B) == 28
    return "the pencil class pairs to 0 with 7H-B, 2 with the class, 28 with B"


@_case("p2-pic-integrality")
def _p2_integrality():
    sev = sv.severi_class_p2(7, 12).cls
    assert hp.is_pic_integral(sev)
    assert not hp.is_pic_integral(Fraction(1, 3) * sev)
    return "18H-5/2B is integral, 2*(-5/2) in Z"


@_case("p2-slopes")
def _p2_slopes():
    S = ns.make_p2()
    J = hp.hilb_class(S, [7], -1, 12)
    H12 = hp.lift_divisor(S, ns.make_class(S, [1]), 12)
    sev = sv.severi_class_p2(7, 12).cls
    mov = hp.hilb_class(S, [25], Fraction(-7, 2), 12)
    assert hp.slope_decompose(sev, J, H12) == Fraction(1, 5)
    assert hp.slope_decompose(mov, J, H12) == Fraction(1, 7)
    return "18H-5/2B = (7H-B scaled) + 1/5 H and 25H-7/2B likewise with 1/7"


@_case("p2-enumerate-by-degree")
def _p2_enum_d():
    c7 = sv.enumerate_p2_by_d(7)
    c28 = sv.enumerate_p2_by_d(28)
    assert c7 is not None and c7.n == 12 and c7.treger_birational
    assert c28 is not None and c28.n == 145 and c28.treger_birational
    return "degree 7 forces n = 12 and degree 28 forces n = 145"


@_case("p2-enumerate-n12")
def _p2_enum_n():
    cands = sv.enumerate_p2(12)
    assert [(c.d, c.n) for c in cands] == [(7, 12)]
    return "n = 12 admits exactly degree 7"


@_case("p2-imposing-wall")
def _p2_imposing():
    got = {d: sv.imposing_wall(d).k for d in (6, 11, 16, 21)}
    assert got == {6: 3, 11: 6, 16: 9, 21: 12}
    for d in (7, 8, 9, 10):
        try:
            sv.imposing_wall(d)
            raise AssertionError(f"degree {d} should have no integral rescaling")
        except ValueError:
            pass
    return "kH-1/2B is integral exactly for degree 1 mod 5, k = (3d-3)/5"


@_case("p2-n145-wall-side")
def _p2_145_side():
    sev = sv.severi_class_p2(28, 145).cls
    k = Fraction(sev.surface_part.coeffs[0], -2 * sev.b_coeff)
    assert k == Fraction(81, 5) < 17
    ws = ch.load_fixture("p2n145_dk.json").wallset
    signs = ch.locate(ws, (162, -5))
    assert signs == (1, -1, -1, -1, -1)
    return "81H-5/2B normalizes to k = 81/5 < 17, on the negative side of 17H-1/2B"


# -- Hirzebruch surfaces ------------------------------------------------------

@_case("fr-chi-values")
def _fr_chi():
    S = ns.make_hirzebruch(1)
    assert ns.chi(S, ns.make_class(S, [7, 7])) == 36 == 3 * 12
    assert ns.chi(S, ns.make_class(S, [3, 8])) == 30 == 3 * 10
    return "chi(7E+7F) = 36 and chi(3E+8F) = 30 on the r = 1 surface"


@_case("fr-lift-h")
def _fr_lift():
    S = ns.make_hirzebruch(1)
    lifted = hp.lift_divisor(S, ns.resolve_label(S, "H"), 12)
    assert tuple(lifted.surface_part.coeffs) == (1, 1) and lifted.b_coeff == 0
    return "H = E + F lifts with no exceptional part"


@_case("fr-class-n12")
def _fr_class_12():
    res = sv.severi_class_hirzebruch(1, 7, 7, 12)
    assert hp.format_hilb(res.cls) == "19E+18F-5/2B"
    coeffs = res.cls.surface_part.coeffs
    assert coeffs == (Fraction(19), Fraction(18))
    # 19E+18F = 18H + E in the (H, E) coordinates
    assert coeffs[0] - coeffs[1] == 1 and coeffs[1] == 18
    return "class for 7E+7F with 12 nodes is 19E+18F-5/2B = 18H+E-5/2B"


@_case("fr-classes-n10")
def _fr_class_10():
    res38 = sv.severi_class_hirzebruch(1, 3, 8, 10)
    res47 = sv.severi_class_hirzebruch(1, 4, 7, 10)
    assert hp.format_hilb(res38.cls) == "7E+21F-5/2B"
    assert hp.format_hilb(res47.cls) == "10E+18F-5/2B"
    return "the two 10-node classes are 7E+21F-5/2B and 10E+18F-5/2B"


@_case("fr-general-specialization")
def _fr_general():
    S = ns.make_hirzebruch(1)
    gen = sv.severi_class_general(S, ns.make_class(S, [7, 7]), 12)
    assert hp.format_hilb(gen.cls) == "19E+18F-5/2B"
    return "the K+3C construction and the closed form agree on 7E+7F"


@_case("fr-transport-up-effective")
def _fr_transport():
    for r in range(0, 11):
        S = ns.make_hirzebruch(r)
        up = hp.transport_up(hp.lift_divisor(S, ns.resolve_label(S, "E"), 3))
        assert tuple(up.surface_part.coeffs) == (1, 1) and up.b_coeff == 0
        eff = ch.cone_from_generators([(1, 0), (0, 1)])
        assert ch.contains(eff, tuple(up.surface_part.coeffs))
    return "E moves to E+F one surface up, staying effective, for r up to 10"


@_case("fr-enumerate-n12")
def _fr_enum_12():
    cands = sv.enumerate_hirzebruch(1, 12, ("chi",))
    pairs = {(c.a, c.b) for c in cands}
    assert {(7, 7), (2, 12), (0, 35)} <= pairs
    assert pairs == {(0, 35), (2, 12), (7, 7), (8, 7), (23, 12), (71, 35)}
    return "the n = 12 relation on r = 1 has six solutions, (7,7),(2,12),(0,35) included"


@_case("fr-enumerate-n10")
def _fr_enum_10():
    cands = sv.enumerate_hirzebruch(1, 10, ("chi", "genus", "k3c_effective"))
    assert {(c.a, c.b) for c in cands} == {(3, 8), (4, 7)}
    return "three filters leave exactly 3E+8F and 4E+7F at n = 10"


# -- K3 surfaces --------------------------------------------------------------

@_case("k3-genus-deg8")
def _k3_genus():
    S = ns.make_k3(8)
    assert ns.arithmetic_genus(S, ns.make_class(S, [1])) == 5
    return "the degree-8 hyperplane section has arithmetic genus 5"


@_case("k3-class-deg8")
def _k3_class():
    S = ns.make_k3(8)
    res = sv.severi_class_general(S, ns.make_class(S, [1]), 2)
    assert hp.format_hilb(res.cls) == "3L-5/2B"
    assert res.checks["dimension_equation"]["pass"]
    return "the (d, n) = (1, 2) class is 3L-5/2B; K = 0 leaves 3C alone"


@_case("k3-gamma2")
def _k3_gamma2():
    S = ns.make_k3(8)
    rep = sv.ramification_report(S, ns.make_class(S, [1]), 2)
    assert rep["gamma2_degree"] == 5
    return "the diagonal fiber meets the class in degree 5 here too"


@_case("k3-enumerate-deg6")
def _k3_deg6():
    enum = sv.enumerate_k3(6, 100)
    assert enum.solutions == () and enum.flags == ()
    return "3d^2 + 2 = 3n has no integer solutions; the degree-6 family is empty"


@_case("k3-enumerate-deg8")
def _k3_deg8():
    enum = sv.enumerate_k3(8, 10)
    assert (1, 2) in [(s.d, s.n) for s in enum.solutions]
    assert all(s.genus_ok for s in enum.solutions)
    return "the degree-8 family contains (d, n) = (1, 2)"


# -- cones and walls -----------------------------------------------------------

@_case("cone-eff-surface")
def _cone_eff_fr():
    C = ch.cone_from_generators([(1, 0), (0, 1)])
    assert set(C.facets) == {(1, 0), (0, 1)}
    assert not ch.contains(C, (-1, 0))
    assert ch.contains(C, (1, 1))
    return "the E, F quadrant is its own facet-dual"


@_case("cone-eff-p2n12")
def _cone_eff_12():
    eff = ch.cone_from_generators([(0, 1), (7, -1)])
    assert ch.contains(eff, (36, -5))
    assert ch.contains(eff, (50, -7))
    return "the cone spanned by B and 7H-B holds 18H-5/2B and 25H-7/2B"


@_case("cone-restrict-eff")
def _cone_restrict():
    fx = ch.load_fixture("f1n3.json")
    cut = ch.intersect_subspace(
        fx.wallset.bounding_cone,
        [(1, 1, 0), (0, 0, 1)])
    assert cut.rays == ((0, 1), (2, -1))
    return "the 3-point effective cone meets the H, B plane in B and 2H-B"


@_case("cone-restrict-walls")
def _cone_walls():
    f1 = ch.load_fixture("f1n3.json").wallset
    p2 = ch.load_fixture("p2n3.json").wallset
    restricted, dropped = ch.restrict_walls(
        f1, [(1, 1, 0), (0, 0, 1)], labels=("H", "B"))
    assert [w.functional for w in restricted.walls] == [
        w.functional for w in p2.walls]
    assert [w.label for w in dropped] == ["CE"]
    return "seven walls restrict to the three plane walls; the section-dual drops"


@_case("cone-transport-walls")
def _cone_transport():
    f1 = ch.load_fixture("f1n3.json").wallset
    down = ch.transport_wallset_down(f1)
    assert down.surface_r == 0
    assert [w.functional for w in down.walls][1] == (0, 0, 1)
    assert all("not verified" in w.side_data for w in down.walls)
    return "walls move down the roof as hyperplanes; the B-dual stays put"


@_case("cone-locate-nef-boundary")
def _cone_locate():
    ws = ch.load_fixture("p2n3.json").wallset
    assert ch.locate(ws, (1, 0)) == (0, 1, 1)
    assert ch.locate(ws, (4, -1)) == (-1, 0, 1)
    return "H sits on its own wall; 4H-B sits on the 4H-1/2B one"


@_case("cone-svg-fixtures")
def _cone_svg():
    p2 = ch.load_fixture("p2n3.json")
    f1 = ch.load_fixture("f1n3.json")
    svg2 = ch.cross_section_svg(p2.wallset, p2.marks)
    svg3 = ch.cross_section_svg(f1.wallset, f1.marks)
    for lab in ("B", "H", "X2", "X1"):
        assert f">{lab}</text>" in svg2
    for lab in ("B", "E", "F", "H", "X1", "X2"):
        assert f">{lab}</text>" in svg3
    assert svg3 == ch.cross_section_svg(f1.wallset, f1.marks)
    return "both fixture pictures carry their labels and rerender byte-identically"


@_case("blowup-pullback-h")
def _blowup_pullback():
    P2 = ns.make_p2()
    S1 = ns.blow_up(P2, 1)
    lifted = hp.lift_divisor(P2, ns.make_class(P2, [1]), 3)
    pulled = hp.pullback_blowup_hilb(S1, lifted)
    assert tuple(pulled.surface_part.coeffs) == (1, 0)
    assert pulled.b_coeff == 0
    return "H pulls back to the blowup with exceptional coefficient 0"


@_case("hilb-transport-roof")
def _hilb_roof():
    for r in range(0, 11):
        S = ns.make_hirzebruch(r)
        H = hp.lift_divisor(S, ns.resolve_label(S, "H"), 5)
        up = hp.transport_up(H)
        up_surface = ns.make_hirzebruch(r + 1)
        assert up.surface_part == ns.resolve_label(up_surface, "H")
        assert up.b_coeff == 0
        B = hp.exceptional(S, 5)
        assert hp.transport_up(B).b_coeff == B.b_coeff == 1
        assert hp.transport_down(hp.exceptional(up_surface, 5)).b_coeff == 1
    return "H climbs to H and B is fixed, each step of the roof up to r = 11"


# -- recorded discrepancies ----------------------------------------------------

@_case("warn-dimension-convention", warn=True)
def _warn_eq_sev():
    res = sv.severi_class_p2(9, 18, codim=1)
    assert sv.FLAG_EQ_SEV in res.flags
    eq = res.checks["dimension_equation"]
    assert eq["lhs"] == 55 == 3 * 18 + 1
    return (f"{sv.FLAG_EQ_SEV}: the worked numbers satisfy h0 = 3n + codim "
            "(55 = 54 + 1); the displayed relation adds one more and would need 56")


@_case("warn-fr12-even-r-list", warn=True)
def _warn_fr12():
    for k in range(1, 6):
        cands = sv.enumerate_hirzebruch(2 * k, 12, ("chi",))
        assert {(c.a, c.b) for c in cands} == {
            (a, 36 // (a + 1) - 1 + k * a) for a in (0, 1, 2, 3, 5, 8, 11, 17, 35)}
        by_a = {c.a: c for c in cands}
        assert {a for a, c in by_a.items() if c.verdicts["genus"]} == {3, 5, 8}
        assert by_a[3].verdicts["expected_dim"] == (k <= 2)
    return (f"{sv.FLAG_FR12}: no filter choice recovers the recorded list "
            "{5,8,11,17,35} plus 3 for k > 2: the members 11, 17, 35 fail "
            "the genus bound, 3 passes it for every k, and its expected-"
            "dimension condition holds exactly for k <= 2, the reverse side")


@_case("warn-k3-solution-sets", warn=True)
def _warn_k3():
    e4 = sv.enumerate_k3(4, 100)
    assert e4.solutions == () and sv.FLAG_K3_SET in e4.flags
    e8 = sv.enumerate_k3(8, 10)
    assert [(s.d, s.n) for s in e8.solutions] == [(1, 2), (2, 6)]
    assert sv.FLAG_K3_SET in e8.flags
    return (f"{sv.FLAG_K3_SET}: 2d^2 + 2 = 3n is insoluble though recorded as "
            "solvable, and 8d^2/2 + 2 = 3n admits (2, 6) beyond the single "
            "recorded pair")
