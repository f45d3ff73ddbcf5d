from __future__ import annotations

import time
from fractions import Fraction

import pytest

from hilbcone import hilbpic as hp
from hilbcone import nslattice as ns
from hilbcone import severi as sv
from oracles import k3_solutions


P2 = ns.make_p2()


def coeffs(res):
    return tuple(res.cls.surface_part.coeffs), res.cls.b_coeff


def test_p2_class_n12():
    res = sv.severi_class_p2(7, 12)
    assert coeffs(res) == ((Fraction(18),), Fraction(-5, 2))
    assert res.checks["dimension_equation"] == {"lhs": 36, "rhs": 36, "pass": True}
    assert res.checks["genus_bound"]["pass"]
    assert res.checks["k3c_effective"] == "yes"
    assert res.flags == ()


def test_p2_class_n145():
    res = sv.severi_class_p2(28, 145)
    assert coeffs(res) == ((Fraction(81),), Fraction(-5, 2))
    assert res.checks["dimension_equation"]["lhs"] == 435
    assert res.flags == ()


def test_p2_incomplete_system_n18():
    res = sv.severi_class_p2(9, 18, codim=1)
    assert coeffs(res) == ((Fraction(24),), Fraction(-5, 2))
    assert res.checks["dimension_equation"] == {"lhs": 55, "rhs": 55, "pass": True}
    assert sv.FLAG_EQ_SEV in res.flags
    assert sv.FLAG_DIM not in res.flags
    # codim 0 never emits the convention flag
    assert sv.FLAG_EQ_SEV not in sv.severi_class_p2(7, 12).flags


def test_subcollection_n13():
    res = sv.severi_class_subcollection(7, 12, 13)
    assert coeffs(res) == ((Fraction(216),), Fraction(-55, 2))
    ray = res.normalized_ray
    assert ray.surface_part.coeffs == (Fraction(216, 11),)
    assert ray.b_coeff == Fraction(-5, 2)
    assert res.cls.n == 13


def test_subcollection_test_curves():
    d = sv.severi_class_subcollection(7, 12, 13).cls
    c = hp.curve_from_divisor(P2, ns.resolve_label(P2, "H"), 13, "C")
    assert c.pair(d) == 216 == 12 * 18
    cprime = hp.curve_from_pairings(P2, [1], 2, 13, "C'")
    assert cprime.pair(d) == 161 == 18 + 11 * 13
    with pytest.raises(ValueError):
        sv.severi_class_subcollection(7, 12, 11)
    for m in (1, 3):
        with pytest.raises(ValueError, match="at least two nodes"):
            sv.severi_class_subcollection(7, 1, m)
    with pytest.raises(ValueError, match="positive degree"):
        sv.severi_class_subcollection(0, 12, 13)


def test_subcollection_m_equals_n_degenerates():
    a = sv.severi_class_subcollection(7, 12, 12)
    b = sv.severi_class_p2(7, 12)
    assert a.cls == b.cls


def test_hirzebruch_classes():
    res = sv.severi_class_hirzebruch(1, 3, 8, 10)
    assert coeffs(res) == ((Fraction(7), Fraction(21)), Fraction(-5, 2))
    res = sv.severi_class_hirzebruch(1, 4, 7, 10)
    assert coeffs(res) == ((Fraction(10), Fraction(18)), Fraction(-5, 2))
    res = sv.severi_class_hirzebruch(1, 7, 7, 12)
    assert coeffs(res) == ((Fraction(19), Fraction(18)), Fraction(-5, 2))
    assert res.flags == ()
    # in (H, E) coordinates on F_1: 19E + 18F = 18H + E
    f1 = ns.make_hirzebruch(1)
    h = ns.resolve_label(f1, "H")
    e = ns.resolve_label(f1, "E")
    assert 18 * h + e == res.cls.surface_part


def test_general_matches_specializations():
    minus = Fraction(-5, 2)
    for d in (1, 2, 5, 7, 9, 28):
        for n in (1, 5, 12, 18):
            for codim in (0, 1, 2):
                res = sv.severi_class_general(P2, ns.make_class(P2, [d]), n, codim=codim)
                assert coeffs(res) == ((3 * d - 3,), minus)
                assert sv.result_to_json(sv.severi_class_p2(d, n, codim)) == \
                    sv.result_to_json(res)
    for r in range(4):
        fr = ns.make_hirzebruch(r)
        for a in range(5):
            for b in range(7):
                res = sv.severi_class_general(fr, ns.make_class(fr, [a, b]), 7)
                assert coeffs(res) == ((3 * a - 2, 3 * b - r - 2), minus)
                assert sv.result_to_json(sv.severi_class_hirzebruch(r, a, b, 7)) == \
                    sv.result_to_json(res)
    for deg in (4, 6, 8):
        k3 = ns.make_k3(deg)
        for d in range(1, 5):
            res = sv.severi_class_general(k3, ns.make_class(k3, [d]), 3)
            assert coeffs(res) == ((3 * d,), minus)


def test_general_dimension_lhs_is_chi_on_hirzebruch():
    # 2E + 2F on F_3: h0 = 3 + 0 + 0 = 3n for n = 1, but chi = 9 - 9 = 0
    f3 = ns.make_hirzebruch(3)
    C = ns.make_class(f3, [2, 2])
    res = sv.severi_class_general(f3, C, 1)
    assert res.checks["dimension_equation"] == {"lhs": 0, "rhs": 3, "pass": False}
    assert sv.FLAG_H0 not in res.flags
    assert sv.FLAG_H0 in sv.severi_class_general(f3, C, 1, h0=4).flags
    for bad in ((-1, 2), (1, -1)):
        with pytest.raises(ValueError, match="nonnegative"):
            sv.severi_class_general(f3, ns.make_class(f3, list(bad)), 1)
    with pytest.raises(ValueError, match="positive degree"):
        sv.severi_class_general(P2, ns.make_class(P2, [0]), 1)


def test_general_on_k3():
    k3 = ns.make_k3(8)
    res = sv.severi_class_general(k3, ns.make_class(k3, [1]), 2)
    assert coeffs(res) == ((Fraction(3),), Fraction(-5, 2))
    assert res.checks["dimension_equation"] == {"lhs": 6, "rhs": 6, "pass": True}
    assert res.flags == ()


def test_general_needs_h0_on_blowups():
    s1 = ns.blow_up(P2, 1)
    c = ns.make_class(s1, [3, -1])
    with pytest.raises(ValueError):
        sv.severi_class_general(s1, c, 4)
    res = sv.severi_class_general(s1, c, 4, h0=12)
    assert res.checks["dimension_equation"]["pass"]
    assert res.checks["k3c_effective"] == "unknown"
    assert sv.FLAG_K3C_UNKNOWN in res.flags


def test_b_coefficient_always_minus_five_halves():
    for res in (
        sv.severi_class_p2(4, 5),
        sv.severi_class_hirzebruch(2, 3, 7, 9),
        sv.severi_class_general(ns.make_k3(4), ns.make_class(ns.make_k3(4), [2]), 5),
    ):
        assert res.cls.b_coeff == Fraction(-5, 2)
    # subcollection classes scale B by binom(m-2, n-2); the ray is normalized
    assert sv.severi_class_subcollection(7, 12, 14).normalized_ray.b_coeff == Fraction(-5, 2)


def test_failed_checks_are_flagged_not_raised():
    res = sv.severi_class_p2(3, 10)  # 10 nodes on a cubic: everything fails
    assert coeffs(res) == ((Fraction(6),), Fraction(-5, 2))
    assert sv.FLAG_DIM in res.flags
    assert sv.FLAG_GENUS in res.flags
    assert res.checks["genus_bound"]["p_a"] == 1


def test_enumerate_p2():
    found = sv.enumerate_p2(12)
    assert [(c.d, c.n) for c in found] == [(7, 12)]
    assert found[0].treger_birational
    assert sv.enumerate_p2(11) == []
    by_d = sv.enumerate_p2_by_d(7)
    assert (by_d.d, by_d.n) == (7, 12)
    assert sv.enumerate_p2_by_d(9) is None
    assert sv.enumerate_p2_by_d(28).n == 145
    # low-degree regime is annotated, not hidden
    low = sv.enumerate_p2_by_d(2)
    assert (low.d, low.n) == (2, 2)
    assert not low.treger_birational


def test_enumerate_hirzebruch_chi_only():
    cands = sv.enumerate_hirzebruch(1, 12, {"chi"})
    assert {(c.a, c.b) for c in cands} == {
        (0, 35), (2, 12), (7, 7), (8, 7), (23, 12), (71, 35)}
    for c in cands:
        assert c.verdicts["chi"]


def test_enumerate_hirzebruch_fr1_n10():
    cands = sv.enumerate_hirzebruch(1, 10, {"chi", "genus", "k3c_effective"})
    assert {(c.a, c.b) for c in cands} == {(3, 8), (4, 7)}


def test_enumerate_hirzebruch_even_r():
    for k in range(1, 6):
        cands = sv.enumerate_hirzebruch(2 * k, 12, {"chi"})
        assert [c.a for c in cands] == [0, 1, 2, 3, 5, 8, 11, 17, 35]
        for c in cands:
            assert c.b == 36 // (c.a + 1) - 1 + k * c.a


def test_enumerate_hirzebruch_round_trip():
    for r in (0, 1, 2, 3, 5):
        for n in (4, 10, 12):
            fr = ns.make_hirzebruch(r)
            for c in sv.enumerate_hirzebruch(r, n, set()):
                assert ns.chi(fr, ns.make_class(fr, [c.a, c.b])) == 3 * n
                assert c.verdicts["h0_exact"] == (ns.h0_hirzebruch(r, c.a, c.b) == 3 * n)
                assert c.verdicts["genus"] == (
                    n <= ns.arithmetic_genus(fr, ns.make_class(fr, [c.a, c.b])))


def test_enumerate_hirzebruch_rejects_unknown_filter():
    with pytest.raises(ValueError):
        sv.enumerate_hirzebruch(1, 12, {"nef"})


def test_enumerate_k3():
    empty = sv.enumerate_k3(6, 100)
    assert empty.solutions == ()
    assert empty.flags == ()
    quartic = sv.enumerate_k3(4, 100)
    assert quartic.solutions == ()
    assert sv.FLAG_K3_SET in quartic.flags
    oct_ = sv.enumerate_k3(8, 10)
    pairs = [(s.d, s.n) for s in oct_.solutions]
    assert (1, 2) in pairs
    assert (2, 6) in pairs
    assert sv.FLAG_K3_SET in oct_.flags
    assert all(s.genus_ok for s in oct_.solutions)
    with pytest.raises(ValueError):
        sv.enumerate_k3(10, 5)


@pytest.mark.parametrize("deg", [4, 6, 8])
def test_enumerate_k3_matches_fraction_walk(deg):
    for n_max in (-3, 0, 1, 2, 5, 6, 7, 22, 100, 1001, 9999, 10_000):
        got = sv.enumerate_k3(deg, n_max).solutions
        assert [(s.d, s.n, s.genus_ok) for s in got] == k3_solutions(deg, n_max)


def test_enumerate_k3_degrees_4_and_6_return_at_once():
    start = time.perf_counter()
    quartic, sextic = sv.enumerate_k3(4, 10**20), sv.enumerate_k3(6, 10**20)
    assert time.perf_counter() - start < 1
    assert quartic.solutions == sextic.solutions == ()
    assert quartic.flags == (sv.FLAG_K3_SET,) and sextic.flags == ()


def test_general_rejects_negative_codim():
    with pytest.raises(ValueError, match="codimension must be nonnegative"):
        sv.severi_class_general(P2, ns.make_class(P2, [7]), 12, codim=-1)


def test_imposing_wall():
    for d, k in ((6, 3), (11, 6), (16, 9), (21, 12)):
        w = sv.imposing_wall(d)
        assert w.k == k
        assert w.h_coeff == k and w.b_coeff == Fraction(-1, 2)
    for d in (7, 8, 9, 10):
        with pytest.raises(ValueError):
            sv.imposing_wall(d)


def test_ramification_report():
    rep = sv.ramification_report(P2, ns.make_class(P2, [7]), 12)
    assert rep == {"gamma1_degree": 18, "gamma2_degree": 5}
    f1 = ns.make_hirzebruch(1)
    rep = sv.ramification_report(f1, ns.make_class(f1, [7, 7]), 12)
    assert rep["gamma1_degree"] == 19
    assert rep["gamma2_degree"] == 5
    k3 = ns.make_k3(8)
    rep = sv.ramification_report(k3, ns.make_class(k3, [1]), 2)
    assert rep["gamma2_degree"] == 5


def test_result_json_shape():
    js = sv.result_to_json(sv.severi_class_p2(9, 18, codim=1))
    assert js["pretty"] == "24H-5/2B"
    assert js["flags"] == ["EQ_SEV_PLUS_ONE"]
    assert js["checks"]["dimension_equation"]["pass"] is True
    js = sv.result_to_json(sv.severi_class_subcollection(7, 12, 13))
    assert js["normalized_ray_pretty"] == "216/11H-5/2B"
