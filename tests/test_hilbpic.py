from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hilbcone import hilbpic as hp
from hilbcone import nslattice as ns
from oracles import roof_maps, roof_transport


P2 = ns.make_p2()
F1 = ns.make_hirzebruch(1)


def sev12():
    return hp.hilb_class(P2, [18], Fraction(-5, 2), 12)


def test_lift_divisor():
    h3 = hp.lift_divisor(P2, ns.resolve_label(P2, "H"), 3)
    assert h3.surface_part.coeffs == (Fraction(1),)
    assert h3.b_coeff == 0 and h3.n == 3
    h12 = hp.lift_divisor(F1, ns.resolve_label(F1, "H"), 12)
    assert h12.surface_part.coeffs == (Fraction(1), Fraction(1))


def test_pic_integrality():
    assert hp.is_pic_integral(sev12())
    assert hp.is_pic_integral(hp.hilb_class(P2, [7], -1, 12))       # 7H - B
    assert hp.is_pic_integral(hp.hilb_class(P2, [17], Fraction(-1, 2), 145))
    assert not hp.is_pic_integral(hp.hilb_class(P2, [Fraction(1, 3)], 0, 3))
    assert not hp.is_pic_integral(hp.hilb_class(P2, [1], Fraction(-1, 4), 3))


def test_class_arithmetic():
    d = 18 * hp.lift_divisor(P2, ns.resolve_label(P2, "H"), 12) \
        - Fraction(5, 2) * hp.exceptional(P2, 12)
    assert d == sev12()
    with pytest.raises(ValueError):
        hp.hilb_class(P2, [1], 0, 0)


def test_curve_from_divisor_pairs_like_surface():
    rng = random.Random(424242)
    for S in (P2, F1, ns.blow_up(P2, 2)):
        for _ in range(60):
            c0 = ns.SurfaceClass(tuple(Fraction(rng.randint(-8, 8)) for _ in range(S.rank)))
            d0 = ns.SurfaceClass(tuple(Fraction(rng.randint(-8, 8)) for _ in range(S.rank)))
            curve = hp.curve_from_divisor(S, c0, 5)
            div = hp.lift_divisor(S, d0, 5)
            assert curve.pair(div) == ns.pair(S, c0, d0)
            assert curve.pair(hp.exceptional(S, 5)) == 0


def test_gamma1_against_severi_class():
    gamma1 = hp.curve_from_divisor(P2, ns.resolve_label(P2, "H"), 12, "gamma1")
    assert gamma1.pair(sev12()) == 18
    f_curve = hp.curve_from_divisor(F1, ns.resolve_label(F1, "F"), 12)
    assert f_curve.pair(hp.lift_divisor(F1, ns.resolve_label(F1, "E"), 12)) == 1


def test_gamma2():
    g2 = hp.gamma2(P2, 12)
    assert g2.values == (Fraction(0),)
    assert g2.b_value == -2
    assert g2.pair(sev12()) == 5
    assert g2.pair(hp.lift_divisor(P2, ns.resolve_label(P2, "H"), 12)) == 0
    assert g2.pair(hp.exceptional(P2, 12)) == -2
    with pytest.raises(ValueError):
        hp.gamma2(P2, 1)


def test_p4_pairings():
    p4 = hp.curve_from_pairings(P2, [4], 28, 12, "P4")
    j = hp.hilb_class(P2, [7], -1, 12)
    assert p4.pair(j) == 0
    assert p4.pair(sev12()) == 2
    assert p4.pair(hp.exceptional(P2, 12)) == 28


def test_pullback_blowup():
    s1 = ns.blow_up(P2, 1)
    h3 = hp.lift_divisor(P2, ns.resolve_label(P2, "H"), 3)
    up = hp.pullback_blowup_hilb(s1, h3)
    assert up.surface_part.coeffs == (Fraction(1), Fraction(0))
    assert up.b_coeff == 0
    b = hp.exceptional(P2, 3)
    assert hp.pullback_blowup_hilb(s1, b).b_coeff == 1
    mixed = hp.hilb_class(P2, [7], -1, 3)
    up2 = hp.pullback_blowup_hilb(s1, mixed)
    assert up2.surface_part.coeffs == (Fraction(7), Fraction(0))
    assert up2.b_coeff == -1
    with pytest.raises(ValueError):
        hp.pullback_blowup_hilb(F1, h3)
    # two rounds of blowing up compose
    s3 = ns.blow_up(s1, 2)
    up3 = hp.pullback_blowup_hilb(s3, mixed)
    assert up3.surface_part.coeffs == (Fraction(7), Fraction(0), Fraction(0), Fraction(0))


def test_pullback_preserves_pairings_on_old_curves():
    s1 = ns.blow_up(P2, 1)
    rng = random.Random(77)
    for _ in range(40):
        d = hp.hilb_class(P2, [rng.randint(-9, 9)], Fraction(rng.randint(-9, 9), 2), 4)
        up = hp.pullback_blowup_hilb(s1, d)
        curve = hp.curve_from_pairings(s1, [rng.randint(-5, 5), 0], rng.randint(-5, 5), 4)
        down_curve = hp.curve_from_pairings(P2, [curve.values[0]], curve.b_value, 4)
        assert curve.pair(up) == down_curve.pair(d)


def test_transport_up_basics():
    for r in range(11):
        fr = ns.make_hirzebruch(r)
        h = hp.lift_divisor(fr, ns.resolve_label(fr, "H"), 3)
        up = hp.transport_up(h)
        assert up.surface.r == r + 1
        assert up.surface_part.coeffs == (Fraction(1), Fraction(r + 1))
        e_up = hp.transport_up(hp.lift_divisor(fr, ns.resolve_label(fr, "E"), 3))
        assert e_up.surface_part.coeffs == (Fraction(1), Fraction(1))
        assert ns.is_effective(up.surface, e_up.surface_part) == "yes"
        b_up = hp.transport_up(hp.exceptional(fr, 3))
        assert b_up.surface_part.is_zero() and b_up.b_coeff == 1


def test_transport_down_basics():
    for r in range(1, 11):
        fr = ns.make_hirzebruch(r)
        e = hp.lift_divisor(fr, ns.resolve_label(fr, "E"), 3)
        down = hp.transport_down(e)
        assert down.surface.r == r - 1
        assert down.surface_part.coeffs == (Fraction(1), Fraction(0))
        f = hp.lift_divisor(fr, ns.resolve_label(fr, "F"), 3)
        assert hp.transport_down(f).surface_part.coeffs == (Fraction(0), Fraction(1))
        b = hp.exceptional(fr, 3)
        assert hp.transport_down(b).b_coeff == 1
    with pytest.raises(ValueError):
        hp.transport_down(hp.exceptional(ns.make_hirzebruch(0), 3))


def test_transport_mixed_class():
    # 19E + 18F - 5/2 B on F_1^[12] meets the roof in both directions
    d = hp.hilb_class(F1, [19, 18], Fraction(-5, 2), 12)
    up = hp.transport_up(d)
    assert up.surface_part.coeffs == (Fraction(19), Fraction(37))
    assert up.b_coeff == Fraction(-5, 2)
    down = hp.transport_down(d)
    assert down.surface_part.coeffs == (Fraction(19), Fraction(18))


def test_roof_maps_match_the_oracle_derivation():
    for r in range(11):
        up, down = roof_maps(r)
        assert up == hp.ROOF_UP
        assert down == hp.ROOF_DOWN


def test_transport_matches_the_oracle_on_random_classes():
    rng = random.Random(20240)

    def q():
        return Fraction(rng.randint(-40, 40), rng.randint(1, 6))

    for _ in range(200):
        r, n = rng.randint(0, 10), rng.randint(1, 20)
        a, b, beta = q(), q(), q()
        up = hp.transport_up(hp.hilb_class(ns.make_hirzebruch(r), [a, b], beta, n))
        down = hp.transport_down(hp.hilb_class(ns.make_hirzebruch(r + 1), [a, b], beta, n))
        for got, target, is_up in ((up, r + 1, True), (down, r, False)):
            assert got.surface == ns.make_hirzebruch(target) and got.n == n
            assert (*got.surface_part.coeffs, got.b_coeff) == roof_transport(
                a, b, beta, r, is_up)


def test_slope_decompose():
    h = hp.lift_divisor(P2, ns.resolve_label(P2, "H"), 12)
    j = hp.hilb_class(P2, [7], -1, 12)
    m = hp.hilb_class(P2, [25], Fraction(-7, 2), 12)
    assert hp.slope_decompose(sev12(), j, h) == Fraction(1, 5)
    assert hp.slope_decompose(m, j, h) == Fraction(1, 7)
    assert hp.slope_decompose(j, j, h) == 0
    with pytest.raises(ValueError):
        hp.slope_decompose(h, j, h)
    with pytest.raises(ValueError):
        hp.slope_decompose(sev12(), h, h)
    with pytest.raises(ValueError):
        hp.slope_decompose(sev12(), j, j)


def test_slope_decompose_is_exact_on_integer_b_coefficients():
    # B-coefficients 3 and -1 have the non-dyadic ratio -1/3: D scaled is -1/3 H - B
    h = hp.lift_divisor(P2, ns.resolve_label(P2, "H"), 4)
    d = hp.hilb_class(P2, [1], 3, 4)
    j = hp.hilb_class(P2, [2], -1, 4)
    t = hp.slope_decompose(d, j, h)
    assert type(t) is Fraction and t == Fraction(-7, 3)


def test_json_shapes():
    d = sev12()
    js = hp.div_to_json(d)
    assert js == {
        "surface": {"basis": ["H"], "coeffs": ["18"]},
        "b": "-5/2",
        "n": 12,
    }


def test_format_hilb():
    assert hp.format_hilb(sev12()) == "18H-5/2B"
    assert hp.format_hilb(hp.hilb_class(F1, [19, 18], Fraction(-5, 2), 12)) == "19E+18F-5/2B"
    assert hp.format_hilb(hp.hilb_class(P2, [0], 0, 3)) == "0"
    assert hp.format_hilb(hp.hilb_class(P2, [1], Fraction(-1, 2), 3)) == "H-1/2B"
