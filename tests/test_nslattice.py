from __future__ import annotations

import random
from fractions import Fraction

import pytest

from hilbcone import _linalg as la
from hilbcone import nslattice as ns
from oracles import primitive as oracle_primitive
from oracles import roof_basis_change
from oracles import rref
from oracles import signature as oracle_signature
from oracles import nullspace as rref_nullspace
from oracles import solve as rref_solve


def F1():
    return ns.make_hirzebruch(1)


def cls(*coeffs):
    return ns.SurfaceClass(tuple(Fraction(c) for c in coeffs))


def test_p2_lattice_data():
    p2 = ns.make_p2()
    assert p2.gram == ((1,),)
    assert p2.canonical.coeffs == (Fraction(-3),)
    assert p2.chi_O == 1
    assert [g.coeffs for g in p2.eff_generators] == [(Fraction(1),)]


def test_hirzebruch_lattice_data():
    for r in range(5):
        fr = ns.make_hirzebruch(r)
        assert fr.gram == ((-r, 1), (1, 0))
        assert fr.canonical.coeffs == (Fraction(-2), Fraction(-(r + 2)))
        assert fr.chi_O == 1
    with pytest.raises(ValueError):
        ns.make_hirzebruch(-1)


def test_hirzebruch_h_is_e_plus_rf():
    for r in range(4):
        fr = ns.make_hirzebruch(r)
        h = ns.resolve_label(fr, "H")
        assert h.coeffs == (Fraction(1), Fraction(r))
        # H^2 = r, H.F = 1, H.E = 0 on F_r
        assert ns.pair(fr, h, h) == r
        assert ns.pair(fr, h, ns.resolve_label(fr, "F")) == 1
        assert ns.pair(fr, h, ns.resolve_label(fr, "E")) == 0


def test_k3_lattice_data():
    for deg in (4, 6, 8):
        s = ns.make_k3(deg)
        assert s.gram == ((deg,),)
        assert s.canonical.is_zero()
        assert s.chi_O == 2
    with pytest.raises(ValueError):
        ns.make_k3(10)


def test_blowup_lattice_data():
    p2 = ns.make_p2()
    s1 = ns.blow_up(p2, 1)
    assert s1.basis_labels == ("H", "E1")
    assert s1.gram == ((1, 0), (0, -1))
    assert s1.canonical.coeffs == (Fraction(-3), Fraction(1))
    assert s1.eff_generators is None
    s9 = ns.blow_up(p2, 8)
    assert s9.rank == 9
    # second round continues the exceptional numbering
    s2 = ns.blow_up(s1, 2)
    assert s2.basis_labels == ("H", "E1", "E2", "E3")


def test_pair_examples():
    p2 = ns.make_p2()
    assert ns.pair(p2, cls(7), cls(7)) == 49
    assert ns.pair(p2, cls(3), cls(5)) == 15
    f1 = F1()
    c = cls(7, 7)
    assert ns.pair(f1, c, c) == 49
    assert ns.pair(f1, c, f1.canonical) == -21
    assert ns.pair(f1, ns.resolve_label(f1, "E"), ns.resolve_label(f1, "F")) == 1
    with pytest.raises(ValueError):
        ns.pair(p2, cls(1, 2), cls(1))


def test_arithmetic_genus_values():
    p2 = ns.make_p2()
    assert ns.arithmetic_genus(p2, cls(7)) == 15
    assert ns.arithmetic_genus(F1(), cls(7, 7)) == 15
    assert ns.arithmetic_genus(ns.make_k3(8), cls(1)) == 5


def test_genus_closed_form_on_hirzebruch():
    for r in range(6):
        fr = ns.make_hirzebruch(r)
        for a in range(8):
            for b in range(10):
                expected = Fraction((a - 1) * (2 * b - a * r - 2), 2)
                assert ns.arithmetic_genus(fr, cls(a, b)) == expected


def test_chi_values():
    f1 = F1()
    assert ns.chi(f1, cls(7, 7)) == 36
    assert ns.chi(f1, cls(3, 8)) == 30
    p2 = ns.make_p2()
    assert ns.chi(p2, cls(7)) == 36
    assert ns.chi(ns.make_k3(8), cls(1)) == 6


def test_chi_closed_form_on_hirzebruch():
    for r in range(6):
        fr = ns.make_hirzebruch(r)
        for a in range(8):
            for b in range(10):
                expected = (a + 1) * (b + 1) - Fraction(r * (a * a + a), 2)
                assert ns.chi(fr, cls(a, b)) == expected


def test_h0_p2():
    assert ns.h0_p2(7) == 36
    assert ns.h0_p2(28) == 435
    assert ns.h0_p2(0) == 1
    with pytest.raises(ValueError):
        ns.h0_p2(-1)


def test_h0_p2_equals_chi():
    p2 = ns.make_p2()
    for d in range(30):
        assert ns.h0_p2(d) == ns.chi(p2, cls(d))


def test_h0_hirzebruch():
    assert ns.h0_hirzebruch(1, 7, 7) == 36
    assert ns.h0_hirzebruch(0, 2, 3) == 12
    assert ns.h0_hirzebruch(3, 7, 14) == 45
    with pytest.raises(ValueError):
        ns.h0_hirzebruch(1, -1, 3)


def test_h0_matches_chi_in_vanishing_range():
    # h1 = h2 = 0 once b >= a r >= 0
    for r in range(13):
        fr = ns.make_hirzebruch(r)
        for a in range(13):
            for b in range(a * r, 13 + a * r):
                if b > 12 and r > 0:
                    continue
                assert ns.h0_hirzebruch(r, a, b) == ns.chi(fr, cls(a, b))


def test_h0_k3():
    assert ns.h0_k3(8, 1) == 6
    assert ns.h0_k3(4, 3) == 20
    with pytest.raises(ValueError):
        ns.h0_k3(8, 0)


def test_effectivity_tristate():
    p2 = ns.make_p2()
    assert ns.is_effective(p2, cls(3)) == "yes"
    assert ns.is_effective(p2, cls(-1)) == "no"
    f1 = F1()
    assert ns.is_effective(f1, cls(1, 0)) == "yes"
    assert ns.is_effective(f1, cls(2, 3)) == "yes"
    assert ns.is_effective(f1, cls(1, -1)) == "no"
    s1 = ns.blow_up(p2, 1)
    assert ns.is_effective(s1, ns.resolve_label(s1, "E1")) == "unknown"


def test_signature_guard():
    with pytest.raises(ValueError):
        ns.SurfaceLattice(
            kind="bad",
            basis_labels=("A", "B"),
            gram=((1, 0), (0, 1)),
            canonical=cls(0, 0),
            chi_O=1,
            eff_generators=None,
        )


def _random_surfaces():
    p2 = ns.make_p2()
    return [
        p2,
        ns.make_hirzebruch(0),
        ns.make_hirzebruch(1),
        ns.make_hirzebruch(3),
        ns.blow_up(p2, 2),
        ns.blow_up(ns.make_hirzebruch(2), 1),
        ns.make_k3(4),
        ns.make_k3(8),
    ]


def test_pairing_symmetric_bilinear_random():
    rng = random.Random(20260816)
    for S in _random_surfaces():
        for _ in range(200):
            a = cls(*[rng.randint(-9, 9) for _ in range(S.rank)])
            b = cls(*[rng.randint(-9, 9) for _ in range(S.rank)])
            c = cls(*[rng.randint(-9, 9) for _ in range(S.rank)])
            s = Fraction(rng.randint(-6, 6), rng.randint(1, 6))
            assert ns.pair(S, a, b) == ns.pair(S, b, a)
            assert ns.pair(S, a + s * b, c) == ns.pair(S, a, c) + s * ns.pair(S, b, c)


def test_adjunction_parity_random():
    rng = random.Random(8128)
    for S in _random_surfaces():
        for _ in range(200):
            c = cls(*[rng.randint(-9, 9) for _ in range(S.rank)])
            val = ns.pair(S, c, c) + ns.pair(S, c, S.canonical)
            assert val.denominator == 1 and val.numerator % 2 == 0


def test_roof_basis_change_entries():
    m = roof_basis_change(2)
    # columns are E-e, F, F-e in (E, F, e) coordinates
    cols = [tuple(m[i][j] for i in range(3)) for j in range(3)]
    assert cols[0] == (1, 0, -1)
    assert cols[1] == (0, 1, 0)
    assert cols[2] == (0, 1, -1)


def test_roof_basis_change_is_gram_isometry():
    for r in range(11):
        roof_r = ns.blow_up(ns.make_hirzebruch(r), 1)
        roof_r1 = ns.blow_up(ns.make_hirzebruch(r + 1), 1)
        m = roof_basis_change(r)
        cols = [tuple(m[i][j] for i in range(3)) for j in range(3)]
        for i in range(3):
            for j in range(3):
                ci = ns.SurfaceClass(tuple(Fraction(x) for x in cols[i]))
                cj = ns.SurfaceClass(tuple(Fraction(x) for x in cols[j]))
                assert ns.pair(roof_r, ci, cj) == roof_r1.gram[i][j]


def test_roof_pullback_intersections():
    for r in range(6):
        roof = ns.blow_up(ns.make_hirzebruch(r), 1)
        e_up = cls(1, 0, -1)
        ftilde = cls(0, 1, -1)
        assert ns.pair(roof, e_up, e_up) == -r - 1
        assert ns.pair(roof, ftilde, ftilde) == -1
        assert ns.pair(roof, e_up, ftilde) == 0


def test_rational_serialization():
    assert ns.format_rational(Fraction(-5, 2)) == "-5/2"
    assert ns.format_rational(Fraction(4, 2)) == "2"


def test_dot_and_mat_vec_reject_mismatched_shapes():
    with pytest.raises(ValueError):
        la.dot((1, 2, 3), (1, 2))
    with pytest.raises(ValueError):
        la.mat_vec(((1, 0), (0, 1)), (1, 2, 3))
    assert la.mat_vec(((1, 0), (0, 1)), (3, 4)) == (3, 4)


def test_integer_rank_matches_rational_elimination():
    rng = random.Random(1968)
    for _ in range(300):
        nrows, ncols = rng.randint(0, 6), rng.randint(1, 6)
        rows = [[Fraction(rng.randint(-5, 5), rng.choice((1, 1, 2, 3))) for _ in range(ncols)]
                for _ in range(nrows)]
        if nrows >= 2 and rng.random() < 0.4:
            rows.append([2 * a - b for a, b in zip(rows[0], rows[1])])
        if rng.random() < 0.2:
            rows.append([0] * ncols)
        assert la.rank(rows, ncols) == len(rref(rows, ncols)[1])


def test_rank_solve_and_nullspace_reject_mismatched_shapes():
    with pytest.raises(ValueError):
        la.rank([(1, 2), (1, 2, 3)], 2)
    with pytest.raises(ValueError):
        la.solve([[1, 0], [0, 1]], (1,))
    with pytest.raises(ValueError):
        la.solve([[1, 0], [0, 1, 5]], (1, 2))
    with pytest.raises(ValueError):
        la.nullspace([(1, 2, 3)], 2)


def _random_system(rng):
    """Rows with Fraction entries, zero rows, dependent rows and a zero top-left
    entry (so elimination must swap rows), with a consistent or perturbed rhs."""
    nrows, ncols = rng.randint(1, 6), rng.randint(1, 6)

    def entry():
        if rng.random() < 0.3:
            return Fraction(rng.randint(-5, 5), rng.randint(1, 4))
        return rng.randint(-5, 5)

    rows = [[entry() for _ in range(ncols)] for _ in range(nrows)]
    if rng.random() < 0.5:
        rows[0][0] = 0
    if nrows >= 2 and rng.random() < 0.4:
        rows[-1] = [a - 3 * b for a, b in zip(rows[0], rows[1])]
    if rng.random() < 0.2:
        rows[rng.randrange(nrows)] = [0] * ncols
    x0 = [entry() for _ in range(ncols)]
    rhs = [sum(a * b for a, b in zip(r, x0)) for r in rows]
    if rng.random() < 0.4:
        rhs[rng.randrange(nrows)] += rng.choice((1, Fraction(1, 2)))
    return rows, rhs, ncols


def test_primitive_matches_fraction_oracle():
    rng = random.Random(1996)
    entries = {
        "int": lambda: rng.randint(-12, 12),
        "fraction": lambda: Fraction(rng.randint(-12, 12), rng.randint(1, 9)),
        "bool": lambda: rng.random() < 0.5,
    }
    seen = dict.fromkeys(("int", "fraction", "bool", "mixed", "negative", "zero"), 0)
    for _ in range(800):
        kinds = rng.sample(sorted(entries), rng.randint(1, 3))
        vec = [entries[rng.choice(kinds)]() for _ in range(rng.randint(1, 6))]
        if not any(vec):
            continue
        assert la.primitive(vec) == oracle_primitive(vec), vec
        assert all(type(x) is int for x in la.primitive(vec))
        seen[kinds[0] if len(kinds) == 1 else "mixed"] += 1
        seen["negative"] += any(x < 0 for x in vec)
        seen["zero"] += 0 in vec
    assert min(seen.values()) >= 50, seen
    assert la.primitive((True, False)) == (1, 0)
    assert la.primitive(("1/2", 0.25, -1)) == (2, 1, -4)
    for zero in ((), (0, 0), (Fraction(0), False)):
        with pytest.raises(ValueError, match="zero vector"):
            la.primitive(zero)
    for bad in ((1, None), (float("inf"), 1), (2, float("nan"))):
        with pytest.raises(ValueError):
            la.primitive(bad)


def test_nullspace_and_solve_match_rational_elimination():
    rng = random.Random(1997)
    swapped = inconsistent = 0
    for _ in range(600):
        rows, rhs, ncols = _random_system(rng)
        basis, pivots = la.nullspace(rows, ncols)
        assert pivots == rref(rows, ncols)[1]
        assert basis == [oracle_primitive(v) for v in rref_nullspace(rows, ncols)]
        assert all(la.dot(r, v) == 0 for r in rows for v in basis)
        want = rref_solve(rows, rhs, ncols)
        got = la.solve(rows, rhs)
        assert got == want, (rows, rhs)
        if want is None:
            inconsistent += 1
        else:
            assert all(isinstance(x, Fraction) for x in got)
            assert [la.dot(r, got) for r in rows] == rhs
        swapped += rows[0][0] == 0 and any(r[0] for r in rows)
    assert swapped > 100 and inconsistent > 100


def test_signature_helper():
    assert la.signature(((1,),)) == (1, 0, 0)
    assert la.signature(((-2, 1), (1, 0))) == (1, 1, 0)
    assert la.signature(((0, 1), (1, 0))) == (1, 1, 0)
    assert la.signature(((0, 0), (0, 0))) == (0, 0, 2)


def test_signature_matches_fraction_oracle():
    rng = random.Random(20261019)
    seen = {"zero_diagonal": 0, "repeated": 0, "singular": 0}
    for _ in range(2000):
        n = rng.randint(0, 6)
        if n and rng.random() < 0.2:
            # a form M^T D M of rank below n
            k = rng.randint(0, n - 1)
            m = [[rng.randint(-2, 2) for _ in range(n)] for _ in range(k)]
            d = [rng.randint(-3, 3) for _ in range(k)]
            a = [[sum(m[t][i] * d[t] * m[t][j] for t in range(k)) for j in range(n)]
                 for i in range(n)]
        else:
            a = [[0] * n for _ in range(n)]
            for i in range(n):
                for j in range(i, n):
                    a[i][j] = a[j][i] = rng.randint(-3, 3)
            if rng.random() < 0.3:
                for i in range(n):
                    a[i][i] = 0
            if n >= 2 and rng.random() < 0.3:
                # row and column j repeat row and column i
                i, j = rng.sample(range(n), 2)
                for row in a:
                    row[j] = row[i]
                a[j] = list(a[i])
        want = oracle_signature(a)
        assert la.signature(a) == want, a
        seen["zero_diagonal"] += n > 1 and not any(a[i][i] for i in range(n)) and any(map(any, a))
        seen["repeated"] += any(a[i] == a[j] for i in range(n) for j in range(i))
        seen["singular"] += want[2] > 0
    assert min(seen.values()) >= 100, seen
