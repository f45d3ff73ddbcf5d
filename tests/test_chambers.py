import dataclasses
import random
from fractions import Fraction

import pytest

from hilbcone import _linalg as la
from hilbcone import chambers as ch
from hilbcone import hilbpic as hp
from hilbcone import nslattice as ns
from oracles import dual_description_subsets, fm_member, rank, restrict_cone


def test_quadrant_facets():
    C = ch.cone_from_generators([(1, 0), (0, 1)])
    assert set(C.rays) == {(1, 0), (0, 1)}
    assert set(C.facets) == {(1, 0), (0, 1)}
    assert C.lineality == () and C.equations == ()


def test_single_ray_canonical_form():
    C = ch.cone_from_generators([(3, 0)])
    assert C.rays == ((1, 0),)
    assert C.facets == ((1, 0),)
    assert C.equations == ((0, 1),)
    assert ch.contains(C, (5, 0))
    assert not ch.contains(C, (5, 1))
    assert not ch.contains(C, (-1, 0))


def test_generator_order_and_scale_do_not_matter():
    A = ch.cone_from_generators([(0, 1), (7, -1), (2, 0)])
    B = ch.cone_from_generators([(14, -2), (0, 3)])
    assert A == B
    assert A.rays == ((0, 1), (7, -1))


def test_effective_cone_p2_n12_memberships():
    eff = ch.cone_from_generators([(0, 1), (7, -1)])
    assert set(eff.facets) == {(1, 0), (1, 7)}
    # twice the Severi class and twice the one-cycle-splitting class
    assert ch.contains(eff, (36, -5))
    assert ch.contains(eff, (50, -7))
    assert ch.contains_interior(eff, (36, -5))
    # the boundary ray is in the cone but not its interior
    assert ch.contains(eff, (7, -1))
    assert not ch.contains_interior(eff, (7, -1))
    assert not ch.contains(eff, (1, -1))


def test_dual_description_halfspace():
    rays, lineality, facets, equations = ch.dual_description([(1, 0, 0)], 3)
    assert rays == [(1, 0, 0)]
    assert lineality == [(0, 0, 1), (0, 1, 0)]
    assert facets == [(1, 0, 0)] and equations == []


def test_full_plane_is_pure_lineality():
    C = ch.cone_from_generators([(1, 0), (-1, 0), (0, 1), (0, -1)])
    assert C.rays == ()
    assert set(C.lineality) == {(0, 1), (1, 0)}
    assert C.facets == () and C.equations == ()
    assert ch.contains(C, (-13, 7))


def test_intersect_subspace_identity_basis():
    C = ch.cone_from_generators([(0, 0, 1), (1, 0, 0), (0, 4, -1), (2, 2, -1)])
    D = ch.intersect_subspace(C, [(1, 0, 0), (0, 1, 0), (0, 0, 1)])
    assert D == C


def test_intersect_quadrant_with_diagonal():
    C = ch.cone_from_generators([(1, 0), (0, 1)])
    D = ch.intersect_subspace(C, [(1, 1)])
    assert D.rays == ((1,),)


def test_intersect_can_be_zero():
    C = ch.cone_from_generators([(1, 0)])
    D = ch.intersect_subspace(C, [(0, 1)])
    assert D.rays == () and D.lineality == ()
    assert ch.contains(D, (0,))
    assert not ch.contains(D, (1,))
    C = ch.cone_from_generators([(1, 0, 0, 0)])
    D = ch.intersect_subspace(C, [(0, 1, 0, 0), (0, 0, 1, 0), (-1, 0, 0, 1)])
    assert D == ch.Cone(3, (), (), (), ((1, 0, 0), (0, 1, 0), (0, 0, 1)))


def test_fixture_lookup_order(tmp_path, monkeypatch):
    fx = ch.load_fixture("p2n3.json")
    assert fx.wallset.n == 3
    custom = tmp_path / "custom.json"
    custom.write_text(ch.fixture_path("p2n3.json").read_text())
    monkeypatch.setenv("HILBCONE_FIXTURES", str(tmp_path))
    assert ch.load_fixture("custom.json").wallset.n == 3
    with pytest.raises(FileNotFoundError):
        ch.load_fixture("nonexistent.json")


def test_f1n3_fixture_shape():
    fx = ch.load_fixture("f1n3.json")
    ws = fx.wallset
    assert ws.basis_labels == ("E", "F", "B")
    assert ws.surface_kind == "hirzebruch" and ws.surface_r == 1
    assert set(ws.bounding_cone.rays) == {(0, 0, 1), (1, 0, 0), (0, 4, -1), (2, 2, -1)}
    assert len(ws.walls) == 7
    # every wall separates: the bounding cone has rays on both sides of it
    for w in ws.walls:
        vals = [sum(a * b for a, b in zip(w.functional, r))
                for r in ws.bounding_cone.rays]
        assert any(v >= 0 for v in vals) and any(v <= 0 for v in vals)


def test_restriction_of_f1_walls_is_the_p2_wall_set():
    f1 = ch.load_fixture("f1n3.json").wallset
    p2 = ch.load_fixture("p2n3.json").wallset
    restricted, dropped = ch.restrict_walls(
        f1, [(1, 1, 0), (0, 0, 1)], labels=("H", "B"))
    assert [w.functional for w in restricted.walls] == [
        w.functional for w in p2.walls]
    assert [w.label for w in dropped] == ["CE"]
    assert restricted.bounding_cone == p2.bounding_cone
    assert restricted.bounding_cone.rays == ((0, 1), (2, -1))


def test_restriction_is_idempotent():
    p2 = ch.load_fixture("p2n3.json").wallset
    again, dropped = ch.restrict_walls(p2, [(1, 0), (0, 1)], labels=("H", "B"))
    assert [w.functional for w in again.walls] == [w.functional for w in p2.walls]
    assert dropped == []
    assert again.bounding_cone == p2.bounding_cone


def test_restriction_needs_one_label_per_basis_vector():
    f1 = ch.load_fixture("f1n3.json").wallset
    for labels in (("H",), ("H", "B", "X")):
        with pytest.raises(ValueError, match="labels for a basis of 2 vectors"):
            ch.restrict_walls(f1, [(1, 1, 0), (0, 0, 1)], labels=labels)


def test_locate_sign_vectors_n12():
    ws = ch.load_fixture("p2n12_dk.json").wallset
    assert ch.locate(ws, (36, -5)) == (-1, -1, -1, -1, -1)
    assert ch.locate(ws, (1, 0)) == (1, 1, 1, 1, 1)
    assert ch.locate(ws, (8, -1)) == (0, -1, -1, -1, -1)


def test_locate_sign_vectors_n145():
    ws = ch.load_fixture("p2n145_dk.json").wallset
    # 2 * (81H - 5/2 B): positive against the degree-16 wall, negative from 17 on
    assert ch.locate(ws, (162, -5)) == (1, -1, -1, -1, -1)
    assert ch.locate(ws, (1152, -37))[-1] == -1


def test_locate_rejects_outside_classes():
    ws = ch.load_fixture("p2n3.json").wallset
    with pytest.raises(ValueError):
        ch.locate(ws, (-1, 0))


def test_transport_down_wall_functionals():
    f1 = ch.load_fixture("f1n3.json").wallset
    down = ch.transport_wallset_down(f1)
    assert down.surface_r == 0
    got = [w.functional for w in down.walls]
    assert got == [(0, 1, 0), (0, 0, 1), (1, 1, 4), (1, 0, 4),
                   (1, 0, 2), (0, 1, 4), (0, 1, 2)]
    assert all("not verified" in w.side_data for w in down.walls)
    assert down.bounding_cone.rays == f1.bounding_cone.rays


def test_transport_down_preserves_pairings():
    f1 = ch.load_fixture("f1n3.json").wallset
    down = ch.transport_wallset_down(f1)
    f0 = ns.make_hirzebruch(0)
    rng = random.Random(3131)
    for _ in range(20):
        a, b = rng.randint(-5, 5), rng.randint(-5, 5)
        beta = Fraction(rng.randint(-6, 6), 2)
        D = hp.hilb_class(f0, (a, b), beta, 3)
        up = hp.transport_up(D)
        upc = tuple(up.surface_part.coeffs) + (up.b_coeff,)
        for w_up, w_down in zip(f1.walls, down.walls):
            lhs = sum(Fraction(p) * q for p, q in zip(w_down.functional, (a, b, beta)))
            rhs = sum(Fraction(p) * q for p, q in zip(w_up.functional, upc))
            assert lhs == rhs


def test_transport_down_keeps_the_lineality():
    f1 = ch.load_fixture("f1n3.json").wallset
    slab = ch.cone_from_generators([(1, 0, 0), (-1, 0, 0), (0, 1, 0), (0, 0, 1)])
    down = ch.transport_wallset_down(dataclasses.replace(f1, bounding_cone=slab))
    assert down.bounding_cone.lineality == ((1, 0, 0),)
    assert down.bounding_cone.rays == ((0, 0, 1), (0, 1, 0))
    assert ch.generators(down.bounding_cone) == [(0, 0, 1), (0, 1, 0), (1, 0, 0), (-1, 0, 0)]


def test_transport_down_stops_at_f0():
    f1 = ch.load_fixture("f1n3.json").wallset
    down = ch.transport_wallset_down(f1)
    with pytest.raises(ValueError):
        ch.transport_wallset_down(down)
    p2 = ch.load_fixture("p2n3.json").wallset
    with pytest.raises(ValueError):
        ch.transport_wallset_down(p2)
    with pytest.raises(ValueError, match="basis E, F, B"):
        ch.transport_wallset_down(dataclasses.replace(p2, surface_kind="hirzebruch",
                                                      surface_r=1))


def _random_cone(rng):
    dim = rng.randint(2, 6)
    k = rng.randint(1, dim + 2)
    gens = []
    while len(gens) < k:
        v = tuple(rng.randint(-4, 4) for _ in range(dim))
        if any(x != 0 for x in v):
            gens.append(v)
    return ch.cone_from_generators(gens, dim), gens, dim


def test_random_cones_roundtrip_and_membership_oracle():
    rng = random.Random(20260816)
    for _ in range(100):
        C, gens, dim = _random_cone(rng)
        assert ch.cone_from_generators(ch.generators(C), dim) == C
        for g in gens:
            assert ch.contains(C, g)
            assert fm_member(C, g)
        coeffs = [rng.randint(0, 3) for _ in gens]
        combo = tuple(
            sum(c * Fraction(g[i]) for c, g in zip(coeffs, gens))
            for i in range(dim))
        assert ch.contains(C, combo) == fm_member(C, combo) == True  # noqa: E712
        for _ in range(3):
            probe = tuple(rng.randint(-6, 6) for _ in range(dim))
            assert ch.contains(C, probe) == fm_member(C, probe)


def _random_rows(rng):
    """Constraint rows with zero rows, repeats, +- pairs and Fraction entries."""
    dim = rng.randint(2, 6)
    rows = []
    for _ in range(rng.randint(0, 12)):
        kind = rng.random()
        if rows and kind < 0.1:
            rows.append(rng.choice(rows))
        elif rows and kind < 0.2:
            rows.append(tuple(-x for x in rng.choice(rows)))
        elif kind < 0.25:
            rows.append((0,) * dim)
        elif kind < 0.4:
            rows.append(tuple(Fraction(rng.randint(-4, 4), rng.randint(1, 3))
                              for _ in range(dim)))
        else:
            rows.append(tuple(rng.randint(-3, 3) for _ in range(dim)))
    return rows, dim


def test_dual_description_matches_subset_enumeration():
    rng = random.Random(20261018)
    for _ in range(150):
        rows, dim = _random_rows(rng)
        assert ch.dual_description(rows, dim)[:2] == dual_description_subsets(rows, dim), (
            rows, dim)


def test_intersect_subspace_matches_oracle_restriction():
    rng = random.Random(20180314)
    seen = {"lineality": 0, "zero": 0, "fraction": 0}
    for _ in range(120):
        dim = rng.randint(1, 5)
        gens, ngens = [], rng.randint(1, dim + 2)
        while len(gens) < ngens:
            v = tuple(rng.randint(-3, 3) for _ in range(dim))
            if any(v):
                gens.append(v)
        if rng.random() < 0.3:
            gens.append(tuple(-x for x in gens[0]))
        C = ch.cone_from_generators(gens, dim)
        k = rng.randint(1, dim)
        basis = [tuple(Fraction(rng.randint(-3, 3), rng.randint(1, 3)) if rng.random() < 0.3
                       else rng.randint(-2, 2) for _ in range(dim)) for _ in range(k)]
        if rng.random() < 0.4:
            # the opposite of a generator, so that zero intersections occur
            basis[0] = tuple(-x for x in gens[-1])
        if rank(basis, dim) != k:
            continue
        D = ch.intersect_subspace(C, basis)
        assert D == restrict_cone(C, basis), (gens, basis)
        seen["lineality"] += bool(D.lineality)
        seen["zero"] += not D.rays and not D.lineality
        seen["fraction"] += any(type(x) is Fraction for b in basis for x in b)
    assert min(seen.values()) >= 5, seen


def test_intersect_subspace_is_one_dual_pair(monkeypatch):
    calls = []
    kernel = ch.dual_description
    monkeypatch.setattr(ch, "dual_description",
                        lambda rows, dim: calls.append(dim) or kernel(rows, dim))
    C = ch.cone_from_generators([(0, 0, 1), (1, 0, 0), (0, 4, -1), (2, 2, -1)])
    assert calls == [3]
    calls.clear()
    basis = [(1, 1, 0), (0, 0, 1)]
    D = ch.intersect_subspace(C, basis)
    assert calls == [2]
    assert D.rays == ((0, 1), (2, -1)) and D.facets == ((1, 0), (1, 2))
    assert D == restrict_cone(C, basis)


def test_pointed_rays_seed_is_one_elimination(monkeypatch):
    calls = []
    kernel = la.nullspace
    monkeypatch.setattr(la, "nullspace",
                        lambda rows, ncols: calls.append(ncols) or kernel(rows, ncols))
    rows = [(1, 0, 0), (0, 1, 0), (0, 0, 1), (1, 1, -1), (-1, 2, 3)]
    rays, zeros = ch._pointed_rays(rows, 3)
    assert calls == [5, 6]
    assert sorted(rays) == dual_description_subsets(rows, 3)[0]
    assert zeros == [sum(1 << j for j, r in enumerate(rows) if la.dot(r, u) == 0)
                     for u in rays]
    # a whole cone: the lineality split, the seed, and the kernel of the rays
    calls.clear()
    C = ch.cone_from_generators(rows)
    assert calls == [3, 5, 6, 3]
    assert C.rays == tuple(sorted(rows)) and C.lineality == ()


def _random_generators(rng, seen):
    """Generators with repeats, positive multiples, opposites and Fractions;
    seen counts each kind."""
    dim = rng.randint(1, 5)
    # a few coordinates held at zero make lower-dimensional cones
    live = [i for i in range(dim) if rng.random() < 0.8] or [0]
    gens, k = [], rng.randint(1, dim + 3)
    while len(gens) < k:
        kind = rng.random()
        if gens and kind < 0.1:
            gens.append(rng.choice(gens))
            seen["duplicate"] += 1
        elif gens and kind < 0.2:
            gens.append(tuple(rng.randint(2, 3) * x for x in rng.choice(gens)))
            seen["parallel"] += 1
        elif gens and kind < 0.3:
            gens.append(tuple(-x for x in rng.choice(gens)))
            seen["opposite"] += 1
        else:
            frac = kind < 0.45
            v = tuple((Fraction(rng.randint(-4, 4), rng.randint(1, 3)) if frac
                       else rng.randint(-3, 3)) if i in live else 0 for i in range(dim))
            if any(v):
                gens.append(v)
                seen["fraction"] += frac
    return gens, dim


def test_cone_from_generators_matches_two_subset_passes():
    """All four fields of one double description against the old two passes."""
    rng = random.Random(20261101)
    seen = dict.fromkeys(("lineality", "lower", "fraction", "duplicate", "parallel",
                          "opposite"), 0)
    for _ in range(150):
        gens, dim = _random_generators(rng, seen)
        C = ch.cone_from_generators(gens, dim)
        facets, equations = dual_description_subsets(gens, dim)
        rays, lineality = dual_description_subsets(
            facets + equations + [tuple(-x for x in e) for e in equations], dim)
        assert C == ch.Cone(dim, tuple(rays), tuple(lineality), tuple(facets),
                            tuple(equations)), (gens, dim)
        seen["lineality"] += bool(lineality)
        seen["lower"] += bool(equations)
    assert min(seen.values()) >= 5, seen


def test_cone_rejects_vectors_of_the_wrong_length():
    ch.Cone(2, ((1, 0),), (), ((1, 0),), ((0, 1),))
    for fields in ((((1, 0, 0),), (), (), ()), ((), ((1,),), (), ()),
                   ((), (), ((1, 0, 0),), ()), ((), (), (), ((0, 1), (1,)))):
        with pytest.raises(ValueError, match="must have 2 entries"):
            ch.Cone(2, *fields)


def test_wallset_rejects_shapes_that_differ_from_the_basis():
    C = ch.cone_from_generators([(1, 0), (0, 1)])
    ch.WallSet(("x", "y"), 1, C, (ch.Wall((1, -1), "diag"),))
    with pytest.raises(ValueError, match="wall 'tall' has a functional with 3 entries, "
                                         "the basis has 2"):
        ch.WallSet(("x", "y"), 1, C, (ch.Wall((1, -1), "diag"), ch.Wall((1, 0, 1), "tall")))
    with pytest.raises(ValueError, match="bounding cone of dimension 2, the basis has 3"):
        ch.WallSet(("x", "y", "z"), 1, C, ())


def test_entry_points_take_rational_strings_and_floats():
    C = ch.cone_from_generators([("1/2", 0), (0, 0.5)])
    assert C == ch.cone_from_generators([(1, 0), (0, 1)])
    assert ch.contains(C, ("1/3", 0.25)) and not ch.contains_interior(C, ("1/3", 0))
    w = ch.Wall(("-1/2", 0.5))
    assert w.functional == (Fraction(-1, 2), Fraction(1, 2))
    ws = ch.WallSet(("x", "y"), 1, C, (w,))
    assert ch.locate(ws, ("1/2", 1)) == (1,)
    restricted, dropped = ch.restrict_walls(ws, [(1, "2")])
    assert [v.functional for v in restricted.walls] == [(1,)] and dropped == []


def test_dual_description_rejects_rows_of_the_wrong_length():
    with pytest.raises(ValueError):
        ch.dual_description([(1, 0), (0, 1, 0)], 2)


def test_wallset_json_roundtrip():
    fx = ch.load_fixture("p2n12_dk.json")
    blob = ch.wallset_to_json(fx.wallset)
    assert blob["basis"] == ["H", "B"]
    assert blob["n"] == 12
    assert blob["bounding_cone"] == [[0, 1], [7, -1]]
    assert [w["functional"] for w in blob["walls"]] == [
        [1, 8], [1, 10], [1, 12], [1, 14], [1, 16]]
