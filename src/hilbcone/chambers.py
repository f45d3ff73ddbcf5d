"""Exact rational polyhedral cones, wall sets, and their restrictions.

Cones are stored by primitive integer generators together with a facet
description, and one double description run gives both.  The dual of a list
of vectors is found by splitting off the lineality space and running the
incremental double description method on the pointed part, over Python
ints, with a combinatorial adjacency test on bitmask zero sets.  Those zero
sets, the incidence of rays and input rows, also pick out which input rows
are irredundant, so the other side of the pair costs one more elimination,
not a second run.  Everything is exact.

Wall sets bundle a bounding cone with a list of wall functionals; the
operations on them mirror how base-locus decompositions restrict to a
subspace and transport across the Hirzebruch roof.  Known wall data ships
as JSON fixtures, since base loci themselves are not computed here.

A deterministic SVG renderer draws rank-two fans directly and rank-three
cones through an affine cross-section.
"""

from __future__ import annotations

import functools
import json
import operator
import os
from dataclasses import dataclass
from fractions import Fraction
from pathlib import Path

from . import _linalg as la
from . import hilbpic as hp

IntVec = tuple[int, ...]


def dual_description(rows: list, dim: int) -> tuple[list[IntVec], ...]:
    """Both descriptions of the cone {x : r.x >= 0 for r in rows}.

    Returns its extreme rays, lineality, facets and equations, each sorted,
    so Cone(dim, *dual_description(rows, dim)) is that cone.  Read with the
    rows as the generators of a cone C, the same four lists are C's facets,
    equations, rays and lineality, in that order.

    The lineality space is the kernel of the rows.  The pointed quotient is
    taken in the pivot columns of the rows' echelon form: their standard
    basis vectors complete the kernel, and they are the leftmost coordinates
    that do, so one elimination gives both.  There the extreme rays come from
    the incremental double description method over Python ints
    (_pointed_rays).  Each ray is lifted back through those coordinates, so
    it keeps its representative modulo the lineality space.

    The other side is read off the incidence of that one run.  The equations
    are the kernel of the rays and lineality found.  Each row is taken modulo
    the equations, to the representative that is zero at the kernel's free
    columns, as a ray is modulo the lineality, and made primitive; it is a
    facet when no other such row is tight at every ray it is tight at.  This
    is exact by the face lattice.  A row r cuts out the face {x : r.x = 0},
    which is spanned by the lineality and the rays it holds, so faces
    compare as their tight-ray sets do.  Every proper face lies in a facet,
    and a row cuts out each facet, as the rows generate the dual cone, whose
    extreme rays are the facet normals.  So a row whose face is not a facet
    has another row above it, while a row whose face is a facet has only
    rows equal to it modulo the equations, which the representative merges.
    Rows in the span of the equations cut out the whole cone and drop out.
    """
    if any(len(r) != dim for r in rows):
        raise ValueError(f"constraint rows must have {dim} entries")
    # positive scaling changes no half-space
    ints = list(dict.fromkeys(la.primitive(r) for r in rows if any(r)))
    kernel, comp = la.nullspace(ints, dim)
    rays, zeros = [], []
    if comp:
        # a nonzero row stays nonzero on the complement, as it vanishes on the
        # lineality space; distinct primitive rows stay distinct for the same reason
        reduced = [la.primitive([r[i] for i in comp]) for r in ints]
        pointed, zeros = _pointed_rays(reduced, len(comp))
        for u in pointed:
            ray = [0] * dim
            for i, x in zip(comp, u):
                ray[i] = x
            rays.append(tuple(ray))

    equations, pivots = la.nullspace(rays + kernel, dim)
    free = [f for f in range(dim) if f not in pivots]
    tight = {}
    for j, r in enumerate(ints):
        for v, f in zip(equations, free):
            if r[f]:
                r = tuple(v[f] * a - r[f] * b for a, b in zip(r, v))
        if any(r):
            tight.setdefault(la.primitive(r),
                             sum(1 << k for k, z in enumerate(zeros) if z >> j & 1))
    # each row's tight set contains itself, so a count of 1 means no other does
    facets = [r for r, t in tight.items() if sum(s & t == t for s in tight.values()) == 1]
    # of p and -p, max() keeps the one whose first nonzero entry is positive
    return (sorted(rays), sorted(max(p, tuple(-x for x in p)) for p in kernel),
            sorted(facets), sorted(max(p, tuple(-x for x in p)) for p in equations))


def _pointed_rays(rows: list[IntVec], d: int) -> tuple[list[IntVec], list[int]]:
    """Extreme rays of the pointed cone {x in Q^d : r.x >= 0 for r in rows},
    with the zero set of each.

    rows are distinct primitive integer rows of rank d.  This is the
    incremental double description method (Motzkin et al. 1953) with the
    combinatorial adjacency test of Fukuda and Prodon (1996, "Double
    description method revisited").  It starts from the d leftmost
    independent rows S, the pivot columns of the transposed rows, whose cone
    is simplicial: its i-th ray is zero on the other d-1 seed rows and
    positive on row i.  One kernel of the augmented rows [S | -I] gives all
    d of them: S is invertible, so the -I columns are the free ones, and the
    kernel vector positive at column d+i and zero at the other free columns
    has an S-part x with S.x = c*e_i, c > 0.  That x is the ray itself: c is
    an integer combination of x's entries, so gcd(x) is the gcd of the whole
    primitive kernel vector, 1.
    Each further row splits the rays by sign; a ray it makes negative is
    dropped, and every adjacent pair of a positive and a negative ray gives a
    new ray on the row's hyperplane.  A ray's zero set is the bitmask of rows
    it makes tight.  Two rays are adjacent when their common zero set has at
    least d-2 members and lies in no other ray's zero set.  A new ray is a
    positive combination of its two parents, so it is tight at a row seen
    before exactly when both are: every zero set stays exact, and the final
    ones are the ray-row incidence that dual_description reads the other
    side from.
    """
    seed = la.nullspace(list(zip(*rows)), len(rows))[1]
    seeded = sum(1 << i for i in seed)
    aug = [(*rows[k], *(-1 if k == i else 0 for i in seed)) for k in seed]
    rays = [v[:d] for v in la.nullspace(aug, 2 * d)[0]]
    zeros = [seeded & ~(1 << i) for i in seed]

    for j, r in enumerate(rows):
        if seeded >> j & 1:
            continue
        bit = 1 << j
        vals = [la.dot(r, u) for u in rays]
        new_rays, new_zeros = [], []
        for p, vp in enumerate(vals):
            if vp <= 0:
                continue
            for q, vq in enumerate(vals):
                if vq >= 0:
                    continue
                common = zeros[p] & zeros[q]
                if common.bit_count() < d - 2:
                    continue
                if sum(z & common == common for z in zeros) > 2:
                    continue
                new_rays.append(la.primitive(
                    [vp * b - vq * a for a, b in zip(rays[p], rays[q])]))
                new_zeros.append(common | bit)
        keep = [k for k, v in enumerate(vals) if v >= 0]
        rays = [rays[k] for k in keep] + new_rays
        zeros = [zeros[k] | bit if vals[k] == 0 else zeros[k] for k in keep] + new_zeros
    return rays, zeros


@dataclass(frozen=True)
class Cone:
    """A rational polyhedral cone with both generator and facet descriptions.

    rays and lineality are canonical (primitive, sorted), so equal cones
    compare equal; facets hold the irredundant inequalities and equations
    the equality constraints cutting out the cone's span.
    """

    dim: int
    rays: tuple[IntVec, ...]
    lineality: tuple[IntVec, ...]
    facets: tuple[IntVec, ...]
    equations: tuple[IntVec, ...]

    def __post_init__(self):
        # plain loops, as this runs for every cone built: any() per field
        # costs three times as much
        for name in ("rays", "lineality", "facets", "equations"):
            for v in getattr(self, name):
                if len(v) != self.dim:
                    raise ValueError(f"cone {name} must have {self.dim} entries")


def generators(C: Cone) -> list[IntVec]:
    """Vectors whose nonnegative combinations are C: rays and both senses of
    the lineality basis."""
    return [*C.rays, *C.lineality, *(tuple(-x for x in l) for l in C.lineality)]


def cone_from_generators(vectors, dim: int | None = None) -> Cone:
    vecs = [la.exact(v) for v in vectors]
    if dim is None:
        if not vecs:
            raise ValueError("cannot infer ambient dimension from no generators")
        dim = len(vecs[0])
    if any(len(v) != dim for v in vecs):
        raise ValueError("generators of mixed dimensions")
    if any(all(x == 0 for x in v) for v in vecs):
        raise ValueError("zero vector is not a generator")
    # the dual cone's rays and lineality are C's facets and equations, and
    # its irredundant rows, the generators, are C's rays
    facets, equations, rays, lineality = dual_description(vecs, dim)
    return Cone(dim, tuple(rays), tuple(lineality), tuple(facets), tuple(equations))


def _member(C: Cone, v, side) -> bool:
    v = la.exact(v)
    if len(v) != C.dim:
        raise ValueError("point dimension does not match the cone")
    return (all(la.dot(e, v) == 0 for e in C.equations)
            and all(side(la.dot(f, v), 0) for f in C.facets))


def contains(C: Cone, v) -> bool:
    return _member(C, v, operator.ge)


def contains_interior(C: Cone, v) -> bool:
    """Relative interior membership: equations tight, every facet strict."""
    return _member(C, v, operator.gt)


def intersect_subspace(C: Cone, basis) -> Cone:
    """The cone {v in span(basis) : v in C}, written in basis coordinates.

    One double description of the restricted facets and equations gives
    both sides.  The rays are canonical, as the lineality space fixes their
    pivot coordinates, and the facets likewise modulo the equations.
    """
    basis = [la.exact(b) for b in basis]
    k = len(basis)
    if la.rank(basis, C.dim) != k:
        raise ValueError("subspace basis must be linearly independent")
    ineq = [tuple(la.dot(f, b) for b in basis) for f in C.facets]
    eq = [tuple(la.dot(e, b) for b in basis) for e in C.equations]
    rows = ineq + eq + [tuple(-x for x in r) for r in eq]
    rays, lineality, facets, equations = dual_description(rows, k)
    if not rays and not lineality:
        # the zero cone, cut out by the coordinate equations in their order
        equations = [tuple(int(i == j) for j in range(k)) for i in range(k)]
    return Cone(k, tuple(rays), tuple(lineality), tuple(facets), tuple(equations))


@dataclass(frozen=True)
class Wall:
    """A hyperplane through the origin, stored by a defining functional."""

    functional: IntVec
    label: str = ""
    side_data: str = ""

    def __post_init__(self):
        object.__setattr__(self, "functional", la.exact(self.functional))
        if all(x == 0 for x in self.functional):
            raise ValueError("a wall needs a nonzero functional")


@dataclass(frozen=True)
class WallSet:
    """Wall functionals decomposing a bounding cone, with labels for the basis."""

    basis_labels: tuple[str, ...]
    n: int
    bounding_cone: Cone
    walls: tuple[Wall, ...]
    surface_kind: str = ""
    surface_r: int | None = None

    def __post_init__(self):
        dim = len(self.basis_labels)
        if self.bounding_cone.dim != dim:
            raise ValueError(f"a bounding cone of dimension {self.bounding_cone.dim}, "
                             f"the basis has {dim}")
        for w in self.walls:
            if len(w.functional) != dim:
                raise ValueError(f"wall {w.label!r} has a functional with "
                                 f"{len(w.functional)} entries, the basis has {dim}")


def restrict_walls(ws: WallSet, basis, labels=None) -> tuple[WallSet, list[Wall]]:
    """Restrict every wall functional to a subspace.

    Functionals vanishing identically on the subspace carry no information
    there and are returned separately as dropped; the rest are rewritten in
    subspace coordinates and deduplicated up to positive scaling.  The
    bounding cone is intersected with the subspace.  Labels, when given,
    name the basis vectors one each.
    """
    basis = [la.exact(b) for b in basis]
    k = len(basis)
    labels = tuple(labels) if labels else tuple(f"v{i+1}" for i in range(k))
    if len(labels) != k:
        raise ValueError(f"{len(labels)} labels for a basis of {k} vectors")
    kept: list[Wall] = []
    seen: set[IntVec] = set()
    dropped: list[Wall] = []
    for w in ws.walls:
        restricted = tuple(la.dot(w.functional, b) for b in basis)
        if all(x == 0 for x in restricted):
            dropped.append(w)
            continue
        prim = la.primitive(restricted)
        if prim in seen:
            continue
        seen.add(prim)
        kept.append(Wall(prim, w.label, w.side_data))
    bc = intersect_subspace(ws.bounding_cone, basis)
    return WallSet(labels, ws.n, bc, tuple(kept)), dropped


def transport_wallset_down(ws: WallSet) -> WallSet:
    """Carry a wall set on F_{r+1}^[n] to F_r^[n] through the roof.

    Functionals transport by precomposing with the upward class map, so the
    pairing of a transported wall with a class downstairs equals the pairing
    of the original wall with the transported class.  What comes out is a
    hyperplane; whether it is an honest wall is not decidable here, and the
    result says so on every wall.
    """
    if ws.surface_kind != "hirzebruch" or ws.surface_r is None:
        raise ValueError("wall transport needs a Hirzebruch wall set")
    if ws.surface_r < 1:
        raise ValueError("no Hirzebruch surface below F_0")
    if ws.basis_labels != ("E", "F", "B"):
        raise ValueError("wall transport needs the basis E, F, B")
    # phi precomposed with ROOF_UP is ROOF_UP transposed applied to phi
    adjoint = tuple(zip(*hp.ROOF_UP))
    walls = tuple(
        Wall(la.primitive(la.mat_vec(adjoint, w.functional)), w.label,
             "transported hyperplane; wall-hood not verified")
        for w in ws.walls
    )
    down = [la.mat_vec(hp.ROOF_DOWN, g) for g in generators(ws.bounding_cone)]
    bc = cone_from_generators(down, 3) if down else ws.bounding_cone
    return WallSet(ws.basis_labels, ws.n, bc, walls, "hirzebruch", ws.surface_r - 1)


def locate(ws: WallSet, v) -> tuple[int, ...]:
    """Sign vector of the wall functionals at a class inside the bounding cone."""
    v = la.exact(v)
    if not contains(ws.bounding_cone, v):
        raise ValueError("class lies outside the bounding cone")
    out = []
    for w in ws.walls:
        val = la.dot(w.functional, v)
        out.append(0 if val == 0 else (1 if val > 0 else -1))
    return tuple(out)


# -- fixtures ---------------------------------------------------------------

_FIXTURE_DIR = Path(__file__).parent / "fixtures"


@dataclass(frozen=True)
class Fixture:
    wallset: WallSet
    marks: tuple[tuple[IntVec, str], ...]
    raw: dict


def fixture_path(name: str) -> Path:
    p = Path(name)
    if p.exists():
        return p
    env = os.environ.get("HILBCONE_FIXTURES")
    if env:
        q = Path(env) / name
        if q.exists():
            return q
    q = _FIXTURE_DIR / name
    if q.exists():
        return q
    raise FileNotFoundError(f"no fixture named {name!r}")


def load_fixture(name: str) -> Fixture:
    raw = json.loads(fixture_path(name).read_text())
    if not isinstance(raw, dict):
        raise ValueError("a fixture must be a JSON object")
    n = raw.get("n")
    if type(n) is not int or n < 1:
        raise ValueError(f"fixture field 'n' must be a positive integer, not {n!r}")
    basis = raw.get("basis")
    if not isinstance(basis, list) or not all(isinstance(b, str) for b in basis):
        raise ValueError("fixture field 'basis' must be a list of strings")
    dim = len(basis)
    rays, walls, labels = raw.get("bounding_cone"), raw.get("walls"), raw.get("labels", [])
    if not isinstance(rays, list) or not all(isinstance(r, list) for r in rays):
        raise ValueError("fixture field 'bounding_cone' must be a list of rays")
    for key, value in (("walls", walls), ("labels", labels)):
        if not isinstance(value, list) or not all(isinstance(x, dict) for x in value):
            raise ValueError(f"fixture field {key!r} must be a list of objects")
    surface = raw.get("surface", {})
    if not isinstance(surface, dict):
        raise ValueError("fixture field 'surface' must be an object")
    r = surface.get("r")
    if r is not None and type(r) is not int:
        raise ValueError(f"fixture field 'surface.r' must be an integer, not {r!r}")
    for i, ray in enumerate(rays, 1):
        if len(ray) != dim:
            raise ValueError(f"bounding cone ray {i} has {len(ray)} entries, "
                             f"the basis has {dim}")
    for w in walls:
        f = w.get("functional")
        if not isinstance(f, list):
            raise ValueError(f"wall {w.get('label', '')!r} has no functional")
    for i, m in enumerate(labels, 1):
        c = m.get("class")
        if not isinstance(c, list) or len(c) != dim or not isinstance(m.get("label"), str):
            raise ValueError(f"fixture label {i} needs a 'class' list of {dim} entries, "
                             f"the basis length, and a 'label' string")
    ws = WallSet(
        basis_labels=tuple(basis),
        n=n,
        bounding_cone=cone_from_generators(rays),
        walls=tuple(Wall(tuple(w["functional"]), w.get("label", ""), w.get("cite", ""))
                    for w in walls),
        surface_kind=surface.get("kind", ""),
        surface_r=r,
    )
    marks = tuple((tuple(m["class"]), m["label"]) for m in labels)
    return Fixture(ws, marks, raw)


def wallset_to_json(ws: WallSet) -> dict:
    out = {
        "surface": {"kind": ws.surface_kind},
        "basis": list(ws.basis_labels),
        "n": ws.n,
        "bounding_cone": [list(g) for g in generators(ws.bounding_cone)],
        "walls": [
            {"functional": list(w.functional), "label": w.label, "cite": w.side_data}
            for w in ws.walls
        ],
    }
    if ws.surface_r is not None:
        out["surface"]["r"] = ws.surface_r
    return out


# -- SVG rendering ----------------------------------------------------------

_CANVAS = 600
_MARGIN = 50


def _fmt1(x: Fraction) -> str:
    """Fixed one-decimal formatting after exact rounding (ties to even)."""
    q = round(10 * Fraction(x))
    sign = "-" if q < 0 else ""
    q = abs(q)
    return f"{sign}{q // 10}.{q % 10}"


def _angular_sort(points):
    """Counterclockwise order around the centroid, decided exactly."""
    cx = sum(p[0] for p in points) / len(points)
    cy = sum(p[1] for p in points) / len(points)

    def half(p):
        dx, dy = p[0] - cx, p[1] - cy
        return 0 if (dy > 0 or (dy == 0 and dx > 0)) else 1

    def cmp(p, q):
        hp_, hq = half(p), half(q)
        if hp_ != hq:
            return -1 if hp_ < hq else 1
        cross = (p[0] - cx) * (q[1] - cy) - (p[1] - cy) * (q[0] - cx)
        if cross > 0:
            return -1
        if cross < 0:
            return 1
        return 0

    return sorted(points, key=functools.cmp_to_key(cmp))


def _svg_doc(body: list[str]) -> str:
    head = (
        f'<svg xmlns="http://www.w3.org/2000/svg" width="{_CANVAS}" '
        f'height="{_CANVAS}" viewBox="0 0 {_CANVAS} {_CANVAS}">'
    )
    style = (
        '<style>line.ray{stroke:#333;stroke-width:2}line.wall{stroke:#888;'
        'stroke-width:1;stroke-dasharray:6 3}polygon.cone{fill:#d8e4f0;'
        'stroke:#333;stroke-width:2}text{font-family:serif;font-size:16px;'
        'text-anchor:middle}</style>'
    )
    return "\n".join([head, style] + body + ["</svg>"]) + "\n"


def _render_rank2(ws: WallSet, marks) -> str:
    cx = cy = Fraction(_CANVAS, 2)
    reach = Fraction(_CANVAS, 2) - _MARGIN

    def endpoint(vec) -> tuple[Fraction, Fraction]:
        mx = max(abs(Fraction(x)) for x in vec)
        sx = Fraction(vec[0]) * reach / mx
        sy = Fraction(vec[1]) * reach / mx
        return cx + sx, cy - sy

    body = []
    ray_pts = [endpoint(r) for r in ws.bounding_cone.rays]
    if len(ray_pts) == 2:
        pts = f"{_fmt1(cx)},{_fmt1(cy)} " + " ".join(
            f"{_fmt1(x)},{_fmt1(y)}" for x, y in ray_pts)
        body.append(f'<polygon class="cone" points="{pts}"/>')
    for x, y in ray_pts:
        body.append(f'<line class="ray" x1="{_fmt1(cx)}" y1="{_fmt1(cy)}" '
                    f'x2="{_fmt1(x)}" y2="{_fmt1(y)}"/>')
    for w in ws.walls:
        # the ray inside the hyperplane: rotate the functional
        a, b = w.functional
        direction = (Fraction(b), Fraction(-a))
        if not contains(ws.bounding_cone, direction):
            direction = (-direction[0], -direction[1])
        if not contains(ws.bounding_cone, direction):
            continue
        x, y = endpoint(direction)
        body.append(f'<line class="wall" x1="{_fmt1(cx)}" y1="{_fmt1(cy)}" '
                    f'x2="{_fmt1(x)}" y2="{_fmt1(y)}"/>')
    for vec, label in marks:
        ex, ey = endpoint(vec)
        lx = cx + (ex - cx) * Fraction(11, 10)
        ly = cy + (ey - cy) * Fraction(11, 10)
        body.append(f'<text x="{_fmt1(lx)}" y="{_fmt1(ly)}">{label}</text>')
    return _svg_doc(body)


def _section_point(vec, section) -> tuple[Fraction, Fraction]:
    s = la.dot(section, vec)
    if s <= 0:
        raise ValueError("ray misses the section plane")
    v = [Fraction(x) / s for x in vec]
    return v[0], v[1]


def _render_rank3(ws: WallSet, marks, section) -> str:
    verts = [_section_point(r, section) for r in ws.bounding_cone.rays]
    verts = _angular_sort(verts)
    mark_pts = [(_section_point(v, section), lab) for v, lab in marks]

    # wall chords: clip each wall plane against the section polygon
    chords = []
    for w in ws.walls:
        f = w.functional
        vals = [la.dot(f, _chart_lift(p, section)) for p in verts]
        pts = []
        m = len(verts)
        for i in range(m):
            j = (i + 1) % m
            vi, vj = vals[i], vals[j]
            if vi == 0:
                pts.append(verts[i])
            if vi * vj < 0:
                t = vi / (vi - vj)
                pts.append((verts[i][0] + t * (verts[j][0] - verts[i][0]),
                            verts[i][1] + t * (verts[j][1] - verts[i][1])))
        uniq = sorted(set(pts))
        if len(uniq) >= 2:
            chords.append((uniq[0], uniq[-1]))

    everything = verts + [p for p, _ in mark_pts] + [p for c in chords for p in c]
    minx = min(p[0] for p in everything)
    maxx = max(p[0] for p in everything)
    miny = min(p[1] for p in everything)
    maxy = max(p[1] for p in everything)
    spread = max(maxx - minx, maxy - miny)
    if spread == 0:
        spread = Fraction(1)
    scale = Fraction(_CANVAS - 2 * _MARGIN) / spread
    ox, oy = (minx + maxx) / 2, (miny + maxy) / 2

    def to_canvas(p) -> tuple[Fraction, Fraction]:
        return (Fraction(_CANVAS, 2) + scale * (p[0] - ox),
                Fraction(_CANVAS, 2) - scale * (p[1] - oy))

    body = []
    pts = " ".join(f"{_fmt1(x)},{_fmt1(y)}" for x, y in map(to_canvas, verts))
    body.append(f'<polygon class="cone" points="{pts}"/>')
    for (p, q) in chords:
        (x1, y1), (x2, y2) = to_canvas(p), to_canvas(q)
        body.append(f'<line class="wall" x1="{_fmt1(x1)}" y1="{_fmt1(y1)}" '
                    f'x2="{_fmt1(x2)}" y2="{_fmt1(y2)}"/>')
    for p, label in mark_pts:
        x, y = to_canvas(p)
        body.append(f'<text x="{_fmt1(x)}" y="{_fmt1(y - 8)}">{label}</text>')
    return _svg_doc(body)


def _chart_lift(p, section):
    """Inverse of the chart (x, y) -> point of the section plane."""
    a, b, c = (Fraction(x) for x in section)
    if c == 0:
        raise ValueError("section plane must meet the third axis")
    x, y = p
    return (x, y, (1 - a * x - b * y) / c)


def cross_section_svg(ws: WallSet, marks=(), section=None) -> str:
    """Deterministic SVG for a rank-2 fan or a rank-3 cone cross-section.

    marks is a list of (class vector, text) pairs; rank-3 cones are cut by
    the affine plane sum(coords) = 1 unless a section covector is given.
    """
    dim = ws.bounding_cone.dim
    marks = tuple((la.exact(v), text) for v, text in marks)
    if dim == 2:
        return _render_rank2(ws, marks)
    if dim == 3:
        section = tuple(Fraction(x) for x in (section or (1, 1, 1)))
        return _render_rank3(ws, marks, section)
    raise ValueError("rendering supports rank 2 and 3 only")
