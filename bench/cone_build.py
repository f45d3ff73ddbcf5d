"""cone-build: construct, restrict and wall-restrict seeded cones in-process.

Each op takes one seeded generator set of dimension 3 to 5 and runs
``cone_from_generators``, then ``intersect_subspace`` onto a seeded subspace,
then ``restrict_walls`` of a seeded wall set bounded by the same cone.

The cost of an op follows the facet count of its cone, so every block of
inputs has the same composition of (dimension, generators, facets) cells;
only the integers differ from seed to seed.  Each facet count is the most
common one for its dimension and generator count, so finding inputs by
rejection takes about the same time for every seed.  The cells are chosen so
that the median and the 90th percentile each fall inside a group of
like ops, never on the boundary between two kinds of op.  Subspaces are
spanned by points of the cone, so every restriction is a cone of full
dimension in its subspace.  Facet counts are found by the benchmark's own
integer routine, which also checks the answer.
"""

from __future__ import annotations

from common import block_rng, canon, fresh_import, require
import intmath as im

# (dim, generators, facets or None, subspace dim, wall subspace dim, lineality)
CELLS = (
    # cheap: under ~50 ms
    (3, 4, None, 2, 2, False), (3, 5, None, 2, 2, False), (3, 6, None, 2, 2, False),
    (3, 7, None, 2, 2, False), (3, 8, None, 2, 2, False), (3, 5, None, 2, 2, True),
    (4, 5, 6, 3, 2, False), (4, 6, None, 3, 2, True),
    # the median falls in the middle of this group
    (4, 6, 8, 3, 2, False), (4, 6, 8, 3, 2, False), (4, 6, 8, 3, 2, False),
    (4, 6, 8, 3, 2, False),
    (4, 7, 10, 3, 2, False), (4, 7, 10, 2, 3, False),
    (5, 6, 8, 4, 2, False), (5, 6, 8, 3, 3, False),
    # the 90th percentile falls in this group
    (5, 6, 9, 3, 3, False), (5, 6, 9, 3, 3, False), (5, 6, 9, 3, 3, False),
    (5, 7, 12, 3, 2, False),
)
WARMUP_CELL = (3, 5, None, 2, 2, False)
N_WALLS = 6


class Op:
    __slots__ = ("d", "gens", "sub", "wsub", "walls", "facets", "pointed", "roundtrip")

    def __init__(self, d, gens, sub, wsub, walls, facets, pointed):
        self.d, self.gens, self.sub, self.wsub = d, gens, sub, wsub
        self.walls, self.facets, self.pointed = walls, facets, pointed
        # rebuilding from rays costs as much as the op; pointed cones already
        # have their rays and facets checked exactly, so only cones with
        # lineality and one pointed cone per block are rebuilt
        self.roundtrip = not pointed


def _vec(rng, d, lo=-3, hi=3, first=None):
    while True:
        v = [rng.randint(lo, hi) for _ in range(d)]
        if first is not None:
            v[0] = rng.randint(*first)
        if any(v):
            return tuple(v)


def _basis(rng, gens, k):
    """k independent nonnegative combinations of generators: the subspace
    they span always meets the cone in a k-dimensional cone."""
    d = len(gens[0])
    while True:
        b = []
        for _ in range(k):
            c = [rng.randint(0, 2) for _ in gens]
            b.append(tuple(sum(ci * g[j] for ci, g in zip(c, gens)) for j in range(d)))
        if im.rank(b) == k:
            return [im.primitive(v) for v in b]


def make_op(rng, cell) -> Op:
    d, m, nfacets, k, kw, lineality = cell
    while True:
        if lineality:
            v = _vec(rng, d)
            gens = [_vec(rng, d, first=(1, 3)) for _ in range(m - 2)]
            gens += [v, tuple(-x for x in v)]
            rng.shuffle(gens)
        else:
            gens = [_vec(rng, d, first=(1, 3)) for _ in range(m)]
        if im.rank(gens) != d:
            continue
        facets = im.facets_full_dim(gens, d)
        if nfacets is None or len(facets) == nfacets:
            break
    wsub = _basis(rng, gens, kw)
    walls = [_vec(rng, d) for _ in range(N_WALLS - 2)]
    walls.append(im.integer_kernel_vector(wsub, d))  # vanishes on the subspace
    walls.append(tuple(2 * x for x in walls[0]))  # a positive multiple
    rng.shuffle(walls)
    return Op(d, gens, _basis(rng, gens, k), wsub, walls, facets, not lineality)


class ConeBuild:
    name = "cone-build"
    in_process = True
    block_seconds = 2.5  # nominal time of one block, used to size the traced pass

    def __init__(self, seed: int):
        self.seed = seed
        self.ch = None

    def setup(self):
        (self.ch,) = fresh_import("hilbcone.chambers")
        first = self.block(0)
        self.run(make_op(block_rng(self.name + "/warmup", self.seed, 0), WARMUP_CELL))
        return first

    def block(self, i: int) -> list[Op]:
        rng = block_rng(self.name, self.seed, i)
        ops = [make_op(rng, cell) for cell in CELLS]
        rng.choice([op for op in ops if op.pointed]).roundtrip = True
        rng.shuffle(ops)
        return ops

    def run(self, op: Op):
        ch = self.ch
        C = ch.cone_from_generators(op.gens)
        D = ch.intersect_subspace(C, op.sub)
        labels = tuple(f"x{i + 1}" for i in range(op.d))
        walls = tuple(ch.Wall(w, f"w{i}") for i, w in enumerate(op.walls))
        ws = ch.WallSet(labels, 1, C, walls)
        sub_labels = [f"y{i + 1}" for i in range(len(op.wsub))]
        R, dropped = ch.restrict_walls(ws, op.wsub, labels=sub_labels)
        return C, D, R, dropped

    # -- checks -----------------------------------------------------------

    def check(self, op: Op, out) -> None:
        C, D, R, dropped = out
        d = op.d
        require(C.dim == d, "cone dimension")
        for part in (C.rays, C.lineality, C.facets, C.equations):
            for v in part:
                require(len(v) == d and all(type(x) is int for x in v), "non-integer vector")
        # the generators span Z^d, so the cone is full-dimensional
        require(C.equations == (), "equations on a full-dimensional cone")
        require(list(C.facets) == op.facets, f"facets {C.facets} != {op.facets}")
        for g in op.gens:
            require(all(im.dot(f, g) >= 0 for f in C.facets), "generator violates a facet")
        for r in C.rays:
            require(all(im.dot(f, r) >= 0 for f in C.facets), "ray violates a facet")
            require(any(im.dot(f, r) > 0 for f in C.facets), "ray inside the lineality")
        lin_dim = d - im.rank(C.facets)
        require(len(C.lineality) == lin_dim, "lineality dimension")
        require(im.rank(C.lineality) == lin_dim, "lineality basis rank")
        for v in C.lineality:
            require(all(im.dot(f, v) == 0 for f in C.facets), "lineality leaves a facet")
        if op.pointed:
            require(list(C.rays) == im.extreme_rays_pointed(op.gens, C.facets, d),
                    "extreme rays")
        if op.roundtrip:
            again = list(C.rays) + list(C.lineality) + [tuple(-x for x in v) for v in C.lineality]
            require(self.ch.cone_from_generators(again, d) == C,
                    "cone of rays and lineality differs")
        self._check_subcone(C, op.sub, D)
        self._check_subcone(C, op.wsub, R.bounding_cone)
        kept, seen, lost = [], set(), []
        for i, w in enumerate(op.walls):
            vals = tuple(im.dot(w, b) for b in op.wsub)
            if not any(vals):
                lost.append(f"w{i}")
                continue
            p = im.primitive(vals)
            if p not in seen:
                seen.add(p)
                kept.append(p)
        require([w.functional for w in R.walls] == kept, "restricted walls")
        require([w.label for w in dropped] == lost, "dropped walls")
        require(R.basis_labels == tuple(f"y{i + 1}" for i in range(len(op.wsub))),
                "restricted labels")

    @staticmethod
    def _check_subcone(C, basis, D) -> None:
        k, d = len(basis), C.dim
        require(D.dim == k, "subcone dimension")

        def ambient(y):
            require(len(y) == k and all(type(x) is int for x in y), "non-integer vector")
            return tuple(sum(y[i] * basis[i][j] for i in range(k)) for j in range(d))

        for y in D.rays:
            x = ambient(y)
            require(all(im.dot(f, x) >= 0 for f in C.facets), "subcone ray outside the cone")
            require(all(im.dot(f, y) >= 0 for f in D.facets), "subcone ray violates a facet")
            require(all(im.dot(e, y) == 0 for e in D.equations), "subcone ray off its span")
        for y in D.lineality:
            x = ambient(y)
            require(all(im.dot(f, x) == 0 for f in C.facets), "subcone lineality")

    def canon(self, op: Op, out) -> str:
        C, D, R, dropped = out

        def cone(K):
            return [K.dim, K.rays, K.lineality, K.facets, K.equations]

        return canon([cone(C), cone(D), cone(R.bounding_cone),
                      [w.functional for w in R.walls], [w.label for w in dropped]])

