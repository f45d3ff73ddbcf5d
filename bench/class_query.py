"""class-query: Severi classes, counting and wall-set reads, in-process.

Every block holds the same mix of op kinds; only their arguments differ from
seed to seed.  Hirzebruch coefficients and enumeration sizes are drawn one
per decade, so the O(a) section count and the O(n) divisor scan are seen at
every scale up to a ~ 3000 and n ~ 2e4.  The largest enumeration is one op
in a block of 22 and the 1e3 decade three ops, so the 90th percentile falls
inside the 1e3 group rather than on the edge of the slowest op.
"""

from __future__ import annotations

from common import block_rng, canon, frac, fresh_import, require

FIXTURES = ("f1n3.json", "p2n3.json", "p2n12_dk.json", "p2n145_dk.json")
K3_DEGREES = (4, 6, 8)
MINUS_5_2 = (-5, 2)
BATCH = 8

# op kinds in one block; numbers are decades of the size argument
KINDS = (
    ("sev_p2",), ("sev_p2",),
    ("sev_fr", 0), ("sev_fr", 1), ("sev_fr", 2), ("sev_fr", 3),
    ("sev_k3",), ("sev_k3",), ("sev_blowup",), ("sev_blowup",),
    ("enum_fr", 1), ("enum_fr", 2), ("enum_fr", 3), ("enum_fr", 3), ("enum_fr", 3),
    ("enum_fr", 4),
    ("enum_k3",), ("ramification",), ("ramification",),
    ("transport",), ("transport",), ("locate",),
)
WARMUP = ("sev_p2",)


def _in_decade(rng, e: int, cap: int | None = None) -> int:
    lo = 10 ** e if e else 1
    hi = 10 ** (e + 1) - 1
    return rng.randint(lo, min(hi, cap) if cap else hi)


def h0_hirzebruch(r: int, a: int, b: int) -> int:
    """Closed form of sum_{i<=a} max(0, b - i r + 1)."""
    top = a if r == 0 else min(a, b // r)
    if top < 0:
        return 0
    return (top + 1) * (b + 1) - r * top * (top + 1) // 2


def hirzebruch_solutions(r: int, n: int) -> list[tuple[int, int]]:
    """All (a, b) with (a+1)(b+1) - r a(a+1)/2 = 3n and b >= 0."""
    m = 6 * n
    small = [k for k in range(1, int(m ** 0.5) + 1) if m % k == 0]
    divisors = sorted(set(small + [m // k for k in small]))
    out = []
    for a1 in divisors:
        a = a1 - 1
        twice_b1 = 6 * n // a1 + r * a
        if twice_b1 % 2 == 0 and twice_b1 // 2 >= 1:
            out.append((a, twice_b1 // 2 - 1))
    return out


def make_op(rng, kind, fixtures):
    tag = kind[0]
    if tag == "sev_p2":
        d = rng.randint(1, 60)
        return (tag, d, rng.randint(1, 3 * d))
    if tag == "sev_fr":
        r = rng.randint(0, 3)
        a = _in_decade(rng, kind[1], 3000)
        b = a * r + rng.randint(0, 3000)
        return (tag, r, a, b, rng.randint(1, 3000))
    if tag == "sev_k3":
        return (tag, rng.choice(K3_DEGREES), rng.randint(1, 40), rng.randint(1, 400))
    if tag == "sev_blowup":
        k = rng.randint(1, 3)
        return (tag, k, rng.randint(1, 30), tuple(rng.randint(0, 3) for _ in range(k)),
                rng.randint(1, 200), rng.randint(1, 600))
    if tag == "enum_fr":
        filters = rng.choice(((), ("chi",), ("chi", "genus"), ("k3c_effective",)))
        return (tag, rng.randint(0, 3), _in_decade(rng, kind[1], 20000), filters)
    if tag == "enum_k3":
        return (tag, rng.choice(K3_DEGREES), rng.randint(10, 2000))
    if tag == "ramification":
        surf = rng.choice(("p2", "fr", "k3"))
        n = rng.randint(2, 100)  # the diagonal fiber needs two points
        if surf == "p2":
            return (tag, surf, 0, (rng.randint(1, 60),), n)
        if surf == "fr":
            r = rng.randint(0, 3)
            a = rng.randint(0, 60)
            return (tag, surf, r, (a, a * r + rng.randint(0, 60)), n)
        return (tag, surf, rng.choice(K3_DEGREES), (rng.randint(1, 40),), n)
    if tag == "transport":
        r = rng.randint(0, 4)
        return (tag, r, rng.randint(-50, 50), rng.randint(-50, 50),
                rng.randint(-20, 20), rng.randint(1, 50))
    if tag == "locate":
        name = rng.choice(FIXTURES)
        rays = fixtures[name][1]
        points = []
        while len(points) < BATCH:
            c = [rng.randint(0, 5) for _ in rays]
            p = tuple(sum(ci * ray[j] for ci, ray in zip(c, rays)) for j in range(len(rays[0])))
            if any(p):
                points.append(p)
        return (tag, name, tuple(points))
    raise ValueError(tag)


class ClassQuery:
    name = "class-query"
    in_process = True
    block_seconds = 0.16

    def __init__(self, seed: int):
        self.seed = seed
        self.fixtures = {}

    def setup(self):
        self.ns, self.hp, self.sv, self.ch = fresh_import(
            "hilbcone.nslattice", "hilbcone.hilbpic", "hilbcone.severi", "hilbcone.chambers")
        self.fixtures = {}
        for name in FIXTURES:
            fx = self.ch.load_fixture(name)
            raw = fx.raw
            self.fixtures[name] = (fx.wallset, [tuple(r) for r in raw["bounding_cone"]],
                                   [tuple(w["functional"]) for w in raw["walls"]])
        first = self.block(0)
        self.run(make_op(block_rng(self.name + "/warmup", self.seed, 0), WARMUP, self.fixtures))
        return first

    def block(self, i: int) -> list:
        rng = block_rng(self.name, self.seed, i)
        ops = [make_op(rng, kind, self.fixtures) for kind in KINDS]
        rng.shuffle(ops)
        return ops

    def run(self, op):
        ns, hp, sv, ch = self.ns, self.hp, self.sv, self.ch
        tag = op[0]
        if tag == "sev_p2":
            return sv.severi_class_p2(op[1], op[2])
        if tag == "sev_fr":
            _, r, a, b, n = op
            return sv.severi_class_hirzebruch(r, a, b, n)
        if tag == "sev_k3":
            _, deg, d, n = op
            S = ns.make_k3(deg)
            return sv.severi_class_general(S, ns.make_class(S, [d]), n)
        if tag == "sev_blowup":
            _, k, d, es, n, h0 = op
            S = ns.blow_up(ns.make_p2(), k)
            return sv.severi_class_general(S, ns.make_class(S, [d] + [-e for e in es]), n, h0=h0)
        if tag == "enum_fr":
            _, r, n, filters = op
            return sv.enumerate_hirzebruch(r, n, filters)
        if tag == "enum_k3":
            return sv.enumerate_k3(op[1], op[2])
        if tag == "ramification":
            _, surf, param, coeffs, n = op
            S = {"p2": ns.make_p2, "fr": ns.make_hirzebruch, "k3": ns.make_k3}[surf](
                *(() if surf == "p2" else (param,)))
            return sv.ramification_report(S, ns.make_class(S, list(coeffs)), n)
        if tag == "transport":
            _, r, a, b, beta, n = op
            up = hp.transport_up(hp.hilb_class(ns.make_hirzebruch(r), [a, b], beta, n))
            down = hp.transport_down(hp.hilb_class(ns.make_hirzebruch(r + 1), [a, b], beta, n))
            return up, down
        if tag == "locate":
            ws = self.fixtures[op[1]][0]
            return [(ch.locate(ws, p), ch.contains(ws.bounding_cone, tuple(-x for x in p)))
                    for p in op[2]]
        raise ValueError(tag)

    # -- checks -----------------------------------------------------------

    @staticmethod
    def _severi(res, surface_coeffs) -> None:
        got = [frac(c) for c in res.cls.surface_part.coeffs]
        require(got == [(c, 1) for c in surface_coeffs],
                f"class {got} != {list(surface_coeffs)}")
        require(frac(res.cls.b_coeff) == MINUS_5_2, "B-coefficient is not -5/2")

    def check(self, op, out) -> None:
        tag = op[0]
        if tag == "sev_p2":
            _, d, n = op
            self._severi(out, [3 * d - 3])
            dim = out.checks["dimension_equation"]
            require(dim["lhs"] == (d + 1) * (d + 2) // 2 and dim["rhs"] == 3 * n,
                    "p2 dimension equation")
        elif tag == "sev_fr":
            _, r, a, b, n = op
            self._severi(out, [3 * a - 2, 3 * b - r - 2])
            chi = (a + 1) * (b + 1) - r * a * (a + 1) // 2
            require(frac(out.checks["dimension_equation"]["lhs"]) == (chi, 1), "chi")
            require(("H0_NE_3N" in out.flags) == (h0_hirzebruch(r, a, b) != 3 * n),
                    "h0 flag")
        elif tag == "sev_k3":
            _, deg, d, n = op
            self._severi(out, [3 * d])
        elif tag == "sev_blowup":
            _, k, d, es, n, h0 = op
            self._severi(out, [3 * d - 3] + [1 - 3 * e for e in es])
            require(out.checks["dimension_equation"]["lhs"] == h0, "supplied h0")
        elif tag == "enum_fr":
            _, r, n, filters = op
            for c in out:
                chi = (c.a + 1) * (c.b + 1) - r * c.a * (c.a + 1) // 2
                require(chi == 3 * n and c.verdicts["chi"] is True, "candidate with chi != 3n")
            if not filters or filters == ("chi",):
                require([(c.a, c.b) for c in out] == hirzebruch_solutions(r, n),
                        "solution list")
        elif tag == "enum_k3":
            _, deg, n_max = op
            sols, d = [], 1
            while deg * d * d // 2 + 2 <= 3 * n_max:
                if (deg * d * d // 2 + 2) % 3 == 0:
                    sols.append((d, (deg * d * d // 2 + 2) // 3))
                d += 1
            require([(s.d, s.n) for s in out.solutions] == sols, "k3 solutions")
        elif tag == "ramification":
            _, surf, param, coeffs, n = op
            require(frac(out["gamma2_degree"]) == (5, 1), "gamma2 degree is not 5")
            if surf == "p2":
                g1 = 3 * coeffs[0] - 3
            elif surf == "fr":
                g1 = 3 * coeffs[0] - 2
            else:
                g1 = 3 * coeffs[0] * param
            require(frac(out["gamma1_degree"]) == (g1, 1), "gamma1 degree")
        elif tag == "transport":
            _, r, a, b, beta, n = op
            up, down = out
            require(up.surface.r == r + 1 and down.surface.r == r, "transport target")
            require([frac(c) for c in up.surface_part.coeffs] == [(a, 1), (a + b, 1)],
                    "transport up")
            require([frac(c) for c in down.surface_part.coeffs] == [(a, 1), (b, 1)],
                    "transport down")
            require(frac(up.b_coeff) == (beta, 1) and frac(down.b_coeff) == (beta, 1),
                    "transport keeps B")
        elif tag == "locate":
            walls = self.fixtures[op[1]][2]
            for p, (signs, neg_inside) in zip(op[2], out):
                want = tuple((v > 0) - (v < 0)
                             for v in (sum(a * b for a, b in zip(w, p)) for w in walls))
                require(signs == want, "locate signs")
                require(neg_inside is False, "the negated point is inside a pointed cone")

    def canon(self, op, out) -> str:
        tag = op[0]
        if tag.startswith("sev"):
            return canon(self.sv.result_to_json(out))
        if tag == "enum_fr":
            return canon([[c.a, c.b, c.verdicts, c.passes] for c in out])
        if tag == "enum_k3":
            return canon([[s.d, s.n, s.genus_ok] for s in out.solutions] + [list(out.flags)])
        if tag == "ramification":
            return canon(out)
        if tag == "transport":
            return canon([self.hp.div_to_json(x) for x in out])
        return canon(out)
