"""Command line front end.

Every subcommand is a thin shim over the library: parse flags, call one
function, serialize the result.  A result dataclass becomes its JSON payload
through `dataclasses.asdict`, so the keys are its field names, and
`--format table` renders that same payload: `_table` writes columns under a
header of field names, one line per record.  Exit codes: 0 for success (math
check failures are reported in the output, not the exit code), 1 when the
reproduction run has a failing case, 2 for unusable input.
"""

from __future__ import annotations

import argparse
import json
import re
import sys
from collections import Counter
from dataclasses import asdict
from fractions import Fraction

from . import chambers as ch
from . import nslattice as ns
from . import reproduce as rp
from . import severi as sv


class CLIError(Exception):
    pass


# blow_up writes a dense Gram matrix, so its cost grows with the square of
# the number of exceptional classes; nested blowups count together
MAX_BLOWUP_POINTS = 100


def parse_surface(spec: str) -> ns.SurfaceLattice:
    parts = spec.split(":")
    try:
        if parts == ["p2"]:
            return ns.make_p2()
        if parts[0] == "fr" and len(parts) == 2:
            return ns.make_hirzebruch(int(parts[1]))
        if parts[0] == "k3" and len(parts) == 2:
            return ns.make_k3(int(parts[1]))
        if parts[0] == "blowup" and len(parts) >= 3:
            base = parse_surface(":".join(parts[1:-1]))
            k = int(parts[-1])
            points = base.blown_up_points + k
            if points > MAX_BLOWUP_POINTS:
                raise CLIError(
                    f"{points} blown-up points in all; the cap is {MAX_BLOWUP_POINTS}")
            return ns.blow_up(base, k)
    except (ValueError, CLIError) as exc:
        raise CLIError(f"bad surface spec {spec!r}: {exc}") from exc
    raise CLIError(
        f"bad surface spec {spec!r}; expected p2, fr:<r>, k3:<deg> or blowup:<base>:<k>")


_TERM = re.compile(r"([+-]?)(\d+(?:/\d+)?)?([A-Za-z][A-Za-z0-9]*)")


def parse_terms(expr: str) -> list[tuple[Fraction, str]]:
    """Sums of <rational><label>, whitespace-insensitive, e.g. 25H-7/2B."""
    s = "".join(expr.split())
    if not s:
        raise CLIError("empty class expression")
    pos, out = 0, []
    while pos < len(s):
        m = _TERM.match(s, pos)
        if m is None:
            raise CLIError(f"cannot parse {expr!r} near {s[pos:]!r}")
        sign, num, label = m.groups()
        try:
            coeff = Fraction(num) if num else Fraction(1)
        except ZeroDivisionError:
            raise CLIError(f"zero denominator in {expr!r}") from None
        out.append((-coeff if sign == "-" else coeff, label))
        pos = m.end()
    return out


_BASIS_PRIORITY = ("H", "E", "F", "L", "B")


def _infer_basis(term_lists) -> list[str]:
    labels = {label for terms in term_lists for _, label in terms}
    unknown = labels - set(_BASIS_PRIORITY)
    if unknown:
        raise CLIError(
            f"unknown labels {sorted(unknown)}; bare cone expressions use H,E,F,L,B")
    return [lab for lab in _BASIS_PRIORITY if lab in labels]


def _vector(terms, label_map, where: str) -> tuple:
    """The vector of parsed terms, each label read from an ns.label_map."""
    v = [0] * len(next(iter(label_map.values())))
    for coeff, label in terms:
        if label not in label_map:
            raise CLIError(f"no class named {label!r} {where}")
        v = [a + coeff * b for a, b in zip(v, label_map[label])]
    return tuple(v)


def _table(columns, records) -> list[str]:
    """A header line of column names, then one line per record."""
    return [" ".join(columns)] + [" ".join(str(r[c]) for c in columns) for r in records]


def _emit(args, payload: dict, table_lines) -> None:
    if args.format == "json":
        print(json.dumps(payload, indent=2))
    else:
        for line in table_lines:
            print(line)


def cmd_class(args) -> int:
    S = parse_surface(args.surface)
    terms = parse_terms(args.curve)
    if any(lab == "B" for _, lab in terms):
        raise CLIError("curve classes live on the surface; B cannot appear")
    C = ns.make_class(S, _vector(terms, ns.label_map(S.basis_labels, S.kind, S.r),
                                 "on this surface"))
    if any(c.denominator != 1 for c in C.coeffs):
        raise CLIError("curve classes must be integral")
    if args.subcollection is not None and S.kind != "p2":
        raise CLIError("--subcollection applies to the plane only")
    if args.codim and S.kind != "p2":
        raise CLIError("--codim applies to the plane only")
    if args.subcollection is not None:
        if args.h0 is not None:
            raise CLIError("--h0 does not apply with --subcollection")
        res = sv.severi_class_subcollection(int(C.coeffs[0]), args.n, args.subcollection,
                                            args.codim)
    else:
        res = sv.severi_class_general(S, C, args.n, h0=args.h0, codim=args.codim)
    payload = sv.result_to_json(res)
    lines = ["class: " + payload["pretty"]]
    if "normalized_ray_pretty" in payload:
        lines.append("normalized_ray: " + payload["normalized_ray_pretty"])
    for name, val in payload["checks"].items():
        if isinstance(val, dict):
            val = " ".join(f"{k}={v}" for k, v in val.items())
        lines.append(f"{name}: {val}")
    lines.append("flags: " + (", ".join(payload["flags"]) or "none"))
    _emit(args, payload, lines)
    return 0


def cmd_enumerate(args) -> int:
    if args.k3 is not None:
        for flag in ("surface", "n", "filters"):
            if getattr(args, flag) is not None:
                raise CLIError(f"--{flag} does not apply with --k3")
        if args.nmax is None:
            raise CLIError("--k3 needs --nmax")
        payload = asdict(sv.enumerate_k3(args.k3, args.nmax))
        _emit(args, payload, _table(("d", "n", "genus_ok"), payload["solutions"])
              + ["flags: " + (", ".join(payload["flags"]) or "none")])
        return 0
    if args.nmax is not None:
        raise CLIError("--nmax applies with --k3 only")
    if args.surface is None:
        raise CLIError("need --surface or --k3")
    if args.n is None:
        raise CLIError("need --n")
    S = parse_surface(args.surface)
    if S.kind == "p2":
        if args.filters is not None:
            raise CLIError("--filters applies to fr:<r> surfaces only")
        payload = {"candidates": [asdict(c) for c in sv.enumerate_p2(args.n)]}
        _emit(args, payload, _table(("d", "n", "treger_birational", "treger_exception"),
                                    payload["candidates"]))
        return 0
    if S.kind == "hirzebruch":
        filters = tuple(f for f in (args.filters or "").split(",") if f)
        cands = sv.enumerate_hirzebruch(S.r, args.n, filters)
        payload = {"candidates": [asdict(c) for c in cands]}
        _emit(args, payload, _table(("a", "b", *sv.HIRZEBRUCH_FILTERS),
                                    [c | c["verdicts"] for c in payload["candidates"]]))
        return 0
    raise CLIError("enumeration covers p2, fr:<r> and --k3 surfaces")


def cmd_cone(args) -> int:
    if args.action == "contains":
        if not args.rays or not args.point:
            raise CLIError("contains needs --rays and --point")
        ray_terms = [parse_terms(e) for e in args.rays.split(",")]
        point_terms = parse_terms(args.point)
        basis = _infer_basis(ray_terms + [point_terms])
        labels = ns.label_map(basis)
        C = ch.cone_from_generators([_vector(t, labels, "here") for t in ray_terms])
        p = _vector(point_terms, labels, "here")
        payload = {
            "basis": basis,
            "contains": ch.contains(C, p),
            "interior": ch.contains_interior(C, p),
        }
        _emit(args, payload, [f"contains: {payload['contains']}",
                              f"interior: {payload['interior']}"])
        return 0
    if args.action == "restrict":
        if not args.rays or not args.subspace:
            raise CLIError("restrict needs --rays and --subspace")
        ray_terms = [parse_terms(e) for e in args.rays.split(",")]
        sub_exprs = args.subspace.split(",")
        sub_terms = [parse_terms(e) for e in sub_exprs]
        basis = _infer_basis(ray_terms + sub_terms)
        labels = ns.label_map(basis)
        C = ch.cone_from_generators([_vector(t, labels, "here") for t in ray_terms])
        D = ch.intersect_subspace(C, [_vector(t, labels, "here") for t in sub_terms])
        payload = {"ambient_basis": basis, "subspace": sub_exprs} | asdict(D)
        _emit(args, payload, [json.dumps(payload)])
        return 0
    if not args.fixture:
        raise CLIError(f"{args.action} needs --fixture")
    fx = ch.load_fixture(args.fixture)
    if args.action == "walls-restrict":
        if not args.subspace:
            raise CLIError("walls-restrict needs --subspace")
        ws = fx.wallset
        labels = ns.label_map(ws.basis_labels, ws.surface_kind, ws.surface_r)
        sub_exprs = args.subspace.split(",")
        vecs = [_vector(parse_terms(e), labels, "in this fixture") for e in sub_exprs]
        restricted, dropped = ch.restrict_walls(fx.wallset, vecs, labels=sub_exprs)
        payload = {
            "wallset": ch.wallset_to_json(restricted),
            "dropped": [w.label for w in dropped],
        }
        _emit(args, payload, [json.dumps(payload)])
        return 0
    if args.action == "transport":
        down = ch.transport_wallset_down(fx.wallset)
        payload = ch.wallset_to_json(down)
        _emit(args, payload, [json.dumps(payload)])
        return 0
    raise CLIError(f"unknown cone action {args.action!r}")


def cmd_plot(args) -> int:
    fx = ch.load_fixture(args.fixture)
    svg = ch.cross_section_svg(fx.wallset, fx.marks)
    if args.out:
        with open(args.out, "w") as f:
            f.write(svg)
    else:
        sys.stdout.write(svg)
    return 0


def cmd_reproduce(args) -> int:
    results = [asdict(r) for r in rp.run(args.filter)]
    if args.json:
        print(json.dumps(results, indent=2))
    else:
        for r in results:
            print(f"{r['status']:4} {r['id']}: {r['detail']}")
        counts = Counter(r["status"] for r in results)
        print(f"{counts['PASS']} passed, {counts['WARN']} warned, "
              f"{counts['FAIL']} failed")
    return 1 if any(r["status"] == "FAIL" for r in results) else 0


def build_parser() -> argparse.ArgumentParser:
    top = argparse.ArgumentParser(
        prog="hilbcone",
        description="Divisor classes and cone walls on Hilbert schemes of points")
    sub = top.add_subparsers(dest="command", required=True)

    p = sub.add_parser("class", help="Severi divisor class for a curve class")
    p.add_argument("--surface", required=True,
                   help="p2 | fr:<r> | k3:<deg> | blowup:<base>:<k>")
    p.add_argument("--curve", required=True, help="class expression, e.g. 7H or 7E+7F")
    p.add_argument("--n", type=int, required=True, help="number of nodes")
    p.add_argument("--codim", type=int, default=0,
                   help="codimension of the linear subsystem (plane only)")
    p.add_argument("--subcollection", type=int, default=None, metavar="M",
                   help="total points M with only n of them nodes (plane only)")
    p.add_argument("--h0", type=int, default=None,
                   help="section count; replaces the computed one on every surface "
                        "and is required on blowups (rejected with --subcollection)")
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.set_defaults(func=cmd_class)

    p = sub.add_parser("enumerate", help="solve the dimension relation")
    p.add_argument("--surface", help="p2 | fr:<r>")
    p.add_argument("--n", type=int, help="number of nodes")
    p.add_argument("--filters", help="comma list from: " + ",".join(sv.HIRZEBRUCH_FILTERS))
    p.add_argument("--k3", type=int, choices=[4, 6, 8], help="K3 polarization degree")
    p.add_argument("--nmax", type=int, help="largest n for the K3 search")
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.set_defaults(func=cmd_enumerate)

    p = sub.add_parser("cone", help="cone and wall-set operations")
    p.add_argument("action", choices=["restrict", "contains", "walls-restrict",
                                      "transport"])
    p.add_argument("--rays", help="comma list of class expressions")
    p.add_argument("--point", help="class expression to test")
    p.add_argument("--subspace", help="comma list of class expressions")
    p.add_argument("--fixture", help="fixture name or path")
    p.add_argument("--format", choices=["json", "table"], default="json")
    p.set_defaults(func=cmd_cone)

    p = sub.add_parser("plot", help="render a fixture cross-section to SVG")
    p.add_argument("--fixture", required=True)
    p.add_argument("--out", help="output path (stdout when omitted)")
    p.set_defaults(func=cmd_plot)

    p = sub.add_parser("reproduce", help="run every recorded worked example")
    p.add_argument("--json", action="store_true")
    p.add_argument("--filter", help="substring filter on case ids")
    p.set_defaults(func=cmd_reproduce)

    return top


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except CLIError as exc:
        print(f"hilbcone: {exc}", file=sys.stderr)
        return 2
    except (ValueError, OSError, KeyError, json.JSONDecodeError) as exc:
        print(f"hilbcone: {exc}", file=sys.stderr)
        return 2


if __name__ == "__main__":
    sys.exit(main())
