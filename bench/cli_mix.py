"""cli-mix: one ``python -m hilbcone.cli`` subprocess per op.

Each block is one deck of argv lines, one per kind below, with arguments
drawn from the seed and the deck shuffled.  The deck covers every subcommand
and one documented exit-2 input.  Three of the fifteen calls run the full
``reproduce`` report, the slowest call, so the 90th percentile falls in the
middle of that group rather than on its edge, where single calls of other
kinds overlap it.

Expected answers come from closed forms and from the fixture files read as
data, never from hilbcone code.
"""

from __future__ import annotations

import hashlib
import json
import os
import subprocess
import sys
from pathlib import Path

from common import ROOT, SRC, block_rng, canon, require
from spans import TRACE_MARK
import intmath as im

BENCH = Path(__file__).resolve().parent
FIXTURE_DIR = SRC / "hilbcone" / "fixtures"
CALL_TIMEOUT_S = 60

KINDS = ("class_p2", "class_fr", "class_k3", "class_blowup", "enum_fr", "enum_k3",
         "contains", "restrict", "walls_restrict", "transport", "plot",
         "reproduce", "reproduce", "reproduce_json", "bad_input")
WARMUP = "class_p2"

# sha256 of the packaged plot output, pinned to the committed SVG goldens
SVG_SHA256 = {
    "f1n3.json": "c7daa2140eaf255f9d1fd0a9a1453614f37299cef3a779d3ef9fddce9661f063",
    "p2n3.json": "d18520ac459bf20343fea8c435c6c302fcd2d733b794ec501a91b1ad4eec9c05",
    "p2n12_dk.json": "36b2f28e3651edeea76c7bb3a12688c52c1f07440d88571b331c869828c05daa",
    "p2n145_dk.json": "e354d7bbfd1ae9381ef96cafe187353e8bd31a09d291d9ec5751cfdb9f1f66dc",
}
BAD_INPUTS = (
    ("class", "--surface", "fr:x", "--curve", "H", "--n", "1"),
    ("class", "--surface", "k3:5", "--curve", "L", "--n", "2"),
    ("class", "--surface", "p2", "--curve", "7Q", "--n", "3"),
    ("cone", "contains", "--rays", "H,B", "--point", "3Z"),
    ("enumerate", "--surface", "p2"),
)
REPRODUCE_SUMMARY = "37 passed, 3 warned, 0 failed"


def child_env() -> dict:
    env = {k: v for k, v in os.environ.items()
           if k not in ("PYTHONPATH", "HILBCONE_FIXTURES", "PYTHONSTARTUP")}
    env["PYTHONPATH"] = str(SRC)
    return env


def _expr(coeffs, labels) -> str:
    out = ""
    for c, lab in zip(coeffs, labels):
        if c:
            out += f"{'+' if c > 0 and out else ''}{c}{lab}"
    return out


def _fixture(name: str) -> dict:
    return json.loads((FIXTURE_DIR / name).read_text())


def make_op(rng, kind: str):
    """(kind, argv, expectation) for one CLI call."""
    if kind == "class_p2":
        d = rng.randint(1, 40)
        n = rng.randint(1, 3 * d)
        argv = ("class", "--surface", "p2", "--curve", f"{d}H", "--n", str(n))
        return kind, argv, [3 * d - 3]
    if kind == "class_fr":
        r, a = rng.randint(0, 3), rng.randint(0, 30)
        b = a * r + rng.randint(0, 30)
        argv = ("class", "--surface", f"fr:{r}", "--curve", f"{a}E+{b}F",
                "--n", str(rng.randint(1, 200)))
        return kind, argv, [3 * a - 2, 3 * b - r - 2]
    if kind == "class_k3":
        deg, d = rng.choice((4, 6, 8)), rng.randint(1, 20)
        argv = ("class", "--surface", f"k3:{deg}", "--curve", f"{d}L",
                "--n", str(rng.randint(1, 100)))
        return kind, argv, [3 * d]
    if kind == "class_blowup":
        k, d, e = rng.randint(1, 3), rng.randint(1, 20), rng.randint(0, 3)
        curve = f"{d}H-{e}E1" if e else f"{d}H"
        argv = ("class", "--surface", f"blowup:p2:{k}", "--curve", curve,
                "--n", str(rng.randint(1, 100)), "--h0", str(rng.randint(1, 300)))
        return kind, argv, [3 * d - 3, 1 - 3 * e] + [1] * (k - 1)
    if kind == "enum_fr":
        r, n = rng.randint(0, 3), rng.randint(1, 3000)
        return kind, ("enumerate", "--surface", f"fr:{r}", "--n", str(n)), (r, n)
    if kind == "enum_k3":
        deg, nmax = rng.choice((4, 6, 8)), rng.randint(5, 500)
        return kind, ("enumerate", "--k3", str(deg), "--nmax", str(nmax)), (deg, nmax)
    if kind == "contains":
        k, p, q = rng.randint(1, 9), rng.randint(0, 30), rng.randint(0, 20)
        argv = ("cone", "contains", "--rays", f"B,{k}H-B", "--point", f"{p}H-{q}/2B")
        # p H - q/2 B = (p/k)(kH - B) + (p/k - q/2) B
        return kind, argv, (p >= 0 and 2 * p >= q * k, p > 0 and 2 * p > q * k)
    if kind == "restrict":
        while True:
            sub = [tuple(rng.randint(-3, 3) for _ in range(3)) for _ in range(2)]
            if im.rank(sub) == 2:
                break
        exprs = ",".join(_expr(v, "EFB") for v in sub)
        return kind, ("cone", "restrict", "--rays", "E,F,B", f"--subspace={exprs}"), sub
    if kind == "walls_restrict":
        while True:
            sub = [tuple(rng.randint(-2, 2) for _ in range(4)) for _ in range(2)]
            vecs = [(e + h, f + h, b) for e, f, b, h in sub]  # H = E + F on F_1
            if im.rank(vecs) == 2:
                break
        exprs = ",".join(_expr(v, ("E", "F", "B", "H")) for v in sub)
        argv = ("cone", "walls-restrict", "--fixture", "f1n3.json", f"--subspace={exprs}")
        return kind, argv, vecs
    if kind == "transport":
        return kind, ("cone", "transport", "--fixture", "f1n3.json"), None
    if kind == "plot":
        name = rng.choice(sorted(SVG_SHA256))
        return kind, ("plot", "--fixture", name), name
    if kind == "reproduce":
        return kind, ("reproduce",), None
    if kind == "reproduce_json":
        return kind, ("reproduce", "--json"), None
    if kind == "bad_input":
        return kind, rng.choice(BAD_INPUTS), None
    raise ValueError(kind)


class CliMix:
    name = "cli-mix"
    block_seconds = 2.4
    in_process = False

    def __init__(self, seed: int):
        self.seed = seed
        self.env = child_env()
        # traced calls start the same way, through -m, with bench/ importable
        self.traced_env = dict(self.env, PYTHONPATH=os.pathsep.join((str(SRC), str(BENCH))))
        self.traced = False
        self.trace_totals: list[dict] = []

    def setup(self):
        first = self.block(0)
        self.run(make_op(block_rng(self.name + "/warmup", self.seed, 0), WARMUP))
        return first

    def block(self, i: int) -> list:
        rng = block_rng(self.name, self.seed, i)
        ops = [make_op(rng, kind) for kind in KINDS]
        rng.shuffle(ops)
        return ops

    def run(self, op):
        if self.traced:
            cmd = [sys.executable, "-m", "traced_cli", *op[1]]
        else:
            cmd = [sys.executable, "-m", "hilbcone.cli", *op[1]]
        p = subprocess.run(cmd, env=self.traced_env if self.traced else self.env,
                           cwd=ROOT, capture_output=True,
                           timeout=CALL_TIMEOUT_S, text=True)
        stderr = p.stderr
        if self.traced:
            stderr, _, tail = stderr.rpartition(TRACE_MARK)
            self.trace_totals.append(json.loads(tail))
        return p.returncode, p.stdout, stderr

    # -- checks -----------------------------------------------------------

    def check(self, op, out) -> None:
        kind, argv, want = op
        code, stdout, stderr = out
        require("Traceback" not in stderr, f"traceback from {' '.join(argv)}")
        if kind == "bad_input":
            require(code == 2, f"exit {code} != 2 for {' '.join(argv)}")
            require(stderr.startswith("hilbcone: "), "exit-2 message")
            require(len(stderr.strip().splitlines()) == 1, "exit-2 message is one line")
            return
        require(code == 0, f"exit {code} for {' '.join(argv)}: {stderr.strip()[:200]}")
        if kind == "plot":
            digest = hashlib.sha256(stdout.encode()).hexdigest()
            require(digest == SVG_SHA256[want], f"SVG for {want} differs from the golden")
            return
        if kind == "reproduce":
            require(stdout.rstrip("\n").splitlines()[-1] == REPRODUCE_SUMMARY,
                    "reproduce summary")
            return
        doc = json.loads(stdout)
        if kind == "reproduce_json":
            statuses = [c["status"] for c in doc]
            require((statuses.count("PASS"), statuses.count("WARN"), len(statuses))
                    == (37, 3, 40), "reproduce --json statuses")
        elif kind.startswith("class_"):
            require(doc["class"]["surface"]["coeffs"] == [str(c) for c in want],
                    f"class {doc['class']['surface']['coeffs']} != {want}")
            require(doc["class"]["b"] == "-5/2", "B-coefficient is not -5/2")
        elif kind == "enum_fr":
            r, n = want
            for c in doc["candidates"]:
                a, b = c["a"], c["b"]
                require((a + 1) * (b + 1) - r * a * (a + 1) // 2 == 3 * n, "chi != 3n")
        elif kind == "enum_k3":
            deg, nmax = want
            sols = [(s["d"], s["n"]) for s in doc["solutions"]]
            want_sols = [(d, (deg * d * d // 2 + 2) // 3) for d in range(1, 200)
                         if (deg * d * d // 2 + 2) % 3 == 0
                         and (deg * d * d // 2 + 2) // 3 <= nmax]
            require(sols == want_sols, "k3 solutions")
        elif kind == "contains":
            require((doc["contains"], doc["interior"]) == want, "cone membership")
        elif kind == "restrict":
            require(doc["dim"] == 2, "restricted dimension")
            for y in doc["rays"]:
                x = [y[0] * want[0][j] + y[1] * want[1][j] for j in range(3)]
                require(all(v >= 0 for v in x), "restricted ray leaves the orthant")
        elif kind == "walls_restrict":
            walls = _fixture("f1n3.json")["walls"]
            kept, seen, lost = [], set(), []
            for w in walls:
                vals = tuple(im.dot(w["functional"], v) for v in want)
                if not any(vals):
                    lost.append(w["label"])
                    continue
                p = im.primitive(vals)
                if p not in seen:
                    seen.add(p)
                    kept.append(list(p))
            require([w["functional"] for w in doc["wallset"]["walls"]] == kept,
                    "restricted walls")
            require(doc["dropped"] == lost, "dropped walls")
        elif kind == "transport":
            # up from F_0 to F_1 maps E -> E + F, F -> F, B -> B
            walls = _fixture("f1n3.json")["walls"]
            want_walls = [list(im.primitive((f[0] + f[1], f[1], f[2])))
                          for f in (w["functional"] for w in walls)]
            require(doc["surface"] == {"kind": "hirzebruch", "r": 0}, "transport target")
            require([w["functional"] for w in doc["walls"]] == want_walls,
                    "transported walls")

    def canon(self, op, out) -> str:
        return canon([list(op[1]), out[0], out[1]])
