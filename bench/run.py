"""hilbcone benchmark: one closed-loop client, one workload per run.

    python3 bench/run.py --workload cone-build --seed 1 --seconds 20 --trace 0

Run from the root of a source checkout; the program is imported from
``src/`` there and nowhere else.  Each op starts only after the previous one
finished; there are no threads and at most one child process at a time.

Workloads (see the module of each): ``cli-mix`` runs the CLI in a subprocess
per op, ``cone-build`` builds and restricts cones in-process, and
``class-query`` computes Severi classes, enumerations and wall-set reads
in-process.  Inputs come from ``--seed`` in blocks of fixed composition.

Every time is taken at a nominal host speed.  A shared cloud host can switch
between speeds that differ by up to ~1.8x (seen on a 2-vCPU Xeon VM), often
within seconds and for minutes at a time, which no run length averages out.
The vCPUs of such a host change speed independently of each other, so the
run is pinned to one CPU, and a short, fixed, stdlib-only reference loop
(``_reference_loop``, which calls no program code and makes no ``Fraction``)
is timed before the first op of a block and after every group of ops that
took ``REF_EVERY_S`` (one op, unless ops are short).  Each op's wall time is
scaled by ``REF_S`` over the mean of the two reference times around its
group: an op that takes as long as 400 reference loops reads as
400 * ``REF_S``.  A change to the program moves the scaled time as it moves
the wall time; a change in host speed moves the op and the reference loop
alike and cancels out.  Set-ups are scaled the same way, and per-layer span
times by the traced pass's overall factor; the child start-up and import
probes of the traced run are wall times.  The report holds the unscaled
figures and the spread of the host factor.

With ``--trace 0`` the run times whole blocks until ``--seconds`` of wall
op time has passed and reports the end-to-end metrics: ``ops_per_s`` is the
median over blocks of a block's ops per second of scaled op time,
``op_ms.p50``/``op_ms.p90`` are over all ops, ``setup_s`` is the median of
nine set-ups (fresh import, input generation, fixture loading and one
warm-up op), and ``peak_rss_mb`` is the peak resident memory of this
process, or of the largest CLI child on cli-mix.  With ``--trace 1`` it runs a
fixed number of blocks (set by ``--seconds``), each once untraced and once
with layer spans recorded, and reports the per-layer metrics; counts repeat
exactly for a given seed and ``--seconds``.

Every op's output is checked against answers the benchmark works out
itself; for the default seed the first block's outputs must also match the
digests in ``digests.json``.  The last stdout line is the result object; the
line before it is a full report with machine details, sample counts and
every per-layer figure, including those that BENCHMARK.json does not list.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import re
import resource
import statistics
import subprocess
import sys
import time
from math import gcd
from pathlib import Path

from class_query import ClassQuery
from cli_mix import CliMix, child_env
from common import ROOT, SRC, CheckFailed
from cone_build import ConeBuild
from spans import LABEL, LAYERS, Tracer, merge_totals

BENCH = Path(__file__).resolve().parent
DEFAULT_SEED = 1
N_SETUP = 9
N_CHILD_PROBES = 5
MODULES = ("hilbcone", "hilbcone._linalg", "hilbcone.nslattice", "hilbcone.hilbpic",
           "hilbcone.severi", "hilbcone.chambers", "hilbcone.reproduce", "hilbcone.cli")


def fail(msg: str) -> None:
    print(f"bench: {msg}", file=sys.stderr)
    sys.exit(2)


def load_spec() -> dict:
    path = ROOT / "BENCHMARK.json"
    if not path.is_file():
        fail(f"{path.name} not found at the checkout root")
    return json.loads(path.read_text())


def check_checkout() -> None:
    if not (SRC / "hilbcone" / "__init__.py").is_file():
        fail("no src/hilbcone in this checkout; run from the root of a hilbcone source tree")
    sys.path.insert(0, str(SRC))
    import hilbcone

    if Path(hilbcone.__file__).resolve().parent != SRC / "hilbcone":
        fail(f"hilbcone imported from {hilbcone.__file__}, not from this checkout")


def make_workload(name: str, seed: int):
    table = {w.name: w for w in (CliMix, ConeBuild, ClassQuery)}
    if name not in table:
        fail(f"unknown workload {name!r}; choose from {sorted(table)}")
    return table[name](seed)


# -- host speed ----------------------------------------------------------------

# ops run back to back until this much op time has passed, then the reference
# loop runs: short ops stay warm in the caches, as in a caller's own loop
REF_EVERY_S = 0.02

# time of one _reference_loop at the nominal host speed (about that of an
# uncontended 2.1 GHz Xeon core with CPython 3.11)
REF_S = 0.00015


def _add(p, q):
    n, d = p[0] * q[1] + q[0] * p[1], p[1] * q[1]
    g = gcd(n, d)
    return n // g, d // g


def _reference_loop() -> None:
    """Rational sums on int pairs, an integer elimination and dict updates:
    the kinds of work the program does, without calling it."""
    s = (0, 1)
    for i in range(1, 120):
        s = _add(s, (i % 7 - 3, i % 11 + 1))
    m = [[(i * j + 3) % 17 - 8 for j in range(6)] for i in range(6)]
    for k in range(5):
        for i in range(k + 1, 6):
            m[i] = [m[k][k] * a - m[i][k] * b for a, b in zip(m[i], m[k])]
    seen: dict = {}
    for i in range(300):
        key = (i % 13, str(i % 7))
        seen[key] = seen.get(key, 0) + i


def reference_s() -> float:
    """Median seconds of three reference loops run now; the median drops a
    loop slowed by an interrupt or by caches left cold by the op before."""
    times = []
    for _ in range(3):
        t0 = time.perf_counter()
        _reference_loop()
        times.append(time.perf_counter() - t0)
    return statistics.median(times)


# -- running ops ---------------------------------------------------------------


class Tally:
    """Op latencies, failures and the block-0 digests of one pass."""

    def __init__(self, wl, digests):
        self.wl = wl
        self.expected = digests
        self.op_s: list[float] = []  # scaled to the nominal host speed
        self.raw_s: list[float] = []  # wall time
        self.host: list[float] = []  # reference time over REF_S, per op
        self.blocks: list[tuple[int, float]] = []  # (ops, scaled seconds) per block
        self.failed = 0
        self.errors: list[str] = []
        self.block0: list[str] = []

    def run_block(self, ops, index: int, tracer: Tracer | None = None) -> float:
        """Run and check one block; return its wall op time.  A tracer, if
        given, is installed around the ops only, so that the checks, which
        call the program too, add no spans."""
        if tracer is not None:
            tracer.install()
        try:
            outs = self._run_ops(ops)
        finally:
            if tracer is not None:
                tracer.uninstall()
        self.blocks.append((len(ops), sum(self.op_s[-len(ops):])))
        for j, (op, (out, err)) in enumerate(zip(ops, outs)):
            self._check(op, out, err, index, j)
        return sum(self.raw_s[-len(ops):])

    def _run_ops(self, ops) -> list:
        outs, group = [], []
        before = reference_s()
        for k, op in enumerate(ops):
            t0 = time.perf_counter()
            try:
                out, err = self.wl.run(op), None
            except Exception as exc:  # noqa: BLE001 - a failed op is counted, not fatal
                out, err = None, exc
            group.append(time.perf_counter() - t0)
            outs.append((out, err))
            if sum(group) < REF_EVERY_S and k + 1 < len(ops):
                continue
            after = reference_s()
            host = (before + after) / (2 * REF_S)
            before = after
            self.raw_s += group
            self.host += [host] * len(group)
            self.op_s += [raw / host for raw in group]
            group = []
        return outs

    def _check(self, op, out, err, index, j) -> None:
        msg = None
        if err is not None:
            msg = f"raised {type(err).__name__}: {err}"
        else:
            try:
                self.wl.check(op, out)
            except CheckFailed as exc:
                msg = f"check: {exc}"
            except Exception as exc:  # noqa: BLE001 - malformed output fails the op
                msg = f"check raised {type(exc).__name__}: {exc}"
            if index == 0:
                digest = hashlib.sha256(self.wl.canon(op, out).encode()).hexdigest()[:16]
                self.block0.append(digest)
                if (msg is None and self.expected is not None
                        and (j >= len(self.expected) or self.expected[j] != digest)):
                    msg = "output differs from the digest recorded for the default seed"
        if msg is not None:
            self.failed += 1
            if len(self.errors) < 20:
                self.errors.append(f"block {index} op {j}: {msg}")


def summary(tally: Tally) -> dict:
    op_s = tally.op_s
    ms = [x * 1000 for x in op_s]
    return {
        "ops": len(ms),
        "blocks": len(tally.blocks),
        "ops_per_s": statistics.median(n / s for n, s in tally.blocks),
        "ops_per_s.mean": len(ms) / sum(op_s),
        "op_ms.p50": statistics.median(ms),
        "op_ms.p90": statistics.quantiles(ms, n=10)[8] if len(ms) >= 2 else ms[0],
        "p90_samples_beyond": len(ms) - int(0.9 * len(ms)),
    }


def raw_summary(tally: Tally) -> dict:
    """Wall-time figures, before scaling to the nominal host speed."""
    ms = [x * 1000 for x in tally.raw_s]
    return {
        "ops_per_s": len(ms) * 1000 / sum(ms),
        "op_ms.p50": statistics.median(ms),
        "op_ms.p90": statistics.quantiles(ms, n=10)[8] if len(ms) >= 2 else ms[0],
        "host_factor.p10_p50_p90": statistics.quantiles(tally.host, n=10)[::4],
    }


def timed_setup(wl) -> tuple[float, list[float], list[float], list]:
    """Median scaled set-up time, every scaled and wall time, and block 0."""
    times, raw, first = [], [], None
    before = reference_s()
    for _ in range(N_SETUP):
        t0 = time.perf_counter()
        first = wl.setup()
        raw.append(time.perf_counter() - t0)
        after = reference_s()
        times.append(raw[-1] * 2 * REF_S / (before + after))
        before = after
    return statistics.median(times), times, raw, first


def untraced_run(wl, first, seconds: float, tally: Tally) -> None:
    spent, i, ops = 0.0, 0, first
    while spent < seconds:
        spent += tally.run_block(ops, i)
        i += 1
        ops = wl.block(i)


# -- traced run ---------------------------------------------------------------


def probe_children(env) -> dict:
    """Interpreter start-up and per-module import time, from child processes."""
    start = []
    for _ in range(N_CHILD_PROBES):
        t0 = time.perf_counter()
        subprocess.run([sys.executable, "-c", "pass"], env=env, cwd=ROOT, check=True)
        start.append((time.perf_counter() - t0) * 1000)
    per_mod: dict[str, list[float]] = {m: [] for m in MODULES}
    for _ in range(N_CHILD_PROBES):
        p = subprocess.run([sys.executable, "-X", "importtime", "-c", "import hilbcone.cli"],
                           env=env, cwd=ROOT, check=True, capture_output=True, text=True)
        for line in p.stderr.splitlines():
            m = re.match(r"import time:\s+(\d+) \|\s+\d+ \|\s*(\S+)$", line)
            if m and m.group(2) in per_mod:
                per_mod[m.group(2)].append(int(m.group(1)) / 1000)
    out = {"interp.startup_ms": statistics.median(start)}
    for mod, vals in per_mod.items():
        if len(vals) != N_CHILD_PROBES:
            fail(f"-X importtime did not report {mod}")
        short = mod.split(".")[-1].lstrip("_")
        out[f"import.{short}_ms"] = statistics.median(vals)
    return out


def traced_run(wl, first, seconds: float, plain: Tally, traced: Tally) -> dict:
    n_blocks = max(1, round(seconds / (2 * wl.block_seconds)))
    tracer = Tracer()
    ops = first
    for i in range(n_blocks):
        if i:
            ops = wl.block(i)
        plain.run_block(ops, i)
        if wl.in_process:
            traced.run_block(ops, i, tracer)
        else:
            wl.traced = True
            traced.run_block(ops, i)
            wl.traced = False
    return tracer.totals() if wl.in_process else merge_totals(wl.trace_totals)


def layer_metrics(totals: dict, n_ops: int, plain_s: float, traced_s: float,
                  scale: float) -> dict:
    """Per-layer figures; span times are scaled by ``scale``, the traced
    pass's scaled op time over its wall op time."""
    out = {}
    for layer in (LABEL[m] for m in LAYERS):
        calls, self_s, fracs = totals["layers"][layer]
        out[f"{layer}.calls"] = calls
        out[f"{layer}.self_ms"] = self_s * scale * 1000 / n_ops
        out[f"{layer}.fractions"] = fracs / n_ops
    for d in (3, 4, 5):
        out[f"chambers.build.calls.d{d}"] = 0
        out[f"chambers.build.self_ms.d{d}"] = 0.0
    for name, (calls, self_s) in sorted(totals["bins"].items()):
        head, _, tail = name.rpartition(".")
        if name == "chambers.read":
            out["chambers.read.calls"] = calls
            out["chambers.read.self_ms"] = self_s * scale * 1000 / n_ops
        else:
            out[f"{head}.calls.{tail}"] = calls
            out[f"{head}.self_ms.{tail}"] = self_s * scale * 1000 / n_ops
    rays, rank_calls = totals["dd"]
    out["chambers.dd.rays"] = rays
    out["chambers.dd.rank_calls"] = rank_calls
    out["chambers.dd.rays_per_rank_call"] = rays / rank_calls if rank_calls else 0.0
    out["trace.ops"] = n_ops
    out["trace.spans"] = totals["spans"]
    out["trace.bench_fractions"] = totals["bench_fractions"] / n_ops
    out["trace.overhead_frac"] = 1 - plain_s / traced_s
    return out


# -- report ----------------------------------------------------------------


def machine() -> dict:
    cpu = platform.processor() or None
    try:
        with open("/proc/cpuinfo") as f:
            for line in f:
                if line.startswith("model name"):
                    cpu = line.split(":", 1)[1].strip()
                    break
    except OSError:
        pass
    return {"nproc": os.cpu_count(), "cpu": cpu, "python": platform.python_version(),
            "git_sha": git_sha()}


def git_sha() -> str | None:
    git = ROOT / ".git"
    try:
        head = (git / "HEAD").read_text().strip()
        if not head.startswith("ref: "):
            return head
        ref = head[5:]
        if (git / ref).is_file():
            return (git / ref).read_text().strip()
        for line in (git / "packed-refs").read_text().splitlines():
            if line.endswith(" " + ref):
                return line.split()[0]
    except OSError:
        pass
    return None


def main(argv=None) -> int:
    ap = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    ap.add_argument("--workload", required=True)
    ap.add_argument("--seed", type=int, default=DEFAULT_SEED)
    ap.add_argument("--seconds", type=float, default=10)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    args = ap.parse_args(argv)
    if args.seconds <= 0:
        fail("--seconds must be positive")

    spec = load_spec()
    check_checkout()
    # the reference loop must run on the CPU the ops run on, and the vCPUs of
    # a shared host change speed independently: pin this process, and so every
    # child it starts, to one CPU
    if hasattr(os, "sched_setaffinity"):
        os.sched_setaffinity(0, {min(os.sched_getaffinity(0))})
    wl = make_workload(args.workload, args.seed)
    recorded = json.loads((BENCH / "digests.json").read_text())
    expected = recorded.get(wl.name) if args.seed == DEFAULT_SEED else None

    setup_s, setup_runs, setup_raw, first = timed_setup(wl)
    plain = Tally(wl, expected)
    metrics: dict = {"setup_s": setup_s}
    report: dict = {"workload": wl.name, "seed": args.seed, "seconds": args.seconds,
                    "trace": args.trace, "setup_runs_s": setup_runs,
                    "setup_runs_wall_s": setup_raw, "ref_s": REF_S,
                    "digest_checked": expected is not None, "machine": machine()}
    if args.trace:
        traced = Tally(wl, expected)
        totals = traced_run(wl, first, args.seconds, plain, traced)
        plain_s, traced_s = sum(plain.op_s), sum(traced.op_s)
        scale = traced_s / sum(traced.raw_s)
        metrics.update(layer_metrics(totals, len(traced.op_s), plain_s, traced_s, scale))
        metrics.update(probe_children(child_env()))
        report["traced_ops_per_s"] = len(traced.op_s) / traced_s
        report["untraced_ops_per_s"] = len(plain.op_s) / plain_s
        tallies = (plain, traced)
    else:
        untraced_run(wl, first, args.seconds, plain)
        metrics.update(summary(plain))
        report["wall"] = raw_summary(plain)
        who = resource.RUSAGE_SELF if wl.in_process else resource.RUSAGE_CHILDREN
        metrics["peak_rss_mb"] = resource.getrusage(who).ru_maxrss / 1024  # KiB on Linux
        tallies = (plain,)

    attempted = sum(len(t.op_s) for t in tallies)
    failed = sum(t.failed for t in tallies)
    metrics["fail_frac"] = failed / attempted
    report["block0_digests"] = plain.block0
    report["errors"] = [e for t in tallies for e in t.errors]
    report["metrics"] = metrics
    for e in report["errors"]:
        print(f"bench: {e}", file=sys.stderr)

    wanted = spec["per_layer"] if args.trace else spec["end_to_end"]
    result = {"correct": failed == 0, "attempted": attempted, "failed": failed,
              "metrics": {m["name"]: {"value": metrics[m["name"]], "unit": m["unit"]}
                          for m in wanted}}
    print(json.dumps({"report": report}))
    print(json.dumps(result))
    return 0


if __name__ == "__main__":
    sys.exit(main())
