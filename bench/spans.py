"""Layer spans recorded from outside the program.

A Tracer wraps the public functions (and public methods) of each hilbcone
module so that every call opens a span: layer, function, parent span, start,
end.  Spans stay in compact arrays until the run ends; self time is a span's
duration minus the durations of its direct children.  While installed, the
tracer also wraps ``fractions.Fraction.__new__`` and credits every
construction to the innermost open span.

Layer names follow the module names, except that ``_linalg`` is reported as
``linalg`` (metric names must start with a letter).
"""

from __future__ import annotations

import inspect
import sys
import time
from array import array
from fractions import Fraction

LAYERS = ("_linalg", "nslattice", "hilbpic", "severi", "chambers", "cli", "reproduce")
LABEL = {m: m.lstrip("_") for m in LAYERS}

# spans of these functions are binned by an argument (see _KEYS)
BUILD_FUNCS = {"cone_from_generators", "dual_description", "intersect_subspace"}
READ_FUNCS = {"contains", "contains_interior", "locate"}
# a traced CLI child ends its stderr with this marker and its span totals
TRACE_MARK = "@@hilbcone-bench-trace@@ "


def _cone_dim(vectors, dim=None):
    if dim is not None:
        return dim
    return len(vectors[0]) if vectors else 0


_KEYS = {
    ("chambers", "cone_from_generators"): _cone_dim,
    ("chambers", "dual_description"): lambda rows, dim: dim,
    ("chambers", "intersect_subspace"): lambda C, basis: C.dim,
    ("nslattice", "h0_hirzebruch"): lambda r, a, b: a,
    ("severi", "enumerate_hirzebruch"): lambda r, n, filters: n,
}


def decade(x: int) -> int:
    x = abs(int(x))
    return len(str(x)) - 1 if x else 0


class Tracer:
    """Span store plus the wrappers that feed it."""

    def __init__(self):
        self.funcs = [("bench", "op")]  # id -> (module, name); id 0 is the root
        self.fid = array("i", [0])
        self.parent = array("i", [-1])
        self.key = array("q", [0])
        self.aux = array("q", [0])
        self.fracs = array("q", [0])
        self.start = array("d", [0.0])
        self.end = array("d", [0.0])
        self.stack = [0]
        self._plan: list | None = None
        self._installed = False

    # -- wrappers -----------------------------------------------------------

    def _wrapper(self, fn, mod: str, name: str):
        fid = len(self.funcs)
        self.funcs.append((mod, name))
        keyfn = _KEYS.get((mod, name))
        fids, parents, keys, auxs = self.fid, self.parent, self.key, self.aux
        fracs, starts, ends, stack = self.fracs, self.start, self.end, self.stack
        clock = time.perf_counter
        count_rays = (mod, name) == ("chambers", "dual_description")

        def wrapper(*args, **kwargs):
            i = len(fids)
            fids.append(fid)
            parents.append(stack[-1])
            keys.append(keyfn(*args, **kwargs) if keyfn is not None else 0)
            auxs.append(0)
            fracs.append(0)
            ends.append(0.0)
            stack.append(i)
            starts.append(clock())
            try:
                out = fn(*args, **kwargs)
            finally:
                ends[i] = clock()
                stack.pop()
            if count_rays:
                auxs[i] = len(out[0])
            return out

        wrapper.__wrapped__ = fn
        wrapper.__name__ = fn.__name__
        wrapper.__qualname__ = fn.__qualname__
        wrapper.__doc__ = fn.__doc__
        return wrapper

    def install(self) -> None:
        """Wrap the public functions and methods of every layer module.

        Every hilbcone namespace holding a reference to a wrapped function is
        patched, so calls through ``from .x import f`` bindings are seen too.
        The wrappers are built once; later installs reapply them.
        """
        if self._installed:
            raise RuntimeError("tracer already installed")
        if self._plan is None:
            self._plan = self._build_plan()
        for owner, name, _old, new in self._plan:
            setattr(owner, name, new)
        self._installed = True

    def uninstall(self) -> None:
        for owner, name, old, _new in reversed(self._plan or ()):
            setattr(owner, name, old)
        self._installed = False

    def _build_plan(self) -> list:
        plan = []
        replace: dict[int, object] = {}
        for mod, m in layer_modules().items():
            for name, obj in list(vars(m).items()):
                if name.startswith("_") or getattr(obj, "__module__", None) != m.__name__:
                    continue
                if inspect.isfunction(obj):
                    replace[id(obj)] = self._wrapper(obj, mod, name)
                elif inspect.isclass(obj):
                    for mname, meth in list(vars(obj).items()):
                        if not mname.startswith("_") and inspect.isfunction(meth):
                            plan.append((obj, mname, meth,
                                         self._wrapper(meth, mod, f"{name}.{mname}")))
        for mname, m in list(sys.modules.items()):
            if mname != "hilbcone" and not mname.startswith("hilbcone."):
                continue
            for name, obj in list(vars(m).items()):
                w = replace.get(id(obj))
                if w is not None and inspect.isfunction(obj):
                    plan.append((m, name, obj, w))
        orig_new = Fraction.__dict__["__new__"]
        plan.append((Fraction, "__new__", orig_new, self._counting_new(orig_new)))
        return plan

    def _counting_new(self, orig):
        fn = orig.__func__
        fracs, stack = self.fracs, self.stack

        def counting_new(cls, *args, **kwargs):
            fracs[stack[-1]] += 1
            return fn(cls, *args, **kwargs)

        return staticmethod(counting_new)

    # -- aggregation ----------------------------------------------------------

    def totals(self) -> dict:
        """Per-layer and per-bin totals over every span recorded so far."""
        n = len(self.fid)
        child = [0.0] * n
        for i in range(1, n):
            p = self.parent[i]
            if p > 0:
                child[p] += self.end[i] - self.start[i]
        layers = {LABEL[m]: [0, 0.0, 0] for m in LAYERS}
        bins: dict[str, list] = {}
        rays = rank_calls = 0
        dd_fid = {f for f, (m, nm) in enumerate(self.funcs) if nm == "dual_description"}
        rank_fid = {f for f, (m, nm) in enumerate(self.funcs)
                    if (m, nm) == ("_linalg", "rank")}
        bench_fracs = self.fracs[0]
        for i in range(1, n):
            mod, name = self.funcs[self.fid[i]]
            self_s = self.end[i] - self.start[i] - child[i]
            row = layers[LABEL[mod]]
            row[0] += 1
            row[1] += self_s
            row[2] += self.fracs[i]
            b = None
            if mod == "chambers" and name in BUILD_FUNCS:
                b = f"chambers.build.d{self.key[i]}"
            elif mod == "chambers" and name in READ_FUNCS:
                b = "chambers.read"
            elif name == "h0_hirzebruch":
                b = f"nslattice.h0.a1e{decade(self.key[i])}"
            elif name == "enumerate_hirzebruch":
                b = f"severi.enumerate.n1e{decade(self.key[i])}"
            if b is not None:
                cell = bins.setdefault(b, [0, 0.0])
                cell[0] += 1
                cell[1] += self_s
            if self.fid[i] in dd_fid:
                rays += self.aux[i]
            elif self.fid[i] in rank_fid and self.fid[self.parent[i]] in dd_fid:
                rank_calls += 1
        return {"layers": layers, "bins": bins, "dd": [rays, rank_calls],
                "bench_fractions": bench_fracs, "spans": n - 1}


def merge_totals(parts) -> dict:
    """Sum totals() results, e.g. from spans gathered in child processes."""
    acc = {"layers": {LABEL[m]: [0, 0.0, 0] for m in LAYERS}, "bins": {},
           "dd": [0, 0], "bench_fractions": 0, "spans": 0}
    for t in parts:
        for k, v in t["layers"].items():
            acc["layers"][k] = [a + b for a, b in zip(acc["layers"][k], v)]
        for k, v in t["bins"].items():
            acc["bins"][k] = [a + b for a, b in zip(acc["bins"].get(k, [0, 0.0]), v)]
        acc["dd"] = [a + b for a, b in zip(acc["dd"], t["dd"])]
        acc["bench_fractions"] += t["bench_fractions"]
        acc["spans"] += t["spans"]
    return acc


def layer_modules() -> dict:
    import importlib

    return {m: importlib.import_module(f"hilbcone.{m}") for m in LAYERS}
