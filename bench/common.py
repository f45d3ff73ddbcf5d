"""Helpers shared by the workloads."""

from __future__ import annotations

import importlib
import json
import random
import sys
from fractions import Fraction
from pathlib import Path

ROOT = Path(__file__).resolve().parent.parent
SRC = ROOT / "src"


class CheckFailed(Exception):
    """An output check found a wrong answer."""


def require(cond: bool, msg: str) -> None:
    if not cond:
        raise CheckFailed(msg)


def block_rng(workload: str, seed: int, block: int) -> random.Random:
    """The generator for one block of inputs; string seeds hash stably."""
    return random.Random(f"{workload}/{seed}/{block}")


def fresh_import(*names: str) -> list:
    """Import hilbcone modules afresh, dropping any earlier copies.

    Set-up is repeated several times in a run, and each repetition must pay
    the full import cost of the program, as a new process would.
    """
    for mod in [m for m in sys.modules if m == "hilbcone" or m.startswith("hilbcone.")]:
        del sys.modules[mod]
    importlib.invalidate_caches()
    return [importlib.import_module(n) for n in names]


def frac(x) -> tuple[int, int]:
    """A rational as (numerator, denominator) ints, for exact comparison."""
    if isinstance(x, Fraction):
        return (x.numerator, x.denominator)
    if isinstance(x, int) and not isinstance(x, bool):
        return (x, 1)
    raise CheckFailed(f"expected an exact rational, got {type(x).__name__}")


def canon(obj) -> str:
    """Canonical text of an output, for the digest."""
    return json.dumps(obj, sort_keys=True, separators=(",", ":"), default=str)
