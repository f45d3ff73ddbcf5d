"""Seeded fuzz of the CLI input contract.

Every argv, well formed or not, must end in exit 0, 1 or 2 within a second.
argparse rejects what it cannot parse with SystemExit(2); anything it lets
through and the program refuses exits 2 with exactly one `hilbcone: ` line.
No other exception may escape.  Sizes stay small (--n and --nmax at most
10^4, at most five blown-up points) so that the run stays fast.
"""

import json
import random
import time
from pathlib import Path

from hilbcone import cli, severi as sv

FIXTURES = Path(sv.__file__).parent / "fixtures"
LABELS = ("H", "E", "F", "L", "B", "E1", "E2", "Q", "h")
JUNK = (None, True, -1, 0, 2.5, float("inf"), "x", "", [], [0], [[]], {}, {"a": 1},
        [None, 0, 0], ["1/2", 0, 0], [1, 0, 0, 0], {"kind": "hirzebruch", "r": 1})


def _number(rng):
    if rng.random() < 0.75:
        return str(rng.choice((rng.randint(-3, 12), rng.randint(0, 10_000))))
    return rng.choice(("-0", "1/2", "3/0", "x", "", "1e3", "0x10", " 7"))


def _surface(rng):
    return rng.choice((
        "p2", "P2", "fr:0", "fr:1", f"fr:{rng.randint(-2, 6)}", "fr:", "fr:x", "fr:1:2",
        f"k3:{rng.choice((2, 4, 5, 6, 8, -4, 0))}", "k3", f"blowup:p2:{rng.randint(-1, 5)}",
        f"blowup:fr:1:{rng.randint(0, 5)}", "blowup:p2", "blowup:k3:4:2", "", ":", "cubic"))


def _expr(rng):
    if rng.random() < 0.15:
        return rng.choice(("", "+", "-", "3", "7H-", "H+-B", "1/0H", "2/3/4H", "H H",
                           "ÄH", "H,B", "0H", "--H"))
    terms = []
    for _ in range(rng.randint(1, 3)):
        coeff = rng.choice(("", str(rng.randint(0, 40)), f"{rng.randint(0, 9)}/{rng.randint(1, 4)}"))
        terms.append(rng.choice(("", "+", "-")) + coeff + rng.choice(LABELS))
    return "".join(terms)


def _exprs(rng):
    return ",".join(_expr(rng) for _ in range(rng.randint(1, 4)))


def _fixture(rng, tmp_path, i):
    """A packaged fixture name, a missing one, or a tmp copy with one field broken."""
    name = rng.choice(sorted(p.name for p in FIXTURES.glob("*.json")))
    roll = rng.random()
    if roll < 0.25:
        return name
    if roll < 0.3:
        return "no_such_fixture.json"
    raw = json.loads((FIXTURES / name).read_text())
    key = rng.choice(("n", "basis", "bounding_cone", "walls", "labels", "surface"))
    if roll < 0.4:
        raw.pop(key)
    elif roll < 0.7 or not isinstance(raw.get(key), list) or not raw[key]:
        raw[key] = rng.choice(JUNK)
    else:
        j = rng.randrange(len(raw[key]))
        entry = raw[key][j]
        if isinstance(entry, dict):
            field = rng.choice(sorted(entry))
            entry[field] = rng.choice(JUNK)
        elif isinstance(entry, list) and entry:
            entry[rng.randrange(len(entry))] = rng.choice(JUNK)
        else:
            raw[key][j] = rng.choice(JUNK)
    path = tmp_path / f"fx{i}.json"
    text = json.dumps(raw)
    path.write_text(text if rng.random() > 0.05 else text[: len(text) // 2])
    return str(path)


def _flag(rng, argv, flag, value, p=0.9):
    if rng.random() < p:
        argv += [flag, value]


def _argv(rng, tmp_path, i):
    command = rng.choice(("class", "class", "enumerate", "cone", "cone", "plot", "reproduce"))
    argv = [command]
    if command == "class":
        _flag(rng, argv, "--surface", _surface(rng))
        _flag(rng, argv, "--curve", _expr(rng))
        _flag(rng, argv, "--n", _number(rng))
        _flag(rng, argv, "--codim", _number(rng), 0.2)
        _flag(rng, argv, "--h0", _number(rng), 0.3)
        _flag(rng, argv, "--subcollection", _number(rng), 0.2)
    elif command == "enumerate":
        if rng.random() < 0.3:
            _flag(rng, argv, "--k3", rng.choice(("4", "6", "8", "5", "x")))
            _flag(rng, argv, "--nmax", _number(rng))
        else:
            _flag(rng, argv, "--surface", _surface(rng))
            _flag(rng, argv, "--n", _number(rng))
            _flag(rng, argv, "--filters", rng.choice(
                ("", ",", "x", ",".join(rng.sample(sv.HIRZEBRUCH_FILTERS, 2)))), 0.3)
    elif command == "cone":
        action = rng.choice(("contains", "restrict", "walls-restrict", "transport", "nope"))
        argv.append(action)
        if action in ("contains", "restrict"):
            _flag(rng, argv, "--rays", _exprs(rng))
            _flag(rng, argv, "--point" if action == "contains" else "--subspace",
                  _expr(rng) if action == "contains" else _exprs(rng))
        else:
            _flag(rng, argv, "--fixture", _fixture(rng, tmp_path, i))
            _flag(rng, argv, "--subspace", _exprs(rng), 0.6)
    elif command == "plot":
        _flag(rng, argv, "--fixture", _fixture(rng, tmp_path, i))
        _flag(rng, argv, "--out", str(tmp_path / f"out{i}.svg"), 0.5)
    else:
        argv += ["--filter", rng.choice(("", "zz", "p2", "f1n3", "k3", "slope"))]
        if rng.random() < 0.5:
            argv.append("--json")
    _flag(rng, argv, "--format", rng.choice(("json", "table", "xml")), 0.2)
    return argv


def test_cli_fuzz_exits_0_1_or_2(capsys, tmp_path):
    rng = random.Random(20180905)
    failures, codes = [], {0: 0, 1: 0, 2: 0}
    for i in range(400):
        argv = _argv(rng, tmp_path, i)
        start = time.perf_counter()
        try:
            code = cli.main(argv)
            usage = False
        except SystemExit as exc:
            code, usage = exc.code, True
        except Exception as exc:  # the contract is that none escape
            failures.append((argv, f"{type(exc).__name__}: {exc}"))
            capsys.readouterr()
            continue
        seconds = time.perf_counter() - start
        err = capsys.readouterr().err
        if code not in codes or (usage and code != 2):
            failures.append((argv, f"exit {code!r}"))
            continue
        codes[code] += 1
        if code == 2 and not usage and not (err.startswith("hilbcone: ")
                                            and err.count("\n") == 1):
            failures.append((argv, f"stderr {err!r}"))
        if seconds > 1:
            failures.append((argv, f"{seconds:.2f} s"))
    assert not failures, failures
    assert codes[0] >= 40 and codes[2] >= 40, codes
