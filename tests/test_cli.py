import json
import subprocess
import sys
from fractions import Fraction
from pathlib import Path

import pytest

from hilbcone import chambers as ch, cli, severi as sv

GOLDEN = Path(__file__).parent / "golden"


def run_cli(capsys, *argv):
    code = cli.main(list(argv))
    out = capsys.readouterr()
    return code, out.out, out.err


def run_json(capsys, *argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 0, err
    return json.loads(out)


# -- parsing ------------------------------------------------------------------

def test_parse_terms_signs_and_fractions():
    assert cli.parse_terms("25H-7/2B") == [(25, "H"), (Fraction(-7, 2), "B")]
    assert cli.parse_terms("-E1+2F") == [(-1, "E1"), (2, "F")]
    assert cli.parse_terms(" 7E + 7F ") == [(7, "E"), (7, "F")]


def test_parse_terms_rejects_garbage():
    for bad in ("", "3*", "H+", "2", "+(H)", "1/0H"):
        with pytest.raises(cli.CLIError):
            cli.parse_terms(bad)


def test_parse_surface_recurses_through_blowups():
    S = cli.parse_surface("blowup:fr:2:3")
    assert S.kind == "blowup" and S.rank == 5
    assert cli.parse_surface("p2").kind == "p2"
    with pytest.raises(cli.CLIError):
        cli.parse_surface("fr")
    with pytest.raises(cli.CLIError):
        cli.parse_surface("k3:five")


# -- class --------------------------------------------------------------------

def test_class_p2_matches_library_json(capsys):
    payload = run_json(capsys, "class", "--surface", "p2",
                       "--curve", "7H", "--n", "12")
    assert payload == sv.result_to_json(sv.severi_class_p2(7, 12))
    assert payload["pretty"] == "18H-5/2B"
    assert payload["flags"] == []


def test_class_hirzebruch(capsys):
    payload = run_json(capsys, "class", "--surface", "fr:1",
                       "--curve", "7E+7F", "--n", "12")
    assert payload == sv.result_to_json(sv.severi_class_hirzebruch(1, 7, 7, 12))
    assert payload["pretty"] == "19E+18F-5/2B"


def test_class_subcollection(capsys):
    payload = run_json(capsys, "class", "--surface", "p2",
                       "--curve", "7H", "--n", "12", "--subcollection", "13")
    assert payload["pretty"] == "216H-55/2B"
    assert payload["normalized_ray_pretty"] == "216/11H-5/2B"


def test_class_codim_flags(capsys):
    payload = run_json(capsys, "class", "--surface", "p2",
                       "--curve", "9H", "--n", "18", "--codim", "1")
    assert payload["pretty"] == "24H-5/2B"
    assert sv.FLAG_EQ_SEV in payload["flags"]


def test_class_k3(capsys):
    payload = run_json(capsys, "class", "--surface", "k3:8",
                       "--curve", "L", "--n", "2")
    assert payload["pretty"] == "3L-5/2B"


def test_class_blowup_needs_h0(capsys):
    code, _, err = run_cli(capsys, "class", "--surface", "blowup:p2:1",
                           "--curve", "3H", "--n", "2")
    assert code == 2 and "h0" in err
    payload = run_json(capsys, "class", "--surface", "blowup:p2:1",
                       "--curve", "3H", "--n", "2", "--h0", "6")
    assert payload["pretty"] == "6H+E1-5/2B"


def test_blowup_points_are_capped(capsys):
    cap = cli.MAX_BLOWUP_POINTS
    assert cli.parse_surface(f"blowup:p2:{cap}").rank == cap + 1
    assert cli.parse_surface(f"blowup:blowup:p2:3:{cap - 3}").rank == cap + 1
    for spec in (f"blowup:p2:{cap + 1}", f"blowup:blowup:p2:3:{cap - 2}",
                 f"blowup:fr:1:{10 ** 12}"):
        code, out, err = run_cli(capsys, "class", "--surface", spec,
                                 "--curve", "3H", "--n", "2", "--h0", "6")
        assert code == 2 and not out
        assert err.startswith("hilbcone:") and err.count("\n") == 1
        assert f"the cap is {cap}" in err


def test_class_table_format(capsys):
    code, out, _ = run_cli(capsys, "class", "--surface", "p2",
                           "--curve", "7H", "--n", "12", "--format", "table")
    assert code == 0
    assert "class: 18H-5/2B" in out.splitlines()
    assert "flags: none" in out.splitlines()


@pytest.mark.parametrize("argv", [
    ("class", "--surface", "p3", "--curve", "H", "--n", "1"),
    ("class", "--surface", "p2", "--curve", "7Q", "--n", "12"),
    ("class", "--surface", "p2", "--curve", "7H-B", "--n", "12"),
    ("class", "--surface", "p2", "--curve", "1/2H", "--n", "1"),
    ("class", "--surface", "fr:1", "--curve", "E+F", "--n", "1",
     "--subcollection", "5"),
    ("class", "--surface", "fr:1", "--curve", "E+F", "--n", "1", "--codim", "1"),
    ("class", "--surface", "p2", "--curve", "7H", "--n", "1", "--subcollection", "3"),
    ("class", "--surface", "p2", "--curve", "7H", "--n", "1", "--subcollection", "1"),
    ("class", "--surface", "p2", "--curve", "0H", "--n", "12", "--subcollection", "13"),
    ("class", "--surface", "p2", "--curve", "1/0H", "--n", "1"),
    ("class", "--surface", "p2", "--curve", "7H", "--n", "12", "--subcollection", "13",
     "--h0", "5"),
])
def test_class_usage_errors_exit_2(capsys, argv):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and out == "" and err.startswith("hilbcone:")


@pytest.mark.parametrize("extra", [[], ["--subcollection", "13"]])
def test_class_negative_codim_exits_2(capsys, extra):
    code, out, err = run_cli(capsys, "class", "--surface", "p2", "--curve", "7H",
                             "--n", "12", "--codim", "-1", *extra)
    assert (code, out) == (2, "")
    assert err == "hilbcone: codimension must be nonnegative\n"


def test_class_subcollection_honours_codim(capsys):
    base = run_json(capsys, "class", "--surface", "p2", "--curve", "7H",
                    "--n", "12", "--subcollection", "13")
    codim = run_json(capsys, "class", "--surface", "p2", "--curve", "7H",
                     "--n", "12", "--subcollection", "13", "--codim", "2")
    assert codim != base
    assert codim == sv.result_to_json(sv.severi_class_subcollection(7, 12, 13, 2))
    assert codim["checks"]["dimension_equation"]["rhs"] == "38"
    assert sv.FLAG_EQ_SEV in codim["flags"] and sv.FLAG_EQ_SEV not in base["flags"]


def test_class_h0_replaces_the_computed_count(capsys):
    payload = run_json(capsys, "class", "--surface", "p2", "--curve", "7H",
                       "--n", "12", "--h0", "37")
    assert payload["checks"]["dimension_equation"]["lhs"] == "37"
    assert sv.FLAG_DIM in payload["flags"]
    payload = run_json(capsys, "class", "--surface", "fr:1", "--curve", "7E+7F",
                       "--n", "12", "--h0", "37")
    assert payload["checks"]["dimension_equation"]["lhs"] == "36"
    assert sv.FLAG_H0 in payload["flags"]


def test_missing_required_flag_is_a_usage_error(capsys):
    with pytest.raises(SystemExit) as exc:
        cli.main(["class", "--surface", "p2", "--n", "12"])
    assert exc.value.code == 2


# -- enumerate ------------------------------------------------------------------

def test_enumerate_hirzebruch_chi(capsys):
    payload = run_json(capsys, "enumerate", "--surface", "fr:1",
                       "--n", "12", "--filters", "chi")
    pairs = {(c["a"], c["b"]) for c in payload["candidates"]}
    assert {(7, 7), (2, 12), (0, 35)} <= pairs


def test_enumerate_p2(capsys):
    payload = run_json(capsys, "enumerate", "--surface", "p2", "--n", "12")
    assert [(c["d"], c["n"]) for c in payload["candidates"]] == [(7, 12)]


def test_enumerate_k3(capsys):
    empty = run_json(capsys, "enumerate", "--k3", "6", "--nmax", "100")
    assert empty["solutions"] == [] and empty["flags"] == []
    deg8 = run_json(capsys, "enumerate", "--k3", "8", "--nmax", "10")
    assert [(s["d"], s["n"]) for s in deg8["solutions"]] == [(1, 2), (2, 6)]
    assert sv.FLAG_K3_SET in deg8["flags"]


# flags that do not apply, each with the flag its error must name
FLAGS_THAT_DO_NOT_APPLY = [
    (("enumerate", "--surface", "p2", "--n", "12", "--filters", "bogus"), "--filters"),
    (("enumerate", "--surface", "p2", "--n", "12", "--filters", "chi"), "--filters"),
    (("enumerate", "--k3", "8", "--nmax", "5", "--surface", "fr:1"), "--surface"),
    (("enumerate", "--k3", "8", "--nmax", "5", "--n", "3"), "--n"),
    (("enumerate", "--k3", "8", "--nmax", "5", "--filters", "chi"), "--filters"),
    (("enumerate", "--surface", "fr:1", "--n", "3", "--nmax", "5"), "--nmax"),
]


@pytest.mark.parametrize("argv", [
    ("enumerate", "--k3", "8"),
    ("enumerate", "--n", "12"),
    ("enumerate", "--surface", "fr:1"),
    ("enumerate", "--surface", "fr:1", "--n", "12", "--filters", "bogus"),
    ("enumerate", "--surface", "k3:8", "--n", "2"),
    *(argv for argv, _ in FLAGS_THAT_DO_NOT_APPLY),
])
def test_enumerate_usage_errors_exit_2(capsys, argv):
    code, _, err = run_cli(capsys, *argv)
    assert code == 2 and err.startswith("hilbcone:")


@pytest.mark.parametrize("argv, flag", FLAGS_THAT_DO_NOT_APPLY)
def test_enumerate_names_the_flag_that_does_not_apply(capsys, argv, flag):
    code, out, err = run_cli(capsys, *argv)
    assert code == 2 and not out and err.count("\n") == 1
    assert err.startswith(f"hilbcone: {flag} ")


# -- cone ------------------------------------------------------------------------

def test_cone_contains(capsys):
    payload = run_json(capsys, "cone", "contains",
                       "--rays", "B,7H-B", "--point", "25H-7/2B")
    assert payload == {"basis": ["H", "B"], "contains": True, "interior": True}
    boundary = run_json(capsys, "cone", "contains",
                        "--rays", "B,7H-B", "--point", "7H-B")
    assert boundary["contains"] and not boundary["interior"]


def test_cone_restrict(capsys):
    payload = run_json(capsys, "cone", "restrict",
                       "--rays", "E,F", "--subspace", "E+F")
    assert payload["ambient_basis"] == ["E", "F"]
    assert payload["rays"] == [[1]] and payload["lineality"] == []


def test_cone_walls_restrict_fixture(capsys):
    payload = run_json(capsys, "cone", "walls-restrict",
                       "--fixture", "f1n3.json", "--subspace", "H,B")
    ws = payload["wallset"]
    assert ws["basis"] == ["H", "B"]
    assert [w["functional"] for w in ws["walls"]] == [[0, 1], [1, 4], [1, 2]]
    assert ws["bounding_cone"] == [[0, 1], [2, -1]]
    assert payload["dropped"] == ["CE"]


def test_cone_transport_fixture(capsys):
    payload = run_json(capsys, "cone", "transport", "--fixture", "f1n3.json")
    assert payload["surface"] == {"kind": "hirzebruch", "r": 0}
    assert len(payload["walls"]) == 7
    assert all("not verified" in w["cite"] for w in payload["walls"])


def test_cone_transport_prints_the_lineality(capsys, tmp_path):
    raw = _f1n3() | {"bounding_cone": [[1, 0, 0], [-1, 0, 0], [0, 1, 0], [0, 0, 1]]}
    (tmp_path / "slab.json").write_text(json.dumps(raw))
    payload = run_json(capsys, "cone", "transport", "--fixture", str(tmp_path / "slab.json"))
    assert payload["bounding_cone"] == [[0, 0, 1], [0, 1, 0], [1, 0, 0], [-1, 0, 0]]
    (tmp_path / "down.json").write_text(json.dumps(payload))
    assert ch.load_fixture(str(tmp_path / "down.json")).wallset.bounding_cone.lineality == (
        (1, 0, 0),)


@pytest.mark.parametrize("argv", [
    ("cone", "contains", "--rays", "B,7H-B"),
    ("cone", "restrict", "--rays", "E,F"),
    ("cone", "walls-restrict", "--fixture", "f1n3.json"),
    ("cone", "transport", "--fixture", "no_such_fixture.json"),
    ("cone", "contains", "--rays", "B,Q", "--point", "B"),
    ("cone", "walls-restrict", "--fixture", "p2n3.json", "--subspace", "E"),
    ("cone", "contains", "--rays", "B,7H-B", "--point", "1/0H"),
    ("cone", "transport", "--fixture", "{tmp}"),
    ("plot", "--fixture", "p2n3.json", "--out", "{tmp}"),
])
def test_cone_usage_errors_exit_2(capsys, tmp_path, argv):
    # "{tmp}" stands for a directory where a file is expected
    code, _, err = run_cli(capsys, *(a.replace("{tmp}", str(tmp_path)) for a in argv))
    assert code == 2 and err.startswith("hilbcone:")
    assert len(err.splitlines()) == 1


def _f1n3():
    return json.loads((Path(sv.__file__).parent / "fixtures" / "f1n3.json").read_text())


@pytest.mark.parametrize("field,index,message", [
    ("walls", 2, "wall 'E4F' has a functional with 2 entries"),
    ("bounding_cone", 1, "bounding cone ray 2 has 2 entries"),
], ids=["wall", "ray"])
def test_fixture_with_short_vector_is_rejected(capsys, tmp_path, field, index, message):
    raw = _f1n3()
    if field == "walls":
        raw["walls"][index]["functional"] = [0, 1]
    else:
        raw["bounding_cone"][index] = [1, 0]
    bad = tmp_path / "short.json"
    bad.write_text(json.dumps(raw))
    code, out, err = run_cli(capsys, "cone", "walls-restrict", "--fixture", str(bad),
                             "--subspace", "H,B")
    assert code == 2 and out == ""
    assert err.startswith("hilbcone: " + message) and err.count("\n") == 1


_LABEL_MESSAGE = ("fixture label 1 needs a 'class' list of 3 entries, the basis length, "
                  "and a 'label' string")


def _drop_functional(raw):
    del raw["walls"][1]["functional"]
    return raw


@pytest.mark.parametrize("command", [
    ("plot",), ("cone", "walls-restrict", "--subspace", "H,B"), ("cone", "transport")],
    ids=["plot", "walls", "transport"])
@pytest.mark.parametrize("mutate,message", [
    (lambda raw: [raw], "a fixture must be a JSON object"),
    (lambda raw: raw | {"n": "x"}, "fixture field 'n' must be a positive integer"),
    (lambda raw: raw | {"n": 0}, "fixture field 'n' must be a positive integer"),
    (lambda raw: raw | {"basis": "EFB"}, "fixture field 'basis' must be a list of strings"),
    (lambda raw: raw | {"basis": ["E", 2, "B"]},
     "fixture field 'basis' must be a list of strings"),
    (lambda raw: raw | {"walls": 5}, "fixture field 'walls' must be a list of objects"),
    (lambda raw: raw | {"walls": [[0, 0, 1]]}, "fixture field 'walls' must be a list of objects"),
    (lambda raw: raw | {"labels": 5}, "fixture field 'labels' must be a list of objects"),
    (lambda raw: raw | {"surface": 5}, "fixture field 'surface' must be an object"),
    (lambda raw: raw | {"surface": {"kind": "hirzebruch", "r": "x"}},
     "fixture field 'surface.r' must be an integer"),
    (lambda raw: {k: v for k, v in raw.items() if k != "bounding_cone"},
     "fixture field 'bounding_cone' must be a list of rays"),
    (_drop_functional, "wall 'EF' has no functional"),
    (lambda raw: raw | {"bounding_cone": [[float("inf"), 0, 1]]},
     "[inf, 0, 1] is not a vector of finite numbers"),
    (lambda raw: raw | {"labels": [{"label": "B"}]}, _LABEL_MESSAGE),
    (lambda raw: raw | {"labels": [{"class": [1, 0, 0]}]}, _LABEL_MESSAGE),
    (lambda raw: raw | {"labels": [{"class": [1], "label": "B"}]}, _LABEL_MESSAGE),
], ids=["list", "n-string", "n-zero", "basis-string", "basis-entry", "walls-int",
        "walls-entry", "labels-int", "surface-int", "r-string", "no-cone", "no-functional",
        "ray-inf", "label-no-class", "label-no-label", "label-short-class"])
def test_fixture_schema_errors_exit_2(capsys, tmp_path, command, mutate, message):
    bad = tmp_path / "bad.json"
    bad.write_text(json.dumps(mutate(_f1n3())))
    code, out, err = run_cli(capsys, *command, "--fixture", str(bad))
    assert code == 2 and out == ""
    assert err.startswith("hilbcone: " + message) and err.count("\n") == 1


# -- plot -------------------------------------------------------------------------

def test_plot_to_file_matches_golden(capsys, tmp_path):
    out = tmp_path / "pic.svg"
    code, stdout, _ = run_cli(capsys, "plot", "--fixture", "p2n3.json",
                              "--out", str(out))
    assert code == 0 and stdout == ""
    assert out.read_text() == (GOLDEN / "p2n3.svg").read_text()


def test_plot_to_stdout(capsys):
    code, stdout, _ = run_cli(capsys, "plot", "--fixture", "f1n3.json")
    assert code == 0
    assert stdout == (GOLDEN / "f1n3.svg").read_text()


# -- reproduce ----------------------------------------------------------------------

def test_reproduce_exits_clean_with_exact_warn_set(capsys):
    code, out, _ = run_cli(capsys, "reproduce")
    assert code == 0
    lines = out.splitlines()
    passed = [l for l in lines if l.startswith("PASS ")]
    warned = [l for l in lines if l.startswith("WARN ")]
    failed = [l for l in lines if l.startswith("FAIL ")]
    assert len(passed) >= 25
    assert failed == []
    assert sorted(l.split()[1].rstrip(":") for l in warned) == [
        "warn-dimension-convention",
        "warn-fr12-even-r-list",
        "warn-k3-solution-sets",
    ]
    assert lines[-1].endswith("3 warned, 0 failed")


def test_reproduce_json(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "--json")
    assert code == 0
    results = json.loads(out)
    assert {r["status"] for r in results} == {"PASS", "WARN"}
    assert len(results) == len({r["id"] for r in results})


@pytest.mark.parametrize("argv, golden", [
    (["reproduce"], "reproduce.txt"),
    (["reproduce", "--json"], "reproduce.json"),
])
def test_reproduce_matches_golden_bytes(capsys, argv, golden):
    code, out, _ = run_cli(capsys, *argv)
    assert code == 0
    assert out.encode() == (GOLDEN / golden).read_bytes()


CLI_GOLDEN_ARGVS = [
    *(["enumerate", "--surface", "p2", "--n", n] for n in ("1", "3", "7", "12", "145")),
    *(["enumerate", "--surface", f"fr:{r}", "--n", n] + filters
      for r in range(4) for n in ("3", "12") for filters in ([], ["--filters", "chi,genus"])),
    *(["enumerate", "--k3", deg, "--nmax", "100"] for deg in ("4", "6", "8")),
    ["cone", "contains", "--rays", "B,7H-B", "--point", "25H-7/2B"],
    ["cone", "contains", "--rays", "E,F,E-F", "--point", "F-E"],
    ["cone", "restrict", "--rays", "E,F", "--subspace", "E+F"],
    ["cone", "restrict", "--rays", "E,F,E-F,B", "--subspace", "E+F,B"],
    ["cone", "walls-restrict", "--fixture", "f1n3.json", "--subspace", "H,B"],
    ["cone", "walls-restrict", "--fixture", "p2n12_dk.json", "--subspace", "H,B"],
    ["cone", "transport", "--fixture", "f1n3.json"],
]


def _cli_transcript(capsys) -> str:
    """Each argv in both formats as `$ hilbcone ...`, its stdout, `[exit N]`."""
    out = []
    for argv in CLI_GOLDEN_ARGVS:
        for fmt in ("json", "table"):
            full = argv + ["--format", fmt]
            code, stdout, _ = run_cli(capsys, *full)
            out.append(f"$ hilbcone {' '.join(full)}\n{stdout}[exit {code}]\n")
    return "".join(out)


def test_cli_outputs_match_golden_bytes(capsys):
    assert _cli_transcript(capsys).encode() == (GOLDEN / "cli.txt").read_bytes()


def test_reproduce_filter(capsys):
    code, out, _ = run_cli(capsys, "reproduce", "--filter", "p2")
    assert code == 0
    body = out.splitlines()[:-1]
    assert body and all("p2" in l.split()[1] for l in body)


def test_console_entry_point_runs():
    proc = subprocess.run(
        [sys.executable, "-m", "hilbcone.cli", "reproduce",
         "--filter", "k3-enumerate-deg6"],
        capture_output=True, text=True)
    assert proc.returncode == 0
    assert proc.stdout.startswith("PASS k3-enumerate-deg6")
