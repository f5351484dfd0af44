import hashlib
import json
import os
import resource
import subprocess
import sys

import pytest

from hmf import io_json
from hmf.cli import main
from hmf.corpus import GOLDEN_BUILDERS, codim2_xa_yb, corpus_dir, load_golden
from hmf.factorization import validate_hmf
from hmf.io_json import SchemaError
from hmf.resolutions import build_finite


def test_ring_round_trip():
    ring = codim2_xa_yb().ring
    obj = io_json.ring_to_json(ring)
    ring2 = io_json.ring_from_json(obj)
    assert ring2.var_names == ring.var_names
    assert [str(f) for f in ring2.regseq] == [str(f) for f in ring.regseq]


def test_hmf_round_trip_bytes():
    F = codim2_xa_yb()
    obj = io_json.hmf_to_json(F)
    F2 = io_json.hmf_from_json(obj)
    assert io_json.dumps(io_json.hmf_to_json(F2)) == io_json.dumps(obj)
    assert validate_hmf(F2).ok


def test_complex_round_trip():
    F = codim2_xa_yb()
    L = build_finite(F).complex
    obj = io_json.complex_to_json(L, provenance="finite")
    L2 = io_json.complex_from_json(obj)
    assert L2.betti_list() == L.betti_list()
    assert not L2.validate()
    assert io_json.dumps(io_json.complex_to_json(L2)) == io_json.dumps(
        io_json.complex_to_json(L)
    )


def test_strong_ext_round_trip():
    from hmf.extract import strengthen
    from hmf.factorization import validate_strong

    S = strengthen(codim2_xa_yb())
    obj = io_json.hmf_to_json(S)
    assert obj["flags"]["strong"]
    S2 = io_json.hmf_from_json(obj)
    assert validate_strong(S2).ok


def test_schema_errors():
    with pytest.raises(SchemaError):
        io_json.hmf_from_json({"schema": 2, "kind": "hmf"})
    with pytest.raises(SchemaError):
        io_json.hmf_from_json({"schema": 1, "kind": "nope"})
    bad = io_json.hmf_to_json(codim2_xa_yb())
    bad["d_blocks"]["1->2"] = [["y"], ["x"]]
    with pytest.raises(SchemaError):
        io_json.hmf_from_json(bad)


def test_goldens_self_check():
    for name in GOLDEN_BUILDERS:
        F = load_golden(name)
        assert validate_hmf(F).ok, name


def test_tex_emitter():
    F = codim2_xa_yb()
    L = build_finite(F).complex
    tex = io_json.complex_to_tex(L)
    assert "\\xrightarrow" in tex and "pmatrix" in tex


def test_junit_emitter():
    from hmf.oracle import CheckItem

    rows = [CheckItem("a", 1, 1, "PASS"), CheckItem("b", 1, 2, "FAIL"),
            CheckItem("c", None, None, "N-A")]
    xml = io_json.report_rows_to_junit(rows)
    assert 'failures="1"' in xml and "skipped" in xml


def golden_path(name):
    return os.path.join(corpus_dir(), f"{name}.json")


def test_cli_validate_pass(tmp_path, capsys):
    rc = main(["validate", golden_path("codim2_xa_yb")])
    assert rc == 0
    out = capsys.readouterr().out
    payload = json.loads(out)
    assert payload["verdict"] == "PASS"


def test_cli_validate_input_error(tmp_path, capsys):
    bad = tmp_path / "bad.json"
    bad.write_text("{not json")
    rc = main(["validate", str(bad)])
    assert rc == 2
    # wrong kind: a complex file where a factorization is expected
    F = codim2_xa_yb()
    L = build_finite(F).complex
    cpath = tmp_path / "cx.json"
    cpath.write_text(io_json.dumps(io_json.complex_to_json(L)))
    assert main(["validate", str(cpath)]) == 2


def test_cli_resolve_r_betti_line(tmp_path, capsys):
    tex = tmp_path / "tower.tex"
    rc = main(["resolve-r", golden_path("codim2_xa_yb"), "--steps", "9",
               "--degree-bound", "8", "-o", os.devnull, "--tex", str(tex)])
    assert rc == 0
    out = capsys.readouterr().out
    assert "betti: 3 4 5 6 7 8 9 10 11 12" in out
    assert "\\xrightarrow" in tex.read_text()


def test_cli_suite_strict_stability(tmp_path, capsys):
    rc = main(["suite", golden_path("codim2_xz_y2"), "--steps", "6",
               "--degree-bound", "6", "-o", str(tmp_path / "r.json")])
    assert rc == 0
    rc = main(["suite", golden_path("codim2_xz_y2"), "--steps", "6",
               "--degree-bound", "6", "--strict-stability",
               "-o", str(tmp_path / "r2.json")])
    assert rc == 1


def test_cli_gen_random_deterministic(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    assert main(["gen-random", "--seed", "5", "--c", "2", "-o", str(a)]) == 0
    assert main(["gen-random", "--seed", "5", "--c", "2", "-o", str(b)]) == 0
    assert a.read_bytes() == b.read_bytes()
    F = io_json.load(str(a))
    assert validate_hmf(F).ok


def test_cli_extract_round_trip(tmp_path, capsys):
    rc = main(["extract", golden_path("micro_codim1"), "--steps", "6",
               "--trace", str(tmp_path / "extraction-trace.json"),
               "-o", str(tmp_path / "out.json")])
    assert rc == 0
    assert (tmp_path / "extraction-trace.json").exists()
    F = io_json.load(str(tmp_path / "out.json"))
    assert validate_hmf(F).ok


def test_cli_strengthen(tmp_path):
    rc = main(["strengthen", golden_path("codim2_xa_yb"),
               "-o", str(tmp_path / "s.json")])
    assert rc == 0
    payload = json.loads((tmp_path / "s.json").read_text())
    assert payload["strong_report"]["failures"] == []


def test_cli_box_and_peel(tmp_path):
    rc = main(["box", golden_path("codim2_xa_yb"), "--degree-bound", "8",
               "-o", str(tmp_path / "box.json")])
    assert rc == 0
    rc = main(["peel", golden_path("codim2_xa_yb"), "--steps", "6",
               "-o", str(tmp_path / "peel.json")])
    assert rc == 0


def test_cli_reports_byte_identical(tmp_path):
    a = tmp_path / "a.json"
    b = tmp_path / "b.json"
    for out in (a, b):
        rc = main(["suite", golden_path("micro_codim1"), "--steps", "6",
                   "--degree-bound", "6", "-o", str(out)])
        assert rc == 0
    assert a.read_bytes() == b.read_bytes()


def fresh_python(*argv, address_space=None):
    """A fresh interpreter on the package sources, its address space capped
    at address_space bytes when given."""
    def cap():
        resource.setrlimit(resource.RLIMIT_AS, (address_space, address_space))

    env = dict(os.environ)
    env["PYTHONPATH"] = os.path.join(os.path.dirname(corpus_dir()), "src")
    return subprocess.run([sys.executable, *argv], capture_output=True,
                          text=True, env=env,
                          preexec_fn=cap if address_space else None)


def test_cli_entry_point_subprocess():
    proc = fresh_python("-m", "hmf.cli", "validate", golden_path("codim2_xa_yb"))
    assert proc.returncode == 0


DIGESTS = os.path.join(os.path.dirname(corpus_dir()), "perfbench", "digests.json")
ALL_COMMANDS = ("validate", "suite", "resolve-s", "resolve-r", "extract",
                "strengthen", "peel", "box")
GOLDEN_RUNS = [(name, command)
               for name in ("micro_codim1", "codim2_xa_yb", "codim2_xz_y2",
                            "codim3_shifted")
               for command in ALL_COMMANDS]


@pytest.mark.parametrize("name,command", GOLDEN_RUNS)
def test_cli_golden_report(tmp_path, name, command):
    with open(DIGESTS) as fh:
        want = json.load(fh)[f"{name}.{command}"]
    report = tmp_path / "report.json"
    argv = [command, golden_path(name), "-o", str(report)]
    if command == "resolve-r":
        argv += ["--steps", "5"]
    if name == "codim3_shifted" and command in ("suite", "resolve-s",
                                                 "resolve-r", "box"):
        argv += ["--degree-bound", "6"]
    assert main(argv) == want["exit"]
    assert hashlib.sha256(report.read_bytes()).hexdigest() == want["sha256"]


# the codim3 reports at the default degree bound (9), which the golden
# table above leaves out
DEFAULT_BOUND_DIGESTS = {
    "resolve-s": "3944de9593a32431379981ee2146b5235f73a30e1752ec3e2c65883fd38de36e",
    "suite": "ab917f8a28b2ec6afeeec51faf666a7d79ee04c99fce7662c4b85845bf052f01",
}


@pytest.mark.parametrize("command", sorted(DEFAULT_BOUND_DIGESTS))
def test_cli_golden_report_default_bound(tmp_path, command):
    report = tmp_path / "report.json"
    assert main([command, golden_path("codim3_shifted"), "-o", str(report)]) == 0
    assert (hashlib.sha256(report.read_bytes()).hexdigest()
            == DEFAULT_BOUND_DIGESTS[command])


def test_cli_resolve_r_deep_in_bounded_memory(tmp_path):
    # nine steps over the 6-variable ring fit in 1 GiB only while no degree
    # piece is held densely; a MemoryError under the cap exits nonzero
    proc = fresh_python("-m", "hmf.cli", "resolve-r", golden_path("codim3_shifted"),
                        "--steps", "9", "-o", str(tmp_path / "report.json"),
                        address_space=1 << 30)
    assert proc.returncode == 0, proc.stderr


def test_package_imports_without_numpy():
    proc = fresh_python("-c", "import importlib, pkgutil, sys, hmf\n"
                              "for m in pkgutil.iter_modules(hmf.__path__):\n"
                              "    importlib.import_module('hmf.' + m.name)\n"
                              "print('numpy' in sys.modules)")
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.strip() == "False"


MALFORMED = [
    pytest.param(kind, path, value,
                 id=f"{kind}-{'.'.join(map(str, path))}-"
                    f"{'missing' if value is None else json.dumps(value)}")
    for kind, paths in (
        ("hmf", [("B",), ("c",), ("B", 0, "p"), ("B", 0, "B1"), ("B", 0, "B0")]),
        ("complex", [("range",), ("modules",), ("level",), ("diffs",),
                     ("modules", 0, "twists")]),
    )
    for path in paths
    for value in (None, "x", [["1"]])
] + [
    pytest.param(kind, path, value,
                 id=f"{kind}-{'.'.join(map(str, path))}-{json.dumps(value)}")
    for kind, path, value in (
        ("hmf", ("d_blocks",), [["1"]]),
        ("hmf", ("h_blocks",), [["1"]]),
        ("hmf", ("flags",), [["1"]]),
        ("hmf", ("h_blocks", "1", 0, 0), "x^^2"),
        ("hmf", ("d_blocks", "2->1", 0, 0), 7),
        ("hmf", ("c",), -1),
        ("hmf", ("B", 0, "p"), 9),
        ("hmf", ("strong_ext",), {"x": {}}),
        ("hmf", ("strong_ext",), {"2": {"1,2": [["x"]]}}),
        ("hmf", ("strong_ext",), {"2": {"2,1": []}}),
        ("hmf", ("ring", "field"), 4294967311),
        ("hmf", ("ring", "field"), 2.5),
        ("hmf", ("ring", "vars"), [["x"]]),
        ("hmf", ("ring", "regseq", 0), 5),
        ("complex", ("modules", 0, "labels"), 5),
    )
]


@pytest.mark.parametrize("kind,path,value", MALFORMED)
def test_malformed_keys_exit_2(tmp_path, capsys, kind, path, value):
    # value None deletes the key; the others have the wrong JSON type
    F = codim2_xa_yb()
    obj = (io_json.hmf_to_json(F) if kind == "hmf"
           else io_json.complex_to_json(build_finite(F).complex))
    parent = obj
    for step in path[:-1]:
        parent = parent[step]
    if value is None:
        del parent[path[-1]]
    else:
        parent[path[-1]] = value
    bad = tmp_path / "bad.json"
    bad.write_text(io_json.dumps(obj))
    with pytest.raises(SchemaError):
        io_json.load(str(bad))
    assert main(["extract" if kind == "complex" else "validate", str(bad)]) == 2
    assert "input error" in capsys.readouterr().err
