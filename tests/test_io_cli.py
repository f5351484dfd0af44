import argparse
import contextlib
import copy
import hashlib
import io
import json
import os
import re
import resource
import subprocess
import sys
import time

import pytest
from hypothesis import given, settings, strategies as st

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


@pytest.mark.parametrize("strong,drop_ext,message", [
    (False, False, "flags.strong is false, but strong_ext is present"),
    (True, True, "flags.strong is true, but strong_ext is absent"),
    ("yes", False, "'strong' must be a boolean"),
])
def test_strong_flag_agrees_with_strong_ext(tmp_path, capsys, strong, drop_ext,
                                            message):
    from hmf.extract import strengthen

    obj = io_json.hmf_to_json(strengthen(codim2_xa_yb()))
    obj["flags"]["strong"] = strong
    if drop_ext:
        del obj["strong_ext"]
    with pytest.raises(SchemaError, match=re.escape(message)):
        io_json.hmf_from_json(obj)
    bad = tmp_path / "bad.json"
    bad.write_text(io_json.dumps(obj))
    assert main(["validate", str(bad)]) == 2
    assert message in capsys.readouterr().err


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


# sha256 of dumps(hmf_to_json(builder(char))) for each corpus builder,
# recorded while the builders still spelled their matrices out in Python
GOLDEN_DIGESTS = {
    ("codim2_xa_yb", 32003): "7444ee5a67dbb636e55c16b3378e29179ba43f46e647880b71c7c5112399306f",
    ("codim2_xa_yb", 3): "cb5eb52fe036d95b6a9f2b01475b9d0059e0a74c59b7cd767034eff283764e08",
    ("codim2_xa_yb", 0): "7cc5727ec1e3e3a9325d920ae21eab3ed11e84f5294bca52724948df56618add",
    ("codim2_xz_y2", 32003): "0f452c152867bed4a65a2e9526db74004be7905a9f8c22ab6ce8010065079459",
    ("codim2_xz_y2", 3): "dab931906ceca52abe0ccaf32fa75529b63c85b992fe5c33573b4fb0d1ea7cd4",
    ("codim2_xz_y2", 0): "44b926886d710cdcb46c7612facf23433b5db0be749841df1f4b1bcabde2258a",
    ("codim3_shifted", 32003): "00903ef273faea6300573a16c48bfb55d833b52c5ba423618b82638148ae20b5",
    ("codim3_shifted", 3): "8789c4904db456e82158631ce6390aafa44d20a7b3b2b2d521b5c10037664e24",
    ("codim3_shifted", 0): "c77189d16fbd8a28fdcd50dfcf934fb2ffc7ea7fd1d3a476569f7f4e5a55781a",
    ("micro_codim1", 32003): "6f2c9e507d5a14fcc477b1de811146bfec664cfbdf1ab5e2f7be159d689c46da",
    ("micro_codim1", 3): "7554b64945aca33807c44915d7109138777697fb328ff30ed3974ee546d12c3d",
    ("micro_codim1", 0): "e691721ae83b7049938bfd7ea80d988232ab0e85d5be4111ad1ff9253ae25a51",
}


@pytest.mark.parametrize("name,char", sorted(GOLDEN_DIGESTS))
def test_golden_builder_digest(name, char):
    F = GOLDEN_BUILDERS[name](char)
    text = io_json.dumps(io_json.hmf_to_json(F))
    assert hashlib.sha256(text.encode()).hexdigest() == GOLDEN_DIGESTS[name, char]


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


# sha256 of the `hmf extract --trace` file of each corpus file, recorded
# before the pre-stability certificate moved from extract_hmf into the CLI
EXTRACT_TRACE_DIGESTS = {
    "codim2_xa_yb": "1d9097a06c72f5263131ea2ed790e3f81e67b372ee8c4d43de436be58e292ed1",
    "codim2_xz_y2": "b35f19467ee7404814a80a29dbdeb972156fa4cb83017837fdc346dfbc456ceb",
    "codim3_shifted": "3cd312e4437cf3730df2b6d770e596750111f1cdf99ac602486c5cca1000ca4a",
    "micro_codim1": "c3ded723b2bfcc4c1d720ac2949b904986fa6820b4b257486f664b66906c50c0",
}


@pytest.mark.parametrize("name", sorted(EXTRACT_TRACE_DIGESTS))
def test_cli_extract_trace_digest(tmp_path, name):
    trace = tmp_path / "trace.json"
    assert main(["extract", golden_path(name), "--trace", str(trace),
                 "-o", str(tmp_path / "out.json")]) == 0
    assert (hashlib.sha256(trace.read_bytes()).hexdigest()
            == EXTRACT_TRACE_DIGESTS[name])


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


def test_cli_box_at_codim5(tmp_path):
    # at c = 5 the box runs to degree c - 2 = 3, and its homotopy hb_2 is
    # theta_4, so box needs theta on every degree of the finite resolution
    from hmf.lifting import higher_homotopies
    from hmf.randgen import gen_random_hmf
    from hmf.resolutions import box, box_unroll

    F = gen_random_hmf(1, c=5)
    path = tmp_path / "c5.json"
    path.write_text(io_json.dumps(io_json.hmf_to_json(F)))
    rc = main(["box", str(path), "--degree-bound", "4",
               "-o", str(tmp_path / "box.json")])
    payload = json.loads((tmp_path / "box.json").read_text())
    assert payload["homotopy_failures"] == []
    assert payload["exactness"]["verdict"] == "PASS"
    assert rc == 0
    bundle = box(higher_homotopies(build_finite(F).complex, (5,), 2))
    assert 2 in bundle.sigma.maps[(1,)]
    un, failures = box_unroll(bundle)
    assert not failures and un.hi == bundle.complex.hi + 2 >= 5


@pytest.mark.parametrize("name", sorted(GOLDEN_BUILDERS))
def test_cli_box_every_f_index(name, tmp_path):
    # the shared checker also covers the box's top degree, which holds on
    # a box built from a finite resolution
    c = load_golden(name).c
    for f_idx in range(1, c + 1):
        out = tmp_path / f"box{f_idx}.json"
        rc = main(["box", golden_path(name), "--f-index", str(f_idx),
                   "-o", str(out)])
        assert json.loads(out.read_text())["homotopy_failures"] == []
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
        # a stage outside 1..c, and grids short of their block's shape
        ("hmf", ("h_blocks", "7"), [["x"]]),
        ("hmf", ("h_blocks", "2"), [["x"]]),
        ("hmf", ("d_blocks", "1->1"), [["a"]]),
        ("hmf", ("d_blocks", "2->1", 0, 0), 7),
        # keys that name a block in a non-canonical spelling
        ("hmf", ("d_blocks", "01->1"), [["b", "0"], ["0", "0"]]),
        ("hmf", ("d_blocks", " 1->1"), [["b", "0"], ["0", "0"]]),
        ("hmf", ("d_blocks", "+1->1"), [["b", "0"], ["0", "0"]]),
        ("hmf", ("strong_ext",), {"02": {"1,2": [["0", "-1", "0"]]}}),
        ("hmf", ("strong_ext",), {"2": {"01,2": [["0", "-1", "0"]]}}),
        ("hmf", ("strong_ext",), {"2": {"1, 2": [["0", "-1", "0"]]}}),
        ("hmf", ("c",), -1),
        ("hmf", ("B", 0, "p"), 9),
        ("hmf", ("strong_ext",), {"x": {}}),
        ("hmf", ("strong_ext",), {"2": {"1,2": [["x"]]}}),
        ("hmf", ("strong_ext",), {"2": {"2,1": []}}),
        ("hmf", ("strong_ext",), {"2": {"1,2": [["a^5 + b", "0", "0"]]}}),
        ("hmf", ("ring", "field"), 4294967311),
        ("hmf", ("ring", "field"), 2.5),
        ("hmf", ("ring", "vars"), [["x"]]),
        # a degree or a flag that int() or bool() would have taken
        ("hmf", ("ring", "vars", 0, 1), 1.5),
        ("hmf", ("ring", "vars", 0, 1), "1"),
        ("hmf", ("ring", "vars", 0, 1), True),
        ("hmf", ("flags", "generalized"), "no"),
        ("hmf", ("flags", "generalized"), 0),
        # a strong flag that is not a boolean, or is set with no strong_ext
        ("hmf", ("flags", "strong"), "yes"),
        ("hmf", ("flags", "strong"), True),
        # a level-0 slot: a factorization has levels 1..c only
        ("hmf", ("flags", "generalized"), True),
        ("hmf", ("d_blocks", "0->0"), []),
        ("hmf", ("B", 0, "p"), 0),
        ("hmf", ("ring", "regseq", 0), 5),
        # a doubled or a leading '*', and a string where a list of strings
        # belongs
        ("hmf", ("ring", "regseq", 0), "a**x"),
        ("hmf", ("d_blocks", "1->1", 0, 0), "**a"),
        ("hmf", ("ring", "regseq"), "a*x"),
        # a doubled or a trailing sign, once read as one sign or dropped
        ("hmf", ("ring", "regseq", 0), "a*x-"),
        ("hmf", ("d_blocks", "2->1", 0, 1), "--b"),
        ("complex", ("modules", 0, "labels"), 5),
        ("complex", ("modules", 0, "labels"), ["g0"]),
        ("complex", ("modules", 0, "labels"), [1, 2, 3]),
        ("complex", ("range",), [0, 1]),
        ("complex", ("range",), [5, 2]),
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


def test_c_above_codim_names_regseq(tmp_path, capsys):
    # the reader bounds c by the ring before it reads any block
    def raise_c(obj):
        obj["c"] = 3

    bad = _corpus_copy(tmp_path, "codim2_xa_yb", raise_c)
    with pytest.raises(SchemaError, match="exceeds the 2 elements of ring.regseq"):
        io_json.load(bad)
    assert main(["validate", bad]) == 2
    assert "exceeds the 2 elements of ring.regseq" in capsys.readouterr().err


def _corpus_copy(tmp_path, name, edit):
    """A copy of a corpus file with edit applied to its JSON object."""
    with open(golden_path(name)) as fh:
        obj = json.load(fh)
    edit(obj)
    path = tmp_path / f"{name}.json"
    path.write_text(io_json.dumps(obj))
    return str(path)


def test_cli_duplicate_block_entry_exits_2(tmp_path, capsys):
    # a second B entry for p = 1 would replace the first
    def repeat(obj):
        obj["B"].append(dict(obj["B"][0], B1=[2, 2]))

    bad = _corpus_copy(tmp_path, "codim2_xz_y2", repeat)
    with pytest.raises(SchemaError):
        io_json.load(bad)
    assert main(["validate", bad]) == 2
    assert "second entry for p=1" in capsys.readouterr().err


def test_cli_regseq_must_be_a_list_of_strings(tmp_path, capsys):
    # a string is not read character by character: the error names the key
    def edit(obj):
        obj["ring"]["regseq"] = "x*z"

    bad = _corpus_copy(tmp_path, "codim2_xz_y2", edit)
    assert main(["validate", bad]) == 2
    assert "ring.regseq: expected a list of polynomial strings" in (
        capsys.readouterr().err)


@pytest.mark.parametrize("key,value,message", [
    ("vars", [["a", 1, 2], ["b", 1], ["x", 1], ["y", 1]],
     "ring.vars: expected a list of [name, degree] pairs"),
    ("vars", [["a", 1], "b", ["x", 1], ["y", 1]],
     "ring.vars: expected a list of [name, degree] pairs"),
    ("vars", [["a", 1], [2, 1], ["x", 1], ["y", 1]],
     "ring.vars: variable names must be strings"),
    ("field", "7", "got '7'"),
    ("field", None, "ring: missing key 'field'"),
])
def test_cli_malformed_ring_message(tmp_path, capsys, key, value, message):
    # the message names what is wrong, not Python's unpacking or a value
    # that prints like the integer it is not; a value None drops the key
    def edit(obj):
        obj["ring"][key] = value
        if value is None:
            del obj["ring"][key]

    bad = _corpus_copy(tmp_path, "codim2_xa_yb", edit)
    assert main(["validate", bad]) == 2
    assert message in capsys.readouterr().err


def test_cli_rational_coefficients_over_fp(tmp_path):
    # 1/2*a + 1/2*a is a over F_32003, so the report is the original's
    def halves(obj):
        obj["d_blocks"]["1->1"][0][0] = "1/2*a + 1/2*a"
        obj["ring"]["regseq"][0] = "3/2*a*x - 1/2*a*x"

    same = _corpus_copy(tmp_path, "codim2_xa_yb", halves)
    want, got = tmp_path / "want.json", tmp_path / "got.json"
    assert main(["validate", golden_path("codim2_xa_yb"), "-o", str(want)]) == 0
    assert main(["validate", same, "-o", str(got)]) == 0
    assert got.read_bytes() == want.read_bytes()


@pytest.mark.parametrize("entry,reason", [("1/32003*a", "divisible"),
                                          ("x^70000", "packed bound"),
                                          ("1/0*a", "zero denominator")])
def test_cli_unrepresentable_polynomial_exits_2(tmp_path, capsys, entry, reason):
    def put(obj):
        obj["d_blocks"]["1->1"][0][0] = entry

    bad = _corpus_copy(tmp_path, "codim2_xa_yb", put)
    assert main(["validate", bad]) == 2
    err = capsys.readouterr().err
    assert "input error" in err and reason in err


def _break_h(obj):
    obj["h_blocks"]["2"][0][1] = "a"


def _break_d(obj):
    obj["d_blocks"]["1->1"][0][0] = "b"


@pytest.mark.parametrize("edit", [_break_h, _break_d], ids=["h", "d"])
@pytest.mark.parametrize("command", [["intermediate", "--j", "1"], ["shamash"],
                                     ["box"], ["peel"], ["strengthen"]],
                         ids=lambda argv: argv[0])
def test_cli_builders_validate_first(tmp_path, capsys, command, edit):
    # a factorization that fails its axioms is an input error for every
    # builder, not a solver failure or a report on wrong data
    bad = _corpus_copy(tmp_path, "codim2_xa_yb", edit)
    assert main(command + [bad]) == 2
    assert "invalid factorization" in capsys.readouterr().err


@pytest.mark.parametrize("command", [["validate"], ["resolve-s"], ["resolve-r"],
                                     ["intermediate", "--j", "1"], ["shamash"],
                                     ["box"], ["peel"], ["extract"],
                                     ["strengthen"], ["suite"]],
                         ids=lambda argv: argv[0])
def test_cli_generalized_flag_exits_2(tmp_path, capsys, command):
    # a factorization has levels 1..c only: the reader refuses the flag of
    # a level-0 slot, an input error that names the flag
    def generalize(obj):
        obj["flags"]["generalized"] = True

    bad = _corpus_copy(tmp_path, "micro_codim1", generalize)
    assert main(command + [bad]) == 2
    assert "flags.generalized" in capsys.readouterr().err


# a valid factorization with c = 0: one variable, no blocks
C0_HMF = {"schema": 1, "kind": "hmf", "c": 0, "B": [], "d_blocks": {},
          "h_blocks": {}, "ring": {"schema": 1, "field": 32003,
                                   "vars": [["x", 1]], "regseq": []}}
BAD_ARGUMENTS = (["shamash", "--p", "0"], ["shamash", "--p", "9"],
                 ["peel", "--p", "0"], ["peel", "--p", "9"],
                 ["box", "--f-index", "0"], ["box", "--f-index", "9"],
                 ["intermediate", "--j", "0"], ["intermediate", "--j", "5"],
                 ["resolve-r", "--steps", "0"], ["resolve-r", "--steps", "-1"],
                 ["suite", "--steps", "0"], ["resolve-s", "--degree-bound", "-3"],
                 ["extract", "--syzygy", "1"])
ARGUMENT_CASES = (
    [(name, argv) for name in ("codim2_xa_yb", "c0") for argv in BAD_ARGUMENTS]
    # the level c that peel, box and extract default to is 0 here
    + [("c0", [command]) for command in ("peel", "box", "extract")]
    + [(None, ["gen-random", "--seed", "1", flag, "0"])
       for flag in ("--c", "--max-rank")]
    # a gamma that no generated instance has
    + [(None, ["gen-random", "--seed", "1", "--c", "2", "--gamma", "5"]),
       (None, ["gen-random", "--seed", "1", "--c", "2", "--max-rank", "1",
               "--gamma", "1"])]
    # a syzygy index r whose degree r - 2 lies above the complex: the
    # cosyzygy extension of a factorization, and a finite resolution on [0, 2]
    + [("codim2_xa_yb", ["extract", "--syzygy", "30"]),
       ("finite", ["extract", "--syzygy", "9"])]
    # and one whose degree r - 2 = 0 lies below a complex on [1, 6]
    + [("raised", ["extract", "--syzygy", "2"])])


@pytest.mark.parametrize("name,argv", ARGUMENT_CASES,
                         ids=[f"{name}-{' '.join(argv)}"
                              for name, argv in ARGUMENT_CASES])
def test_cli_argument_out_of_range_exits_2(tmp_path, capsys, name, argv):
    # a level outside 1..c or a number below its bound is an input error,
    # not a traceback, a solver failure or a report on another stage
    if name == "c0":
        path = tmp_path / "c0.json"
        path.write_text(io_json.dumps(C0_HMF))
        argv = argv[:1] + [str(path)] + argv[1:]
    elif name == "finite":
        path = tmp_path / "finite.json"
        finite = build_finite(load_golden("codim2_xz_y2")).complex
        path.write_text(io_json.dumps(io_json.complex_to_json(finite)))
        argv = argv[:1] + [str(path)] + argv[1:]
    elif name == "raised":
        def raise_range(obj):
            obj["range"] = [1, 6]

        argv = argv[:1] + [_resolution_copy(tmp_path, raise_range)] + argv[1:]
    elif name is not None:
        argv = argv[:1] + [golden_path(name)] + argv[1:]
    try:
        code = main(argv + ["-o", str(tmp_path / "out.json")])
    except SystemExit as exc:  # argparse rejects the value
        code = exc.code
    assert code == 2
    assert "Traceback" not in capsys.readouterr().err


def _resolution_copy(tmp_path, edit):
    """The `resolve-r --steps 5` report of codim2_xa_yb, on [0, 5], with
    edit applied to its JSON object."""
    path = tmp_path / "resolution.json"
    assert main(["resolve-r", golden_path("codim2_xa_yb"), "--steps", "5",
                 "-o", str(path)]) == 0
    obj = json.loads(path.read_text())
    edit(obj)
    path.write_text(io_json.dumps(obj))
    return str(path)


def test_cli_extract_from_a_complex_below_degree_0(tmp_path):
    # a zero module prepended at degree -1 leaves degree r - 2 = 0 in the
    # complex: the syzygy is the one of the unpadded file
    def pad(obj):
        obj["range"] = [-1, 5]
        obj["modules"].insert(0, {"twists": []})
        obj["diffs"].insert(0, [])

    outs = []
    for edit in (lambda obj: None, pad):
        out = tmp_path / f"out{len(outs)}.json"
        path = _resolution_copy(tmp_path, edit)
        assert main(["extract", path, "--syzygy", "2", "-o", str(out)]) == 0
        outs.append(out.read_text())
    assert outs[0] == outs[1]


# options that each of these commands never reads
UNREAD_OPTIONS = (
    [(command, "--tex") for command in ("validate", "peel", "extract",
                                        "strengthen", "suite", "gen-random")]
    + [(command, "--degree-bound") for command in ("shamash", "peel", "extract",
                                                   "strengthen", "gen-random")])


@pytest.mark.parametrize("command,option", UNREAD_OPTIONS)
def test_cli_unread_option_exits_2(tmp_path, command, option):
    # an option the command would ignore is rejected, not accepted silently
    tex = tmp_path / "out.tex"
    value = str(tex) if option == "--tex" else "4"
    target = (["--seed", "1"] if command == "gen-random"
              else [golden_path("codim2_xa_yb")])
    with pytest.raises(SystemExit) as exc:
        main([command, *target, option, value, "-o", str(tmp_path / "out.json")])
    assert exc.value.code == 2
    assert not tex.exists()


def test_cli_options_per_command():
    from hmf.cli import _parser

    sub = next(a for a in _parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    options = {name: sorted(s for a in p._actions if a.dest != "help"
                            for s in a.option_strings)
               for name, p in sub.choices.items()}
    assert options == {
        "validate": ["--degree-bound", "--output", "-o"],
        "resolve-s": ["--degree-bound", "--output", "--tex", "-o"],
        "resolve-r": ["--degree-bound", "--output", "--steps", "--tex", "-o"],
        "intermediate": ["--degree-bound", "--j", "--output", "--steps",
                         "--tex", "-o"],
        "shamash": ["--output", "--p", "--steps", "--tex", "-o"],
        "box": ["--degree-bound", "--f-index", "--output", "--tex", "-o"],
        "peel": ["--output", "--p", "--steps", "-o"],
        "extract": ["--output", "--steps", "--syzygy", "--trace", "-o"],
        "strengthen": ["--output", "-o"],
        "suite": ["--degree-bound", "--junit", "--output", "--steps",
                  "--strict-stability", "-o"],
        "gen-random": ["--c", "--gamma", "--max-rank", "--output", "--seed",
                       "-o"],
    }


def test_cli_every_option_has_help():
    # a user learns each default and range from --help, not from the source
    from hmf.cli import _parser

    sub = next(a for a in _parser()._actions
               if isinstance(a, argparse._SubParsersAction))
    bare = [(name, a.dest) for name, p in sub.choices.items()
            for a in p._actions if a.dest != "help" and not a.help]
    assert bare == []
    steps = {name: next(a.help for a in p._actions if a.dest == "steps")
             for name, p in sub.choices.items()
             if any(a.dest == "steps" for a in p._actions)}
    assert {name: h[h.index("(default"):] for name, h in steps.items()} == {
        "resolve-r": "(default 9)", "intermediate": "(default 8)",
        "shamash": "(default 8)", "peel": "(default 8)",
        "extract": "(default 2c + 4)", "suite": "(default 8)"}


def test_cli_parser_keeps_no_state_between_calls(capsys):
    # the parser is built once per process: a value given in one call is not
    # the default of the next
    path = golden_path("codim2_xa_yb")
    assert main(["resolve-r", path, "--steps", "3", "-o", os.devnull]) == 0
    assert main(["resolve-r", path, "-o", os.devnull]) == 0
    lines = [line for line in capsys.readouterr().out.splitlines()
             if line.startswith("betti:")]
    assert [len(line.split()) - 1 for line in lines] == [4, 10]


def test_cli_valid_call_after_a_rejected_one(tmp_path):
    with pytest.raises(SystemExit) as exc:
        main(["resolve-r", golden_path("codim2_xa_yb"), "--steps", "0"])
    assert exc.value.code == 2
    with open(DIGESTS) as fh:
        want = json.load(fh)["codim2_xa_yb.resolve-r"]
    report = tmp_path / "report.json"
    assert main(["resolve-r", golden_path("codim2_xa_yb"), "-o", str(report),
                 "--steps", "5"]) == want["exit"] == 0
    assert hashlib.sha256(report.read_bytes()).hexdigest() == want["sha256"]


def _leaves(obj, path=()):
    """The paths of the scalar leaves of a JSON object."""
    if isinstance(obj, (dict, list)):
        items = obj.items() if isinstance(obj, dict) else enumerate(obj)
        return [leaf for k, v in items for leaf in _leaves(v, path + (k,))]
    return [path]


FUZZ_VALUES = st.one_of(
    st.none(), st.booleans(), st.integers(-3, 9),
    st.sampled_from(["", "x", "0", "-y", "x^2", "1/2", "g0"]),
    st.sampled_from([[], {}, [[]], ["x"], [0, 1]]),
)
FUZZ_COMMANDS = (["validate"], ["resolve-s", "--degree-bound", "4"], ["extract"],
                 ["peel", "--steps", "4"], ["shamash", "--steps", "4"],
                 ["intermediate", "--j", "1", "--steps", "4"], ["box"],
                 ["strengthen"])


@pytest.fixture(scope="module")
def fuzz_inputs():
    """The corpus files and a finite-resolution complex, as JSON objects."""
    objs = []
    for name in sorted(GOLDEN_BUILDERS):
        with open(golden_path(name)) as fh:
            objs.append(json.load(fh))
    finite = build_finite(load_golden("codim2_xz_y2")).complex
    return objs + [io_json.complex_to_json(finite)]


@given(data=st.data())
@settings(max_examples=100, deadline=None)
def test_fuzz_mutated_json_exit_codes(tmp_path_factory, fuzz_inputs, data):
    # 1-2 leaves replaced, or deleted where the drawn value is None
    obj = copy.deepcopy(data.draw(st.sampled_from(fuzz_inputs)))
    for path in data.draw(st.lists(st.sampled_from(_leaves(obj)),
                                   min_size=1, max_size=2, unique=True)):
        parent = obj
        try:
            for step in path[:-1]:
                parent = parent[step]
            value = data.draw(FUZZ_VALUES)
            if value is None:
                del parent[path[-1]]
            else:
                parent[path[-1]] = value
        except (KeyError, IndexError, TypeError):
            pass  # an earlier mutation removed or replaced this leaf
    path = tmp_path_factory.mktemp("fuzz") / "input.json"
    path.write_text(io_json.dumps(obj))
    argv = data.draw(st.sampled_from(FUZZ_COMMANDS)) + [str(path)]
    start = time.perf_counter()
    with contextlib.redirect_stdout(io.StringIO()), \
            contextlib.redirect_stderr(io.StringIO()):
        code = main(argv)
    assert code in (0, 1, 2)
    assert time.perf_counter() - start < 5
