"""Smoke test of the benchmark itself, at its smallest size.

    python3 -m pytest -q perfbench/test_smoke.py

Runs every workload in both modes and checks that each metric BENCHMARK.json
lists is printed with its unit, that wrong answers are counted as failed
ops, and that the benchmark refuses to run without the package sources.
"""

import json
import os
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
SPEC = json.loads((ROOT / "BENCHMARK.json").read_text())
WORKLOADS = [w["name"] for w in SPEC["workloads"]]


def run_bench(workload, trace, cwd=ROOT, env=None):
    cmd = [sys.executable, str(Path(cwd) / "perfbench" / "run.py"),
           "--workload", workload, "--seed", "3", "--seconds", "1",
           "--trace", str(trace), "--size", "smoke"]
    return subprocess.run(cmd, cwd=cwd, env=env, capture_output=True,
                          text=True, timeout=170)


def tagged(lines, tag):
    return json.loads(next(line for line in lines if line.startswith(tag))[len(tag):])


def check_result(stdout, listed):
    lines = stdout.strip().splitlines()
    result = json.loads(lines[-1])
    assert set(result) == {"correct", "attempted", "failed", "metrics"}
    assert {m["name"]: m["unit"] for m in listed} == {
        k: v["unit"] for k, v in result["metrics"].items()}
    assert all(isinstance(v["value"], (int, float)) for v in result["metrics"].values())
    return lines, result


@pytest.mark.parametrize("workload", WORKLOADS)
def test_untraced_run_prints_end_to_end_metrics(workload):
    proc = run_bench(workload, 0)
    assert proc.returncode == 0, proc.stderr
    lines, result = check_result(proc.stdout, SPEC["end_to_end"])
    assert result["correct"] and result["failed"] == 0 and result["attempted"] >= 1
    assert all(v["value"] > 0 for v in result["metrics"].values())
    assert tagged(lines, "summary: ")["failed_ratio"] == 0
    env = tagged(lines, "env: ")
    assert {"python", "numpy", "blas", "nproc", "kernel_backend",
            "git_commit", "src_sha256"} <= set(env)


@pytest.mark.parametrize("workload", WORKLOADS)
def test_traced_run_prints_per_layer_metrics(workload):
    proc = run_bench(workload, 1)
    assert proc.returncode == 0, proc.stderr
    _, result = check_result(proc.stdout, SPEC["per_layer"])
    assert result["correct"] and result["failed"] == 0
    m = {k: v["value"] for k, v in result["metrics"].items()}
    assert m["trace.op_cover"] >= 0.95
    assert m["kernels.rref.calls"] > 0 and m["kernels.rref.ops"] > 0
    if workload == "construct_deep":
        assert m["oracle.graded_homology.calls"] == 0
        assert m["complexes.MatrixMap.compose.calls"] > 0
    else:
        assert m["oracle.graded_homology.cells"] > 0
    if workload == "corpus_cli":
        # the CLI imports these by name: their calls must still be seen
        assert m["cli.main.calls"] > 0
        assert m["oracle.exactness_certificate.s"] > 0
    else:
        assert m["randgen.gen_random_hmf.s"] > 0


def test_package_knobs_are_removed():
    env = dict(os.environ, HMF_KERNEL="numba", HMF_THREADS="2")
    proc = run_bench("fuzz_verify", 0, env=env)
    assert proc.returncode == 0, proc.stderr
    assert tagged(proc.stdout.splitlines(), "env: ")["kernel_backend"] == "numpy"


def test_wrong_report_digest_is_a_failed_op(capsys):
    sys.path.insert(0, str(HERE))
    import run

    table = json.loads((HERE / "digests.json").read_text())
    table["micro_codim1.suite"] = dict(table["micro_codim1.suite"], sha256="0" * 64)
    argv = ["--workload", "corpus_cli", "--seed", "3", "--seconds", "1",
            "--trace", "0", "--size", "smoke"]
    assert run.main(argv, expected_digests=table) == 0
    lines = capsys.readouterr().out.strip().splitlines()
    result = json.loads(lines[-1])
    assert not result["correct"]
    assert result["failed"] >= 1
    assert tagged(lines, "summary: ")["failed_ratio"] == result["failed"] / result["attempted"] > 0


def test_wrong_answers_fail_their_checks(tmp_path):
    sys.path.insert(0, str(HERE))
    import run

    run.import_package()
    import workloads

    corpus = workloads.CorpusCli(3, "smoke", ROOT, tmp_path)
    job = corpus.prepare()[0]
    assert corpus.check(job, 0) == [f"{job[0]}: no report"]
    rc = corpus.op(job)
    assert corpus.check(job, rc) == []
    assert corpus.check(job, rc + 1)
    corpus.prepare()
    assert corpus.check(job, rc), "a report left by an earlier pass must not count"

    rows = [("pre-stability rank pattern", "FAIL"), ("exactness", "PASS")]
    assert workloads.FuzzVerify.check(None, (True, [], rows)) == []
    assert workloads.FuzzVerify.check(None, (True, [], rows + [("x", "FAIL")]))
    assert workloads.FuzzVerify.check(None, (False, ["axiom"], rows))
    wl = workloads.ConstructDeep(3, "smoke")
    F = wl.prepare()[0]
    out = workloads.ConstructDeep.op(F)
    assert workloads.ConstructDeep.check(F, out) == []
    assert workloads.ConstructDeep.check(F, dict(out, peel=["not surjective"]))
    assert workloads.ConstructDeep.check(F, dict(out, tower=out["tower"][:-1]))


def test_refuses_to_run_without_the_package(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    proc = run_bench("corpus_cli", 0, cwd=tmp_path)
    assert proc.returncode != 0
    assert '"metrics"' not in proc.stdout
