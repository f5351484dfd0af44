"""Benchmark of the hmf package: three closed-loop, single-process workloads.

    python3 perfbench/run.py --workload fuzz_verify --seed 1 --seconds 30 --trace 0

Run from the repository root; the package is imported from ``src/``.  The
last line of standard output is one JSON object with the keys ``correct``,
``attempted``, ``failed`` and ``metrics``.  ``--trace 0`` reports the
end-to-end metrics of BENCHMARK.json, ``--trace 1`` its per-layer metrics.
Lines before it record the environment and a summary: pass times,
``failed_ratio``, op latencies (``op_p50_s`` and ``op_tail_s``, the highest
percentile with at least ten ops of a pass beyond it) and ``suite_s`` on
``corpus_cli``.

A run is made of passes; a pass runs one op on every input of the workload,
back to back, and the checks run after it.  The untraced run starts passes
while the next one is expected to end within ``--seconds`` (at least one);
each time metric is a median over passes, so it does not depend on how many
fit.  The traced run makes one untraced pass and then one pass with spans
recorded around the package from outside (see tracer.py).  ``setup_s`` is
the median over five fresh interpreters that import the package and make
the inputs.  See DESIGN.md for the workloads and metrics.
"""

from __future__ import annotations

import argparse
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import traceback
from hashlib import sha256
from pathlib import Path
from time import perf_counter, process_time

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
WORKLOADS = ("fuzz_verify", "construct_deep", "corpus_cli")
SETUP_SAMPLES = 5
# Layers whose summed self time is reported as ``trace.verifier_share``.
VERIFIER_MODULES = ("oracle", "kernels")
# The package runs at its defaults: these would select a kernel or threads.
SCRUBBED_ENV = ("HMF_THREADS", "HMF_KERNEL")


def scrubbed_environ():
    return {k: v for k, v in os.environ.items() if k not in SCRUBBED_ENV}


def import_package():
    """Import hmf from ROOT/src, or raise SystemExit when it is not there."""
    src = ROOT / "src"
    if not (src / "hmf" / "__init__.py").is_file() or not (ROOT / "corpus").is_dir():
        raise SystemExit(f"no hmf sources under {src}: run from a repository checkout")
    sys.path.insert(0, str(src))
    import hmf

    if Path(hmf.__file__).resolve().parent != (src / "hmf").resolve():
        raise SystemExit(f"imported hmf from {hmf.__file__}, not from {src}")


def make_workload(name, seed, size, out_dir, expected=None):
    import workloads

    if name == "fuzz_verify":
        return workloads.FuzzVerify(seed, size)
    if name == "construct_deep":
        return workloads.ConstructDeep(seed, size)
    return workloads.CorpusCli(seed, size, ROOT, out_dir, expected)


# ---------------------------------------------------------------------------
# passes


class OpError:
    """An op that raised; its check reports the exception."""

    def __init__(self, exc):
        self.text = f"{type(exc).__name__}: {exc}"


class Pass:
    """One op per input, back to back, timed as a whole and per op."""

    def __init__(self, inputs, op):
        self.times = []
        outputs = []
        c0 = process_time()
        t0 = perf_counter()
        for x in inputs:
            t = perf_counter()
            try:
                out = op(x)
            except Exception as exc:  # a failed op is counted, not fatal
                traceback.print_exc(file=sys.stderr)
                out = OpError(exc)
            self.times.append(perf_counter() - t)
            outputs.append(out)
        self.wall = perf_counter() - t0
        self.cpu = process_time() - c0
        self.inputs = inputs
        self.outputs = outputs

    def check(self, wl):
        """Number of failed ops; prints what was wrong to stderr."""
        failed = 0
        for x, out in zip(self.inputs, self.outputs):
            problems = [out.text] if isinstance(out, OpError) else wl.check(x, out)
            if problems:
                failed += 1
                print(f"failed op: {problems[:3]}", file=sys.stderr)
        return failed


def tail_index(n):
    """Index of the highest percentile with at least 10 samples beyond it;
    the maximum when there are too few samples for one."""
    return n - 11 if n > 10 else n - 1


def time_setup(workload, seed, size):
    """Wall seconds of fresh interpreters that only set up."""
    cmd = [sys.executable, str(HERE / "run.py"), "--workload", workload,
           "--seed", str(seed), "--size", size, "--setup-only"]
    samples = []
    for _ in range(SETUP_SAMPLES):
        t0 = perf_counter()
        proc = subprocess.run(cmd, cwd=ROOT, env=scrubbed_environ(),
                              stdout=subprocess.DEVNULL, stderr=subprocess.PIPE,
                              text=True, timeout=150)
        samples.append(perf_counter() - t0)
        if proc.returncode != 0:
            raise RuntimeError(f"set-up failed: {proc.stderr.strip()[-500:]}")
    return statistics.median(samples)


# ---------------------------------------------------------------------------
# environment record


def git_commit():
    head = ROOT / ".git" / "HEAD"
    if not head.is_file():
        return None
    ref = head.read_text().strip()
    if not ref.startswith("ref: "):
        return ref
    ref_file = ROOT / ".git" / ref[5:]
    if ref_file.is_file():
        return ref_file.read_text().strip()
    packed = ROOT / ".git" / "packed-refs"
    if packed.is_file():
        for line in packed.read_text().splitlines():
            if line.endswith(" " + ref[5:]):
                return line.split()[0]
    return None


def source_digest():
    h = sha256()
    for path in sorted((ROOT / "src" / "hmf").glob("*.py")):
        h.update(path.name.encode())
        h.update(path.read_bytes())
    return h.hexdigest()


def environment():
    import numpy as np
    from hmf import _kernels

    try:
        blas = np.show_config(mode="dicts")["Build Dependencies"]["blas"]
        blas = f"{blas.get('name')} {blas.get('version')}"
    except (TypeError, KeyError):
        blas = "unknown"
    return {
        "python": platform.python_version(),
        "numpy": np.__version__,
        "blas": blas,
        "nproc": os.cpu_count(),
        "affinity": len(os.sched_getaffinity(0)),
        "kernel_backend": _kernels.backend_name(),
        "git_commit": git_commit(),
        "src_sha256": source_digest(),
        "scrubbed_env": list(SCRUBBED_ENV),
    }


# ---------------------------------------------------------------------------
# metrics


def benchmark_spec():
    return json.loads((ROOT / "BENCHMARK.json").read_text())


def peak_rss_mb():
    return resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0


def end_to_end(passes, setup_s):
    """Medians over passes."""
    return {
        "setup_s": setup_s,
        "wall_s": statistics.median(p.wall for p in passes),
        "cpu_s": statistics.median(p.cpu for p in passes),
        "peak_rss_mb": peak_rss_mb(),
    }


def op_latency(passes):
    """Median over passes of the op latency order statistics of each pass."""
    ranked = [sorted(p.times) for p in passes]
    n = len(ranked[0])
    return {
        "ops_per_pass": n,
        "op_p50_s": statistics.median(statistics.median(t) for t in ranked),
        "op_tail_s": statistics.median(t[tail_index(n)] for t in ranked),
        "op_tail_percentile": round(100.0 * (tail_index(n) + 1) / n, 1),
    }


def per_layer(spec, rec, setup_rec, untraced, traced):
    """Each per-layer metric is ``<span>.<stat>`` or a ``trace.*`` figure."""
    special = {
        "trace.overhead_s": traced.wall - untraced.wall,
        "trace.wall_s": traced.wall,
        "trace.op_cover": rec.inclusive("bench.op") / traced.wall,
        "trace.verifier_share": sum(
            st[2] for name, st in rec.stats.items()
            if name.split(".")[0] in VERIFIER_MODULES) / traced.wall,
        "randgen.gen_random_hmf.s": setup_rec.inclusive("randgen.gen_random_hmf"),
    }
    out = {}
    for m in spec["per_layer"]:
        name = m["name"]
        span, stat = name.rsplit(".", 1)
        if name in special:
            value = special[name]
        elif stat in ("ops", "cells"):
            value = rec.counts.get(name, 0)
        else:
            if span not in rec.stats:
                print(f"warning: no function {span} is traced", file=sys.stderr)
            value = {"calls": rec.calls, "s": rec.inclusive,
                     "self_s": rec.self_time}[stat](span)
        out[name] = {"value": value, "unit": m["unit"]}
    return out


# ---------------------------------------------------------------------------


def parse_args(argv):
    ap = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    ap.add_argument("--workload", required=True, choices=WORKLOADS)
    ap.add_argument("--seed", type=int, required=True)
    ap.add_argument("--seconds", type=float, default=30)
    ap.add_argument("--trace", type=int, choices=(0, 1), default=0)
    ap.add_argument("--size", choices=("full", "smoke"), default="full",
                    help="smoke: the cheapest inputs of each workload, for tests")
    ap.add_argument("--setup-only", action="store_true",
                    help="set up and exit; used to time set-up")
    return ap.parse_args(argv)


def main(argv=None, expected_digests=None):
    args = parse_args(argv)
    for key in SCRUBBED_ENV:
        os.environ.pop(key, None)
    import_package()
    sys.path.insert(0, str(HERE))
    import tracer

    out_dir = ROOT / ".perfbench_tmp" / f"{args.workload}-{os.getpid()}"
    out_dir.mkdir(parents=True, exist_ok=True)
    try:
        if args.setup_only:
            make_workload(args.workload, args.seed, args.size, out_dir)
            return 0
        setup_s = time_setup(args.workload, args.seed, args.size)
        setup_rec = tracer.Recorder()
        inst = tracer.install(setup_rec) if args.trace else None
        try:
            wl = make_workload(args.workload, args.seed, args.size, out_dir,
                               expected_digests)
        finally:
            if inst:
                inst.uninstall()
        passes = []
        failed = 0
        t0 = perf_counter()
        while True:
            passes.append(Pass(wl.prepare(), wl.op))
            failed += passes[-1].check(wl)
            if args.trace:
                break
            expected = statistics.median(p.wall for p in passes)
            if perf_counter() - t0 + expected > args.seconds:
                break
        attempted = sum(len(p.times) for p in passes)
        spec = benchmark_spec()
        if args.trace:
            rec = tracer.Recorder()
            inputs = wl.prepare()
            inst = tracer.install(rec)
            try:
                traced = Pass(inputs, rec.span("bench.op", wl.op))
            finally:
                inst.uninstall()
            failed += traced.check(wl)
            attempted += len(traced.times)
            metrics = per_layer(spec, rec, setup_rec, passes[0], traced)
        else:
            units = {m["name"]: m["unit"] for m in spec["end_to_end"]}
            metrics = {k: {"value": v, "unit": units[k]}
                       for k, v in end_to_end(passes, setup_s).items()}
    finally:
        shutil.rmtree(out_dir, ignore_errors=True)
        try:
            out_dir.parent.rmdir()
        except OSError:
            pass

    summary = {
        "workload": args.workload,
        "seed": args.seed,
        "pass_wall_s": [p.wall for p in passes],
        "failed_ratio": failed / attempted,
        "setup_s": setup_s,
        **op_latency(passes),
    }
    if args.workload == "corpus_cli":
        summary["suite_s"] = statistics.median(
            sum(t for (key, _), t in zip(p.inputs, p.times) if key.endswith(".suite"))
            for p in passes)
    print("env:", json.dumps(environment(), sort_keys=True))
    print("summary:", json.dumps(summary, sort_keys=True))
    print(json.dumps({"correct": failed == 0, "attempted": attempted,
                      "failed": failed, "metrics": metrics}))
    return 0


if __name__ == "__main__":
    sys.exit(main())
