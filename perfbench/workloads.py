"""The three benchmark workloads.

Each workload is single-process and closed-loop: one op starts after the
previous one returns.  The constructor makes the inputs from the workload
seed, ``prepare`` hands out the objects one pass runs on (fresh ones for every
pass after the first, so no pass inherits the per-ring caches another pass
filled), ``op`` is the timed call, and ``check`` runs after the pass and
returns the problems found in one op's output (empty when it is correct).

The package is reached through module attributes (``oracle.formula_suite``)
so that the traced run's wrappers see every call.
"""

from __future__ import annotations

import contextlib
import hashlib
import io
import json
import os
import random
from pathlib import Path

import hmf.cli as cli
import hmf.extract as extract
import hmf.factorization as factorization
import hmf.io_json as io_json
import hmf.lifting as lifting
import hmf.oracle as oracle
import hmf.randgen as randgen
import hmf.resolutions as resolutions

HERE = Path(__file__).resolve().parent
CANDIDATE_CAP = 20000


def generator_classes(c):
    """Every rank pattern ``gen_random_hmf(max_rank=3)`` reaches at codimension c.

    A pattern lists (level, rank B_1, rank B_0) for the nonzero levels: a
    square top block of rank 1-3 at level c, or the coupled pair at levels
    (c-1, c), alone or with one extra top row.
    """
    top = [((c, k, k),) for k in (1, 2, 3)]
    if c == 1:
        return top
    return top + [((c - 1, 2, 2), (c, 2, 1)), ((c - 1, 2, 2), (c, 3, 2))]


def rank_pattern(F):
    return tuple((p, F.rank1(p), F.rank0(p)) for p in range(1, F.c + 1)
                 if F.rank1(p) or F.rank0(p))


class Stratified:
    """Random instances with a fixed number per rank pattern.

    Generator seeds run from ``seed * 10007`` upward and codimension follows
    the generator seed as in the fuzz protocol; an instance is kept while its
    pattern's quota is open.  The seed changes every instance and keeps the
    mix, since cost depends mostly on the pattern: a consecutive window of
    seeds would change the cost of a run several-fold.
    """

    def __init__(self, seed, codim, quotas):
        want = {pat: quotas[c] for c in quotas for pat in generator_classes(c)}
        self.instances = []  # (generator seed, codimension, pattern)
        self._fresh = []
        s = seed * 10007
        while any(want.values()):
            if s - seed * 10007 > CANDIDATE_CAP:
                raise RuntimeError(f"rank patterns not filled: {want}")
            c = codim(s)
            if c in quotas:
                F = randgen.gen_random_hmf(s, c=c, max_rank=3)
                pat = rank_pattern(F)
                if want.get(pat):
                    want[pat] -= 1
                    self.instances.append((s, c, pat))
                    self._fresh.append(F)
            s += 1

    def prepare(self):
        """The first call returns the set-up objects, later calls new ones."""
        out, self._fresh = self._fresh, None
        if out is None:
            out = [randgen.gen_random_hmf(s, c=c, max_rank=3)
                   for s, c, _ in self.instances]
        return out


# ---------------------------------------------------------------------------
# fuzz_verify: the verifier on many small-to-mid factorizations


class FuzzVerify:
    """validate_hmf then formula_suite(steps=6, D=6), the acceptance-10 op."""

    QUOTAS = {"full": {1: 4, 2: 4, 3: 1}, "smoke": {1: 1}}

    def __init__(self, seed, size):
        self.inputs = Stratified(seed, lambda s: s % 3 + 1, self.QUOTAS[size])

    def prepare(self):
        return self.inputs.prepare()

    @staticmethod
    def op(F):
        rep = factorization.validate_hmf(F)
        rows = oracle.formula_suite(F, steps=6, D=6)
        return rep.ok, rep.failures, [(r.item, r.verdict) for r in rows]

    @staticmethod
    def check(F, out):
        ok, failures, rows = out
        problems = [] if ok else [f"validate_hmf: {failures[:2]}"]
        problems += [f"{item}: {verdict}" for item, verdict in rows
                     if verdict == "FAIL" and item != "pre-stability rank pattern"]
        return problems


# ---------------------------------------------------------------------------
# construct_deep: the builders on codimension 2-5, no certificate


class ConstructDeep:
    """Every builder in order on one factorization, with steps = 16."""

    STEPS = 16
    QUOTAS = {"full": {2: 2, 3: 2, 4: 2, 5: 1}, "smoke": {2: 1}}

    def __init__(self, seed, size):
        self.inputs = Stratified(seed, lambda s: s % 4 + 2, self.QUOTAS[size])

    def prepare(self):
        return self.inputs.prepare()

    @classmethod
    def op(cls, F):
        c = F.c
        fin = resolutions.build_finite(F)
        tower = resolutions.build_infinite(F, cls.STEPS)
        invalid = tower.complex.validate()
        _, ci_report = resolutions.special_lifting_and_ci(tower)
        for j in range(1, c):
            resolutions.build_intermediate(F, j, cls.STEPS, tower=tower)
        peeled = resolutions.peel(tower.complex, t=tower.ci.get(c))
        lifting.higher_homotopies(fin.complex, tuple(range(1, c + 1)), 3)
        strong = factorization.validate_strong(extract.strengthen(F))
        resolutions.cosyz_tower(F, cls.STEPS, tower=tower)
        return {
            "validate": invalid,
            "ci": ci_report,
            "peel": peeled.report,
            "strong": strong.failures if not strong.ok else [],
            "tower": tower.complex.betti_list(),
            "finite": fin.complex.betti_list(),
        }

    @classmethod
    def check(cls, F, out):
        problems = [f"{k}: {out[k][:2]}" for k in ("validate", "ci", "peel", "strong")
                    if out[k]]
        if out["tower"] != oracle.infinite_betti_formula(F, cls.STEPS):
            problems.append(f"tower betti {out['tower']}")
        if out["finite"] != oracle.finite_betti_formula(F):
            problems.append(f"finite betti {out['finite']}")
        return problems


# ---------------------------------------------------------------------------
# corpus_cli: the user-facing CLI on the golden corpus


CORPUS = ("micro_codim1", "codim2_xz_y2", "codim2_xa_yb", "codim3_shifted")
COMMANDS = ("validate", "suite", "resolve-s", "resolve-r", "extract",
            "strengthen", "peel", "box")
CERTIFICATE_COMMANDS = ("suite", "resolve-s", "resolve-r", "box")
DIGESTS = HERE / "digests.json"


def corpus_argv(root, name, command, out_dir):
    """The command line; argv[3] is the report path."""
    argv = [command, str(root / "corpus" / f"{name}.json"),
            "-o", str(out_dir / f"{name}.{command}.json")]
    if command == "resolve-r":
        argv += ["--steps", "5"]
    if name == "codim3_shifted" and command in CERTIFICATE_COMMANDS:
        argv += ["--degree-bound", "6"]
    return argv


def run_cli(argv):
    """hmf.cli.main in-process with stdout and stderr captured."""
    sink = io.StringIO()
    with contextlib.redirect_stdout(sink), contextlib.redirect_stderr(sink):
        return cli.main(argv)


def sha256(path):
    return hashlib.sha256(Path(path).read_bytes()).hexdigest()


class CorpusCli:
    """Eight commands on each corpus file, in an order drawn from the seed."""

    FILES = {"full": CORPUS, "smoke": CORPUS[:2]}

    def __init__(self, seed, size, root, out_dir, expected=None):
        self.expected = expected or json.loads(DIGESTS.read_text())
        for name in self.FILES[size]:
            # loading checks the inputs are present and well formed
            io_json.load(str(root / "corpus" / f"{name}.json"))
        self.jobs = [(f"{name}.{command}", corpus_argv(root, name, command, out_dir))
                     for name in self.FILES[size] for command in COMMANDS]
        random.Random(seed).shuffle(self.jobs)

    def prepare(self):
        """The jobs, with the reports of an earlier pass removed."""
        for _, argv in self.jobs:
            Path(argv[3]).unlink(missing_ok=True)
        return self.jobs

    @staticmethod
    def op(job):
        return run_cli(job[1])

    def check(self, job, rc):
        key, argv = job
        want = self.expected[key]
        problems = [] if rc == want["exit"] else [f"{key}: exit {rc}"]
        report = argv[3]
        if not os.path.exists(report):
            problems.append(f"{key}: no report")
        elif sha256(report) != want["sha256"]:
            problems.append(f"{key}: report digest differs")
        return problems


def record_digests(root, out_dir):
    """Run every corpus command once and return the digest table."""
    table = {}
    for name in CORPUS:
        for command in COMMANDS:
            argv = corpus_argv(root, name, command, out_dir)
            rc = run_cli(argv)
            table[f"{name}.{command}"] = {"exit": rc, "sha256": sha256(argv[3])}
    return table
