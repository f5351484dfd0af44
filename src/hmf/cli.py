"""Command-line surface.

Subcommands take JSON files (factorizations or complexes per the schema: 1
formats), run one pipeline each, and write deterministic JSON reports.
Every builder command (resolve-s, resolve-r, intermediate, shamash, box,
peel, extract, strengthen) validates its factorization first, so invalid
input exits 2 before any builder runs, as does a level (--p, --j,
--f-index, or the default c) outside 1..c, an extract --syzygy index r
whose degree r - 2 lies above the complex, or a numeric argument below
its bound.  Every command, validate included, exits 2 on a factorization
file whose flags ask for a level-0 slot: the reader refuses it.  A
gen-random profile (--c, --max-rank, --gamma) that no generated instance
has exits 2 as well; running out of retries exits 1.
Exit codes: 0 success/PASS, 1 validation failure, 2 input error.

The table _COMMANDS gives each subcommand its help and the options its
cmd_<name> function reads; any other option exits 2.  The parser is built
from it on the first call to main, not at import, and kept for the
process.  main dispatches by name, to the module attribute cmd_<name> at
call time, so the parser holds no function and a rebound cmd_* is called.
"""

from __future__ import annotations

import argparse
import functools
import sys

from . import io_json
from .factorization import (
    signature,
    stability_rank_check,
    validate_hmf,
    validate_strong,
)
from .io_json import SchemaError
from .oracle import (
    CheckItem,
    check_regular_sequence,
    default_degree_bound,
    exactness_certificate,
    formula_suite,
)


def _load_hmf(path):
    obj = io_json.load(path)
    from .factorization import HMF

    if not isinstance(obj, HMF):
        raise SchemaError(f"{path}: expected a factorization file")
    return obj


def _check_valid(F, path):
    """F, which the builders may only take once it validates."""
    rep = validate_hmf(F)
    if not rep.ok:
        raise SchemaError(f"{path}: invalid factorization: {rep.failures[:1]}")
    return F


def _in_range(value, lo, hi, what):
    """value, an argument that must lie in lo..hi."""
    if not lo <= value <= hi:
        raise SchemaError(f"{what} = {value} outside {lo}..{hi}")
    return value


def _level(value, F, what):
    """value, a level of F's tower, which must lie in 1..c."""
    return _in_range(value, 1, F.c, what)


def _at_least(lo):
    """An argparse type: an integer >= lo."""
    def parse(text):
        try:
            value = int(text)
        except ValueError:
            value = None
        if value is None or value < lo:
            raise argparse.ArgumentTypeError(
                f"expected an integer >= {lo}, got {text!r}")
        return value

    return parse


def _emit(args, payload):
    text = io_json.dumps(payload)
    if args.output:
        with open(args.output, "w") as fh:
            fh.write(text)
    else:
        sys.stdout.write(text)


def _maybe_tex(args, C):
    if args.tex:
        with open(args.tex, "w") as fh:
            fh.write(io_json.complex_to_tex(C))


def _resolution_report(args, C, hom_hi, provenance, weights):
    """The tail of the resolution commands: certify H_1..H_hom_hi of C, print
    its Betti numbers, write the TeX and the report; the exit code."""
    cert = exactness_certificate(C, (1, hom_hi), args.degree_bound)
    print("betti:", " ".join(str(r) for r in C.betti_list()))
    _maybe_tex(args, C)
    payload = io_json.complex_to_json(C, provenance=provenance,
                                      weights=weights)
    payload["exactness"] = cert.row()
    _emit(args, payload)
    return 0 if cert.verdict == "PASS" else 1


def cmd_validate(args):
    F = _load_hmf(args.file)
    rep = validate_hmf(F)
    ok_reg, reg_item = check_regular_sequence(F.ring, D=args.degree_bound)
    sig = signature(F)
    payload = {
        "schema": 1,
        "kind": "report",
        "verdict": "PASS" if rep.ok and ok_reg else "FAIL",
        "failures": rep.failures,
        "warnings": rep.warnings,
        "items": rep.items + [reg_item.row()],
        "signature": {
            "ranks": sig.ranks,
            "gamma": sig.gamma,
            "complexity": sig.complexity,
            "betti_degree": sig.betti_degree,
        },
    }
    _emit(args, payload)
    return 0 if rep.ok and ok_reg else 1


def cmd_resolve_s(args):
    from .resolutions import build_finite

    F = _check_valid(_load_hmf(args.file), args.file)
    L = build_finite(F).complex
    return _resolution_report(args, L, L.hi, "finite", None)


def cmd_resolve_r(args):
    from .resolutions import build_infinite

    F = _check_valid(_load_hmf(args.file), args.file)
    bundle = build_infinite(F, args.steps)
    T = bundle.complex
    return _resolution_report(args, T, T.hi - 1, "quotient-tower",
                              bundle.weights)


def cmd_intermediate(args):
    from .resolutions import build_intermediate

    F = _check_valid(_load_hmf(args.file), args.file)
    Q = build_intermediate(F, _level(args.j, F, "--j"), args.steps).complex
    return _resolution_report(args, Q, Q.hi - 1, "intermediate", None)


def cmd_shamash(args):
    from .resolutions import build_infinite

    F = _check_valid(_load_hmf(args.file), args.file)
    bundle = build_infinite(F, args.steps)
    stage = (bundle if args.p is None
             else bundle.stages[_level(args.p, F, "--p")])
    T = stage.complex
    print("betti:", " ".join(str(r) for r in T.betti_list()))
    _maybe_tex(args, T)
    _emit(args, io_json.complex_to_json(T, provenance="divided-power",
                                        weights=stage.weights))
    return 0


def cmd_box(args):
    from .complexes import validate_homotopy_system
    from .lifting import higher_homotopies
    from .resolutions import box, build_finite

    F = _check_valid(_load_hmf(args.file), args.file)
    f_idx = _level(F.c if args.f_index is None else args.f_index, F,
                   "--f-index")
    bundle = box(higher_homotopies(build_finite(F).complex, (f_idx,), 2))
    fails = validate_homotopy_system(bundle.sigma)
    cert = exactness_certificate(bundle.complex, (1, bundle.complex.hi),
                                 args.degree_bound)
    payload = io_json.complex_to_json(bundle.complex, provenance="box")
    payload["homotopy_failures"] = fails
    payload["exactness"] = cert.row()
    _maybe_tex(args, bundle.complex)
    _emit(args, payload)
    return 0 if not fails and cert.verdict == "PASS" else 1


def cmd_peel(args):
    from .resolutions import build_infinite, peel

    F = _check_valid(_load_hmf(args.file), args.file)
    p = _level(F.c if args.p is None else args.p, F, "--p")
    stage = build_infinite(F, args.steps).stages[p]
    pr = peel(stage.complex, t=stage.ci[p])
    payload = io_json.complex_to_json(pr.kernel, provenance="peeled")
    payload["report"] = pr.report
    _emit(args, payload)
    return 0 if not pr.report else 1


def cmd_extract(args):
    from .extract import (
        Descent,
        SyzygyInput,
        check_prestable,
        extract_hmf,
        prestable_certificate,
    )
    from .resolutions import cosyz_tower

    obj = io_json.load(args.file)
    from .factorization import HMF

    if isinstance(obj, HMF):
        _check_valid(obj, args.file)
        c = _level(obj.c, obj, "c")
        _, W = cosyz_tower(obj, args.steps or (2 * c + 4))[c]
    else:
        W = obj
    # the syzygy Im(delta_r) needs degree r - 2 of the complex
    inp = SyzygyInput(W, _in_range(args.syzygy, max(2, W.lo + 2), W.hi + 2,
                                   "--syzygy"))
    descent = Descent(inp)
    rep = check_prestable(descent)
    if not rep.ok:
        payload = {"schema": 1, "kind": "report", "verdict": "FAIL",
                   "failures": rep.failures, "items": rep.items}
        _emit(args, payload)
        return 1
    out, trace = extract_hmf(descent)
    if args.trace:
        cert = prestable_certificate(out)
        trace.record(certificate=[item.row() for item in cert])
        with open(args.trace, "w") as fh:
            fh.write(io_json.dumps(trace.as_json()))
    _emit(args, io_json.hmf_to_json(out))
    return 0


def cmd_strengthen(args):
    from .extract import strengthen

    F = _check_valid(_load_hmf(args.file), args.file)
    S = strengthen(F)
    rep = validate_strong(S)
    payload = io_json.hmf_to_json(S)
    payload["strong_report"] = {
        "failures": rep.failures,
        "items": rep.items,
    }
    _emit(args, payload)
    return 0 if rep.ok else 1


def cmd_suite(args):
    F = _load_hmf(args.file)
    rep = validate_hmf(F)
    rows = []
    reg_ok, reg_item = check_regular_sequence(F.ring, D=args.degree_bound)
    rows.append(reg_item)
    rows.append(CheckItem.compare("factorization axioms", [], rep.failures))
    if rep.ok:
        rows.extend(
            formula_suite(F, steps=args.steps, D=args.degree_bound)
        )
    payload = io_json.report_rows_to_json(rows)
    _emit(args, payload)
    if args.junit:
        with open(args.junit, "w") as fh:
            fh.write(io_json.report_rows_to_junit(rows))
    if not rep.ok or not reg_ok:
        return 1
    if args.strict_stability:
        stab = stability_rank_check(F)
        if not stab.ok:
            return 1
    return 0


def cmd_gen_random(args):
    from .randgen import UnreachableProfile, gen_random_hmf

    try:
        F = gen_random_hmf(args.seed, c=args.c, max_rank=args.max_rank,
                           gamma=args.gamma)
    except UnreachableProfile as exc:
        raise SchemaError(str(exc)) from exc
    _emit(args, io_json.hmf_to_json(F))
    return 0


# Options shared by several commands: (flags, argparse keywords).
_FILE = (("file",), {"help": "factorization JSON file (extract also takes "
                             "a complex)"})
_OUTPUT = (("-o", "--output"), {"help": "write JSON output here"})
_TEX = (("--tex",), {"help": "write a TeX arrow diagram here"})
_BOUND = (("--degree-bound",), {"type": _at_least(0), "default": None,
                                "help": "internal degree bound for certificates"})
_P = (("--p",), {"type": int, "default": None,
                 "help": "tower level, 1..c (default c)"})


def _steps(default, shown=None):
    """--steps with default, which the help shows (or shown, when the
    command computes it)."""
    return (("--steps",), {"type": _at_least(1), "default": default,
                           "help": "homological degrees to build (default "
                                   f"{shown or default})"})


# One row per subcommand: its name, its help and the options that
# cmd_<name> reads, so argparse rejects any other option with exit 2.
_COMMANDS = (
    ("validate", "check the factorization axioms", (_FILE, _OUTPUT, _BOUND)),
    ("resolve-s", "finite resolution over the base ring",
     (_FILE, _OUTPUT, _TEX, _BOUND)),
    ("resolve-r", "truncated resolution over the quotient",
     (_FILE, _OUTPUT, _TEX, _BOUND, _steps(9))),
    ("intermediate", "resolution over a partial quotient",
     (_FILE, (("--j",), {"type": int, "required": True,
                         "help": "quotient level j of R(j), 1..c"}),
      _OUTPUT, _TEX, _BOUND, _steps(8))),
    ("shamash", "divided-power stage of the tower",
     (_FILE, _P, _OUTPUT, _TEX, _steps(8))),
    ("box", "box complex of the finite resolution",
     (_FILE, (("--f-index",), {"type": int, "default": None,
                               "help": "index of the element f, 1..c "
                                       "(default c)"}),
      _OUTPUT, _TEX, _BOUND)),
    ("peel", "invert the divided-power construction",
     (_FILE, _P, _OUTPUT, _steps(8))),
    ("extract", "extract a factorization from syzygy data",
     (_FILE, (("--syzygy",), {"type": _at_least(2), "default": 2,
                              "help": "syzygy index r >= 2; degree r - 2 "
                                      "must lie in the complex (default "
                                      "%(default)s)"}),
      (("--trace",), {"help": "write the extraction trace here"}), _OUTPUT,
      _steps(None, "2c + 4"))),
    ("strengthen", "upgrade h to exact homotopy data", (_FILE, _OUTPUT)),
    ("suite", "run every formula and certificate check",
     (_FILE, (("--strict-stability",),
              {"action": "store_true",
               "help": "also exit 1 when the ranks are not pre-stable"}),
      (("--junit",), {"help": "write a JUnit XML report here"}), _OUTPUT,
      _BOUND, _steps(8))),
    ("gen-random", "generate a random valid factorization",
     ((("--seed",), {"type": int, "required": True,
                     "help": "random seed; equal seeds give equal files"}),
      (("--c",), {"type": _at_least(1), "default": 2,
                  "help": "codimension c >= 1 (default %(default)s)"}),
      (("--max-rank",), {"type": _at_least(1), "default": 3,
                         "help": "bound on the rank of each block "
                                 "(default %(default)s)"}),
      (("--gamma",), {"type": int, "default": None,
                      "help": "least level p with B_1(p) != 0, c - 1 or c "
                              "(default: drawn from the seed)"}),
      _OUTPUT)),
)


@functools.cache
def _parser():
    """The parser of _COMMANDS, built once per process on first use."""
    ap = argparse.ArgumentParser(
        prog="hmf",
        description="Exact higher matrix factorization toolkit",
    )
    sub = ap.add_subparsers(dest="command", required=True)
    for name, help_text, options in _COMMANDS:
        p = sub.add_parser(name, help=help_text)
        for flags, kwargs in options:
            p.add_argument(*flags, **kwargs)
    return ap


def main(argv=None):
    args = _parser().parse_args(argv)
    # looked up by name at call time, so a rebound cmd_* is the one called
    cmd = globals()["cmd_" + args.command.replace("-", "_")]
    try:
        return cmd(args)
    except SchemaError as exc:
        print(f"input error: {exc}", file=sys.stderr)
        return 2
    except (ValueError, KeyError) as exc:
        print(f"error: {exc}", file=sys.stderr)
        return 1


if __name__ == "__main__":
    sys.exit(main())
