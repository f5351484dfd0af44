"""Versioned JSON schemas (schema: 1) and the TeX emitter.

Polynomials serialize as strings in the fixed grammar (`coef*var^e*...`
terms joined by + and -, graded-reverse-lexicographic order); rings,
complexes, and factorizations as JSON objects.  Serialization is
deterministic: dictionaries are dumped with sorted keys.

A factorization file has blocks B(p) and d-blocks "q->q'" for levels 1..c
only.  Its writer always writes the flag of a level-0 slot as false, and
its reader refuses a file that sets it.
"""

from __future__ import annotations

import json

from .complexes import (Complex, ContractViolation, FreeModule, MatrixMap,
                         ShapeError, ZERO_MODULE)
from .factorization import HMF
from .ring import Field, GradedRing, RingError


class SchemaError(ValueError):
    pass


def _require(cond, where, msg):
    if not cond:
        raise SchemaError(f"{where}: {msg}")


_KIND_NAMES = {int: "an integer", list: "a list", dict: "an object",
               bool: "a boolean"}


def _is_int(x):
    return isinstance(x, int) and not isinstance(x, bool)


def _key(obj, key, kind, where, default=None):
    """obj[key], which must be of the JSON type kind; it must be present
    unless a default is given, which then stands for a missing or null key."""
    _require(isinstance(obj, dict), where, "expected an object")
    if default is not None and obj.get(key) is None:
        return default
    _require(key in obj, where, f"missing key {key!r}")
    val = obj[key]
    ok = _is_int(val) if kind is int else isinstance(val, kind)
    _require(ok, where, f"{key!r} must be {_KIND_NAMES[kind]}")
    return val


def _twists(obj, key, where):
    tws = _key(obj, key, list, where)
    _require(all(_is_int(t) for t in tws), where,
             f"{key!r} must be a list of integers")
    return tuple(tws)


def _ints(key, n, sep, where):
    """The n integers of a key such as "1->2" or "1,2", in that spelling
    only: "01->1" would name the block of "1->1" a second time."""
    try:
        vals = tuple(int(x) for x in key.split(sep))
    except ValueError:
        vals = ()
    _require(len(vals) == n and sep.join(map(str, vals)) == key, where,
             f"bad key {key!r}")
    return vals


def _poly_rows(ring, rows, where):
    """A matrix given as a list of rows of polynomial strings, parsed."""
    _require(isinstance(rows, list) and all(isinstance(r, list) for r in rows),
             where, "expected a list of rows")
    try:
        return [[ring.poly(x) for x in r] for r in rows]
    except (RingError, TypeError) as exc:
        raise SchemaError(f"{where}: {exc}") from exc


def dumps(obj):
    return json.dumps(obj, sort_keys=True, separators=(",", ":")) + "\n"


def ring_to_json(ring):
    return {
        "schema": 1,
        "field": ring.field.char,
        "vars": [[n, d] for n, d in zip(ring.var_names, ring.var_degs)],
        "regseq": [str(f) for f in ring.regseq],
    }


def ring_from_json(obj, where="ring"):
    _require(isinstance(obj, dict), where, "expected an object")
    _require(obj.get("schema") == 1, where, "unsupported schema")
    regseq = obj.get("regseq")
    _require(isinstance(regseq, list) and all(isinstance(s, str) for s in regseq),
             f"{where}.regseq", "expected a list of polynomial strings")
    variables = _key(obj, "vars", list, where)
    _require(all(isinstance(v, list) and len(v) == 2 for v in variables),
             f"{where}.vars", "expected a list of [name, degree] pairs")
    _require(all(isinstance(v[0], str) for v in variables),
             f"{where}.vars", "variable names must be strings")
    _require("field" in obj, where, "missing key 'field'")
    try:
        ring = GradedRing(Field(obj["field"]), variables)
        ring.set_regseq(regseq)
    except (TypeError, ValueError) as exc:  # RingError is a ValueError
        raise SchemaError(f"{where}: {exc}") from exc
    return ring


def complex_to_json(C, provenance=None, weights=None):
    obj = {
        "schema": 1,
        "kind": "complex",
        "ring": ring_to_json(C.ring),
        "level": C.level,
        "range": [C.lo, C.hi],
        "modules": [
            {
                "twists": list(C.module(i).twists),
                "labels": list(C.module(i).all_labels()),
            }
            for i in range(C.lo, C.hi + 1)
        ],
        "diffs": [
            C.diff(i).str_rows() for i in range(C.lo + 1, C.hi + 1)
        ],
    }
    if provenance:
        obj["provenance"] = provenance
    if weights:
        obj["weights"] = {str(k): list(v) for k, v in weights.items()}
    return obj


def complex_from_json(obj, where="complex"):
    _require(isinstance(obj, dict), where, "expected an object")
    _require(obj.get("schema") == 1, where, "unsupported schema")
    _require(obj.get("kind") == "complex", where, "kind must be 'complex'")
    ring = ring_from_json(_key(obj, "ring", dict, where), where + ".ring")
    span = _key(obj, "range", list, where)
    _require(len(span) == 2 and all(_is_int(x) for x in span), where,
             "'range' must be two integers [lo, hi]")
    lo, hi = span
    modules = _key(obj, "modules", list, where)
    _require(hi - lo + 1 == len(modules), where,
             f"'range' [{lo}, {hi}] does not match {len(modules)} modules")
    mods = {}
    for k, m in enumerate(modules):
        at = f"{where}.modules[{k}]"
        twists = _twists(m, "twists", at)
        labels = _key(m, "labels", list, at, [])
        _require(all(isinstance(x, str) for x in labels), at,
                 "'labels' must be a list of strings")
        _require(not labels or len(labels) == len(twists), at,
                 "'labels' and 'twists' differ in length")
        mods[lo + k] = FreeModule(twists, tuple(labels) or None)
    level = _key(obj, "level", int, where)
    _require(0 <= level <= ring.codim, where, "level out of range")
    rows_all = _key(obj, "diffs", list, where)
    _require(not rows_all or len(rows_all) < len(mods), where,
             "more differentials than consecutive module pairs")
    diffs = {}
    for k, rows in enumerate(rows_all):
        i = lo + 1 + k
        try:
            diffs[i] = MatrixMap.from_strings(
                ring, mods[i], mods[i - 1], rows, level=level
            )
        except Exception as exc:
            raise SchemaError(f"{where}.diffs[{k}]: {exc}") from exc
    return Complex(ring, level, mods, diffs, lo, hi)


def hmf_to_json(F):
    d_blocks = {}
    for q in F.levels():
        for qp in range(1, q + 1):
            blk = F.block(q, qp)
            if blk.src.rank and blk.dst.rank:
                d_blocks[f"{q}->{qp}"] = blk.str_rows()
    h_blocks = {
        str(p): F.h[p].str_rows() for p in range(1, F.c + 1)
    }
    obj = {
        "schema": 1,
        "kind": "hmf",
        "ring": ring_to_json(F.ring),
        "c": F.c,
        "B": [
            {
                "p": p,
                "B1": list(F.b1[p].twists),
                "B0": list(F.b0[p].twists),
            }
            for p in F.levels()
        ],
        "d_blocks": d_blocks,
        "h_blocks": h_blocks,
        "flags": {
            "generalized": False,
            "strong": bool(F.strong_ext),
        },
    }
    if F.strong_ext:
        ext = {}
        for p, blocks in F.strong_ext.items():
            ext[str(p)] = {
                f"{i},{w}": blk.str_rows() for (i, w), blk in blocks.items()
            }
        obj["strong_ext"] = ext
    return obj


def hmf_from_json(obj, where="hmf"):
    _require(isinstance(obj, dict), where, "expected an object")
    _require(obj.get("schema") == 1, where, "unsupported schema")
    _require(obj.get("kind") == "hmf", where, "kind must be 'hmf'")
    ring = ring_from_json(_key(obj, "ring", dict, where), where + ".ring")
    c = _key(obj, "c", int, where)
    _require(c >= 0, where, "'c' must be nonnegative")
    _require(c <= ring.codim, where, f"'c' = {c} exceeds the {ring.codim} "
             "elements of ring.regseq")
    flags = _key(obj, "flags", dict, where, {})
    _require(not _key(flags, "generalized", bool, where + ".flags", False), where,
             "flags.generalized is set; a factorization has levels 1..c only")
    strong = _key(flags, "strong", bool, where + ".flags", False)
    b1 = {}
    b0 = {}
    for k, rec in enumerate(_key(obj, "B", list, where)):
        at = f"{where}.B[{k}]"
        p = _key(rec, "p", int, at)
        _require(1 <= p <= c, at, "'p' out of range")
        _require(p not in b1, at, f"second entry for p={p}")
        b1[p] = FreeModule(_twists(rec, "B1", at))
        b0[p] = FreeModule(_twists(rec, "B0", at))
    mods1 = [b1.get(p, ZERO_MODULE) for p in range(1, c + 1)]
    mods0 = [b0.get(p, ZERO_MODULE) for p in range(1, c + 1)]
    # blocks[qp - 1][q - 1]: the block of d from B_1(q) to B_0(qp)
    blocks = [[None] * c for _ in range(c)]
    for key, blk in _key(obj, "d_blocks", dict, where, {}).items():
        at = f"{where}.d_blocks[{key}]"
        q, qp = _ints(key, 2, "->", at)
        _require(1 <= qp <= q <= c, at, f"not a block q->q' of the "
                 f"filtration, 1 <= q' <= q <= {c}")
        src, dst = mods1[q - 1], mods0[qp - 1]
        blk = _poly_rows(ring, blk, at)
        _require(len(blk) == dst.rank and all(len(r) == src.rank for r in blk),
                 at, "block shape mismatch")
        blocks[qp - 1][q - 1] = MatrixMap.from_strings(ring, src, dst, blk,
                                                       check=False)
    d = MatrixMap.from_blocks(ring, blocks, mods1, mods0,
                              FreeModule.concat(mods1), FreeModule.concat(mods0))
    h_blocks = _key(obj, "h_blocks", dict, where, {})
    stages = [str(p) for p in range(1, c + 1)]
    for key in h_blocks:
        _require(key in stages, where, f"h block {key!r} outside 1..{c}")
    h = {}
    for p in range(1, c + 1):
        at = f"{where}.h_blocks[{p}]"
        _require(str(p) in h_blocks, where, f"missing h block {p}")
        try:
            h[p] = MatrixMap.from_strings(
                ring, FreeModule.concat(mods0[:p]),
                FreeModule.concat(mods1[:p]),
                _poly_rows(ring, h_blocks[str(p)], at), check=False).rows
        except ShapeError as exc:
            raise SchemaError(f"{at}: {exc}") from exc
    try:
        F = HMF(ring, b1, b0, d.rows, h, c=c)
    except Exception as exc:
        raise SchemaError(f"{where}: {exc}") from exc
    ext_all = {}
    for ps, blocks in _key(obj, "strong_ext", dict, where, {}).items():
        at = f"{where}.strong_ext[{ps}]"
        (p,) = _ints(ps, 1, ",", at)
        _require(1 <= p <= c and isinstance(blocks, dict), at,
                 "expected an object for a stage 1..c")
        ext = {}
        for key, rowsb in blocks.items():
            i, w = _ints(key, 2, ",", f"{at}[{key}]")
            _require(1 <= i < w <= p, f"{at}[{key}]", "slot out of range")
            rows = _poly_rows(ring, rowsb, f"{at}[{key}]")
            try:
                ext[(i, w)] = MatrixMap.from_strings(
                    ring, F.A0(p), F.b0[w], rows, 0,
                    ring.fdeg(p) - ring.fdeg(i))
            except (ShapeError, ContractViolation) as exc:
                raise SchemaError(f"{at}[{key}]: {exc}") from exc
        ext_all[p] = ext
    _require(strong == bool(ext_all), where,
             f"flags.strong is {str(strong).lower()}, but strong_ext is "
             + ("present" if ext_all else "absent"))
    if ext_all:
        F.strong_ext = ext_all
    return F


def load(path):
    try:
        with open(path) as fh:
            obj = json.load(fh)
    except json.JSONDecodeError as exc:
        raise SchemaError(f"{path}: invalid JSON ({exc})") from exc
    except OSError as exc:
        raise SchemaError(f"{path}: {exc}") from exc
    kind = obj.get("kind") if isinstance(obj, dict) else None
    if kind == "hmf":
        return hmf_from_json(obj, where=path)
    if kind == "complex":
        return complex_from_json(obj, where=path)
    raise SchemaError(f"{path}: unknown kind {kind!r}")


# ---------------------------------------------------------------------------
# TeX arrow diagrams


def complex_to_tex(C):
    lines = [r"\["]
    arrows = []
    for i in range(C.hi, C.lo, -1):
        mat = C.diff(i)
        body = r" \\ ".join(
            " & ".join(_tex_poly(str(q)) for q in row) for row in mat.entries
        )
        arrows.append(
            rf"F_{{{i}}} \xrightarrow{{\begin{{pmatrix}}{body}\end{{pmatrix}}}}"
        )
    tail = rf"F_{{{C.lo}}}"
    lines.append(" ".join(arrows + [tail]))
    lines.append(r"\]")
    return "\n".join(lines)


def _tex_poly(s):
    return s.replace("*", r"\,").replace("^", r"^")


# ---------------------------------------------------------------------------
# Report rendering


def report_rows_to_json(rows):
    return {"schema": 1, "kind": "report", "rows": [r.row() for r in rows]}


def report_rows_to_junit(rows):
    import xml.etree.ElementTree as ET

    failures = sum(1 for r in rows if r.verdict == "FAIL")
    root = ET.Element(
        "testsuite",
        name="hmf",
        tests=str(len(rows)),
        failures=str(failures),
    )
    for r in rows:
        case = ET.SubElement(root, "testcase", name=r.item)
        if r.verdict == "FAIL":
            f = ET.SubElement(case, "failure", message="check failed")
            f.text = f"expected={r.expected!r} computed={r.computed!r}"
        elif r.verdict == "N-A":
            ET.SubElement(case, "skipped")
    return ET.tostring(root, encoding="unicode")
