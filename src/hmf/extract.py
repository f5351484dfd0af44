"""Recognition and extraction of factorizations from syzygy data.

Input is a minimal complex F over the full quotient presenting the chosen
syzygy as Ker(delta_1).  The recursion mirrors the forward constructions:
solve the CI decomposition, demand the top operator be surjective, peel,
harvest the degree-<=3 homotopies of the peeled complex, and descend on its
degree->=2 tail.  Each descent step identifies the tail with the next
quotient tower, which pins the head blocks; that identification is
available through codimension 2 (the codimension-1 tower is 2-periodic),
and deeper towers would need the cosyzygy duality that is out of scope
here, so extraction raises beyond depth 2.

Also here: the strengthening of a factorization (re-reading h off genuine
degree-0 homotopies of the finite resolution) and the syzygy shift check.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .complexes import Complex, FreeModule, MatrixMap, ShapeError
from .factorization import HMF, Report, validate_hmf
from .graded import QuotientPieces
from .lifting import Obstruction, ci_from_lifting, higher_homotopies, lift_step
from .resolutions import PeelError, peel


class PreStabilityError(ValueError):
    def __init__(self, codim, condition):
        self.codim = codim
        self.condition = condition
        super().__init__(f"pre-stability fails at codimension {codim}: {condition}")


class ExtractionError(ValueError):
    pass


@dataclass
class SyzygyInput:
    """A designated syzygy inside a minimal level-c complex.

    The module is Im(delta_r) = Ker(delta_{r-1}); normalize() reindexes the
    complex so the module becomes Ker(delta_1).
    """

    complex: Complex
    syzygy_index: int = 2

    def normalize(self):
        r = self.syzygy_index
        C = self.complex
        if r < 2:
            raise ShapeError("syzygy index must be >= 2")
        if r == 2:
            return C
        return C.truncate(r - 2, C.hi).shift(r - 2)


@dataclass
class ExtractionTrace:
    levels: list = field(default_factory=list)

    def record(self, **kw):
        self.levels.append(kw)

    def as_json(self):
        return {"levels": self.levels}


def _descent_step(C, cc, variant=0):
    """One descent level: the CI operators of C, peeled with the top one.

    Returns (peel result, degree->=2 tail of the kernel, reindexed from 0).
    peel ranks the scalar part of the top operator, so an operator that is
    not surjective fails pre-stability at codimension cc.
    """
    tilde = ci_from_lifting(C, variant=variant)
    try:
        pr = peel(C, t=tilde[cc], variant=variant)
    except PeelError as exc:
        raise PreStabilityError(cc, str(exc)) from exc
    G = pr.kernel
    return pr, G.truncate(2, G.hi).shift(2)


class Descent:
    """The descent levels of one input, each computed once, on first use.

    complex(cc) is the complex at codimension cc, from the input's level
    down to 0.  level(cc), for cc >= 1, is (complex(cc), peel result, tail):
    the tail is the degree->=2 tail of the kernel, twisted down by
    deg f_{cc-1} because the next level re-adds its own head twist, and it
    is complex(cc - 1).  check_prestable and extract_hmf accept a Descent
    in place of their input and then use its variant, so checking and
    extracting one syzygy peels each level once.
    """

    def __init__(self, inp, variant=0):
        self.top = inp.normalize() if isinstance(inp, SyzygyInput) else inp
        self.variant = variant
        self._levels = {}

    def complex(self, cc):
        return self.top if cc == self.top.level else self.level(cc + 1)[2]

    def level(self, cc):
        if cc not in self._levels:
            C = self.complex(cc)
            pr, tail = _descent_step(C, cc, self.variant)
            if cc > 1:
                tail = tail.twisted(-C.ring.fdeg(cc - 1))
            self._levels[cc] = (C, pr, tail)
        return self._levels[cc]


def _as_descent(inp, variant):
    return inp if isinstance(inp, Descent) else Descent(inp, variant)


def check_prestable(inp, variant=0):
    """Recursive recognition: surjective top CI operator, peel, descend.

    Returns a Report; failures carry the codimension and condition that
    broke.  The truncation must allow c descent steps (two degrees each).
    """
    descent = _as_descent(inp, variant)
    failures = []
    items = []
    try:
        for cc in range(descent.top.level, 0, -1):
            C = descent.complex(cc)
            if C.hi < 4 and cc > 1:
                raise PreStabilityError(cc, "truncation too short for the recursion")
            _, pr, _ = descent.level(cc)
            items.append(f"codimension {cc}: top CI operator surjective "
                         f"through degree {C.hi}")
            if pr.report:
                raise PreStabilityError(cc, f"peel failed: {pr.report[:1]}")
        C = descent.complex(0)
        bad = [i for i in range(2, C.hi + 1) if C.module(i).rank]
        if bad:
            raise PreStabilityError(
                0, f"syzygy nonzero: base complex has rank at degrees {bad}"
            )
        items.append("codimension 0: zero syzygy")
    except (PreStabilityError, Obstruction) as exc:
        failures.append(str(exc))
    return Report(failures, [], items)


def extract_hmf(inp, variant=0, with_certificate=True, D=None):
    """Extract a (pre-stable) factorization from a designated syzygy.

    Returns (HMF, ExtractionTrace).  The output validates and its module is
    the chosen syzygy up to an overall twist by deg f_c per descent level.
    Raises PreStabilityError / ExtractionError with the failing condition.
    """
    descent = _as_descent(inp, variant)
    variant = descent.variant
    trace = ExtractionTrace()
    ring = descent.top.ring
    cc0 = descent.top.level
    if cc0 > 2 and _needs_deep_towers(descent, cc0):
        raise ExtractionError(
            "extraction beyond codimension 2 needs cosyzygy towers at every "
            "level, which require duality machinery outside this artifact"
        )

    def rec(cc):
        if cc == 0:
            C = descent.complex(0)
            bad = [i for i in range(2, C.hi + 1) if C.module(i).rank]
            if bad:
                raise PreStabilityError(0, f"nonzero base at degrees {bad}")
            return {"b1": {}, "b0": {}, "d": [], "h": {}}
        C, pr, _ = descent.level(cc)
        if pr.report:
            raise ExtractionError(f"peel inconsistent: {pr.report[:1]}")
        G = pr.kernel
        sigma = higher_homotopies(G, (cc,), 2, hom_hi=2, variant=variant)
        th0 = sigma.get((1,), 0)
        th1 = sigma.get((1,), 1)
        th2 = sigma.get((1,), 2)
        tau0 = sigma.get((2,), 0)
        head_twist = ring.fdeg(cc)
        trace.record(
            codim=cc,
            head_ranks=(C.module(1).rank, C.module(0).rank),
            kernel_ranks=G.betti_list(),
            theta0=th0.str_rows() if th0 is not None else None,
            theta1=th1.str_rows() if th1 is not None else None,
            theta2=th2.str_rows() if th2 is not None else None,
            tau0=tau0.str_rows() if tau0 is not None else None,
        )
        sub = rec(cc - 1)
        b1 = dict(sub["b1"])
        b0 = dict(sub["b0"])
        b1[cc] = FreeModule(tuple(tw + head_twist for tw in C.module(1).twists))
        b0[cc] = FreeModule(tuple(tw + head_twist for tw in C.module(0).twists))
        # shapes: the recursive A-modules must match the peeled degrees 2, 3
        sub_a1 = tuple(
            tw for p in sorted(sub["b1"]) for tw in sub["b1"][p].twists
        )
        sub_a0 = tuple(
            tw for p in sorted(sub["b0"]) for tw in sub["b0"][p].twists
        )
        if cc > 1 and (
            sub_a1 != G.module(3).twists or sub_a0 != G.module(2).twists
        ):
            raise ExtractionError(
                "descent tail does not match the recursed blocks "
                f"(codimension {cc}); deeper towers need duality data"
            )
        z = ring.zero()
        n1 = len(sub_a1) + C.module(1).rank
        n0 = len(sub_a0) + C.module(0).rank
        d_rows = [[z] * n1 for _ in range(n0)]
        for i, row in enumerate(sub["d"]):
            for j, val in enumerate(row):
                d_rows[i][j] = val
        if cc > 1 and th1 is not None:
            for i in range(len(sub_a0)):
                for j in range(C.module(1).rank):
                    d_rows[i][len(sub_a1) + j] = th1.entries[i][j]
        for i in range(C.module(0).rank):
            for j in range(C.module(1).rank):
                d_rows[len(sub_a0) + i][len(sub_a1) + j] = C.diff(1).entries[i][j]
        h = {p: sub["h"][p] for p in sub["h"]}
        h_rows = [[z] * n0 for _ in range(n1)]
        if cc > 1:
            for i in range(len(sub_a1)):
                for j in range(len(sub_a0)):
                    h_rows[i][j] = th2.entries[i][j]
                for j in range(C.module(0).rank):
                    h_rows[i][len(sub_a0) + j] = tau0.entries[i][j]
            d2 = G.diff(2)
            for i in range(C.module(1).rank):
                for j in range(len(sub_a0)):
                    h_rows[len(sub_a1) + i][j] = d2.entries[i][j]
        for i in range(C.module(1).rank):
            for j in range(C.module(0).rank):
                h_rows[len(sub_a1) + i][len(sub_a0) + j] = th0.entries[i][j]
        h[cc] = h_rows
        return {"b1": b1, "b0": b0, "d": d_rows, "h": h}

    data = rec(cc0)
    out = HMF(ring, data["b1"], data["b0"], data["d"], data["h"], c=cc0)
    rep = validate_hmf(out)
    if not rep.ok:
        raise ExtractionError(f"extracted data fails validation: {rep.failures[:2]}")
    if with_certificate:
        cert = prestable_certificate(out, D=D)
        trace.record(certificate=[c.row() for c in cert])
    return out, trace


def _needs_deep_towers(descent, cc):
    """Extraction depth is bounded by where the descent tails stay periodic;
    a tail that peels to zero within one descent level (two when cc = 3)
    poses no problem.  A descent that fails here needs the deep towers too;
    any other error propagates."""
    try:
        for k in range(cc, cc - (2 if cc == 3 else 1), -1):
            tail = descent.level(k)[2]
            if all(tail.module(i).rank == 0 for i in range(2, tail.hi + 1)):
                return False
    except (PreStabilityError, Obstruction, ShapeError):
        pass
    return True


def multiplication_injective_on_coker(comp, f, D):
    """Is multiplication by f injective on Coker(comp) in degrees <= D?

    comp is a MatrixMap at some level; the cokernel is taken over the
    quotient at that level.  Returns (ok, first failing degree or None).
    """
    ring = comp.ring
    fld = ring.field
    Q = QuotientPieces(ring, ring.regseq[: comp.level])
    q = f.degree()
    tgt = comp.dst
    mult = MatrixMap.poly_times_identity(ring, f, tgt)
    images = {}

    def image(e):
        if e not in images:
            M = Q.induced(comp, e)
            images[e] = (M, fld.rank(M))
        return images[e]

    for e in range(0, D + 1):
        cdim = Q.dim(tgt.twists, e)
        if cdim:
            cdim -= image(e)[1]
        if cdim == 0:
            continue
        im_eq, rk_eq = image(e + q)
        M = Q.induced(mult, e + q)
        img_dim = fld.rank(M.hstack(im_eq)) - rk_eq
        if img_dim < cdim:
            return False, e
    return True, None


def prestable_certificate(F, D=None):
    """Bounded certificate for the non-zerodivisor condition of a
    pre-stable factorization: for each p, multiplication by f_p is injective
    in degrees <= D on the cokernel of
        R(p-1) (x) A_0(p-1) -> A_0(p) -h_p-> A_1(p) -pi_p-> B_1(p).
    """
    from .oracle import CheckItem

    ring = F.ring
    items = []
    for p in range(1, F.c + 1):
        if F.rank1(p) == 0:
            items.append(CheckItem(f"p={p}: empty stage", None, None, "N-A"))
            continue
        hp = F.h[p]
        rows = list(range(F.off1(p), F.off1(p) + F.rank1(p)))
        cols = list(range(F.A0(p - 1).rank))
        comp = hp.submatrix(rows, cols).relevel(p - 1)
        Dp = D
        if Dp is None:
            tw = list(F.b1[p].twists) + [0]
            Dp = max(tw) + max(ring.fdeg(j) for j in range(1, F.c + 1)) + 2
        ok, bad = multiplication_injective_on_coker(comp, ring.regseq[p - 1], Dp)
        items.append(
            CheckItem(
                f"f_{p} is a non-zerodivisor on the stage-{p} cokernel "
                f"(degrees <= {Dp})",
                True,
                ok if ok else f"fails at degree {bad}",
                "PASS" if ok else "FAIL",
            )
        )
    return items


# ---------------------------------------------------------------------------
# Strengthening


_EXT_LABEL = re.compile(r"e(\d+)\*b0\.(\d+)\.(\d+)$")
_A1_LABEL = re.compile(r"b1\.(\d+)\.(\d+)$")


def strengthen(F, variant=0):
    """Replace h by the degree-0 part of an honest homotopy on the finite
    resolution of each stage.

    The new (d, h) satisfies the exact identity
        d_p h_p + sum f_i ext_p[(i,w)] = f_p Id
    for every p, has the same d and filtration, and is minimal whenever
    the input is.
    """
    from .resolutions import build_finite

    ring = F.ring
    fin = build_finite(F, variant=variant)
    new_h = {}
    ext_all = {}
    for p in range(1, F.c + 1):
        L = fin.stages[p]
        if L.module(0).rank == 0:
            new_h[p] = F.h[p].entries
            ext_all[p] = {}
            continue
        fid = MatrixMap.poly_times_identity(
            ring, ring.regseq[p - 1], L.module(0), 0
        )
        X, = lift_step(L.diff(1), [fid], 0, "strengthen", 0, [f"stage {p}"],
                       variant=variant)
        labels = L.module(1).all_labels()
        a1_rows = {}
        ext_rows = {}
        for i, lab in enumerate(labels):
            m = _A1_LABEL.fullmatch(lab)
            if m:
                a1_rows[(int(m.group(1)), int(m.group(2)))] = i
                continue
            m = _EXT_LABEL.fullmatch(lab)
            if m:
                ext_rows.setdefault(
                    (int(m.group(1)), int(m.group(2))), {}
                )[int(m.group(3))] = i
                continue
            raise ShapeError(f"unrecognized finite-resolution label {lab!r}")
        h_rows = []
        for qlev in range(0, p + 1):
            for k in range(F.rank1(qlev)):
                h_rows.append(list(X.entries[a1_rows[(qlev, k)]]))
        new_h[p] = h_rows
        ext = {}
        for (i, w), rowmap in sorted(ext_rows.items()):
            rows = [list(X.entries[rowmap[k]]) for k in range(F.rank0(w))]
            ext[(i, w)] = MatrixMap(
                ring,
                F.A0(p),
                F.b0[w],
                rows,
                0,
                ring.fdeg(p) - ring.fdeg(i),
                check=False,
            )
        ext_all[p] = ext
    out = HMF(
        F.ring,
        F.b1,
        F.b0,
        F.d.entries,
        new_h,
        generalized=F.generalized,
        strong_ext=ext_all,
        c=F.c,
    )
    return out


# ---------------------------------------------------------------------------
# Syzygy shift check


def syzygy_shift_check(F, steps=None, D=None):
    """Rank/twist agreement between the two constructions of the shifted
    tower: peeling the top cosyzygy extension must reproduce the one-step
    extension of the previous stage.  Reported as PASS/FAIL, or N-A when
    the factorization fails the pre-stability rank pattern.
    """
    from .factorization import stability_rank_check
    from .oracle import CheckItem, exactness_certificate
    from .resolutions import build_infinite, cosyz_tower

    stab = stability_rank_check(F)
    if not stab.ok:
        return [CheckItem("syzygy shift", None, "not pre-stable", "N-A")]
    if F.is_trivial():
        return [CheckItem("syzygy shift", [], [], "PASS")]
    c = F.c
    steps = steps if steps is not None else 2 * c + 4
    tower = build_infinite(F, steps)
    vw = cosyz_tower(F, steps, tower=tower)
    items = []
    for p in range(max(1, c), c + 1):
        V, W = vw[p]
        try:
            pr, _ = _descent_step(W.complex, p)
        except (PreStabilityError, Obstruction) as exc:
            items.append(CheckItem(f"peel of W({p})", None, str(exc), "FAIL"))
            continue
        G = pr.kernel
        ok = True
        for n in range(0, min(G.hi, V.complex.hi) + 1):
            if G.module(n).twists != V.complex.module(n).twists:
                ok = False
                break
        items.append(
            CheckItem(
                f"peel of the step-{p} extension matches the lower extension",
                [V.complex.rank(n) for n in range(0, V.complex.hi + 1)],
                [G.rank(n) for n in range(0, G.hi + 1)],
                "PASS" if ok else "FAIL",
            )
        )
        items.append(exactness_certificate(V.complex, (1, V.complex.hi - 1), D))
        items.append(exactness_certificate(W.complex, (1, W.complex.hi - 1), D))
    return items
