"""Recognition and extraction of factorizations from syzygy data.

Input is a minimal complex F over the full quotient presenting the chosen
syzygy as Ker(delta_1).  The recursion mirrors the forward constructions:
solve the CI decomposition, demand the top operator be surjective, peel,
harvest the degree-<=3 homotopies of the peeled complex, and descend on its
degree->=2 tail.  Each descent step identifies the tail with the next
quotient tower, which pins the head blocks; a tail whose ranks do not match
the recursed blocks raises ExtractionError, and the output must pass
validate_hmf.

Also here: the strengthening of a factorization (re-reading h off genuine
degree-0 homotopies of the finite resolution) and the syzygy shift check.
"""

from __future__ import annotations

import re
from dataclasses import dataclass, field

from .complexes import Complex, FreeModule, MatrixMap, ShapeError, ZERO_MODULE
from .factorization import HMF, Report, validate_hmf
from .lifting import Obstruction, higher_homotopies, lift_step
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

    The module is Im(delta_r) = Ker(delta_{r-1}); normalize() drops the
    degrees below r - 2 and reindexes the rest from 0, so the module becomes
    Ker(delta_1).
    """

    complex: Complex
    syzygy_index: int = 2

    def normalize(self):
        r = self.syzygy_index
        C = self.complex
        if r < 2:
            raise ShapeError("syzygy index must be >= 2")
        return C.truncate(r - 2, C.hi).shift(r - 2)


@dataclass
class ExtractionTrace:
    levels: list = field(default_factory=list)

    def record(self, **kw):
        self.levels.append(kw)

    def as_json(self):
        return {"levels": self.levels}


class Descent:
    """The descent levels of one input, each computed once, on first use.

    complex(cc) is the complex at codimension cc, from the input's level
    down to 0.  level(cc), for cc >= 1, is (complex(cc), peel result, tail):
    the tail is the degree->=2 tail of the kernel, twisted down by
    deg f_{cc-1} because the next level re-adds its own head twist, and it
    is complex(cc - 1).  check_prestable and extract_hmf accept a Descent
    in place of their input, so checking and extracting one syzygy peels
    each level once.
    """

    def __init__(self, inp):
        self.top = inp.normalize() if isinstance(inp, SyzygyInput) else inp
        self._levels = {}

    def complex(self, cc):
        return self.top if cc == self.top.level else self.level(cc + 1)[2]

    def level(self, cc):
        """One descent step: complex(cc) peeled with its top CI operator.
        peel ranks the scalar part of that operator, so an operator that is
        not surjective fails pre-stability at codimension cc."""
        if cc not in self._levels:
            C = self.complex(cc)
            try:
                pr = peel(C)
            except PeelError as exc:
                raise PreStabilityError(cc, str(exc)) from exc
            tail = pr.kernel.truncate(2, pr.kernel.hi).shift(2)
            if cc > 1:
                tail = tail.twisted(-C.ring.fdeg(cc - 1))
            self._levels[cc] = (C, pr, tail)
        return self._levels[cc]

    def check_base(self):
        """The codimension-0 condition: complex(0) vanishes above degree 1
        (the syzygy of the base is zero); raises PreStabilityError(0)."""
        C = self.complex(0)
        bad = [i for i in range(2, C.hi + 1) if C.module(i).rank]
        if bad:
            raise PreStabilityError(
                0, f"syzygy nonzero: base complex has rank at degrees {bad}")


def _as_descent(inp):
    return inp if isinstance(inp, Descent) else Descent(inp)


def check_prestable(inp):
    """Recursive recognition: surjective top CI operator, peel, descend.

    Returns a Report; failures carry the codimension and condition that
    broke.  The truncation must allow c descent steps (two degrees each).
    """
    descent = _as_descent(inp)
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
        descent.check_base()
        items.append("codimension 0: zero syzygy")
    except (PreStabilityError, Obstruction) as exc:
        failures.append(str(exc))
    return Report(failures, [], items)


def extract_hmf(inp):
    """Extract a (pre-stable) factorization from a designated syzygy.

    Returns (HMF, ExtractionTrace).  The output validates and its module is
    the chosen syzygy up to an overall twist by deg f_c per descent level.
    Raises PreStabilityError / ExtractionError with the failing condition.
    """
    descent = _as_descent(inp)
    trace = ExtractionTrace()
    ring = descent.top.ring
    cc0 = descent.top.level

    def rec(cc):
        if cc == 0:
            descent.check_base()
            d = MatrixMap.zero(ring, ZERO_MODULE, ZERO_MODULE)
            return {"b1": {}, "b0": {}, "d": d, "h": {}}
        C, pr, _ = descent.level(cc)
        if pr.report:
            raise ExtractionError(f"peel inconsistent: {pr.report[:1]}")
        G = pr.kernel
        sigma = higher_homotopies(G, (cc,), 2, hom_hi=2)
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
        # d and h_cc as 2x2 block maps over (lower levels, level cc); the
        # peeled blocks lack the head twist, so only their rows are copied
        A1 = [FreeModule(sub_a1), b1[cc]]
        A0 = [FreeModule(sub_a0), b0[cc]]
        upper = cc > 1
        A1s, A0s = FreeModule.concat(A1), FreeModule.concat(A0)
        d = MatrixMap.from_blocks(
            ring, [[sub["d"], th1 if upper else None], [None, C.diff(1)]], A1, A0,
            A1s, A0s)
        h = dict(sub["h"])
        h[cc] = MatrixMap.from_blocks(
            ring, [[th2 if upper else None, tau0 if upper else None],
                   [G.diff(2) if upper else None, th0]], A0, A1, A0s, A1s)
        return {"b1": b1, "b0": b0, "d": d, "h": h}

    data = rec(cc0)
    out = HMF(ring, data["b1"], data["b0"], data["d"].rows,
              {p: h.rows for p, h in data["h"].items()}, c=cc0)
    rep = validate_hmf(out)
    if not rep.ok:
        raise ExtractionError(f"extracted data fails validation: {rep.failures[:2]}")
    return out, trace


def multiplication_injective_on_coker(comp, f, D):
    """Is multiplication by f injective on Coker(comp) in degrees <= D?

    comp is a MatrixMap at some level; the cokernel M is taken over the
    quotient at that level.  With q = deg f, dim f M_e is
    HF(comp)(e + q) - HF([f Id | comp])(e + q), and f is injective on M_e
    iff that is dim M_e = HF(comp)(e).  Returns (ok, first failing degree
    or None).
    """
    from .oracle import hilbert_function

    q = f.degree()
    tgt = comp.dst
    mult = MatrixMap.poly_times_identity(comp.ring, f, tgt)
    mods = [tgt.shifted(q), comp.src.shifted(comp.shift)]
    both = MatrixMap.from_blocks(comp.ring, [[mult, comp]], mods, [tgt],
                                 FreeModule.concat(mods), tgt, comp.level)
    hf = hilbert_function(comp, D + q)
    hf_both = hilbert_function(both, D + q)
    for e in range(0, D + 1):
        if hf[e] and hf[e + q] - hf_both[e + q] < hf[e]:
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
        comp = F.pi_h(p).submatrix(list(range(F.rank1(p))),
                                   list(range(F.A0(p - 1).rank))).relevel(p - 1)
        Dp = D
        if Dp is None:
            tw = list(F.b1[p].twists) + [0]
            Dp = max(tw) + max(ring.fdeg(j) for j in range(1, F.c + 1)) + 2
        ok, bad = multiplication_injective_on_coker(comp, ring.regseq[p - 1], Dp)
        items.append(CheckItem.compare(
            f"f_{p} is a non-zerodivisor on the stage-{p} cokernel "
            f"(degrees <= {Dp})",
            True, ok if ok else f"fails at degree {bad}"))
    return items


# ---------------------------------------------------------------------------
# Strengthening


_EXT_LABEL = re.compile(r"e(\d+)\*b0\.(\d+)\.(\d+)$")
_A1_LABEL = re.compile(r"b1\.(\d+)\.(\d+)$")


def strengthen(F):
    """Replace h by the degree-0 part of an honest homotopy on the finite
    resolution of each stage.

    The new (d, h) satisfies the exact identity
        d_p h_p + sum f_i ext_p[(i,w)] = f_p Id
    for every p, has the same d and filtration, and is minimal whenever
    the input is.
    """
    from .resolutions import build_finite

    ring = F.ring
    fin = build_finite(F)
    new_h = {}
    ext_all = {}
    for p in range(1, F.c + 1):
        L = fin.stages[p]
        if L.module(0).rank == 0:
            new_h[p] = F.h[p].rows
            ext_all[p] = {}
            continue
        fid = MatrixMap.poly_times_identity(
            ring, ring.regseq[p - 1], L.module(0), 0
        )
        X, = lift_step(L.diff(1), [fid], "strengthen", 0, [f"stage {p}"])
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
        cols = list(range(X.src.rank))
        new_h[p] = X.submatrix([a1_rows[(qlev, k)] for qlev in range(1, p + 1)
                                for k in range(F.rank1(qlev))], cols).rows
        ext = {}
        for (i, w), rowmap in sorted(ext_rows.items()):
            rows = X.submatrix([rowmap[k] for k in range(F.rank0(w))], cols).rows
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
    return HMF(F.ring, F.b1, F.b0, F.d.rows, new_h, strong_ext=ext_all,
               c=F.c)


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
        return [CheckItem.compare("syzygy shift", [], [])]
    c = F.c
    steps = steps if steps is not None else 2 * c + 4
    tower = build_infinite(F, steps)
    vw = cosyz_tower(F, steps, tower=tower)
    items = []
    for p in range(max(1, c), c + 1):
        V, W = vw[p]
        try:
            _, pr, _ = Descent(W).level(p)
        except (PreStabilityError, Obstruction) as exc:
            items.append(CheckItem(f"peel of W({p})", None, str(exc), "FAIL"))
            continue
        G = pr.kernel
        ok = True
        for n in range(0, min(G.hi, V.hi) + 1):
            if G.module(n).twists != V.module(n).twists:
                ok = False
                break
        items.append(
            CheckItem(
                f"peel of the step-{p} extension matches the lower extension",
                [V.rank(n) for n in range(0, V.hi + 1)],
                [G.rank(n) for n in range(0, G.hi + 1)],
                "PASS" if ok else "FAIL",
            )
        )
        items.append(exactness_certificate(V, (1, V.hi - 1), D))
        items.append(exactness_certificate(W, (1, W.hi - 1), D))
    return items
