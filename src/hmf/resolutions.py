"""Resolution builders.

From a valid higher matrix factorization this module constructs:

* the finite resolution over S as an iterated cone of Koszul extensions,
* the (truncated) infinite resolution over each quotient, as iterated
  cone-then-divided-power constructions with a distinguished lifting whose
  top CI operator is the weight shift,
* intermediate resolutions over S/(f_1..f_j),
* box complexes with their attached homotopy,
* the two-step cosyzygy extensions (the V/W tower),

together with the inverse `peel` of the divided-power construction.  All
complexes are carried as S-matrices plus a quotient level; truncations
assert nothing beyond their stated range.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from .complexes import (
    Complex,
    ContractViolation,
    FreeModule,
    HomotopySystem,
    MatrixMap,
    ShapeError,
    ZERO_MODULE,
    mapping_cone,
    two_term_complex,
)
from .graded import piece_matrix
from .lifting import (
    Obstruction,
    SolverBug,
    ci_from_lifting,
    higher_homotopies,
    ideal_decomposition,
    koszul_extension,
    lift_step,
)


@dataclass
class ResolutionBundle:
    complex: Complex
    provenance: str
    weights: dict = field(default_factory=dict)
    sigma: object = None
    ci: dict = field(default_factory=dict)
    ci_section: dict = field(default_factory=dict)
    stages: dict = field(default_factory=dict)
    layout: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)

    def ranks(self):
        return self.complex.betti_list()


def _scalar_part(ring, mm):
    """Constant coefficients of entries at required degree 0 (reduction of a
    map modulo the graded maximal ideal): the degree-0 piece of the map with
    every twist set to 0 and the other entries dropped."""
    rows = {i: {j: q for j, q in row.items() if mm.required_degree(i, j) == 0}
            for i, row in mm.rows.items()}
    return piece_matrix(ring, rows, (0,) * mm.src.rank,
                        (0,) * mm.dst.rank, 0, 0)


# ---------------------------------------------------------------------------
# Finite resolution over S


def build_finite(F, variant=0):
    """Iterated cones of Koszul extensions: the S-free resolution tower.

    Returns a bundle whose complex is the length-c stage; stages[p] holds
    every intermediate resolution (stage p resolves the level-p module).
    A minimal factorization yields minimal stages, which is checked.
    """
    ring = F.ring
    if F.generalized:
        raise ShapeError(
            "generalized factorizations resolve through build_intermediate"
        )
    if F.c == 0:
        empty = Complex(ring, 0, {0: ZERO_MODULE}, {}, 0, 0)
        return ResolutionBundle(empty, "finite", stages={}, meta={"minimal": True})
    stages = {}
    prev = two_term_complex(ring, F.b_block(1), level=0)
    stages[1] = prev
    for p in range(2, F.c + 1):
        B = two_term_complex(ring, F.b_block(p), level=0)
        psi0 = F.psi_block(p)
        KB, phi = koszul_extension(psi0, B, prev, tuple(range(1, p)), variant=variant)
        prev = mapping_cone(prev, KB, phi)
        stages[p] = prev
    bundle = ResolutionBundle(prev, "finite", stages=stages)
    bundle.meta["minimal"] = prev.is_minimal()
    return bundle


# ---------------------------------------------------------------------------
# Divided power (one-variable) construction and its inverse


def shamash(G, sigma, steps, weights=None):
    """Divided-power construction for one element on a complex G with a
    homotopy system sigma (single f index j, which must be level + 1).

    Output complex has level+1, modules  T_n = sum_a y^(a) G_{n-2a}  with the
    y-blocks twisted by a deg(f); block (a -> a-i) of the differential is
    sigma_i.  The structural lifted CI operator (the y-shift) and its
    section are attached, along with the summand layout and weights.
    """
    ring = G.ring
    (f_idx,) = sigma.findices
    if f_idx != G.level + 1:
        raise ShapeError("divided-power step must quotient by the next element")
    q = ring.fdeg(f_idx)
    level = G.level + 1
    layout = {}
    modules = {}
    base_weights = weights or {}
    new_weights = {}
    for n in range(0, steps + 1):
        summands = []
        wts = []
        for a in range(0, n // 2 + 1):
            m = n - 2 * a
            if m < G.lo or m > G.hi or G.module(m).rank == 0:
                continue
            summands.append((a, m, G.module(m).rank))
            wts.extend(
                [f_idx if a else base_weights.get(m, [0] * G.module(m).rank)[k]
                 for k in range(G.module(m).rank)]
            )
        layout[n] = summands
        mods = []
        for a, m, _ in summands:
            mods.append(G.module(m).shifted(a * q, tag=f"y{f_idx}^({a})*" if a else None))
        modules[n] = FreeModule.concat(mods) if mods else ZERO_MODULE
        new_weights[n] = tuple(wts)
    diffs = {}
    for n in range(1, steps + 1):
        src_sum = layout[n]
        dst_sum = layout[n - 1]
        dst_pos = {(a, m): k for k, (a, m, _) in enumerate(dst_sum)}
        src_mods = [G.module(m).shifted(a * q) for a, m, _ in src_sum]
        dst_mods = [G.module(m).shifted(a * q) for a, m, _ in dst_sum]
        blocks = [[None] * len(src_sum) for _ in dst_sum]
        for js, (a, m, _) in enumerate(src_sum):
            for i in range(0, a + 1):
                tgt = (a - i, m + 2 * i - 1)
                kd = dst_pos.get(tgt)
                if kd is None:
                    continue
                blk = sigma.get((i,), m)
                if blk is None:
                    raise ShapeError(
                        f"homotopy block sigma_{i} at degree {m} missing"
                    )
                blocks[kd][js] = blk
        diffs[n] = MatrixMap.from_blocks(
            ring, blocks, src_mods, dst_mods, level
        )
    T = Complex(ring, level, modules, diffs, 0, steps)
    # structural lifted CI operator: project y^(a) to y^(a-1); section shifts up
    t_op = {}
    section = {}
    for n in range(2, steps + 1):
        src_sum = layout[n]
        dst_sum = layout[n - 2]
        dst_pos = {(a, m): k for k, (a, m, _) in enumerate(dst_sum)}
        src_mods = [G.module(m).shifted(a * q) for a, m, _ in src_sum]
        dst_mods = [G.module(m).shifted(a * q) for a, m, _ in dst_sum]
        blocks = [[None] * len(src_sum) for _ in dst_sum]
        sblocks = [[None] * len(dst_sum) for _ in src_sum]
        for js, (a, m, _) in enumerate(src_sum):
            if a == 0:
                continue
            kd = dst_pos.get((a - 1, m))
            if kd is None:
                continue
            ident = MatrixMap.identity(ring, G.module(m), level)
            blocks[kd][js] = ident
            sblocks[js][kd] = ident
        t_op[n] = MatrixMap.from_blocks(
            ring, blocks, src_mods, dst_mods, level, shift=-q
        )
        section[n] = MatrixMap.from_blocks(
            ring, sblocks, dst_mods, src_mods, level, shift=q
        )
    bundle = ResolutionBundle(
        T,
        "divided-power",
        weights=new_weights,
        sigma=sigma,
        ci={f_idx: t_op},
        ci_section={f_idx: section},
        layout=layout,
        meta={"f_idx": f_idx, "base": G},
    )
    return bundle


def build_infinite(F, steps, variant=0):
    """Truncated minimal resolution tower over the quotients R(p).

    Stage p is the divided-power construction applied to the cone U(p) of
    the two-term head over stage p-1, with a homotopy system for f_p that
    begins with the factorization's own blocks d_p and h_p.  The second
    differential of the top stage is the concatenated h-block map, exactly.
    """
    ring = F.ring
    if F.generalized:
        raise ShapeError(
            "generalized factorizations resolve through build_intermediate"
        )
    if F.c == 0:
        empty = Complex(ring, 0, {0: ZERO_MODULE}, {}, 0, 0)
        return ResolutionBundle(empty, "quotient-tower")
    stages = {}
    ustages = {}
    max_total = max(1, steps // 2 + 1)
    # stage 1
    U = two_term_complex(ring, F.b_block(1), level=0)
    h1 = F.h[1]
    start = {((1,), 0): MatrixMap(ring, U.module(0), U.module(1), h1.rows, 0,
                                  ring.fdeg(1), check=False)}
    sigma = higher_homotopies(U, (1,), max_total, start=start, variant=variant)
    bundle = shamash(U, sigma, steps)
    stages[1] = bundle
    ustages[1] = U
    for p in range(2, F.c + 1):
        Tprev = stages[p - 1].complex
        B = two_term_complex(ring, F.b_block(p), level=p - 1)
        psi0 = F.psi_block(p).with_level(p - 1)
        psi0 = MatrixMap(
            ring, B.module(1), Tprev.module(0), psi0.rows, p - 1, 0, check=False
        )
        U = mapping_cone(Tprev, B, {0: psi0})
        hp = F.h[p]
        start = {((1,), 0): MatrixMap(ring, U.module(0), U.module(1), hp.rows,
                                      p - 1, ring.fdeg(p), check=False)}
        sigma = higher_homotopies(U, (p,), max_total, start=start, variant=variant)
        uweights = {}
        for n in range(U.lo, U.hi + 1):
            prev_w = stages[p - 1].weights.get(n, ())
            extra = B.module(n).rank
            uweights[n] = tuple(prev_w) + tuple([0] * extra)
        bundle = shamash(U, sigma, steps, weights=uweights)
        stages[p] = bundle
        ustages[p] = U
    top = stages[F.c]
    top.stages = stages
    top.meta["ustages"] = ustages
    top.meta["minimal"] = top.complex.is_minimal()
    top.provenance = "quotient-tower"
    return top


def special_lifting_and_ci(bundle, upto=None, variant=0):
    """All lifted CI operators on the top stage.

    The operator for the top index is the structural weight shift attached
    by the divided-power construction (vanishing below top weight); the
    lower ones are recovered deterministically from the decomposition of
    d~^2 - f_p t~_p over the prefix ideal.  Returns (tilde, report lines).
    """
    T = bundle.complex
    ring = T.ring
    p = T.level
    upto = T.hi if upto is None else upto
    t_top = bundle.ci[p]
    tilde = {j: {} for j in range(1, p + 1)}
    f = ring.regseq[p - 1]
    for i in range(2, upto + 1):
        fid = MatrixMap.poly_times_identity(ring, f, T.module(i - 2), p)
        rem = MatrixMap.combine(ring, T.module(i), T.module(i - 2), p, 0,
                                [(-1, fid, t_top[i])], [(1, T.square(i))])
        tilde[p][i] = t_top[i]
        if p == 1:
            if not rem.is_zero():
                raise SolverBug("codimension-1 lifted operator fails exact division")
            continue
        Ws = ideal_decomposition(rem, p - 1, "ci decomposition", i,
                                 f"d^2 - f_{p} t_{p}", variant=variant)
        for j, W in enumerate(Ws, 1):
            tilde[j][i] = W.with_level(p)
    report = []
    for ja in range(1, p + 1):
        for jb in range(ja + 1, p + 1):
            for i in range(4, upto + 1):
                A = tilde[ja]
                Bop = tilde[jb]
                comm = MatrixMap.combine(
                    ring, T.module(i), T.module(i - 4), p, A[i].shift + Bop[i].shift,
                    [(1, A[i - 2], Bop[i]), (-1, Bop[i - 2], A[i])])
                if not comm.in_ideal(p):
                    report.append(f"[t_{ja}, t_{jb}] != 0 at degree {i}")
    return tilde, report


class PeelError(ValueError):
    pass


@dataclass
class PeelResult:
    kernel: Complex
    sigma: HomotopySystem
    inclusions: dict
    projections: dict
    report: list


def peel(C, t=None, variant=0):
    """Inverse of the divided-power construction.

    C is a complex at level p >= 1 whose lifted CI operator for f_p is
    surjective; t may supply that operator (e.g. the structural one stored
    on a bundle), otherwise it is recovered from d~^2.  Returns the kernel
    complex at level p-1 with the recovered homotopy system, the splitting
    data, and a report; raises PeelError when t~ is not surjective at some
    degree (the complex is not obtained by the construction in range).
    """
    ring = C.ring
    p = C.level
    if p < 1:
        raise ShapeError("peel needs level >= 1")
    if C.lo != 0:
        raise ShapeError("peel expects complexes starting at degree 0")
    q = ring.fdeg(p)
    if t is None:
        t = ci_from_lifting(C, variant=variant)[p]
    fld = ring.field
    # surjectivity via scalar parts, then sections and kernels
    sections = {}
    kernels = {}
    kernel_mods = {0: C.module(0), 1: C.module(1)}
    report = []
    for i in range(2, C.hi + 1):
        ti = t[i]
        if C.module(i - 2).rank == 0:
            # nothing below: the kernel is everything
            kernels[i] = MatrixMap.identity(ring, C.module(i), p - 1)
            kernel_mods[i] = C.module(i)
            continue
        bar = _scalar_part(ring, ti)
        # one elimination gives the kernel and, by rank-nullity, the rank
        N = fld.nullspace(bar)
        if bar.shape[1] - N.shape[1] < C.module(i - 2).rank:
            raise PeelError(
                f"lifted CI operator not surjective at degree {i}"
            )
        ident = MatrixMap.identity(ring, C.module(i - 2), p - 1)
        try:
            sections[i], = lift_step(ti.relevel(p - 1), [ident], p - 1,
                                     "peel section", i, variant=variant)
        except Obstruction as exc:
            raise PeelError(f"no section for the CI operator at degree {i}") from exc
        ncols = N.shape[1]
        vecs = N.T.rows
        twists = []
        for jcol in range(ncols):
            tws = {C.module(i).twists[r] for r in vecs[jcol]}
            if len(tws) != 1:
                raise SolverBug("kernel vector mixes twists")
            twists.append(tws.pop())
        kmod = FreeModule(tuple(twists), tuple(f"k{i}.{j}" for j in range(ncols)))
        rows = {r: {jcol: ring.const(x) for jcol, x in row.items()}
                for r, row in N.rows.items()}
        u0 = MatrixMap(ring, kmod, C.module(i), rows, p - 1, 0, check=False)
        tu = ti.relevel(p - 1).compose(u0)
        kernels[i] = MatrixMap.combine(ring, kmod, C.module(i), p - 1, 0,
                                       [(-1, sections[i], tu)], [(1, u0)])
        kernel_mods[i] = kmod
    for i in (0, 1):
        kernels[i] = MatrixMap.identity(ring, C.module(i), p - 1)
    # inclusions of all summands and the assembled change of basis
    inc = {}
    for i in range(0, C.hi + 1):
        inc[i] = {0: kernels[i]}
        j = 1
        while i - 2 * j >= 0:
            lower = inc[i - 2].get(j - 1)
            if lower is None or i not in sections:
                break
            inc[i][j] = sections[i].compose(lower)
            j += 1
    projections = {}
    Gmods = {i: kernel_mods.get(i, ZERO_MODULE) for i in range(0, C.hi + 1)}
    # full basis change and its inverse, degree by degree
    for i in range(0, C.hi + 1):
        if C.module(i).rank == 0:
            projections[i] = MatrixMap.zero(ring, C.module(i), Gmods[i], p - 1)
            continue
        cols = []
        mods = []
        j = 0
        while i - 2 * j >= 0 and j in inc[i]:
            mods.append(Gmods[i - 2 * j].shifted(j * q))
            cols.append(inc[i][j])
            j += 1
        phi = MatrixMap.from_blocks(ring, [cols], mods, [C.module(i)], p - 1)
        ident = MatrixMap.identity(ring, C.module(i), p - 1)
        try:
            inv, = lift_step(phi, [ident], p - 1, "peel basis change", i,
                             variant=variant)
        except Obstruction as exc:
            raise SolverBug("basis change not invertible") from exc
        # kernel-block rows of the inverse
        kr = Gmods[i].rank
        projections[i] = inv.submatrix(list(range(kr)), list(range(C.module(i).rank)))
    # the kernel's differential (jj = 0) and homotopies (jj >= 1) are the
    # blocks projections[i-1] d_i inc[i][jj]; the first two are composed
    # once per degree i
    blocks = {}
    for i in range(1, C.hi + 1):
        if Gmods[i - 1].rank == 0:
            continue
        pd = projections[i - 1].compose(C.diff(i).relevel(p - 1))
        for jj, inc_ij in inc[i].items():
            m = i - 2 * jj
            if Gmods[m].rank:
                comp = pd.compose(inc_ij)
                blocks.setdefault(jj, {})[m] = MatrixMap(
                    ring, Gmods[m], Gmods[i - 1], comp.rows, p - 1, jj * q,
                    check=False)
    G = Complex(ring, p - 1, Gmods, blocks.pop(0, {}), 0, C.hi)
    sigma = HomotopySystem(G, (p,), {(jj,): maps for jj, maps in blocks.items()})
    # round-trip report: ranks of Sh(G, sigma) against C
    for n in range(0, C.hi + 1):
        expect = sum(
            Gmods[n - 2 * a].rank for a in range(0, n // 2 + 1) if n - 2 * a >= 0
        )
        if expect != C.module(n).rank:
            report.append(f"rank mismatch at degree {n}: {expect} != {C.module(n).rank}")
    squares = G.validate()
    report.extend(squares)
    return PeelResult(G, sigma, inc, projections, report)


# ---------------------------------------------------------------------------
# Intermediate resolutions


def build_intermediate(F, j, steps, tower=None, variant=0):
    """Resolution of the top module over S/(f_1..f_j), 1 <= j <= c.

    Starts from the truncated stage-j quotient tower and iterates Koszul
    extension cones for the remaining elements.  j = c returns the tower
    itself (guarded identity).
    """
    if not (1 <= j <= F.c):
        raise ShapeError("intermediate level out of range")
    tower = tower or build_infinite(F, steps, variant=variant)
    if j == F.c:
        return tower.stages[j] if tower.stages else tower
    prev = (tower.stages[j] if tower.stages else tower).complex
    ring = F.ring
    stages = {}
    for p in range(j + 1, F.c + 1):
        B = two_term_complex(ring, F.b_block(p), level=j)
        psi0 = F.psi_block(p)
        psi0 = MatrixMap(
            ring, B.module(1), prev.module(0), psi0.rows, j, 0, check=False
        )
        idxs = tuple(range(j + 1, p))
        KB, phi = koszul_extension(psi0, B, prev, idxs, variant=variant)
        prev = mapping_cone(prev, KB, phi)
        stages[p] = prev
    bundle = ResolutionBundle(prev, "intermediate", stages=stages)
    bundle.meta["j"] = j
    bundle.meta["minimal"] = prev.is_minimal()
    return bundle


# ---------------------------------------------------------------------------
# Box complexes


def box(Y, f_idx, theta, tau, check=True):
    """Box complex of a resolution Y with homotopies for one element.

    theta[i]: Y_i -> Y_{i+1} (i = 0..3 as available), tau[0]: Y_0 -> Y_3,
    tau[1]: Y_1 -> Y_4; the identities
        d_3 tau_0 + theta_1 theta_0 = 0,
        tau_0 d_1 + theta_2 theta_1 + d_4 tau_1 = 0
    are checked at Y's level.  The result is the cone of theta_1 with the
    low head twisted by deg f, carrying the block homotopy for f.
    """
    ring = Y.ring
    q = ring.fdeg(f_idx)
    f = ring.regseq[f_idx - 1]
    failures = []
    if check:
        for i in range(0, 4):
            th = theta.get(i)
            if th is None:
                continue
            terms = [(1, Y.diff(i + 1), th)] if Y.module(i + 1).rank else []
            if i > 0 and theta.get(i - 1) is not None:
                terms.append((1, theta[i - 1], Y.diff(i)))
            fid = MatrixMap.poly_times_identity(ring, f, Y.module(i), Y.level)
            if terms and not MatrixMap.combine(
                    ring, Y.module(i), Y.module(i), Y.level, q, terms,
                    [(-1, fid)]).in_ideal():
                failures.append(f"homotopy identity fails at degree {i}")
        if tau.get(0) is not None and theta.get(0) is not None and theta.get(1) is not None:
            terms = [(1, theta[1], theta[0])]
            if Y.module(3).rank:
                terms.append((1, Y.diff(3), tau[0]))
            if not MatrixMap.combine(ring, Y.module(0), Y.module(2), Y.level,
                                     theta[1].shift + theta[0].shift,
                                     terms).in_ideal():
                failures.append("identity d_3 tau_0 + theta_1 theta_0 = 0 fails")
        if theta.get(1) is not None and theta.get(2) is not None:
            terms = [(1, theta[2], theta[1])]
            if tau.get(0) is not None:
                terms.append((1, tau[0], Y.diff(1)))
            if tau.get(1) is not None and Y.module(4).rank:
                terms.append((1, Y.diff(4), tau[1]))
            if not MatrixMap.combine(ring, Y.module(1), Y.module(3), Y.level,
                                     theta[2].shift + theta[1].shift,
                                     terms).in_ideal():
                failures.append(
                    "identity tau_0 d_1 + theta_2 theta_1 + d_4 tau_1 = 0 fails"
                )
        if failures:
            raise ContractViolation("; ".join(failures))
    Yhigh = Y.truncate(2, max(Y.hi, 2)).shift(2)
    lowmods = {0: Y.module(0).shifted(q), 1: Y.module(1).shifted(q)}
    lowdiffs = {}
    if Y.module(1).rank:
        lowdiffs[1] = MatrixMap(
            ring, lowmods[1], lowmods[0], Y.diff(1).rows, Y.level, 0, check=False
        )
    Ylow = Complex(ring, Y.level, lowmods, lowdiffs, 0, 1)
    th1 = theta[1]
    phi0 = MatrixMap(
        ring, lowmods[1], Yhigh.module(0), th1.rows, Y.level, 0, check=False
    )
    BX = mapping_cone(Yhigh, Ylow, {0: phi0}, check=False)
    # attached homotopy for f on the box
    hb = {}
    blocks0 = [
        [theta.get(2), tau.get(0)],
        [Y.diff(2) if Y.module(2).rank else None, theta.get(0)],
    ]
    hb[0] = MatrixMap.from_blocks(
        ring,
        blocks0,
        [Y.module(2), lowmods[0]],
        [Y.module(3), lowmods[1]],
        Y.level,
        shift=q,
    )
    if Y.module(4).rank or Y.module(1).rank:
        hb[1] = MatrixMap.from_blocks(
            ring,
            [[theta.get(3), tau.get(1)]],
            [Y.module(3), lowmods[1]],
            [Y.module(4)],
            Y.level,
            shift=q,
        )
    for i in range(2, BX.hi):
        th = theta.get(i + 2)
        if th is not None:
            hb[i] = MatrixMap(
                ring, BX.module(i), BX.module(i + 1), th.rows, Y.level, q,
                check=False,
            )
    bundle = ResolutionBundle(
        BX,
        "box",
        meta={
            "f_idx": f_idx,
            "homotopy": hb,
            "head": (
                Y.module(2).rank,
                Y.module(0).rank,
                Y.module(3).rank,
                Y.module(1).rank,
            ),
        },
    )
    return bundle


def box_homotopy_failures(bundle):
    """Exact check of d hb + hb d = f on the box, where maps are available."""
    BX = bundle.complex
    ring = BX.ring
    f = ring.regseq[bundle.meta["f_idx"] - 1]
    hb = bundle.meta["homotopy"]
    failures = []
    for i in range(0, BX.hi):
        if BX.module(i).rank == 0:
            continue
        terms = [(1, BX.diff(i + 1), hb[i])] if i in hb else []
        if i >= 1 and (i - 1) in hb:
            terms.append((1, hb[i - 1], BX.diff(i)))
        if not terms:
            continue
        fid = MatrixMap.poly_times_identity(ring, f, BX.module(i), BX.level)
        if not MatrixMap.combine(ring, BX.module(i), BX.module(i), BX.level,
                                 f.degree(), terms, [(-1, fid)]).in_ideal():
            failures.append(f"box homotopy identity fails at degree {i}")
    return failures


def box_unroll(bundle):
    """Partial converse: unroll a box-with-homotopy into the straight complex.

    Reads d_4 (upper block of the second box differential), d_3 and d_1
    (blocks of the first), and d_2 from the lower-left block of the first
    homotopy map, and verifies the result is a complex at the box's level.
    Exactness and the torsion-freeness hypotheses are certified by the
    oracle separately.
    """
    BX = bundle.complex
    ring = BX.ring
    r2, r0, r3, r1 = bundle.meta["head"]
    hb = bundle.meta["homotopy"]
    q = ring.fdeg(bundle.meta["f_idx"])
    Y2 = FreeModule(BX.module(0).twists[:r2], BX.module(0).all_labels()[:r2])
    Y0s = FreeModule(BX.module(0).twists[r2:], BX.module(0).all_labels()[r2:])
    Y3 = FreeModule(BX.module(1).twists[:r3], BX.module(1).all_labels()[:r3])
    Y1s = FreeModule(BX.module(1).twists[r3:], BX.module(1).all_labels()[r3:])
    Y0 = Y0s.shifted(-q)
    Y1 = Y1s.shifted(-q)
    d1 = BX.diff(1).submatrix(
        list(range(r2, BX.module(0).rank)), list(range(r3, BX.module(1).rank))
    )
    d3 = BX.diff(1).submatrix(list(range(0, r2)), list(range(0, r3)))
    d2 = hb[0].submatrix(
        list(range(r3, BX.module(1).rank)), list(range(0, r2))
    )
    modules = {
        0: Y0,
        1: Y1,
        2: Y2,
        3: Y3,
    }
    diffs = {}
    if Y1.rank and Y0.rank:
        diffs[1] = MatrixMap(ring, Y1, Y0, d1.rows, BX.level, 0, check=False)
    if Y2.rank and Y1.rank:
        diffs[2] = MatrixMap(ring, Y2, Y1, d2.rows, BX.level, 0, check=False)
    if Y3.rank and Y2.rank:
        diffs[3] = MatrixMap(ring, Y3, Y2, d3.rows, BX.level, 0, check=False)
    hi = 3
    for i in range(2, BX.hi + 1):
        modules[i + 2] = BX.module(i)
        if i == 2:
            if BX.module(2).rank and Y3.rank:
                d4 = BX.diff(2).submatrix(
                    list(range(0, r3)), list(range(BX.module(2).rank))
                )
                diffs[4] = MatrixMap(
                    ring, BX.module(2), Y3, d4.rows, BX.level, 0, check=False
                )
        else:
            diffs[i + 2] = BX.diff(i)
        hi = i + 2
    C = Complex(ring, BX.level, modules, diffs, 0, hi)
    return C, C.validate()


# ---------------------------------------------------------------------------
# Cosyzygy extensions (V and W complexes)


def cosyz_tower(F, steps, tower=None, variant=0, verify=False, D=None):
    """Two-step right extensions of the quotient-tower stages.

    For each p: V(p-1) (level p-1) extends stage p-1 by B_1(p), B_0(p) with
    second differential the composite  A_0(p-1) -> A_0(p) -h_p-> A_1(p)
    -pi_p-> B_1(p);  W(p) (level p) extends stage p by the same head with
    second differential pi_p h_p on all of A_0(p).  The tail modules are
    twisted by deg f_p, matching the head's homotopy grading.

    The extensions are exact only for pre-stable data; verify=True runs the
    oracle certificates and attaches them to each bundle's meta (a failed
    certificate reports the stability violation).
    """
    ring = F.ring
    tower = tower or build_infinite(F, steps, variant=variant)
    out = {}
    for p in range(1, F.c + 1):
        if F.rank1(p) == 0 and F.rank0(p) == 0:
            empty = Complex(ring, p - 1, {0: ZERO_MODULE}, {}, 0, 0)
            out[p] = (
                ResolutionBundle(empty, "cosyzygy-step", meta={"p": p}),
                ResolutionBundle(empty.reduce_level(p), "cosyzygy-step",
                                 meta={"p": p}),
            )
            continue
        q = ring.fdeg(p)
        hp = F.h[p]
        pihp = hp.submatrix(
            list(range(F.off1(p), F.off1(p) + F.rank1(p))),
            list(range(F.A0(p).rank)),
        )
        head1 = F.b1[p]
        head0 = F.b0[p]
        bmat = F.b_block(p)
        # V(p-1)
        if p == 1:
            Vmods = {0: head0, 1: head1}
            Vdiffs = {}
            if head1.rank and head0.rank:
                Vdiffs[1] = MatrixMap(ring, head1, head0, bmat.rows, 0, 0,
                                      check=False)
            V = Complex(ring, 0, Vmods, Vdiffs, 0, 1)
        else:
            Tprev = tower.stages[p - 1].complex
            Vmods = {0: head0, 1: head1}
            Vdiffs = {}
            if head1.rank and head0.rank:
                Vdiffs[1] = MatrixMap(ring, head1, head0, bmat.rows, p - 1, 0,
                                      check=False)
            d2cols = pihp.submatrix(
                list(range(F.rank1(p))), list(range(F.A0(p - 1).rank))
            )
            for n in range(0, Tprev.hi + 1):
                Vmods[n + 2] = Tprev.module(n).shifted(q)
            if F.rank1(p):
                Vdiffs[2] = MatrixMap(
                    ring, Vmods[2], head1, d2cols.rows, p - 1, 0, check=False
                )
            for n in range(1, Tprev.hi + 1):
                dn = Tprev.diff(n)
                Vdiffs[n + 2] = MatrixMap(
                    ring, Vmods[n + 2], Vmods[n + 1], dn.rows, p - 1, 0,
                    check=False,
                )
            V = Complex(ring, p - 1, Vmods, Vdiffs, 0, Tprev.hi + 2)
        # W(p)
        Tp = tower.stages[p].complex
        Wmods = {0: head0, 1: head1}
        Wdiffs = {}
        if head1.rank and head0.rank:
            Wdiffs[1] = MatrixMap(ring, head1, head0, bmat.rows, p, 0,
                                  check=False)
        for n in range(0, Tp.hi + 1):
            Wmods[n + 2] = Tp.module(n).shifted(q)
        if F.rank1(p):
            Wdiffs[2] = MatrixMap(
                ring, Wmods[2], head1, pihp.rows, p, 0, check=False
            )
        for n in range(1, Tp.hi + 1):
            dn = Tp.diff(n)
            Wdiffs[n + 2] = MatrixMap(
                ring, Wmods[n + 2], Wmods[n + 1], dn.rows, p, 0, check=False
            )
        W = Complex(ring, p, Wmods, Wdiffs, 0, Tp.hi + 2)
        vb = ResolutionBundle(V, "cosyzygy-step", meta={"p": p})
        wb = ResolutionBundle(W, "cosyzygy-step", meta={"p": p})
        if verify:
            from .oracle import exactness_certificate

            vb.meta["certificate"] = exactness_certificate(
                V, (1, V.hi - 1), D
            ).row()
            wb.meta["certificate"] = exactness_certificate(
                W, (1, W.hi - 1), D
            ).row()
        out[p] = (vb, wb)
    return out
