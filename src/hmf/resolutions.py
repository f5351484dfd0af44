"""Resolution builders.

From a valid higher matrix factorization this module constructs:

* the finite resolution over S as an iterated cone of Koszul extensions,
* the (truncated) infinite resolution over each quotient, as iterated
  cone-then-divided-power constructions with a distinguished lifting whose
  top CI operator is the weight shift,
* intermediate resolutions over S/(f_1..f_j),
* box complexes: box takes the HomotopySystem of one element on a
  resolution and returns the box with its own HomotopySystem, so both are
  checked by the one checker, complexes.validate_homotopy_system,
* the two-step cosyzygy extensions (the V/W tower),

together with the inverse `peel` of the divided-power construction.  All
complexes are carried as S-matrices plus a quotient level; truncations
assert nothing beyond their stated range.

Every tower starts from stage 0, the zero complex at level 0, and runs one
loop from p = 1: the finite and intermediate towers share the Koszul-cone
loop `_koszul_cones` (the finite one is its case j = 0), the quotient tower
builds each stage as shamash over the cone of B(p) onto the stage before,
and both take B(p) and psi_p from `_head_over`.  The cosyzygy step builds
V(p-1) and W(p) with one head extension, `_head_extension`.  shamash
lays out each divided-power degree once (`complexes.divided_power_layout`)
and assembles its differential and CI operator from those layouts with
`complexes.divided_power_map`, as `lifting.lifted_comparison_check` does
its lifted maps.  The CI operators of `special_lifting_and_ci` and `peel`
come from the one decomposition `lifting.ci_from_lifting`.
"""

from __future__ import annotations

from dataclasses import dataclass, field

from ._kernels import SparseMatrix
from .complexes import (
    Complex,
    ContractViolation,
    FreeModule,
    HomotopySystem,
    MatrixMap,
    ShapeError,
    ZERO_MODULE,
    divided_power_layout,
    divided_power_map,
    mapping_cone,
    two_term_complex,
    validate_homotopy_system,
)
from .lifting import (
    Obstruction,
    SolverBug,
    ci_from_lifting,
    higher_homotopies,
    koszul_extension,
    lift_step,
)


@dataclass
class ResolutionBundle:
    complex: Complex
    weights: dict = field(default_factory=dict)
    sigma: object = None
    ci: dict = field(default_factory=dict)
    stages: dict = field(default_factory=dict)
    meta: dict = field(default_factory=dict)


def _scalar_part(mm):
    """Constant coefficients of entries at required degree 0 (reduction of a
    map modulo the graded maximal ideal), the other entries dropped.  An
    entry of required degree 0 is a constant, at the packed key 0."""
    out = {}
    for i, row in mm.rows.items():
        consts = {j: q.terms[0] for j, q in row.items()
                  if mm.required_degree(i, j) == 0}
        if consts:
            out[i] = consts
    return SparseMatrix((mm.dst.rank, mm.src.rank), out)


# ---------------------------------------------------------------------------
# Stage 0 and the Koszul-cone loop


def _zero_complex(ring):
    """Stage 0 of every tower: the zero complex at level 0."""
    return Complex(ring, 0, {0: ZERO_MODULE}, {}, 0, 0)


def _head_over(F, p, prev):
    """B(p) as a two-term complex at prev's level, and psi_p: B_1(p) -> prev_0
    (the psi-block of d read into prev's degree-0 module)."""
    ring = F.ring
    B = two_term_complex(ring, F.b_block(p), level=prev.level)
    psi0 = MatrixMap(ring, B.module(1), prev.module(0), F.psi_block(p).rows,
                     prev.level, 0, check=False)
    return B, psi0


def _koszul_cones(F, prev):
    """The stages p = j+1..c over S/(f_1..f_j), j = prev.level: stage p is the
    cone of the Koszul extension of B(p) across K(f_{j+1}..f_{p-1}) onto
    stage p-1, starting from prev.  Returns (top stage, {p: stage})."""
    j = prev.level
    stages = {}
    for p in range(j + 1, F.c + 1):
        B, psi0 = _head_over(F, p, prev)
        KB, phi = koszul_extension(psi0, B, prev, tuple(range(j + 1, p)))
        prev = stages[p] = mapping_cone(prev, KB, phi)
    return prev, stages


def build_finite(F):
    """Iterated cones of Koszul extensions: the S-free resolution tower.

    Returns a bundle whose complex is the length-c stage; stages[p] holds
    every intermediate resolution (stage p resolves the level-p module).
    A minimal factorization yields minimal stages.
    """
    top, stages = _koszul_cones(F, _zero_complex(F.ring))
    return ResolutionBundle(top, stages=stages)


# ---------------------------------------------------------------------------
# Divided power (one-variable) construction and its inverse


def shamash(G, sigma, steps, weights=None):
    """Divided-power construction for one element on a complex G with a
    homotopy system sigma (single f index j, which must be level + 1).

    Output complex has level+1, modules  T_n = sum_a y^(a) G_{n-2a}  with the
    y-blocks twisted by a deg(f); block (a -> a-i) of the differential is
    sigma_i.  The structural lifted CI operator (the y-shift) and the
    weights are attached.
    """
    ring = G.ring
    (f_idx,) = sigma.findices
    if f_idx != G.level + 1:
        raise ShapeError("divided-power step must quotient by the next element")
    q = ring.fdeg(f_idx)
    level = G.level + 1
    layout = {n: divided_power_layout(G, n, f_idx) for n in range(steps + 1)}
    base_weights = weights or {}
    modules = {n: module for n, (_, _, module) in layout.items()}
    new_weights = {n: tuple(
        f_idx if a else base_weights.get(m, [0] * G.module(m).rank)[k]
        for a, m in summands for k in range(G.module(m).rank))
        for n, (summands, _, _) in layout.items()}

    idents = {m: MatrixMap.identity(ring, G.module(m), level)
              for m in range(G.lo, G.hi + 1)}

    def ident(i, m):
        return idents[m]

    diffs = {n: divided_power_map(ring, layout[n], layout[n - 1], -1,
                                  range(n // 2 + 1),
                                  lambda i, m: sigma.get((i,), m), level)
             for n in range(1, steps + 1)}
    T = Complex(ring, level, modules, diffs, 0, steps)
    # structural lifted CI operator: project y^(a) to y^(a-1)
    t_op = {n: divided_power_map(ring, layout[n], layout[n - 2], -2, (1,),
                                 ident, level, shift=-q)
            for n in range(2, steps + 1)}
    return ResolutionBundle(T, weights=new_weights, sigma=sigma,
                            ci={f_idx: t_op})


def build_infinite(F, steps):
    """Truncated minimal resolution tower over the quotients R(p).

    Stage p is the divided-power construction applied to the cone U(p) of
    the two-term head over stage p-1, with a homotopy system for f_p that
    begins with the factorization's own blocks d_p and h_p; that system is
    the stage's sigma, so stages[p].sigma.complex is U(p).  The second
    differential of the top stage is the concatenated h-block map, exactly.
    """
    ring = F.ring
    if steps < 1:
        raise ShapeError("the quotient tower needs steps >= 1")
    stages = {}
    max_total = max(1, steps // 2 + 1)
    top = ResolutionBundle(_zero_complex(ring))
    for p in range(1, F.c + 1):
        B, psi0 = _head_over(F, p, top.complex)
        U = mapping_cone(top.complex, B, {0: psi0})
        start = {((1,), 0): MatrixMap(ring, U.module(0), U.module(1), F.h[p].rows,
                                      p - 1, ring.fdeg(p), check=False)}
        sigma = higher_homotopies(U, (p,), max_total, start=start)
        uweights = {n: tuple(top.weights.get(n, ())) + (0,) * B.module(n).rank
                    for n in range(U.lo, U.hi + 1)}
        top = stages[p] = shamash(U, sigma, steps, weights=uweights)
    top.stages = stages
    return top


def special_lifting_and_ci(bundle):
    """All lifted CI operators on the top stage.

    The operator for the top index is the structural weight shift attached
    by the divided-power construction (vanishing below top weight); the
    lower ones are recovered deterministically by ci_from_lifting from the
    decomposition of d~^2 - f_p t~_p over the prefix ideal.  Returns (tilde,
    report lines), the report naming every [t_a, t_b] that is nonzero.
    """
    T = bundle.complex
    ring = T.ring
    p = T.level
    tilde = ci_from_lifting(T, top=bundle.ci[p])
    report = []
    for ja in range(1, p + 1):
        for jb in range(ja + 1, p + 1):
            for i in range(4, T.hi + 1):
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


def peel(C, t=None):
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
        t = ci_from_lifting(C)[p]
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
        bar = _scalar_part(ti)
        # one elimination gives the kernel and, by rank-nullity, the rank
        N = fld.nullspace(bar)
        if bar.shape[1] - N.shape[1] < C.module(i - 2).rank:
            raise PeelError(
                f"lifted CI operator not surjective at degree {i}"
            )
        ident = MatrixMap.identity(ring, C.module(i - 2), p - 1)
        try:
            sections[i], = lift_step(ti.relevel(p - 1), [ident],
                                     "peel section", i)
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
        phi = MatrixMap.from_blocks(ring, [cols], mods, [C.module(i)],
                                    FreeModule.concat(mods), C.module(i), p - 1)
        ident = MatrixMap.identity(ring, C.module(i), p - 1)
        try:
            inv, = lift_step(phi, [ident], "peel basis change", i)
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


def build_intermediate(F, j, steps, tower=None):
    """Resolution of the top module over S/(f_1..f_j), 1 <= j <= c.

    Starts from the truncated stage-j quotient tower and iterates Koszul
    extension cones for the remaining elements.  j = c returns the tower
    itself (guarded identity).
    """
    if not (1 <= j <= F.c):
        raise ShapeError("intermediate level out of range")
    stage = (tower or build_infinite(F, steps)).stages[j]
    if j == F.c:
        return stage
    top, stages = _koszul_cones(F, stage.complex)
    return ResolutionBundle(top, stages=stages)


# ---------------------------------------------------------------------------
# Box complexes


def box(sigma):
    """Box complex of a resolution Y with a homotopy system for one element.

    sigma is a system for f on Y = sigma.complex, as
    higher_homotopies(Y, (f,), 2) returns it: theta_i = sigma_(1) and
    tau_i = sigma_(2) at source degree i.  The precondition is
    validate_homotopy_system(sigma, max_total=2) on every degree of Y, so
    it covers every map the box reads; a map that sigma lacks, which the
    checker skips, raises ContractViolation naming it.  The result is the
    cone of theta_1 with the low head twisted by deg f; its sigma is the
    box's homotopy system for f, whose component hb_i in box degree i >= 2
    is theta_{i+2}.
    """
    Y = sigma.complex
    ring = Y.ring
    (f_idx,) = sigma.findices
    q = ring.fdeg(f_idx)
    failures = validate_homotopy_system(sigma, max_total=2)
    if failures:
        raise ContractViolation("; ".join(failures))

    def homotopy(a, i):
        got = sigma.get(a, i)
        if got is None:
            raise ContractViolation(
                f"box needs sigma_{a} at source degree {i}, which is missing")
        return got

    def theta(i):
        return homotopy((1,), i)

    def tau(i):
        return homotopy((2,), i)

    Yhigh = Y.truncate(2, max(Y.hi, 2)).shift(2)
    lowmods = {0: Y.module(0).shifted(q), 1: Y.module(1).shifted(q)}
    lowdiffs = {}
    if Y.module(1).rank:
        lowdiffs[1] = MatrixMap(
            ring, lowmods[1], lowmods[0], Y.diff(1).rows, Y.level, 0, check=False
        )
    Ylow = Complex(ring, Y.level, lowmods, lowdiffs, 0, 1)
    phi0 = MatrixMap(
        ring, lowmods[1], Yhigh.module(0), theta(1).rows, Y.level, 0, check=False
    )
    BX = mapping_cone(Yhigh, Ylow, {0: phi0}, check=False)
    # attached homotopy for f on the box
    hb = {}
    blocks0 = [
        [theta(2), tau(0)],
        [Y.diff(2) if Y.module(2).rank else None, theta(0)],
    ]
    hb[0] = MatrixMap.from_blocks(
        ring,
        blocks0,
        [Y.module(2), lowmods[0]],
        [Y.module(3), lowmods[1]],
        BX.module(0),
        BX.module(1),
        Y.level,
        shift=q,
    )
    if Y.module(4).rank or Y.module(1).rank:
        hb[1] = MatrixMap.from_blocks(
            ring,
            [[theta(3), tau(1)]],
            [Y.module(3), lowmods[1]],
            [Y.module(4)],
            BX.module(1),
            BX.module(2),
            Y.level,
            shift=q,
        )
    for i in range(2, BX.hi):
        hb[i] = MatrixMap(
            ring, BX.module(i), BX.module(i + 1), theta(i + 2).rows, Y.level, q,
            check=False,
        )
    head = (Y.module(2).rank, Y.module(0).rank, Y.module(3).rank,
            Y.module(1).rank)
    return ResolutionBundle(BX, sigma=HomotopySystem(BX, (f_idx,), {(1,): hb}),
                            meta={"head": head})


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
    (f_idx,) = bundle.sigma.findices
    q = ring.fdeg(f_idx)
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
    d2 = bundle.sigma.get((1,), 0).submatrix(
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


def _head_extension(head, tail, level, q, d2):
    """The head b: B_1 -> B_0 in degrees 1, 0 at level, continued by the
    complex tail (twisted by q) in degrees >= 2 through d2: tail_0 -> B_1.
    Without a tail the head stands alone, on [0, 1]."""
    ring = head.ring
    mods = {0: head.dst, 1: head.src}
    diffs = {}
    if head.src.rank and head.dst.rank:
        diffs[1] = head.relevel(level)
    if tail is None:
        return Complex(ring, level, mods, diffs, 0, 1)
    ext = tail.twisted(q).shift(-2)
    mods.update(ext.modules)
    diffs.update(ext.diffs)
    if head.src.rank:
        diffs[2] = MatrixMap(ring, mods[2], head.src, d2.rows, level, 0,
                             check=False)
    return Complex(ring, level, mods, diffs, 0, ext.hi)


def cosyz_tower(F, steps, tower=None):
    """Two-step right extensions of the quotient-tower stages.

    Returns {p: (V(p-1), W(p))} as complexes.  V(p-1) (level p-1) extends
    stage p-1 by B_1(p), B_0(p) with second differential the composite
    A_0(p-1) -> A_0(p) -h_p-> A_1(p) -pi_p-> B_1(p);  W(p) (level p)
    extends stage p by the same head with second differential pi_p h_p on
    all of A_0(p).  The tail modules are twisted by deg f_p, matching the
    head's homotopy grading.  Stage 0 has no tail to extend, so V(0) is the
    head alone.  The extensions are exact only for pre-stable data, which
    the oracle certifies separately.
    """
    ring = F.ring
    tower = tower or build_infinite(F, steps)
    tails = {p: stage.complex for p, stage in tower.stages.items()}
    out = {}
    for p in range(1, F.c + 1):
        if F.rank1(p) == 0 and F.rank0(p) == 0:
            empty = Complex(ring, p - 1, {0: ZERO_MODULE}, {}, 0, 0)
            out[p] = (empty, empty.reduce_level(p))
            continue
        q = ring.fdeg(p)
        pihp = F.pi_h(p)
        d2v = pihp.submatrix(list(range(F.rank1(p))),
                             list(range(F.A0(p - 1).rank)))
        head = F.b_block(p)
        out[p] = (_head_extension(head, tails.get(p - 1), p - 1, q, d2v),
                  _head_extension(head, tails[p], p, q, pihp))
    return out
