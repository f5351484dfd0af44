"""The higher matrix factorization data type and its validators.

An HMF is stored in split form: free modules B_s(p) for s in {0,1} and
p = 1..c (a slot p = 0 appears in the generalized variant), a filtered map
d: A_1 -> A_0 with A_s(p) the sum of the B_s(q) for q <= p, and homotopy
blocks h_p: A_0(p) -> A_1(p).  The defining congruences are

  (a)  d_p h_p = f_p Id           mod (f_1..f_{p-1}) A_0(p)
  (b)  pi_p h_p d_p = f_p pi_p    mod (f_1..f_{p-1}) B_1(p)

with pi_p the block projection A_1(p) -> B_1(p).  The module of the
factorization is Coker(d tensor S/(f_1..f_c)).
"""

from __future__ import annotations

from dataclasses import dataclass

from ._kernels import SparseMatrix
from .complexes import FreeModule, MatrixMap, ShapeError, ZERO_MODULE
from .ring import GradedRing, RingError


@dataclass
class Report:
    """Outcome of a validation: empty failures means pass."""

    failures: list
    warnings: list
    items: list

    @property
    def ok(self):
        return not self.failures

    def __bool__(self):
        return self.ok

    def summary(self):
        status = "PASS" if self.ok else "FAIL"
        lines = [status]
        lines += [f"item: {s}" for s in self.items]
        lines += [f"warning: {s}" for s in self.warnings]
        lines += [f"failure: {s}" for s in self.failures]
        return "\n".join(lines)


def _block_label(s, p, k):
    return f"b{s}.{p}.{k}"


class HMF:
    """Split-form higher matrix factorization over a graded ring.

    b1[p], b0[p] (p = 0..c; slot 0 is zero unless generalized) give the
    twists of B_1(p), B_0(p).  d is a single matrix A_1 -> A_0 in the
    concatenated bases ordered by p; h[p] is the block map A_0(p) -> A_1(p).
    """

    def __init__(self, ring, b1, b0, d_entries, h_entries, generalized=False,
                 strong_ext=None, c=None):
        self.ring = ring
        self.c = ring.codim if c is None else c
        if self.c > ring.codim:
            raise ShapeError("HMF codimension exceeds the regular sequence")
        b1 = dict(b1)
        b0 = dict(b0)
        self.generalized = generalized
        self.b1 = {}
        self.b0 = {}
        for p in range(0, self.c + 1):
            m1 = b1.get(p, ZERO_MODULE)
            m0 = b0.get(p, ZERO_MODULE)
            if p == 0 and not generalized and (m1.rank or m0.rank):
                raise ShapeError("slot p=0 requires the generalized flag")
            self.b1[p] = FreeModule(
                m1.twists, tuple(_block_label(1, p, k) for k in range(m1.rank))
            )
            self.b0[p] = FreeModule(
                m0.twists, tuple(_block_label(0, p, k) for k in range(m0.rank))
            )
        self.d = MatrixMap(ring, self.A1(self.c), self.A0(self.c), d_entries, 0, 0)
        self.h = {}
        for p in range(1, self.c + 1):
            ent = h_entries.get(p)
            if ent is None:
                raise ShapeError(f"missing homotopy block h_{p}")
            self.h[p] = MatrixMap(
                ring, self.A0(p), self.A1(p), ent, 0, ring.fdeg(p)
            )
        self.strong_ext = strong_ext or {}

    # -- module bookkeeping

    def levels(self):
        return range(0, self.c + 1)

    def A1(self, p):
        return FreeModule.concat([self.b1[q] for q in range(0, p + 1)])

    def A0(self, p):
        return FreeModule.concat([self.b0[q] for q in range(0, p + 1)])

    def rank1(self, p):
        return self.b1[p].rank

    def rank0(self, p):
        return self.b0[p].rank

    def off1(self, p):
        return sum(self.rank1(q) for q in range(0, p))

    def off0(self, p):
        return sum(self.rank0(q) for q in range(0, p))

    def is_trivial(self):
        return all(self.rank1(p) == 0 and self.rank0(p) == 0 for p in self.levels())

    # -- distinguished blocks

    def d_p(self, p):
        rows = range(0, self.off0(p) + self.rank0(p))
        cols = range(0, self.off1(p) + self.rank1(p))
        return self.d.submatrix(list(rows), list(cols))

    def b_block(self, p):
        rows = range(self.off0(p), self.off0(p) + self.rank0(p))
        cols = range(self.off1(p), self.off1(p) + self.rank1(p))
        return self.d.submatrix(list(rows), list(cols))

    def psi_block(self, p):
        rows = range(0, self.off0(p))
        cols = range(self.off1(p), self.off1(p) + self.rank1(p))
        return self.d.submatrix(list(rows), list(cols))

    def h_p(self, p):
        return self.h[p]

    def pi(self, p):
        """Block projection A_1(p) -> B_1(p)."""
        n = self.off1(p) + self.rank1(p)
        rows = []
        one = self.ring.one()
        z = self.ring.zero()
        for i in range(self.rank1(p)):
            rows.append(
                [one if j == self.off1(p) + i else z for j in range(n)]
            )
        return MatrixMap(self.ring, self.A1(p), self.b1[p], rows, 0, 0, check=False)

    def __repr__(self):
        rk = ", ".join(
            f"B({p})=({self.rank1(p)},{self.rank0(p)})" for p in range(1, self.c + 1)
        )
        return f"HMF(c={self.c}; {rk})"


def validate_hmf(F, check_minimal=True):
    """Check shapes, the filtration condition, and axioms (a) and (b).

    Returns a Report whose failures list every failing (p, entry, axiom);
    the Cor-3.12-shape warning flags rank patterns impossible for a minimal
    HMF over a Cohen-Macaulay base.
    """
    ring = F.ring
    failures = []
    warnings = []
    items = []
    try:
        F.d.check_homogeneous()
        for p in range(1, F.c + 1):
            F.h[p].check_homogeneous()
    except Exception as exc:
        failures.append(f"homogeneity: {exc}")
        return Report(failures, warnings, items)
    # filtration: block of d from B_1(q) to B_0(q') must vanish for q' > q
    for q in F.levels():
        for qp in F.levels():
            if qp <= q:
                continue
            blk = F.d.submatrix(
                list(range(F.off0(qp), F.off0(qp) + F.rank0(qp))),
                list(range(F.off1(q), F.off1(q) + F.rank1(q))),
            )
            if not blk.is_zero():
                failures.append(f"filtration: d maps B_1({q}) into B_0({qp})")
    # axioms
    for p in range(1, F.c + 1):
        dp = F.d_p(p)
        hp = F.h[p]
        fid = MatrixMap.poly_times_identity(ring, ring.regseq[p - 1], F.A0(p), 0)
        delta_a = dp.compose(hp) - fid
        bad = delta_a.first_nonmember(p - 1)
        if bad is None:
            items.append(f"axiom (a) at p={p}: ok")
        else:
            failures.append(f"axiom (a) at p={p}: entry {bad} not in (f_1..f_{p-1})")
        pi = F.pi(p)
        lhs = pi.compose(hp).compose(dp)
        rhs = pi.scale_poly(ring.regseq[p - 1])
        delta_b = lhs - rhs.with_shift(lhs.shift)
        bad = delta_b.first_nonmember(p - 1)
        if bad is None:
            items.append(f"axiom (b) at p={p}: ok")
        else:
            failures.append(f"axiom (b) at p={p}: entry {bad} not in (f_1..f_{p-1})")
    # rank-shape warning
    for p in range(1, F.c + 1):
        if F.rank1(p) == 0 and any(
            F.rank1(q) or F.rank0(q) for q in range(1, p + 1)
        ):
            if F.rank0(p) or any(F.rank1(q) or F.rank0(q) for q in range(1, p)):
                warnings.append(
                    f"B_1({p}) = 0 but lower blocks nonzero: impossible for a "
                    "minimal factorization over a Cohen-Macaulay base"
                )
    if check_minimal:
        minimal = F.d.is_minimal() and all(F.h[p].is_minimal() for p in range(1, F.c + 1))
        items.append(f"minimal: {minimal}")
    return Report(failures, warnings, items)


def truncate_hmf(F, p):
    """The codimension-p factorization (d_p, (h_1|...|h_p)); same ring."""
    if not (0 <= p <= F.c):
        raise ShapeError("truncation level out of range")
    b1 = {q: F.b1[q] for q in range(0, p + 1)}
    b0 = {q: F.b0[q] for q in range(0, p + 1)}
    return HMF(
        F.ring,
        b1,
        b0,
        F.d_p(p).entries,
        {q: F.h[q].entries for q in range(1, p + 1)},
        generalized=F.generalized,
        c=p,
    )


def presentation(F, p):
    """R(p) tensor d_p, plus the augmented S-presentation of the module.

    The augmented matrix is d_p concatenated with, for every q <= p and every
    generator of B_0(q), the columns f_1..f_{q-1} landing in that generator's
    row (the Koszul columns of the finite resolution).
    """
    ring = F.ring
    if p == 0:
        if not F.generalized:
            raise ShapeError("p = 0 presentation needs the generalized flag")
        return F.b_block(0).with_level(0), F.b_block(0)
    dp = F.d_p(p)
    pres = dp.with_level(p)
    cols = []
    src_tw = []
    src_labels = []
    z = ring.zero()
    nrows = F.A0(p).rank
    for q in range(1, p + 1):
        for k in range(F.rank0(q)):
            row = F.off0(q) + k
            for i in range(1, q):
                col = [z] * nrows
                col[row] = ring.regseq[i - 1]
                cols.append(col)
                src_tw.append(F.b0[q].twists[k] + ring.fdeg(i))
                src_labels.append(f"e{i}*{_block_label(0, q, k)}")
    aug_src = FreeModule(
        tuple(F.A1(p).twists) + tuple(src_tw),
        tuple(F.A1(p).all_labels()) + tuple(src_labels),
    )
    entries = [
        list(dp.entries[i]) + [cols[j][i] for j in range(len(cols))]
        for i in range(nrows)
    ]
    augmented = MatrixMap(ring, aug_src, F.A0(p), entries, 0, 0)
    return pres, augmented


@dataclass
class HMFSignature:
    ranks: tuple  # ((rank B_1(p), rank B_0(p)) for p = 1..c)
    gamma: int  # least p with B_1(p) != 0, or None
    complexity: int
    betti_degree: int


def signature(F):
    ranks = tuple((F.rank1(p), F.rank0(p)) for p in range(1, F.c + 1))
    gamma = next((p for p in range(1, F.c + 1) if F.rank1(p)), None)
    if gamma is None:
        return HMFSignature(ranks, None, 0, 0)
    return HMFSignature(ranks, gamma, F.c - gamma + 1, F.rank1(gamma))


def stability_rank_check(F):
    """Rank pattern a pre-stable factorization must satisfy:

    zeros below gamma, rank B_1(gamma) = rank B_0(gamma) > 0, and
    rank B_1(p) > rank B_0(p) > 0 strictly above gamma.  FAIL names the
    first violated inequality.
    """
    sig = signature(F)
    failures = []
    items = []
    if sig.gamma is None:
        items.append("trivial factorization: vacuous PASS")
        return Report(failures, [], items)
    g = sig.gamma
    for p in range(1, g):
        if F.rank1(p) or F.rank0(p):
            failures.append(f"p={p} below gamma={g} has nonzero block")
    if not (F.rank1(g) == F.rank0(g) > 0):
        failures.append(
            f"p={g}: expected rank B_1 = rank B_0 > 0, got "
            f"{F.rank1(g)}, {F.rank0(g)}"
        )
    for p in range(g + 1, F.c + 1):
        if not (F.rank1(p) > F.rank0(p) > 0):
            failures.append(
                f"p={p}: expected rank B_1(p) > rank B_0(p) > 0, got "
                f"{F.rank1(p)}, {F.rank0(p)}"
            )
            break
    items.append(f"gamma={g}, complexity={sig.complexity}, Bdeg={sig.betti_degree}")
    return Report(failures, [], items)


def validate_strong(F):
    """Exact identity for strong factorizations:

    d_p h_p + sum_{i<w<=p} f_i ext_p[(i,w)] = f_p Id_{A_0(p)}  over S,
    for every p, where ext_p[(i,w)] collects the components of the degree-0
    homotopy on the finite resolution through the Koszul slots e_i B_0(w).
    Also reports the exact identity on the B_0(1) row block (no correction
    terms land there).
    """
    ring = F.ring
    failures = []
    items = []
    for p in range(1, F.c + 1):
        ext = F.strong_ext.get(p)
        if ext is None:
            failures.append(f"p={p}: no homotopy extension supplied")
            continue
        total = F.d_p(p).compose(F.h[p])
        nrows = F.A0(p).rank
        for (i, w), blk in sorted(ext.items()):
            if not (1 <= i < w <= p):
                failures.append(f"p={p}: extension slot ({i},{w}) out of range")
                continue
            scaled = blk.scale_poly(ring.regseq[i - 1])
            emb = MatrixMap.zero(ring, F.A0(p), F.A0(p), 0, total.shift)
            rows = list(emb.entries)
            rows = [list(r) for r in rows]
            for a in range(F.rank0(w)):
                for jcol in range(F.A0(p).rank):
                    rows[F.off0(w) + a][jcol] = scaled.entries[a][jcol]
            emb = MatrixMap(ring, F.A0(p), F.A0(p), rows, 0, total.shift, check=False)
            total = total + emb
        fid = MatrixMap.poly_times_identity(ring, ring.regseq[p - 1], F.A0(p), 0)
        if (total - fid).is_zero():
            items.append(f"strong identity at p={p}: exact")
        else:
            failures.append(f"strong identity fails at p={p}")
        # row block of B_0(1): d h_p restricted there must equal f_p * rho
        if F.rank0(1):
            rows_idx = list(range(F.off0(1), F.off0(1) + F.rank0(1)))
            cols_idx = list(range(F.A0(p).rank))
            top = F.d_p(p).compose(F.h[p]).submatrix(rows_idx, cols_idx)
            rho = MatrixMap.zero(ring, F.A0(p), F.b0[1], 0, 0)
            rr = [list(r) for r in rho.entries]
            for a in range(F.rank0(1)):
                rr[a][F.off0(1) + a] = ring.regseq[p - 1]
            rho_f = MatrixMap(ring, F.A0(p), F.b0[1], rr, 0, ring.fdeg(p), check=False)
            if (top - rho_f).is_zero():
                items.append(f"rho d h_{p} = f_{p} rho: exact")
            else:
                failures.append(f"rho d h_{p} = f_{p} rho fails")
    return Report(failures, [], items)


# ---------------------------------------------------------------------------
# Change of generators of the regular sequence


def migrate_poly(ring2, poly):
    from .ring import Poly

    return Poly(ring2, dict(poly.terms))


def migrate_map(ring2, mm):
    rows = [[migrate_poly(ring2, q) for q in row] for row in mm.entries]
    return MatrixMap(ring2, mm.src, mm.dst, rows, mm.level, mm.shift, check=False)


def clone_ring_with_regseq(ring, new_regseq):
    """Fresh ring over the same variables with regular sequence new_regseq
    (polynomials of the old ring)."""
    ring2 = GradedRing(ring.field, list(zip(ring.var_names, ring.var_degs)))
    ring2.set_regseq([migrate_poly(ring2, f) for f in new_regseq])
    return ring2


def change_of_generators_hmf(F, alpha):
    """Transform an HMF along f'_p = sum_{j<=p} alpha[p][j] f_j.

    alpha must be lower triangular with invertible diagonal so that the
    prefix ideals are preserved; then d is unchanged and h'_p = alpha_pp h_p.
    All f_i with alpha mixing them must share one degree (graded constraint).
    """
    ring = F.ring
    c = F.c
    fld = ring.field
    for i in range(c):
        for j in range(i + 1, c):
            if fld.canon(alpha[i][j]) != 0:
                raise RingError("change of generators on an HMF must be lower triangular")
        if fld.canon(alpha[i][i]) == 0:
            raise RingError("alpha diagonal must be invertible")
        for j in range(i):
            if fld.canon(alpha[i][j]) != 0 and ring.fdeg(i + 1) != ring.fdeg(j + 1):
                raise RingError(
                    "unsupported in graded mode: mixing generators of unequal degree"
                )
    new_regseq = []
    for i in range(c):
        acc = ring.zero()
        for j in range(i + 1):
            acc = acc + ring.regseq[j].scale(alpha[i][j])
        new_regseq.append(acc)
    ring2 = clone_ring_with_regseq(ring, new_regseq)
    d2 = [[migrate_poly(ring2, q) for q in row] for row in F.d.entries]
    h2 = {}
    for p in range(1, c + 1):
        scaled = F.h[p].scale(alpha[p - 1][p - 1])
        h2[p] = [[migrate_poly(ring2, q) for q in row] for row in scaled.entries]
    return HMF(ring2, F.b1, F.b0, d2, h2, generalized=F.generalized, c=c)


def change_of_generators_complex(C, tilde, alpha):
    """Transform lifted CI operators along f' = alpha f (alpha invertible,
    equal degrees): t~'_i = sum_j nu[i][j] t~_j with nu = (alpha^T)^{-1}.

    Returns (ring2, C2, tilde2) and verifies the new decomposition
    sum f'_i t~'_i = d~^2 exactly.
    """
    ring = C.ring
    fld = ring.field
    c = len(alpha)
    degs = {ring.fdeg(j) for j in range(1, c + 1)}
    if len(degs) != 1:
        raise RingError("change of generators needs equal degrees")
    AT = SparseMatrix((c, c), {i: {j: alpha[j][i] for j in range(c)}
                               for i in range(c)})
    eye = SparseMatrix((c, c), {i: {i: 1} for i in range(c)})
    ok, nu = fld.solve_many(AT, eye)
    if not all(bool(x) for x in ok):
        raise RingError("alpha is not invertible")
    new_regseq = []
    for i in range(c):
        acc = ring.zero()
        for j in range(c):
            acc = acc + ring.regseq[j].scale(alpha[i][j])
        new_regseq.append(acc)
    ring2 = clone_ring_with_regseq(ring, new_regseq)
    from .complexes import Complex

    mods = dict(C.modules)
    diffs = {i: migrate_map(ring2, d) for i, d in C.diffs.items()}
    C2 = Complex(ring2, C.level, mods, diffs, C.lo, C.hi)
    tilde2 = {}
    for i in range(1, c + 1):
        tilde2[i] = {}
        for deg in tilde[1]:
            acc = None
            for j in range(1, c + 1):
                coef = nu.rows.get(i - 1, {}).get(j - 1, 0)
                if fld.canon(coef) == 0:
                    continue
                term = migrate_map(ring2, tilde[j][deg]).scale(coef)
                acc = term if acc is None else acc + term
            if acc is None:
                acc = migrate_map(ring2, tilde[1][deg]).scale(0)
            tilde2[i][deg] = acc
    # residual check: sum f'_i t~'_i = d~^2 exactly
    for deg in tilde[1]:
        acc = None
        for i in range(1, c + 1):
            term = tilde2[i][deg].scale_poly(ring2.regseq[i - 1])
            acc = term if acc is None else acc + term
        sq = C2.diff(deg - 1).compose(C2.diff(deg))
        if not (acc - sq).is_zero():
            raise RingError("transformed decomposition failed the residual check")
    return ring2, C2, tilde2
