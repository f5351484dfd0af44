"""The higher matrix factorization data type and its validators.

An HMF is stored in split form: free modules B_s(p) for s in {0,1} and
p = 1..c, a filtered map d: A_1 -> A_0 with A_s(p) the sum of the B_s(q)
for q <= p, and homotopy blocks h_p: A_0(p) -> A_1(p).  The defining congruences are

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


def _block_label(s, p, k):
    return f"b{s}.{p}.{k}"


class HMF:
    """Split-form higher matrix factorization over a graded ring.

    b1[p], b0[p] (p = 1..c, a missing level being zero) give the twists of
    B_1(p), B_0(p).  d holds the rows of a single matrix A_1 -> A_0 in the
    concatenated bases ordered by p, and h[p] those of the block map
    A_0(p) -> A_1(p), in the layout of MatrixMap.rows.
    """

    def __init__(self, ring, b1, b0, d, h, strong_ext=None, c=None):
        self.ring = ring
        self.c = ring.codim if c is None else c
        if self.c > ring.codim:
            raise ShapeError("HMF codimension exceeds the regular sequence")
        if not set(b1) | set(b0) <= set(self.levels()):
            raise ShapeError(f"blocks B(p) outside levels 1..{self.c}")
        self.b1 = {}
        self.b0 = {}
        for p in self.levels():
            m1 = b1.get(p, ZERO_MODULE)
            m0 = b0.get(p, ZERO_MODULE)
            self.b1[p] = FreeModule(
                m1.twists, tuple(_block_label(1, p, k) for k in range(m1.rank))
            )
            self.b0[p] = FreeModule(
                m0.twists, tuple(_block_label(0, p, k) for k in range(m0.rank))
            )
        self.d = MatrixMap(ring, self.A1(self.c), self.A0(self.c), d, 0, 0)
        self.h = {}
        for p in range(1, self.c + 1):
            if p not in h:
                raise ShapeError(f"missing homotopy block h_{p}")
            self.h[p] = MatrixMap(ring, self.A0(p), self.A1(p), h[p], 0,
                                  ring.fdeg(p))
        self.strong_ext = strong_ext or {}

    # -- module bookkeeping

    def levels(self):
        return range(1, self.c + 1)

    def A1(self, p):
        return FreeModule.concat([self.b1[q] for q in range(1, p + 1)])

    def A0(self, p):
        return FreeModule.concat([self.b0[q] for q in range(1, p + 1)])

    def rank1(self, p):
        return self.b1[p].rank

    def rank0(self, p):
        return self.b0[p].rank

    def off1(self, p):
        return sum(self.rank1(q) for q in range(1, p))

    def off0(self, p):
        return sum(self.rank0(q) for q in range(1, p))

    def is_trivial(self):
        return all(self.rank1(p) == 0 and self.rank0(p) == 0 for p in self.levels())

    # -- distinguished blocks

    def d_p(self, p):
        return self.d.submatrix(list(range(self.off0(p + 1))),
                                list(range(self.off1(p + 1))))

    def block(self, q, qp):
        """The block of d from B_1(q) to B_0(qp)."""
        rows = range(self.off0(qp), self.off0(qp) + self.rank0(qp))
        cols = range(self.off1(q), self.off1(q) + self.rank1(q))
        return self.d.submatrix(list(rows), list(cols))

    def b_block(self, p):
        return self.block(p, p)

    def psi_block(self, p):
        rows = range(0, self.off0(p))
        cols = range(self.off1(p), self.off1(p) + self.rank1(p))
        return self.d.submatrix(list(rows), list(cols))

    def pi_h(self, p):
        """pi_p h_p: A_0(p) -> B_1(p), the rows of h_p in B_1(p)."""
        rows = range(self.off1(p), self.off1(p) + self.rank1(p))
        return self.h[p].submatrix(list(rows), list(range(self.A0(p).rank)))

    def pi(self, p):
        """Block projection A_1(p) -> B_1(p)."""
        one = self.ring.one()
        rows = {i: {self.off1(p) + i: one} for i in range(self.rank1(p))}
        return MatrixMap(self.ring, self.A1(p), self.b1[p], rows, 0, 0, check=False)

    def __repr__(self):
        rk = ", ".join(
            f"B({p})=({self.rank1(p)},{self.rank0(p)})" for p in range(1, self.c + 1)
        )
        return f"HMF(c={self.c}; {rk})"


def validate_hmf(F):
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
            if qp > q and not F.block(q, qp).is_zero():
                failures.append(f"filtration: d maps B_1({q}) into B_0({qp})")
    # axioms
    for p in range(1, F.c + 1):
        dp = F.d_p(p)
        hp = F.h[p]
        f = ring.regseq[p - 1]
        fid = MatrixMap.poly_times_identity(ring, f, F.A0(p), 0)
        delta_a = MatrixMap.combine(ring, hp.src, dp.dst, 0, hp.shift,
                                    [(1, dp, hp)], [(-1, fid)])
        bad = delta_a.first_nonmember(p - 1)
        if bad is None:
            items.append(f"axiom (a) at p={p}: ok")
        else:
            failures.append(f"axiom (a) at p={p}: entry {bad} not in (f_1..f_{p-1})")
        pi = F.pi(p)
        fpi = MatrixMap.poly_times_identity(ring, f, pi.dst, 0)
        delta_b = MatrixMap.combine(ring, dp.src, pi.dst, 0, hp.shift,
                                    [(1, pi.compose(hp), dp), (-1, fpi, pi)])
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
    minimal = F.d.is_minimal() and all(F.h[p].is_minimal() for p in range(1, F.c + 1))
    items.append(f"minimal: {minimal}")
    return Report(failures, warnings, items)


def truncate_hmf(F, p):
    """The codimension-p factorization (d_p, (h_1|...|h_p)); same ring."""
    if not (0 <= p <= F.c):
        raise ShapeError("truncation level out of range")
    b1 = {q: F.b1[q] for q in range(1, p + 1)}
    b0 = {q: F.b0[q] for q in range(1, p + 1)}
    return HMF(F.ring, b1, b0, F.d_p(p).rows,
               {q: F.h[q].rows for q in range(1, p + 1)}, c=p)


def presentation(F, p):
    """R(p) tensor d_p, plus the augmented S-presentation of the module.

    The augmented matrix is d_p concatenated with, for every q <= p and every
    generator of B_0(q), the columns f_1..f_{q-1} landing in that generator's
    row (the Koszul columns of the finite resolution).
    """
    ring = F.ring
    dp = F.d_p(p)
    pres = dp.with_level(p)
    rows = {i: dict(row) for i, row in dp.rows.items()}
    src_tw = []
    src_labels = []
    for q in range(1, p + 1):
        for k in range(F.rank0(q)):
            row = F.off0(q) + k
            for i in range(1, q):
                col = dp.src.rank + len(src_tw)
                rows.setdefault(row, {})[col] = ring.regseq[i - 1]
                src_tw.append(F.b0[q].twists[k] + ring.fdeg(i))
                src_labels.append(f"e{i}*{_block_label(0, q, k)}")
    aug_src = FreeModule(
        tuple(F.A1(p).twists) + tuple(src_tw),
        tuple(F.A1(p).all_labels()) + tuple(src_labels),
    )
    augmented = MatrixMap(ring, aug_src, F.A0(p), rows, 0, 0)
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
        dh = F.d_p(p).compose(F.h[p])
        terms = []
        for (i, w), blk in sorted(ext.items()):
            if not (1 <= i < w <= p):
                failures.append(f"p={p}: extension slot ({i},{w}) out of range")
                continue
            f = ring.regseq[i - 1]
            rows = {F.off0(w) + a: row for a, row in blk.rows.items()}
            emb = MatrixMap(ring, F.A0(p), F.A0(p), rows, 0, dh.shift - f.degree(),
                            check=False)
            fid = MatrixMap.poly_times_identity(ring, f, F.A0(p), 0)
            terms.append((1, fid, emb))
        fid = MatrixMap.poly_times_identity(ring, ring.regseq[p - 1], F.A0(p), 0)
        if MatrixMap.combine(ring, dh.src, dh.dst, 0, dh.shift, terms,
                             [(1, dh), (-1, fid)]).is_zero():
            items.append(f"strong identity at p={p}: exact")
        else:
            failures.append(f"strong identity fails at p={p}")
        # row block of B_0(1): d h_p restricted there must equal f_p * rho
        if F.rank0(1):
            rows_idx = list(range(F.off0(1), F.off0(1) + F.rank0(1)))
            cols_idx = list(range(F.A0(p).rank))
            top = dh.submatrix(rows_idx, cols_idx)
            rr = {a: {F.off0(1) + a: ring.regseq[p - 1]} for a in range(F.rank0(1))}
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
    rows = {i: {j: migrate_poly(ring2, q) for j, q in row.items()}
            for i, row in mm.rows.items()}
    return MatrixMap(ring2, mm.src, mm.dst, rows, mm.level, mm.shift, check=False)


def clone_ring_with_regseq(ring, new_regseq):
    """Fresh ring over the same variables with regular sequence new_regseq
    (polynomials of the old ring)."""
    ring2 = GradedRing(ring.field, list(zip(ring.var_names, ring.var_degs)))
    ring2.set_regseq([migrate_poly(ring2, f) for f in new_regseq])
    return ring2


def _ring_along(ring, alpha):
    """Fresh ring whose regular sequence is f' = alpha f, f'_i =
    sum_j alpha[i][j] f_j over the c = len(alpha) first elements."""
    f = ring.regseq
    return clone_ring_with_regseq(ring, [
        sum((f[j].scale(row[j]) for j in range(len(alpha))), ring.zero())
        for row in alpha])


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
    ring2 = _ring_along(ring, alpha)
    d2 = migrate_map(ring2, F.d).rows
    h2 = {p: migrate_map(ring2, F.h[p].scale(alpha[p - 1][p - 1])).rows
          for p in range(1, c + 1)}
    return HMF(ring2, F.b1, F.b0, d2, h2, c=c)


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
    # [alpha^T | Id]
    ATI = SparseMatrix((c, 2 * c), {i: {**{j: alpha[j][i] for j in range(c)},
                                        c + i: 1} for i in range(c)})
    ok, nu = fld.solve_many(ATI, c)
    if not all(bool(x) for x in ok):
        raise RingError("alpha is not invertible")
    ring2 = _ring_along(ring, alpha)
    from .complexes import Complex

    mods = dict(C.modules)
    diffs = {i: migrate_map(ring2, d) for i, d in C.diffs.items()}
    C2 = Complex(ring2, C.level, mods, diffs, C.lo, C.hi)
    tilde2 = {}
    migrated = {j: {deg: migrate_map(ring2, t) for deg, t in tilde[j].items()}
                for j in range(1, c + 1)}
    for i in range(1, c + 1):
        nu_i = nu.rows.get(i - 1, {})
        tilde2[i] = {}
        for deg, t in migrated[1].items():
            tilde2[i][deg] = MatrixMap.combine(
                ring2, t.src, t.dst, t.level, t.shift,
                maps=[(nu_i[j - 1], migrated[j][deg]) for j in range(1, c + 1)
                      if j - 1 in nu_i])
    # residual check: sum f'_i t~'_i = d~^2 exactly
    for deg, t in migrated[1].items():
        terms = [(1, MatrixMap.poly_times_identity(ring2, f, t.dst, t.level),
                  tilde2[i][deg]) for i, f in enumerate(ring2.regseq, 1)]
        terms.append((-1, C2.diff(deg - 1), C2.diff(deg)))
        if not MatrixMap.combine(ring2, t.src, t.dst, t.level, 0,
                                 terms).is_zero():
            raise RingError("transformed decomposition failed the residual check")
    return ring2, C2, tilde2
