"""Degreewise lifting and homotopy solvers.

Every existence statement used by the resolution builders (chain-map
extensions across Koszul complexes, systems of higher homotopies, whose
order 1 is the homotopy for multiplication by f, CI operators from a
lifting, homotopy comparison maps) reduces to solving  d X = C  modulo a
prefix ideal, one homological degree at a time.  Gradedness forces the
degrees of all unknowns, so each step is a finite linear system; solutions
are chosen deterministically (first pivot, free variables zero) and
re-substituted into their defining equations before being returned.
Right-hand sides of one map that do not depend on each other are solved
together, so each degree piece of the map is eliminated once for all of
them: a homotopy system is ordered by target degree, and every pending
(index, source degree) of every order that lands in one degree is lifted
through that degree's differential at once; the Koszul slots of one size
share theirs.  Each identity has one solver and at most one
checker: the CI operators of every caller come from ci_from_lifting, the
comparison identity is checked on the assembled divided-power maps by
lifted_comparison_check, and the homotopy identity has one writer,
complexes.HomotopySystem.identity, whose sums higher_homotopies lifts and
complexes.validate_homotopy_system checks.
"""

from __future__ import annotations

from .complexes import (
    HomotopySystem,
    MatrixMap,
    MissingBlock,
    ShapeError,
    divided_power_layout,
    divided_power_map,
    koszul_tensor,
    multi_indices,
    solve_factorization,
)


class Obstruction(ValueError):
    """A degreewise system had no solution; carries the failing spot."""

    def __init__(self, kind, degree, detail=""):
        self.kind = kind
        self.degree = degree
        msg = f"{kind}: unsolvable at homological degree {degree}"
        super().__init__(msg + (f" ({detail})" if detail else ""))


class SolverBug(AssertionError):
    pass


def _residual_bug(kind, degree, detail, residual, level):
    """The SolverBug for a residual outside (f_1..f_level), or None."""
    bad = residual.first_nonmember(level)
    if bad is None:
        return None
    where = f" ({detail})" if detail else ""
    return SolverBug(f"{kind}: re-substitution fails at homological degree "
                     f"{degree}{where}, entry {bad}")


def _lift_outcomes(d, Cs, kind, degrees, details, Xs):
    """Per right-hand side of lift_step: X, None when d has no source, or
    the Obstruction or SolverBug that right-hand side fails with, naming its
    own homological degree from degrees, which runs parallel to Cs.  Xs,
    when given, may prescribe some X, which are then verified, not solved;
    the others are the X of solve_factorization (its W_m are dropped), and
    every X is re-substituted."""
    level = d.level
    details = details or [""] * len(Cs)
    Xs = list(Xs or [None] * len(Cs))
    out = [None] * len(Cs)
    if d.src.rank == 0:
        for n, (C, degree, detail) in enumerate(zip(Cs, degrees, details)):
            if not C.in_ideal(level):
                out[n] = Obstruction(kind, degree, f"{detail}: nothing above"
                                     if detail else "nothing above")
        return out
    need = [n for n, X in enumerate(Xs) if X is None]
    solved = solve_factorization(d, [Cs[n] for n in need], level)
    for n, got in zip(need, solved):
        Xs[n] = None if got is None else got[0]
    for n, (C, degree, detail, X) in enumerate(zip(Cs, degrees, details, Xs)):
        if X is None:
            out[n] = Obstruction(kind, degree, detail)
            continue
        residual = MatrixMap.combine(d.ring, X.src, d.dst, d.level, C.shift,
                                     [(1, d, X)], [(-1, C)])
        bug = _residual_bug(kind, degree, detail, residual, level)
        out[n] = X if bug is None else bug
    return out


def lift_step(d, Cs, kind, degree, details=None):
    """The degreewise step of every builder: per C in Cs, X with d X = C
    modulo (f_1..f_level), the level of d.

    The right-hand sides share d and are solved together; details, when
    given, runs parallel to Cs.  When d has no source there is nothing to
    lift to: each C must lie in the ideal, and its X is None.  Otherwise
    each X is solved for and re-substituted.  The first failing right-hand
    side raises Obstruction(kind, degree) when it has no solution and
    SolverBug when d X - C leaves the ideal.
    """
    out = _lift_outcomes(d, Cs, kind, [degree] * len(Cs), details, None)
    for got in out:
        if isinstance(got, Exception):
            raise got
    return out


def ideal_decomposition(M, level, kind, degree, what):
    """[W_1..W_level] with sum_j f_j W_j = M exactly over S, re-substituted.

    Raises Obstruction(kind, degree) when M is not in (f_1..f_level) and
    SolverBug when the re-substituted sum differs from M.
    """
    got, = solve_factorization(None, [M], level)
    if got is None:
        raise Obstruction(kind, degree, f"{what} not in the ideal")
    Ws = got[1]
    ring = M.ring
    rest = MatrixMap.combine(
        ring, M.src, M.dst, level, M.shift,
        [(-1, MatrixMap.poly_times_identity(ring, f, M.dst, level), W)
         for f, W in zip(ring.regseq, Ws)],
        [(1, M.relevel(level))])
    bug = _residual_bug(kind, degree, what, rest, 0)
    if bug is not None:
        raise bug
    return Ws


def higher_homotopies(G, findices, max_total, hom_hi=None, start=None):
    """System of higher homotopies for the f_j, j in findices, on G.

    Built by the inductive recursion
        d sigma_a = (f_i Id when |a| = 1) - sum_{b+s=a, b != 0} sigma_b sigma_s
    (the right-hand side is sigma.identity(a, m, solving=True)), ordered by
    target degree D = m + 2|a| - 1: every map the sum at (a, m) reads has a
    target degree below D (the b = a term is sigma_a one source degree
    lower, and the other terms have lower orders).  So every pending (a, m)
    of target degree D, of every order, is independent of the others and
    lifted together through d at D, which is eliminated once.  start, a
    {(a, m): MatrixMap} dict, may prescribe maps which are then verified
    rather than solved.  Targets above the top of G are skipped (nothing
    above to check against).  An index that fails is not lifted at a higher
    source degree.  After the sweep a failure raises for the first index a
    of the lowest failing order, at that index's lowest failing degree; an
    order above a failing one is not lifted further, since nothing of it is
    returned.
    """
    findices = tuple(findices)
    c = len(findices)
    hom_hi = G.hi if hom_hi is None else hom_hi
    sigma = HomotopySystem(G, findices)
    start = dict(start or {})
    indices = {t: multi_indices(c, t) for t in range(1, max_total + 1)}
    failed = {}  # a -> its first failure, at the lowest degree
    top = max_total  # the highest order still lifted
    for D in range(G.lo + 1, G.hi + 1):
        batch = []
        for t in range(1, top + 1):
            m = D - 2 * t + 1
            if m < G.lo or m > hom_hi or G.module(m).rank == 0:
                continue
            for a in indices[t]:
                if a not in failed:
                    rhs = sigma.identity(a, m, solving=True)
                    if rhs is not None:
                        batch.append((a, m, rhs))
        if not batch:
            continue
        out = _lift_outcomes(
            G.diff(D), [rhs for _, _, rhs in batch], "higher homotopy",
            [m for _, m, _ in batch], [f"index {a}" for a, _, _ in batch],
            [start.get((a, m)) for a, m, _ in batch])
        for (a, m, _), X in zip(batch, out):
            if isinstance(X, Exception):
                failed[a] = X
                top = min(top, sum(a))
            elif X is not None:
                sigma.set(a, m, X)
    for t in range(1, top + 1):
        for a in indices[t]:
            if a in failed:
                raise failed[a]
    return sigma


def koszul_extension(psi0, B, L, idxs):
    """Koszul extension of psi across K(f_i, i in idxs) tensor B[-1] -> L.

    psi0: B_1 -> L_0 (the induced chain map of the two-term B has no other
    component).  Returns (KB, phi): KB = koszul_tensor(idxs, B) and phi the
    cone-ready components phi[j]: KB_{j+1} -> L_j, zero on K tensor B_0.
    The recursion solves d_L X_J = sum_r (-1)^r f_{J_r} X_{J minus J_r} per
    exterior monomial slot J.  The slots of one size j need only slots of
    size j - 1, so they are lifted through d_L at j together; the first
    unsolvable slot raises Obstruction naming J.
    """
    ring = L.ring
    KB = koszul_tensor(idxs, B)
    X = {(): psi0}  # X_J, by exterior monomial J
    phi = {}
    for j in range(0, len(idxs) + 1):
        mods = KB.koszul_summands[j + 1]
        row = [None] * len(mods)
        batch = []
        for k, (J, s) in enumerate(KB.koszul_components[j + 1]):
            if s != 1:
                continue
            if not J:
                row[k] = psi0
                continue
            terms = []
            for r, fj in enumerate(J):
                prev = X.get(tuple(x for x in J if x != fj))
                if prev is None:
                    continue
                # X_{J minus J_r} read from e_J B_1, twisted up by deg f_{J_r}
                f = ring.regseq[fj - 1]
                prev = MatrixMap(ring, mods[k], prev.dst, prev.rows, L.level,
                                 -f.degree(), check=False)
                fid = MatrixMap.poly_times_identity(ring, f, prev.dst, L.level)
                terms.append((1 if r % 2 == 0 else -1, fid, prev))
            if terms:
                batch.append((k, J, MatrixMap.combine(
                    ring, mods[k], L.module(j - 1), L.level, 0, terms)))
        if batch:
            got = lift_step(L.diff(j), [C for _, _, C in batch],
                            "koszul extension", j,
                            [f"slot e_{J}" for _, J, _ in batch])
            for (k, J, _), XJ in zip(batch, got):
                row[k] = X[J] = XJ
        phi[j] = MatrixMap.from_blocks(ring, [row], mods, [L.module(j)],
                                       KB.module(j + 1), L.module(j), L.level)
    return KB, phi


def ci_from_lifting(C, top=None):
    """CI operators from the stored lifting: solve d~^2 = sum f_j t~_j.

    Returns tilde: tilde[j][i]: C_i -> C_{i-2} with internal shift -deg f_j
    for 1 <= j <= C.level.  top, {i: map} when given, fixes t~_level; the
    lower operators then decompose d~^2 - f_level t~_level over the ideal
    below, which at level 1 is zero, so the remainder must vanish exactly.
    """
    level = C.level
    if level == 0:
        raise ShapeError("ci operators need level >= 1")
    ring = C.ring
    below = level if top is None else level - 1
    tilde = {j: {} for j in range(1, level + 1)}
    for i in range(C.lo + 2, C.hi + 1):
        M, what = C.square(i), "d^2"
        if top is not None:
            fid = MatrixMap.poly_times_identity(
                ring, ring.regseq[level - 1], C.module(i - 2), level)
            M = MatrixMap.combine(ring, C.module(i), C.module(i - 2), level, 0,
                                  [(-1, fid, top[i])], [(1, M)])
            what = f"d^2 - f_{level} t_{level}"
            tilde[level][i] = top[i]
            if level == 1:
                if not M.is_zero():
                    raise SolverBug(
                        "codimension-1 lifted operator fails exact division")
                continue
        Ws = ideal_decomposition(M, below, "ci decomposition", i, what)
        for j, W in enumerate(Ws, 1):
            tilde[j][i] = W.with_level(level)
    return tilde


def ci_commutation_failures(C, tilde):
    """Failures of [t_j, d] = 0 modulo the level ideal for CI operators
    tilde on C (none for a regular sequence)."""
    failures = []
    for j in sorted(tilde):
        for i in sorted(tilde[j]):
            if i - 1 in tilde[j] and C.module(i - 3).rank and C.module(i).rank:
                t = tilde[j][i]
                comm = MatrixMap.combine(
                    C.ring, C.module(i), C.module(i - 3), C.level, t.shift,
                    [(1, C.diff(i - 2), t), (-1, tilde[j][i - 1], C.diff(i))])
                if not comm.in_ideal():
                    failures.append(f"[t_{j}, d] != 0 at degree {i}")
    return failures


def homotopy_comparison(phi0, sigma, sigmap, max_m):
    """Comparison maps between two higher homotopy systems for one element.

    phi0: chain map {v: MatrixMap G_v -> G'_v} covering a map of the resolved
    modules; sigma, sigmap: HomotopySystem objects with a single f index on
    G and G'.  Returns {j: {v: MatrixMap G_v -> G'_{v+2j}}} such that
    sum_{i+j=m} (sigma'_i phi_j - phi_j sigma_i) = 0 for all m <= max_m,
    solved by the inductive recursion of that identity.  Targets above the
    top of G' are skipped.
    """
    G = sigma.complex
    Gp = sigmap.complex
    q = G.ring.fdeg(sigma.findices[0])

    def sig(table, i, v):
        return table.get((i,), v)

    phis = {0: dict(phi0)}
    for m in range(1, max_m + 1):
        phis[m] = {}
        for v in range(G.lo, G.hi + 1):
            tgt = v + 2 * m
            if G.module(v).rank == 0 or tgt > Gp.hi:
                continue
            terms = []
            ok = True
            # - sum_{i+j=m, i>0} sigma'_i phi_j
            for i in range(1, m + 1):
                j = m - i
                pj = phis[j].get(v)
                if pj is None:
                    ok = False
                    break
                sp = sig(sigmap, i, v + 2 * j)
                if sp is None:
                    ok = False
                    break
                terms.append((-1, sp, pj))
            if not ok:
                continue
            # + sum_{i+j=m} phi_j sigma_i   (i = 0 term uses phi_m at v-1)
            for i in range(0, m + 1):
                j = m - i
                si = sig(sigma, i, v)
                if si is None:
                    ok = False
                    break
                mid = v + 2 * i - 1
                pj2 = phis[j].get(mid)
                if pj2 is None:
                    if G.module(mid).rank == 0 or (j == m and mid < G.lo):
                        continue
                    ok = False
                    break
                terms.append((1, pj2, si))
            if not ok or not terms:
                continue
            acc = MatrixMap.combine(G.ring, G.module(v), Gp.module(tgt - 1),
                                    Gp.level, m * q, terms)
            X, = lift_step(Gp.diff(tgt), [acc], "homotopy comparison", v,
                           [f"m={m}"])
            if X is not None:
                phis[m][v] = X
    return phis


def _phi_at(phis, sigma, sigmap, j, v, shift_unit):
    """phi_j at source degree v; zero map when either side vanishes."""
    G = sigma.complex
    Gp = sigmap.complex
    got = phis.get(j, {}).get(v)
    if got is not None:
        return got
    src = G.module(v)
    dst = Gp.module(v + 2 * j)
    if src.rank == 0 or dst.rank == 0:
        return MatrixMap.zero(G.ring, src, dst, G.level, j * shift_unit)
    return None


def lifted_comparison_check(phis, sigma, sigmap, steps):
    """Assembled map of standard liftings commutes with the lifted
    differentials exactly over the base ring.

    This is the comparison identity sum_{i+j=m}(sigma'_i phi_j - phi_j
    sigma_i) = 0 for every m, read on the divided-power modules: per
    homological degree n <= steps it builds the block matrices
    delta~ = sum sigma_j, delta~' = sum sigma'_j, phi~ = sum phi_i and
    checks delta~' phi~ = phi~ delta~ entrywise (exact equality of
    polynomials); a degree with a block not known is skipped.  Returns
    (failures, checked): failure strings and the number of degrees
    assembled, so a run that skips every degree shows checked == 0.
    """
    G = sigma.complex
    Gp = sigmap.complex
    ring = G.ring
    f_idx = sigma.findices[0]
    q = ring.fdeg(f_idx)
    lay = [divided_power_layout(G, n, f_idx) for n in range(steps + 1)]
    layp = [divided_power_layout(Gp, n, f_idx) for n in range(steps + 1)]

    def delta(lay, table, n):
        return divided_power_map(ring, lay[n], lay[n - 1], -1,
                                 range(n // 2 + 1),
                                 lambda i, m: table.get((i,), m), 0)

    def phimap(n):
        return divided_power_map(
            ring, lay[n], layp[n], 0, range(n // 2 + 1),
            lambda i, m: _phi_at(phis, sigma, sigmap, i, m, q), 0)

    failures = []
    checked = 0
    for n in range(1, steps + 1):
        try:
            dG = delta(lay, sigma, n)
            dGp = delta(layp, sigmap, n)
            ph_n = phimap(n)
            ph_prev = phimap(n - 1)
        except MissingBlock:
            continue
        checked += 1
        diff = MatrixMap.combine(ring, dG.src, ph_prev.dst, 0, 0,
                                 [(1, ph_prev, dG), (-1, dGp, ph_n)])
        if not diff.is_zero():
            failures.append(f"lifted comparison fails at degree {n}")
    return failures, checked
