"""Randomized valid factorizations for fuzzing the validators and formulas.

Instances are assembled from families that are valid by construction
(square blocks with unit determinant products at the top level, and the
four-variable coupled pattern at a pair of adjacent levels), then scrambled
by a lower-triangular change of the regular sequence and a random filtered
change of basis, both of which preserve validity and minimality.  A profile
that no valid instance can satisfy is rejected with diagnostics.
"""

from __future__ import annotations

import random

from .complexes import FreeModule, MatrixMap
from .factorization import HMF, change_of_generators_hmf, validate_hmf
from .lifting import Obstruction, lift_step
from .ring import Field, GradedRing


class GenerationFailed(ValueError):
    pass


def standard_ring(c):
    names = []
    for p in range(1, c + 1):
        names += [f"u{p}", f"v{p}"]
    ring = GradedRing(Field(), [(n, 1) for n in names])
    ring.set_regseq([ring.var(f"u{p}") * ring.var(f"v{p}") for p in range(1, c + 1)])
    return ring


def _unit(rng, fld):
    return fld.canon(rng.randrange(1, fld.char if fld.char else 13))


def _top_block(ring, rng, level, size):
    """Square factorization pieces of f_level: 1x1 (u | v) and 2x2 with unit
    determinant f, giving d h = h d = f Id exactly."""
    u = ring.var(f"u{level}")
    v = ring.var(f"v{level}")
    fld = ring.field
    pieces = []
    left = size
    while left > 0:
        if left >= 2 and rng.random() < 0.5:
            # det = f, so the adjugate is the matching homotopy
            w = ring.var(ring.var_names[rng.randrange(ring.nvars)])
            a = _unit(rng, fld)
            d = [[u.scale(a), w], [ring.zero(), v.scale(fld.inv(a))]]
            h = [[v.scale(fld.inv(a)), w.scale(fld.neg(1))],
                 [ring.zero(), u.scale(a)]]
            pieces.append((2, d, h))
            left -= 2
        else:
            a = _unit(rng, fld)
            d = [[u.scale(a)]]
            h = [[v.scale(fld.inv(a))]]
            pieces.append((1, d, h))
            left -= 1
    n = size
    z = ring.zero()
    dd = [[z] * n for _ in range(n)]
    hh = [[z] * n for _ in range(n)]
    off = 0
    for k, d, h in pieces:
        for i in range(k):
            for j in range(k):
                dd[off + i][off + j] = d[i][j]
                hh[off + i][off + j] = h[i][j]
        off += k
    return dd, hh


def _coupled_pair(ring, i, j):
    """The four-variable coupling at levels (i, j): B(i) square of size 2,
    B(j) of shape (2, 1), with the off-diagonal block tying the levels."""
    u = ring.var(f"u{i}")
    v = ring.var(f"v{i}")
    w = ring.var(f"u{j}")
    z = ring.var(f"v{j}")
    zero = ring.zero()
    d_i = [[v, zero], [w, u]]
    h_i = [[u, zero], [-w, v]]
    psi_j = [[zero, -z], [zero, zero]]
    b_j = [[w, u]]
    h_j = [
        [zero, z, zero],
        [zero, zero, zero],
        [u, zero, z],
        [-w, v, zero],
    ]
    return d_i, h_i, psi_j, b_j, h_j


def _assemble(ring, c, placements, rng):
    """placements: list of ('top', level, size) and ('pair', i, j) pieces.
    Returns the block data summed per level."""
    z = ring.zero()
    rank1 = {p: 0 for p in range(0, c + 1)}
    rank0 = {p: 0 for p in range(0, c + 1)}
    piece_data = []
    for pl in placements:
        if pl[0] == "top":
            _, lev, size = pl
            d, h = _top_block(ring, rng, lev, size)
            piece_data.append(
                {"levels": {lev: (size, size)}, "kind": "top", "lev": lev,
                 "d": d, "h": h}
            )
            rank1[lev] += size
            rank0[lev] += size
        else:
            _, i, j = pl
            d_i, h_i, psi_j, b_j, h_j = _coupled_pair(ring, i, j)
            piece_data.append(
                {"levels": {i: (2, 2), j: (2, 1)}, "kind": "pair",
                 "i": i, "j": j, "d_i": d_i, "h_i": h_i, "psi_j": psi_j,
                 "b_j": b_j, "h_j": h_j}
            )
            rank1[i] += 2
            rank0[i] += 2
            rank1[j] += 2
            rank0[j] += 1
    b1 = {p: FreeModule((1,) * rank1[p]) for p in range(0, c + 1)}
    b0 = {p: FreeModule((0,) * rank0[p]) for p in range(0, c + 1)}
    off1 = {p: sum(rank1[q] for q in range(0, p)) for p in range(0, c + 2)}
    off0 = {p: sum(rank0[q] for q in range(0, p)) for p in range(0, c + 2)}
    n1 = sum(rank1.values())
    n0 = sum(rank0.values())
    d = [[z] * n1 for _ in range(n0)]
    h = {p: [[z] * (off0[p] + rank0[p]) for _ in range(off1[p] + rank1[p])]
         for p in range(1, c + 1)}
    used1 = {p: 0 for p in range(0, c + 1)}
    used0 = {p: 0 for p in range(0, c + 1)}

    def put_d(rows, row_level, col_level, block):
        r0 = off0[row_level] + rows[0]
        c0 = off1[col_level] + rows[1]
        for a, rr in enumerate(block):
            for b, val in enumerate(rr):
                d[r0 + a][c0 + b] = val

    for pc in piece_data:
        if pc["kind"] == "top":
            lev = pc["lev"]
            put_d((used0[lev], used1[lev]), lev, lev, pc["d"])
            # h_q for q >= lev gets the square homotopy on this block
            for q in range(lev, c + 1):
                hr = off1[lev] + used1[lev]
                hc = off0[lev] + used0[lev]
                if q == lev:
                    for a, rr in enumerate(pc["h"]):
                        for b, val in enumerate(rr):
                            h[q][hr + a][hc + b] = val
            used1[lev] += len(pc["d"][0])
            used0[lev] += len(pc["d"])
        else:
            i, j = pc["i"], pc["j"]
            ri0, ri1 = used0[i], used1[i]
            rj0, rj1 = used0[j], used1[j]
            put_d((ri0, ri1), i, i, pc["d_i"])
            put_d((rj0, rj1), j, j, pc["b_j"])
            # psi: columns B_1(j), rows B_0(i)
            r0 = off0[i] + ri0
            c0 = off1[j] + rj1
            for a, rr in enumerate(pc["psi_j"]):
                for b, val in enumerate(rr):
                    d[r0 + a][c0 + b] = val
            # h_i block
            for a, rr in enumerate(pc["h_i"]):
                for b, val in enumerate(rr):
                    h[i][off1[i] + ri1 + a][off0[i] + ri0 + b] = val
            # h_j block: rows A_1-slots (B_1(i) then B_1(j)), cols A_0-slots
            rows_map = [off1[i] + ri1, off1[i] + ri1 + 1,
                        off1[j] + rj1, off1[j] + rj1 + 1]
            cols_map = [off0[i] + ri0, off0[i] + ri0 + 1, off0[j] + rj0]
            for a, rr in enumerate(pc["h_j"]):
                for b, val in enumerate(rr):
                    h[j][rows_map[a]][cols_map[b]] = val
            used1[i] += 2
            used0[i] += 2
            used1[j] += 2
            used0[j] += 1
    return HMF(ring, b1, b0, d, {p: h[p] for p in range(1, c + 1)})


def random_lower_triangular(rng, fld, c):
    alpha = [[fld.canon(0)] * c for _ in range(c)]
    for i in range(c):
        alpha[i][i] = _unit(rng, fld)
        for j in range(i):
            if rng.random() < 0.5:
                alpha[i][j] = fld.canon(rng.randrange(0, fld.char if fld.char else 13))
    return alpha


def _inverse(g, degree, failure):
    """The inverse of the basis change g of the module at homological degree
    degree, solved and re-substituted by lift_step; GenerationFailed with
    the message failure when g is not invertible."""
    ident = MatrixMap.identity(g.ring, g.src, 0)
    try:
        inv, = lift_step(g, [ident], 0, "randgen basis change", degree)
    except Obstruction as exc:
        raise GenerationFailed(failure) from exc
    # on a module of rank 0 lift_step has nothing to solve for, and the
    # identity is the inverse
    return ident if inv is None else inv


def random_filtered_conjugation(F, rng):
    """Conjugate by random filtered basis changes of A_1 and A_0.

    The change is block lower triangular over the levels: invertible random
    scalars within each (level, twist) class and random homogeneous entries
    into strictly lower levels.  Preserves validity and minimality.
    """
    ring = F.ring
    fld = ring.field

    def random_change(modules, offs):
        n = sum(m.rank for m in modules.values())
        z = ring.zero()
        g = [[z] * n for _ in range(n)]
        for p, mod in modules.items():
            for a in range(mod.rank):
                col = offs[p] + a
                g[col][col] = ring.const(_unit(rng, fld))
                # same level, same twist mixing (strictly below the diagonal)
                for b in range(a):
                    if mod.twists[b] == mod.twists[a] and rng.random() < 0.4:
                        g[offs[p] + b][col] = ring.const(
                            rng.randrange(0, fld.char if fld.char else 13)
                        )
                for pp, mod2 in modules.items():
                    if pp >= p:
                        continue
                    for b in range(mod2.rank):
                        degdiff = mod.twists[a] - mod2.twists[b]
                        if degdiff < 0 or rng.random() > 0.3:
                            continue
                        mons = ring.monomials(degdiff)
                        if not mons:
                            continue
                        mon = mons[rng.randrange(len(mons))]
                        g[offs[pp] + b][col] = ring.monomial(
                            mon, rng.randrange(0, fld.char if fld.char else 13)
                        )
        return g

    mods1 = {p: F.b1[p] for p in F.levels()}
    mods0 = {p: F.b0[p] for p in F.levels()}
    offs1 = {p: F.off1(p) for p in F.levels()}
    offs0 = {p: F.off0(p) for p in F.levels()}
    g1 = MatrixMap.from_strings(ring, F.A1(F.c), F.A1(F.c),
                                random_change(mods1, offs1), 0, 0)
    g0 = MatrixMap.from_strings(ring, F.A0(F.c), F.A0(F.c),
                                random_change(mods0, offs0), 0, 0)
    g0_inv = _inverse(g0, 0, "basis change not invertible")
    d_new = g0_inv.compose(F.d).compose(g1)
    h_new = {}
    for p in range(1, F.c + 1):
        n1 = F.A1(p).rank
        n0 = F.A0(p).rank
        g1p = g1.submatrix(list(range(n1)), list(range(n1)))
        g0p = g0.submatrix(list(range(n0)), list(range(n0)))
        g1p_inv = _inverse(g1p, 1, "basis change not invertible at a stage")
        h_new[p] = g1p_inv.compose(F.h[p]).compose(g0p).entries
    return HMF(ring, F.b1, F.b0, d_new.entries, h_new, c=F.c)


def gen_random_hmf(seed, c=2, max_rank=3, gamma=None):
    """A valid factorization over the standard ring for codimension c.

    gamma picks the lowest nonzero stage; reachable values are c (square
    top only) and c-1 (the coupled pair at (c-1, c)); anything else has no
    valid instance in this generator and raises GenerationFailed with a
    diagnostic.  Ranks are bounded by max_rank.
    """
    rng = random.Random(f"hmf:{seed}:{c}:{max_rank}:{gamma}")
    if c < 1:
        raise GenerationFailed("codimension must be >= 1")
    if max_rank < 1:
        raise GenerationFailed("max_rank must be >= 1")
    reachable = {c} if c == 1 else {c, c - 1}
    if gamma is None:
        choices = sorted(g for g in reachable if (g == c or max_rank >= 2))
        gamma = choices[rng.randrange(len(choices))]
    if gamma not in reachable:
        raise GenerationFailed(
            f"no valid instance with gamma={gamma} at codimension {c}: "
            "interaction blocks below the top pair require cosyzygy data"
        )
    if gamma == c - 1 and max_rank < 2:
        raise GenerationFailed("the coupled pair needs rank bound >= 2")
    ring = standard_ring(c)
    last_error = None
    for _ in range(8):
        placements = []
        if gamma == c:
            placements.append(("top", c, rng.randrange(1, max_rank + 1)))
        else:
            placements.append(("pair", c - 1, c))
            extra = max_rank - 2
            if extra > 0 and rng.random() < 0.5:
                placements.append(("top", c, rng.randrange(1, extra + 1)))
        F = _assemble(ring, c, placements, rng)
        try:
            alpha = random_lower_triangular(rng, ring.field, c)
            F = change_of_generators_hmf(F, alpha)
            F = random_filtered_conjugation(F, rng)
        except GenerationFailed as exc:
            last_error = exc
            continue
        rep = validate_hmf(F)
        if rep.ok:
            return F
        last_error = GenerationFailed(f"validation failed: {rep.failures[:2]}")
    raise GenerationFailed(f"retries exhausted: {last_error}")
