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


class UnreachableProfile(GenerationFailed):
    """No valid instance of this generator has the requested profile."""


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
    determinant f, giving d h = h d = f Id exactly.  Returns the rows of d
    and h."""
    u = ring.var(f"u{level}")
    v = ring.var(f"v{level}")
    fld = ring.field
    d, h = {}, {}
    k = 0
    while k < size:
        if size - k >= 2 and rng.random() < 0.5:
            # det = f, so the adjugate is the matching homotopy
            w = ring.var(ring.var_names[rng.randrange(ring.nvars)])
            a = _unit(rng, fld)
            d[k] = {k: u.scale(a), k + 1: w}
            d[k + 1] = {k + 1: v.scale(fld.inv(a))}
            h[k] = {k: v.scale(fld.inv(a)), k + 1: w.scale(fld.neg(1))}
            h[k + 1] = {k + 1: u.scale(a)}
            k += 2
        else:
            a = _unit(rng, fld)
            d[k] = {k: u.scale(a)}
            h[k] = {k: v.scale(fld.inv(a))}
            k += 1
    return d, h


def _coupled_pair(ring, i, j):
    """The four-variable coupling at levels (i, j): B(i) square of size 2,
    B(j) of shape (2, 1), with the off-diagonal block tying the levels.
    Returns the rows of d and {i: h_i, j: h_j} over the generators
    (B_1(i), B_1(j)) -> (B_0(i), B_0(j))."""
    u = ring.var(f"u{i}")
    v = ring.var(f"v{i}")
    w = ring.var(f"u{j}")
    z = ring.var(f"v{j}")
    d = {0: {0: v, 3: -z}, 1: {0: w, 1: u}, 2: {2: w, 3: u}}
    h_i = {0: {0: u}, 1: {0: -w, 1: v}}
    h_j = {0: {1: z}, 2: {0: u, 2: z}, 3: {0: -w, 1: v}}
    return d, {i: h_i, j: h_j}


def _put(rows, block, at_row, at_col):
    """Copy the rows of block into rows, its row a to at_row[a] and its
    column b to at_col[b]."""
    for a, row in block.items():
        rows.setdefault(at_row[a], {}).update(
            (at_col[b], q) for b, q in row.items())


def _assemble(ring, c, placements, rng):
    """placements: list of ('top', level, size) and ('pair', i, j) pieces.
    Returns their direct sum, each level holding its pieces' generators in
    placement order."""
    pieces = []
    for n, pl in enumerate(placements):
        if pl[0] == "top":
            _, lev, size = pl
            d, h = _top_block(ring, rng, lev, size)
            levels1 = levels0 = [lev] * size
            h = {lev: h}
        else:
            _, i, j = pl
            d, h = _coupled_pair(ring, i, j)
            levels1, levels0 = [i, i, j, j], [i, i, j]
        # a generator is (level, piece, index in piece); sorted, these are
        # the concatenated bases ordered by level
        pieces.append(([(p, n, k) for k, p in enumerate(levels1)],
                       [(p, n, k) for k, p in enumerate(levels0)], d, h))
    gens1 = sorted(g for pc in pieces for g in pc[0])
    gens0 = sorted(g for pc in pieces for g in pc[1])
    at1 = {g: k for k, g in enumerate(gens1)}
    at0 = {g: k for k, g in enumerate(gens0)}
    d = {}
    h = {p: {} for p in range(1, c + 1)}
    for g1, g0, dp, hp in pieces:
        col1 = [at1[g] for g in g1]
        col0 = [at0[g] for g in g0]
        _put(d, dp, col0, col1)
        for q, block in hp.items():
            _put(h[q], block, col1, col0)
    b1 = {p: FreeModule((1,) * sum(g[0] == p for g in gens1))
          for p in range(1, c + 1)}
    b0 = {p: FreeModule((0,) * sum(g[0] == p for g in gens0))
          for p in range(1, c + 1)}
    return HMF(ring, b1, b0, d, h)


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
        inv, = lift_step(g, [ident], "randgen basis change", degree)
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

    def random_change(modules, off):
        rows = {}

        def put(i, j, q):
            if q.terms:
                rows.setdefault(i, {})[j] = q

        for p, mod in modules.items():
            for a in range(mod.rank):
                col = off(p) + a
                put(col, col, ring.const(_unit(rng, fld)))
                # same level, same twist mixing (strictly below the diagonal)
                for b in range(a):
                    if mod.twists[b] == mod.twists[a] and rng.random() < 0.4:
                        put(off(p) + b, col, ring.const(
                            rng.randrange(0, fld.char if fld.char else 13)))
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
                        put(off(pp) + b, col, ring.monomial(
                            mon, rng.randrange(0, fld.char if fld.char else 13)))
        return rows

    g1 = MatrixMap(ring, F.A1(F.c), F.A1(F.c), random_change(F.b1, F.off1))
    g0 = MatrixMap(ring, F.A0(F.c), F.A0(F.c), random_change(F.b0, F.off0))
    g0_inv = _inverse(g0, 0, "basis change not invertible")
    d_new = g0_inv.compose(F.d).compose(g1)
    h_new = {}
    for p in range(1, F.c + 1):
        n1 = F.A1(p).rank
        n0 = F.A0(p).rank
        g1p = g1.submatrix(list(range(n1)), list(range(n1)))
        g0p = g0.submatrix(list(range(n0)), list(range(n0)))
        g1p_inv = _inverse(g1p, 1, "basis change not invertible at a stage")
        h_new[p] = g1p_inv.compose(F.h[p]).compose(g0p).rows
    return HMF(ring, F.b1, F.b0, d_new.rows, h_new, c=F.c)


def gen_random_hmf(seed, c=2, max_rank=3, gamma=None):
    """A valid factorization over the standard ring for codimension c.

    gamma picks the lowest nonzero stage; reachable values are c (square
    top only) and c-1 (the coupled pair at (c-1, c)); anything else has no
    valid instance in this generator and raises UnreachableProfile with a
    diagnostic, as does a coupled pair under max_rank < 2.  Ranks are bounded by max_rank.
    """
    rng = random.Random(f"hmf:{seed}:{c}:{max_rank}:{gamma}")
    if c < 1:
        raise UnreachableProfile("codimension must be >= 1")
    if max_rank < 1:
        raise UnreachableProfile("max_rank must be >= 1")
    reachable = {c} if c == 1 else {c, c - 1}
    if gamma is None:
        choices = sorted(g for g in reachable if (g == c or max_rank >= 2))
        gamma = choices[rng.randrange(len(choices))]
    if gamma not in reachable:
        raise UnreachableProfile(
            f"no valid instance with gamma={gamma} at codimension {c}: "
            "interaction blocks below the top pair require cosyzygy data"
        )
    if gamma == c - 1 and max_rank < 2:
        raise UnreachableProfile("the coupled pair needs rank bound >= 2")
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
