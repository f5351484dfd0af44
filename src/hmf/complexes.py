"""Graded free modules, homogeneous matrix maps, and chain complexes.

Complexes over a quotient S/(f_1..f_p) are represented by matrices over the
polynomial ring S together with the level p; every zero/equality test reads
entries modulo the prefix ideal via degreewise linear algebra.  Sign
conventions (tensor differential, shifts, cones) are fixed once and written
up in SIGN.md; `Complex.validate` enforces d^2 = 0 at the complex's level.

A polynomial matrix is a MatrixMap whose rows hold its nonzero entries only,
as {row: {column: Poly}}, the layout of the scalar _kernels.SparseMatrix.
Rows are never changed once a map is built, so a change of level, shift or
twists shares them.  MatrixMap.from_strings is the one constructor from a
dense grid and MatrixMap.entries the one dense view; only io_json (parsing
and the JSON/TeX writers) and str_rows use them.  HMF and every builder
pass rows.

The identities the builders solve and check are sums of products, and
MatrixMap.combine evaluates sum +-L o R + sum +-M in one term dict per
output cell, reduced once; compose is its one-product case, and
Poly.add_products the one polynomial product loop.  A Complex never changes
its modules or diffs once built, so Complex.square(i) is composed once.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from .graded import graded_solve, ideal_membership
from .ring import Poly, RingError


class ShapeError(ValueError):
    pass


class ContractViolation(ValueError):
    pass


# rank -> ("g0", ..., "g<rank-1>"), the labels of every unlabelled module
_DEFAULT_LABELS = {}


@dataclass(frozen=True)
class FreeModule:
    """Graded free module given by its generator degrees (twists)."""

    twists: tuple
    labels: tuple = None

    def __post_init__(self):
        object.__setattr__(self, "twists", tuple(map(int, self.twists)))
        if self.labels is not None:
            if len(self.labels) != len(self.twists):
                raise ShapeError("labels length mismatch")
            object.__setattr__(self, "labels", tuple(self.labels))

    @property
    def rank(self):
        return len(self.twists)

    def label(self, k):
        return self.labels[k] if self.labels else f"g{k}"

    def all_labels(self):
        if self.labels is not None:
            return self.labels
        got = _DEFAULT_LABELS.get(self.rank)
        if got is None:
            got = _DEFAULT_LABELS[self.rank] = tuple(f"g{k}" for k in range(self.rank))
        return got

    def shifted(self, n, tag=None):
        labels = None
        if tag is not None:
            labels = tuple(f"{tag}{lab}" for lab in self.all_labels())
        elif self.labels is not None:
            labels = self.labels
        return FreeModule(tuple(t + n for t in self.twists), labels)

    @staticmethod
    def concat(mods):
        tw = tuple(itertools.chain.from_iterable(m.twists for m in mods))
        labels = tuple(itertools.chain.from_iterable(m.all_labels() for m in mods))
        return FreeModule(tw, labels)


ZERO_MODULE = FreeModule(())


class MatrixMap:
    """Homogeneous matrix between graded free modules, read at some level.

    rows[i][j] is the entry that maps generator j of src into row i of dst,
    homogeneous of degree src.twists[j] + shift - dst.twists[i].  rows holds
    the nonzero entries only, as {row: {column: Poly}} with no empty row
    (the layout of _kernels.SparseMatrix.rows).  shift is the internal
    degree the map adds (0 for differentials, deg f for a homotopy of f,
    -deg f for a CI operator).

    A map never changes its rows once built, so maps that differ only in
    level, shift or twists share them.  from_strings builds a map from a
    dense grid and entries is the dense view; both are for the JSON
    boundary (io_json, str_rows) and the tests.
    """

    __slots__ = ("ring", "src", "dst", "rows", "level", "shift")

    def __init__(self, ring, src, dst, rows, level=0, shift=0, check=True):
        self.ring = ring
        self.src = src
        self.dst = dst
        self.rows = rows
        self.level = level
        self.shift = shift
        if check:
            self.check_homogeneous()

    # -- construction helpers

    @classmethod
    def zero(cls, ring, src, dst, level=0, shift=0):
        return cls(ring, src, dst, {}, level, shift, check=False)

    @classmethod
    def identity(cls, ring, module, level=0):
        return cls.poly_times_identity(ring, ring.one(), module, level)

    @classmethod
    def poly_times_identity(cls, ring, g, module, level=0):
        rows = {i: {i: g} for i in range(module.rank)} if g.terms else {}
        return cls(ring, module, module, rows, level, g.degree() or 0, check=False)

    @classmethod
    def from_strings(cls, ring, src, dst, grid, level=0, shift=0, check=True):
        """The map of a dense grid: a list of rows of Polys or polynomial
        strings, zeros included."""
        if len(grid) != dst.rank or any(len(r) != src.rank for r in grid):
            raise ShapeError(
                f"entries shape {len(grid)}x{len(grid[0]) if grid else 0}"
                f" does not match {dst.rank}x{src.rank}"
            )
        rows = {}
        for i, r in enumerate(grid):
            row = {}
            for j, s in enumerate(r):
                q = ring.poly(s) if isinstance(s, str) else s
                if q.terms:
                    row[j] = q
            if row:
                rows[i] = row
        return cls(ring, src, dst, rows, level, shift, check)

    @property
    def entries(self):
        """Dense view: a tuple of rows of Polys, zeros filled in."""
        z = self.ring.zero()
        cols = range(self.src.rank)
        empty = {}
        return tuple(tuple(self.rows.get(i, empty).get(j, z) for j in cols)
                     for i in range(self.dst.rank))

    def _sorted(self):
        """(i, j, entry) over the nonzero entries in row-major order."""
        for i in sorted(self.rows):
            row = self.rows[i]
            for j in sorted(row):
                yield i, j, row[j]

    # -- degree bookkeeping

    def required_degree(self, i, j):
        return self.src.twists[j] + self.shift - self.dst.twists[i]

    def check_homogeneous(self):
        for i, j, q in self._sorted():
            if not (0 <= i < self.dst.rank and 0 <= j < self.src.rank):
                raise ShapeError(
                    f"entry ({i},{j}) outside {self.dst.rank}x{self.src.rank}"
                )
            want = self.required_degree(i, j)
            if not q.is_homogeneous():
                raise ContractViolation(
                    f"entry ({i},{j}) = {q} is not homogeneous, required "
                    f"degree {want}"
                )
            if q.degree() != want:
                raise ContractViolation(
                    f"entry ({i},{j}) = {q} has degree {q.degree()}, "
                    f"required {want}"
                )

    # -- algebra

    def _compat(self, other):
        if self.ring is not other.ring:
            raise RingError("maps over different rings")
        if self.level != other.level:
            raise ShapeError(f"level mismatch {self.level} != {other.level}")

    def _like(self, rows):
        """A map with self's modules, level and shift and the given rows."""
        return MatrixMap(self.ring, self.src, self.dst, rows, self.level,
                         self.shift, check=False)

    def compose(self, other):
        """self o other (other applied first): combine of the one product."""
        return MatrixMap.combine(self.ring, other.src, self.dst, self.level,
                                 self.shift + other.shift, [(1, self, other)])

    @staticmethod
    def combine(ring, src, dst, level, shift, products=(), maps=()):
        """sum c L o R over products (c, L, R) plus sum c M over maps (c, M),
        as a map src -> dst at level with the given shift; c is an int or a
        field element.

        Every operand is checked as compose and + check theirs: each L and
        R has the ring and the level, R.dst has L.src's twists, and each
        product and each map has the twists of src and dst and the shift.
        Every term of every operand goes into one term dict per output cell,
        through Poly.add_products, and each cell is reduced once, so the sum
        makes no intermediate map; a polynomial multiple g M comes in as the
        product (g Id) o M, with poly_times_identity.  An empty sum is the
        zero map.
        """
        cells = {}
        for c, L, R in products:
            for M in (L, R):
                MatrixMap._check_operand(ring, level, M)
            if R.dst.twists != L.src.twists:
                raise ShapeError("composition twist mismatch")
            if (R.src.twists != src.twists or L.dst.twists != dst.twists
                    or L.shift + R.shift != shift):
                raise ShapeError("sum shape mismatch")
            Poly.add_products(cells, c, L.rows, R.rows)
        for c, M in maps:
            MatrixMap._check_operand(ring, level, M)
            if (M.src.twists != src.twists or M.dst.twists != dst.twists
                    or M.shift != shift):
                raise ShapeError("sum shape mismatch")
            # c M is the product c Id o M
            one = ring.one()
            Poly.add_products(cells, c, {i: {i: one} for i in M.rows}, M.rows)
        return MatrixMap(ring, src, dst, Poly.reduced(ring, cells), level, shift,
                         check=False)

    @staticmethod
    def _check_operand(ring, level, M):
        if M.ring is not ring:
            raise RingError("maps over different rings")
        if M.level != level:
            raise ShapeError(f"level mismatch {level} != {M.level}")

    def _plus(self, other, negate):
        """self + other, or self - other when negate; the rows that other
        leaves alone are shared."""
        self._compat(other)
        if (
            other.src.twists != self.src.twists
            or other.dst.twists != self.dst.twists
            or other.shift != self.shift
        ):
            raise ShapeError("sum shape mismatch")
        rows = dict(self.rows)
        for i, brow in other.rows.items():
            out = dict(rows.get(i, ()))
            for j, b in brow.items():
                a = out.get(j)
                if a is None:
                    out[j] = -b if negate else b
                else:
                    q = a - b if negate else a + b
                    if q.terms:
                        out[j] = q
                    else:
                        del out[j]
            if out:
                rows[i] = out
            else:
                del rows[i]
        return self._like(rows)

    def __add__(self, other):
        return self._plus(other, False)

    def __sub__(self, other):
        return self._plus(other, True)

    def __neg__(self):
        return self._like({i: {j: -a for j, a in row.items()}
                           for i, row in self.rows.items()})

    def scale(self, c):
        c = self.ring.field.canon(c)
        return self._like({i: {j: a.scale(c) for j, a in row.items()}
                           for i, row in self.rows.items()} if c else {})

    def with_level(self, level):
        if level < self.level:
            raise ShapeError("cannot decrease level")
        return self.relevel(level)

    def relevel(self, level):
        """Reinterpret the same S-matrix at any level (a choice of lifting
        when the level drops)."""
        return MatrixMap(self.ring, self.src, self.dst, self.rows, level,
                         self.shift, check=False)

    def submatrix(self, row_idx, col_idx):
        src = FreeModule(
            tuple(self.src.twists[j] for j in col_idx),
            tuple(self.src.label(j) for j in col_idx),
        )
        dst = FreeModule(
            tuple(self.dst.twists[i] for i in row_idx),
            tuple(self.dst.label(i) for i in row_idx),
        )
        cols = {j: k for k, j in enumerate(col_idx)}
        rows = {}
        for a, i in enumerate(row_idx):
            row = self.rows.get(i)
            if row:
                out = {cols[j]: q for j, q in row.items() if j in cols}
                if out:
                    rows[a] = out
        return MatrixMap(self.ring, src, dst, rows, self.level, self.shift, check=False)

    @staticmethod
    def from_blocks(ring, blocks, src_mods, dst_mods, src, dst, level=0, shift=0):
        """Assemble a map src -> dst from a grid of optional blocks.

        src and dst are the direct sums of src_mods and dst_mods, as
        FreeModule.concat makes them, passed in because the callers already
        hold them.  blocks[bi][bj] is a map of the ranks of src_mods[bj] ->
        dst_mods[bi], or None for zero; only its rows are read.
        """
        if (sum(m.rank for m in src_mods) != src.rank
                or sum(m.rank for m in dst_mods) != dst.rank):
            raise ShapeError("summands do not add up to the modules")
        rows = {}
        roff = 0
        for bi, dmod in enumerate(dst_mods):
            coff = 0
            for bj, smod in enumerate(src_mods):
                blk = blocks[bi][bj]
                if blk is not None:
                    if blk.dst.rank != dmod.rank or blk.src.rank != smod.rank:
                        raise ShapeError(f"block ({bi},{bj}) shape mismatch")
                    for i, row in blk.rows.items():
                        rows.setdefault(roff + i, {}).update(
                            (coff + j, q) for j, q in row.items())
                coff += smod.rank
            roff += dmod.rank
        return MatrixMap(ring, src, dst, rows, level, shift, check=False)

    # -- tests modulo the level ideal

    def is_zero(self):
        return not self.rows

    def first_nonmember(self, level=None):
        """The row-major first entry (i, j) outside the level ideal, or
        None."""
        level = self.level if level is None else level
        for i, j, q in self._sorted():
            if not ideal_membership(q, level):
                return (i, j)
        return None

    def in_ideal(self, level=None):
        return self.first_nonmember(level) is None

    def is_minimal(self):
        """No unit entries: every degree-0 (scalar) entry vanishes."""
        return not any(self.required_degree(i, j) == 0
                       for i, row in self.rows.items() for j in row)

    def str_rows(self):
        return [[str(q) for q in row] for row in self.entries]

    def __repr__(self):
        return f"MatrixMap({self.dst.rank}x{self.src.rank}, level={self.level}, shift={self.shift})"


class Complex:
    """Chain complex of graded free modules over S read at a level.

    modules[i] for lo <= i <= hi; diffs[i]: modules[i] -> modules[i-1] for
    lo < i <= hi.  Modules outside the range are zero.

    A complex never changes its modules or diffs once built, as a MatrixMap
    never changes its rows, so square(i) = d_{i-1} d_i is composed once per
    complex and shared by validate, the CI-operator builders and the
    verifier's homology tables.
    """

    def __init__(self, ring, level, modules, diffs, lo=None, hi=None):
        self.ring = ring
        self.level = level
        self.modules = dict(modules)
        self.diffs = dict(diffs)
        keys = sorted(self.modules)
        self.lo = lo if lo is not None else (keys[0] if keys else 0)
        self.hi = hi if hi is not None else (keys[-1] if keys else 0)
        for i in range(self.lo, self.hi + 1):
            self.modules.setdefault(i, ZERO_MODULE)
        self._squares = {}

    def module(self, i):
        return self.modules.get(i, ZERO_MODULE)

    def diff(self, i):
        got = self.diffs.get(i)
        if got is None:
            return MatrixMap.zero(
                self.ring, self.module(i), self.module(i - 1), self.level
            )
        return got

    def square(self, i):
        """d_{i-1} d_i: modules[i] -> modules[i-2], composed on first use."""
        sq = self._squares.get(i)
        if sq is None:
            sq = self._squares[i] = self.diff(i - 1).compose(self.diff(i))
        return sq

    def rank(self, i):
        return self.module(i).rank

    def betti_list(self):
        return [self.rank(i) for i in range(self.lo, self.hi + 1)]

    def validate(self):
        failures = []
        for i in range(self.lo + 1, self.hi + 1):
            d = self.diff(i)
            if d.src.twists != self.module(i).twists or d.dst.twists != self.module(
                i - 1
            ).twists:
                failures.append(f"diff {i}: module mismatch")
                continue
            try:
                d.check_homogeneous()
            except ContractViolation as exc:
                failures.append(f"diff {i}: {exc}")
        for i in range(self.lo + 2, self.hi + 1):
            sq = self.square(i)
            bad = sq.first_nonmember()
            if bad is not None:
                failures.append(
                    f"d^2 != 0 at degree {i}, entry {bad}: {sq.rows[bad[0]][bad[1]]}"
                )
        return failures

    def shift(self, a):
        """U[-a] convention: result_i = self_{i+a}, differential (-1)^a d."""
        sign = 1 if a % 2 == 0 else -1
        modules = {i - a: m for i, m in self.modules.items()}
        diffs = {}
        for i, d in self.diffs.items():
            diffs[i - a] = d if sign == 1 else -d
        return Complex(self.ring, self.level, modules, diffs, self.lo - a, self.hi - a)

    def truncate(self, lo, hi):
        if hi < lo:
            raise ShapeError("empty truncation range")
        modules = {
            i: self.module(i) for i in range(lo, hi + 1)
        }
        diffs = {i: self.diffs[i] for i in self.diffs if lo < i <= hi}
        return Complex(self.ring, self.level, modules, diffs, lo, hi)

    def reduce_level(self, q):
        if q < self.level:
            raise ShapeError("reduce_level must deepen the quotient")
        diffs = {i: d.with_level(q) for i, d in self.diffs.items()}
        return Complex(self.ring, q, self.modules, diffs, self.lo, self.hi)

    def twisted(self, n):
        """Add n to every generator degree (the maps share their rows)."""
        modules = {i: m.shifted(n) for i, m in self.modules.items()}
        diffs = {
            i: MatrixMap(
                self.ring,
                modules[i],
                modules[i - 1],
                d.rows,
                self.level,
                d.shift,
                check=False,
            )
            for i, d in self.diffs.items()
        }
        return Complex(self.ring, self.level, modules, diffs, self.lo, self.hi)

    def is_minimal(self):
        return all(self.diff(i).is_minimal() for i in range(self.lo + 1, self.hi + 1))

    def __repr__(self):
        rk = " ".join(str(self.rank(i)) for i in range(self.lo, self.hi + 1))
        return f"Complex(level={self.level}, range=[{self.lo},{self.hi}], ranks {rk})"


def mapping_cone(Y, W, phi, check=True):
    """Cone of a chain map W[-1] -> Y given by components phi[j]: W_{j+1} -> Y_j.

    Cone_i = Y_i + W_i with differential [[dY, phi], [0, dW]].
    """
    if Y.ring is not W.ring or Y.level != W.level:
        raise ShapeError("cone needs matching ring and level")
    ring = Y.ring
    if check:
        for j, p in phi.items():
            if p.src.twists != W.module(j + 1).twists or p.dst.twists != Y.module(j).twists:
                raise ContractViolation(f"phi[{j}] has wrong modules")
            p.check_homogeneous()
        for j in sorted(phi):
            terms = [(1, Y.diff(j), phi[j])] if j > Y.lo else []
            if j - 1 in phi:
                terms.append((1, phi[j - 1], W.diff(j + 1)))
            acc = MatrixMap.combine(ring, W.module(j + 1), Y.module(j - 1),
                                    Y.level, phi[j].shift, terms)
            if not acc.in_ideal():
                raise ContractViolation(
                    f"phi is not a chain map: square at degree {j} fails"
                )
    lo, hi = min(Y.lo, W.lo), max(Y.hi, W.hi)
    modules = {}
    diffs = {}
    for i in range(lo, hi + 1):
        modules[i] = FreeModule.concat([Y.module(i), W.module(i)])
    for i in range(lo + 1, hi + 1):
        blk = phi.get(i - 1)
        diffs[i] = MatrixMap.from_blocks(
            ring,
            [[Y.diff(i), blk], [None, W.diff(i)]],
            [Y.module(i), W.module(i)],
            [Y.module(i - 1), W.module(i - 1)],
            modules[i],
            modules[i - 1],
            Y.level,
        )
    return Complex(ring, Y.level, modules, diffs, lo, hi)


def two_term_complex(ring, b, level=0):
    """The complex B_1 --b--> B_0 with B_1 in homological degree 1."""
    return Complex(
        ring, level, {0: b.dst, 1: b.src}, {1: b.with_level(level)}, 0, 1
    )


def koszul_components(idxs, n):
    """Ordered basis components (J, s) of (K(f_idxs) tensor B)_n."""
    comps = []
    for size in range(n - 1, n + 1):
        s = n - size
        if s not in (0, 1) or size < 0 or size > len(idxs):
            continue
        for J in itertools.combinations(idxs, size):
            comps.append((J, s))
    comps.sort(key=lambda js: (len(js[0]), js[0]))
    return comps


def koszul_tensor(idxs, B):
    """K(f_{i1},...,f_{im}) tensor B for a two-term complex B.

    Components of degree n are e_J tensor B_s with |J| + s = n; the Koszul
    part of the differential carries the sign (-1)^s, matching the fixed
    tensor convention.  Basis labels expose the exterior monomials.  This
    is the one writer of the Koszul signs; koszul_complex is its case
    B = [0 -> S].
    """
    ring = B.ring
    level = B.level
    idxs = tuple(idxs)
    b = B.diff(1)
    m = len(idxs)
    modules = {}
    diffs = {}
    comp_lists = {}
    summands = {}
    for n in range(0, m + 2):
        comps = koszul_components(idxs, n)
        comp_lists[n] = comps
        # the summand e_J tensor B_s, twisted by deg e_J
        summands[n] = [
            B.module(s).shifted(sum(ring.fdeg(j) for j in J),
                                tag="".join(f"e{j}" for j in J) + "*" if J else "")
            for J, s in comps
        ]
        modules[n] = FreeModule.concat(summands[n]) if comps else ZERO_MODULE
    for n in range(1, m + 2):
        src_comps = comp_lists[n]
        dst_comps = comp_lists[n - 1]
        dst_pos = {c: k for k, c in enumerate(dst_comps)}
        blocks = [[None] * len(src_comps) for _ in dst_comps]
        for jsrc, (J, s) in enumerate(src_comps):
            # Koszul part: (-1)^s sum_r (-1)^{r+1} f_{J_r} to (J minus J_r, s)
            for r, fj in enumerate(J):
                J2 = tuple(x for x in J if x != fj)
                tgt = dst_pos.get((J2, s))
                if tgt is None:
                    continue
                sign = 1 if (r % 2 == 0) else -1  # (-1)^{r+1} with r 1-based
                if s % 2 == 1:
                    sign = -sign
                g = ring.regseq[fj - 1].scale(sign)
                blocks[tgt][jsrc] = MatrixMap.poly_times_identity(
                    ring, g, B.module(s), level
                )
            # B part: identity tensor b
            if s == 1:
                tgt = dst_pos.get((J, 0))
                if tgt is not None:
                    blocks[tgt][jsrc] = b
        diffs[n] = MatrixMap.from_blocks(
            ring, blocks, summands[n], summands[n - 1], modules[n],
            modules[n - 1], level
        )
    C = Complex(ring, level, modules, diffs, 0, m + 1)
    C.koszul_components = comp_lists
    C.koszul_summands = summands
    return C


def koszul_complex(ring, idxs, level=0):
    """Full Koszul complex on f_{i1},...,f_{im} (rank-one top in degree m):
    koszul_tensor over the complex 0 -> S, truncated to [0, m]."""
    S = two_term_complex(
        ring, MatrixMap.zero(ring, ZERO_MODULE, FreeModule((0,)), level), level)
    return koszul_tensor(idxs, S).truncate(0, len(idxs))


class MissingBlock(ShapeError):
    """A block the divided-power assembler needs is not known."""


def divided_power_layout(C, n, f_idx):
    """Degree n of sum_a y^(a) C_{n-2a}, y of the degree of f_{f_idx}, as
    (summands, modules, module): the summands (a, m), a ascending, those
    with C_m nonzero; per summand C_m twisted by a deg(y), its labels
    prefixed with y<f_idx>^(a)* for a > 0; and the direct sum of those.
    Each degree is laid out once and handed to every divided_power_map
    that reads it."""
    q = C.ring.fdeg(f_idx)
    summands = [((n - m) // 2, m) for m in range(n, -1, -2)
                if C.lo <= m <= C.hi and C.modules[m].rank]
    mods = [C.modules[m].shifted(a * q, tag=f"y{f_idx}^({a})*" if a else None)
            for a, m in summands]
    return summands, mods, FreeModule.concat(mods)


def divided_power_map(ring, src_l, dst_l, k, orders, block, level, shift=0):
    """A map from degree n of sum_a y^(a) src_{n-2a} to degree n + k of
    sum_b y^(b) dst_{n+k-2b}, those degrees given by their
    divided_power_layout src_l and dst_l.

    The block from y^(a) src_m to y^(a-i) dst_{m+2i+k} is block(i, m) for i
    in orders and zero otherwise; block(i, m) is None when that block is
    not known, which raises MissingBlock.  The divided-power differential
    is k = -1 with the homotopies sigma_i as blocks, a comparison map k = 0
    with its phi_i, and the y-shift k = -2 the identity at i = 1.
    """
    src_sum, src_mods, src = src_l
    dst_sum, dst_mods, dst = dst_l
    dst_pos = {t: kd for kd, t in enumerate(dst_sum)}
    blocks = [[None] * len(src_sum) for _ in dst_sum]
    for js, (a, m) in enumerate(src_sum):
        for i in orders:
            kd = dst_pos.get((a - i, m + 2 * i + k))
            if kd is None:
                continue
            blk = block(i, m)
            if blk is None:
                raise MissingBlock(f"block {i} at degree {m} missing")
            blocks[kd][js] = blk
    return MatrixMap.from_blocks(ring, blocks, src_mods, dst_mods, src, dst,
                                 level, shift)


# ---------------------------------------------------------------------------
# Matrix-level graded solves


def solve_factorization(A, Cs, level):
    """Solve A X + sum_m f_m W_m = C exactly over S (m <= level), for each C
    in Cs.

    A may be None (pure ideal division).  The right-hand sides share one
    target; their columns are grouped by degree across the whole list, so
    each degree piece of A is assembled and eliminated once.  Returns, per C,
    (X, [W_1..W_level]) or None when some column of C is unsolvable.  X and
    the W_m are chosen first-pivot with free variables zero, column by
    column, so each result does not depend on the others in the list.
    """
    if not Cs:
        return []
    ring = Cs[0].ring
    dst = A.dst if A is not None else Cs[0].dst
    if any(C.dst.twists != dst.twists for C in Cs):
        raise ShapeError("target rows mismatch")
    # the unknowns: the columns of A, then f_m at each target row k
    ncols_A = A.src.rank if A is not None else 0
    slots = {k: dict(row) for k, row in A.rows.items()} if A is not None else {}
    slot_degs = [t + A.shift for t in A.src.twists] if A is not None else []
    ideal_slots = []
    for m in range(1, level + 1):
        fm = ring.regseq[m - 1]
        for k in range(dst.rank):
            slots.setdefault(k, {})[len(slot_degs)] = fm
            slot_degs.append(dst.twists[k] + fm.degree())
            ideal_slots.append((m, k))
    # group target columns of every right-hand side by homogeneous degree
    groups = {}
    pos = {}
    for n, C in enumerate(Cs):
        for j in range(C.src.rank):
            cols = groups.setdefault(C.src.twists[j] + C.shift, [])
            pos[n, j] = len(cols)
            cols.append((n, j))
    targets = {e: {} for e in groups}
    for n, C in enumerate(Cs):
        for k, row in C.rows.items():
            for j, q in row.items():
                targets[C.src.twists[j] + C.shift].setdefault(k, {})[pos[n, j]] = q
    Xrows = [{} for _ in Cs]
    Wrows = [[{} for _ in range(level)] for _ in Cs]
    solved = [True] * len(Cs)
    for e, cols in sorted(groups.items()):
        res = graded_solve(ring, dst.twists, e, slots, slot_degs, targets[e],
                           len(cols))
        for (n, j), coeffs in zip(cols, res):
            if coeffs is None:
                solved[n] = False
                continue
            for s, q in coeffs.items():
                if s < ncols_A:
                    Xrows[n].setdefault(s, {})[j] = q
                else:
                    m, k = ideal_slots[s - ncols_A]
                    Wrows[n][m - 1].setdefault(k, {})[j] = q
    out = []
    for n, C in enumerate(Cs):
        if not solved[n]:
            out.append(None)
            continue
        X = None
        if A is not None:
            X = MatrixMap(ring, C.src, A.src, Xrows[n], level, C.shift - A.shift,
                          check=False)
        Ws = [MatrixMap(ring, C.src, dst, Wrows[n][m - 1], level,
                        C.shift - ring.fdeg(m), check=False)
              for m in range(1, level + 1)]
        out.append((X, Ws))
    return out


# ---------------------------------------------------------------------------
# Systems of higher homotopies


def multi_indices(c, total):
    """All multi-indices of length c with given |a|, lexicographic."""
    if c == 0:
        return [()] if total == 0 else []
    out = []

    def rec(i, rem, cur):
        if i == c - 1:
            out.append(tuple(cur + [rem]))
            return
        for v in range(rem, -1, -1):
            rec(i + 1, rem - v, cur + [v])

    rec(0, total, [])
    out.sort()
    return out


def index_shift(ring, findices, a):
    return sum(ai * ring.fdeg(j) for ai, j in zip(a, findices))


class HomotopySystem:
    """Higher homotopies sigma_a on a complex for the elements f_{j}, j in
    findices.  sigma_a maps degree m to degree m + 2|a| - 1 and adds internal
    degree sum a_i deg f_{j_i}; the zero index is the differential.
    """

    def __init__(self, complex_, findices, maps=None):
        self.complex = complex_
        self.findices = tuple(findices)
        self.maps = maps if maps is not None else {}

    def get(self, a, m):
        """sigma_a at source homological degree m (zero map when absent but
        shapes force zero)."""
        a = tuple(a)
        if all(x == 0 for x in a):
            if m < self.complex.lo or m > self.complex.hi:
                return None
            return self.complex.diff(m)
        got = self.maps.get(a, {}).get(m)
        if got is not None:
            return got
        src = self.complex.module(m)
        tgt_deg = m + 2 * sum(a) - 1
        dst = self.complex.module(tgt_deg)
        if src.rank == 0 or dst.rank == 0:
            return MatrixMap.zero(
                self.complex.ring,
                src,
                dst,
                self.complex.level,
                index_shift(self.complex.ring, self.findices, a),
            )
        return None

    def set(self, a, m, mat):
        self.maps.setdefault(tuple(a), {})[m] = mat

    def known_indices(self):
        return sorted(self.maps.keys())

    def identity(self, a, m, solving=False):
        """sum_{b+s=a} sigma_b sigma_s - (f_i Id when |a| = 1) at source
        degree m, a map into degree m + 2|a| - 2 with shift index_shift(a);
        None when a map the sum needs is not known.  A differential beyond
        the range of the complex is zero.

        This is the one statement of the identity: validate_homotopy_system
        checks that it vanishes, and solving=True, which leaves out the
        unknown term d sigma_a and negates the rest, is the right-hand side
        that lifting.higher_homotopies lifts through d.
        """
        C = self.complex
        ring = C.ring
        total = sum(a)
        sign = -1 if solving else 1
        terms = []
        for b in itertools.product(*(range(x + 1) for x in a)):
            if solving and not any(b):
                continue
            s = tuple(x - y for x, y in zip(a, b))
            first = self.get(s, m)
            mid = m + 2 * sum(s) - 1
            second = self.get(b, mid)
            if first is None or (second is None and C.module(mid).rank):
                return None
            if second is not None:
                terms.append((sign, second, first))
        fid = []
        if total == 1:
            f = ring.regseq[self.findices[a.index(1)] - 1]
            fid.append((-sign, MatrixMap.poly_times_identity(
                ring, f, C.module(m), C.level)))
        return MatrixMap.combine(
            ring, C.module(m), C.module(m + 2 * total - 2), C.level,
            index_shift(ring, self.findices, a), terms, fid)


def validate_homotopy_system(sigma, max_total=None):
    """Check the identities of a homotopy system at its complex's level.

    (1) sigma_0 is the differential (by construction).
    (2) sigma_0 sigma_{e_i} + sigma_{e_i} sigma_0 = f_i.
    (3) sum_{b+s=a} sigma_b sigma_s = 0 for |a| >= 2.

    This is the one checker of every system of higher homotopies, the
    box's included: box checks its precondition with max_total=2 on the
    resolution it is built from, and `hmf box` checks the system box
    returns.  The identity it checks is sigma.identity, the one the solver
    lifts.  Every source degree of sigma.complex is checked, the top one
    included; a degree where the identity needs a map sigma lacks is
    skipped.  Returns a list of failure strings (empty means valid for
    everything checkable in range).
    """
    C = sigma.complex
    c = len(sigma.findices)
    failures = []
    totals = sorted({sum(a) for a in sigma.known_indices()})
    if max_total is not None:
        totals = [t for t in totals if t <= max_total]
    for total in totals:
        if total < 1:
            continue
        for a in multi_indices(c, total):
            for m in range(C.lo, C.hi + 1):
                if C.module(m).rank == 0:
                    continue
                acc = sigma.identity(a, m)
                bad = None if acc is None else acc.first_nonmember()
                if bad is not None:
                    failures.append(
                        f"homotopy identity fails: index {a}, source degree {m}, "
                        f"entry {bad}"
                    )
    return failures
