"""Exact coefficient fields, sparse graded polynomials, and graded rings.

The default field is F_32003 (a large prime standing in for an infinite
residue field); any prime up to MAX_PRIME, or characteristic zero over
Fractions (slower), may be chosen.  Polynomials are sparse maps from
packed monomial keys to nonzero field scalars, kept in canonical form, with a
fixed graded-reverse-lexicographic term order for printing and serialization.

A monomial x^e of a ring with n variables is keyed by one int,
deg << (16*n) | sum_i e_i << (16*(n-1-i)), with its weighted degree in the
top field and a 16-bit field per exponent.  The key of a product is the sum
of the keys, and the degree of a monomial is one shift.  Degrees (and so
exponents) stay below 2**16: packing a larger monomial, the monomial basis
of a larger degree, or a product whose degree reaches 2**16 raises RingError,
so a field never carries into its neighbour.  Exponent tuples appear only at
the API boundary: GradedRing.monomial, GradedRing.monomials, parsing and
printing.
"""

from __future__ import annotations

import re
from fractions import Fraction

from . import _kernels

DEFAULT_PRIME = 32003
# the largest prime p with (p - 1)**2 + p <= 2**53, accepted as the input
# contract; the kernels work on Python ints and need no bound of their own
MAX_PRIME = 94906249
# bits per exponent field of a packed monomial key; every monomial degree
# stays below 2**EXP_BITS
EXP_BITS = 16
EXP_LIMIT = 1 << EXP_BITS
# variable degrees -> the monomial-basis cache of every ring with them
_MON_CACHES = {}


class RingError(ValueError):
    pass


def _is_prime(n):
    if n < 2:
        return False
    if n % 2 == 0:
        return n == 2
    d = 3
    while d * d <= n:
        if n % d == 0:
            return False
        d += 2
    return True


class Field:
    """Prime field F_p, or Q when characteristic is 0."""

    __slots__ = ("char",)

    def __init__(self, char=DEFAULT_PRIME):
        if not (type(char) is int
                and (char == 0 or char <= MAX_PRIME and _is_prime(char))):
            raise RingError("field characteristic must be 0 or a prime at most "
                            f"{MAX_PRIME}, got {char!r}")
        self.char = char

    def __eq__(self, other):
        return isinstance(other, Field) and self.char == other.char

    def __hash__(self):
        return hash(("Field", self.char))

    def __repr__(self):
        return f"Field({self.char})"

    def canon(self, x):
        """The field element of an int or a Fraction; n/d is n * d^-1 mod p."""
        p = self.char
        if not p:
            return Fraction(x)
        if isinstance(x, Fraction):
            if x.denominator % p == 0:
                raise RingError(f"{x} has a denominator divisible by the "
                                f"characteristic {p}")
            return x.numerator * pow(x.denominator, -1, p) % p
        return int(x) % p

    def add(self, a, b):
        return (a + b) % self.char if self.char else a + b

    def sub(self, a, b):
        return (a - b) % self.char if self.char else a - b

    def mul(self, a, b):
        return (a * b) % self.char if self.char else a * b

    def neg(self, a):
        return (-a) % self.char if self.char else -a

    def inv(self, a):
        if self.char:
            if a % self.char == 0:
                raise ZeroDivisionError("inverse of zero")
            return pow(a, self.char - 2, self.char)
        return Fraction(1) / a

    # scalar matrices are _kernels.SparseMatrix rows

    def rank(self, A):
        return _kernels.rank(A, self.char)

    def solve_many(self, AB, n):
        return _kernels.solve_many(AB, n, self.char)

    def nullspace(self, A):
        return _kernels.nullspace(A, self.char)


# ---------------------------------------------------------------------------
# Monomial order: graded reverse lexicographic on weighted exponent vectors,
# higher degree first.  Within one degree, e comes first when its last
# differing exponent is smaller: ascending order of the reversed tuples.


class GradedRing:
    """Positively graded polynomial ring with a distinguished regular sequence.

    Variables carry degrees >= 1.  The regular sequence f_1..f_c is stored as
    homogeneous polynomials; quotient levels p refer to the prefix ideals
    (f_1, ..., f_p).
    """

    def __init__(self, field, variables):
        names = tuple(n for n, _ in variables)
        degs = tuple(d for _, d in variables)
        if len(set(names)) != len(names):
            raise RingError("duplicate variable names")
        for n in names:
            if not re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", n):
                raise RingError(f"bad variable name {n!r}")
        # int() would take 1.5, "1" and True from a JSON file
        if not all(type(d) is int and d >= 1 for d in degs):
            raise RingError(f"variable degrees must be integers >= 1, got {degs}")
        self.field = field
        self.var_names = names
        self.var_degs = degs
        self.nvars = len(names)
        self._var_index = {n: i for i, n in enumerate(names)}
        # the degree field of a packed key starts at bit deg_shift, and a key
        # of degree >= EXP_LIMIT is >= _key_limit
        self.deg_shift = EXP_BITS * len(names)
        self._key_limit = EXP_LIMIT << self.deg_shift
        self._shifts = tuple(range(self.deg_shift - EXP_BITS, -1, -EXP_BITS))
        self.regseq = ()
        self._fdegs = ()
        # degree -> (packed monomial keys, grevlex-descending, {key: position});
        # the bases depend on the variable degrees only, so rings with the
        # same degrees (a fresh one per change of generators) share them
        self._mon_cache = _MON_CACHES.setdefault(degs, {})
        # level -> graded.QuotientPieces of S/(f_1..f_level), see graded.pieces
        self._level_pieces = {}

    @classmethod
    def make(cls, field, variables, regseq):
        ring = cls(field, variables)
        ring.set_regseq(regseq)
        return ring

    def set_regseq(self, regseq):
        polys = []
        for f in regseq:
            g = self.poly(f) if isinstance(f, str) else f
            if g.ring is not self:
                raise RingError("regular sequence element from another ring")
            if g.is_zero() or not g.is_homogeneous():
                raise RingError("regular sequence elements must be nonzero homogeneous")
            if g.degree() == 0:
                # a unit generates the whole ring, so it is never part of
                # a regular sequence
                raise RingError(f"regular sequence element {g} is a constant")
            polys.append(g)
        self.regseq = tuple(polys)
        self._fdegs = tuple(g.degree() for g in polys)
        self._level_pieces.clear()
        return self

    @property
    def codim(self):
        return len(self.regseq)

    def fdeg(self, j):
        """Degree of f_j (1-based), stored by set_regseq."""
        return self._fdegs[j - 1]

    def __repr__(self):
        vs = ",".join(self.var_names)
        return f"GradedRing(F{self.field.char or 'Q'}[{vs}]; c={self.codim})"

    # -- polynomial construction

    def zero(self):
        return Poly(self, {})

    def one(self):
        return self.const(1)

    def const(self, c):
        c = self.field.canon(c)
        if c == 0:
            return Poly(self, {})
        # the constant monomial packs to 0
        return Poly(self, {0: c})

    def var(self, name):
        e = [0] * self.nvars
        e[self._var_index[name]] = 1
        return self.monomial(e)

    def monomial(self, expo, coeff=1):
        c = self.field.canon(coeff)
        if c == 0:
            return self.zero()
        return Poly(self, {self.pack(expo): c})

    # -- packed monomial keys

    def pack(self, expo):
        """The packed key of an exponent vector (see the module docstring)."""
        expo = tuple(expo)
        if len(expo) != self.nvars or any(e < 0 for e in expo):
            raise RingError(f"bad exponent vector {expo} for {self.nvars} variables")
        key = sum(e * w for e, w in zip(expo, self.var_degs))
        if key >= EXP_LIMIT:
            raise RingError(f"monomial {expo} has degree {key}, the packed "
                            f"bound is {EXP_LIMIT - 1}")
        for e in expo:
            key = key << EXP_BITS | e
        return key

    def unpack(self, key):
        """The exponent tuple of a packed key."""
        return tuple(key >> s & (EXP_LIMIT - 1) for s in self._shifts)

    def monomials(self, d):
        """All exponent tuples of weighted degree d, grevlex-descending."""
        return tuple(map(self.unpack, self.monomial_basis(d)[0]))

    def monomial_basis(self, d):
        """(keys, {key: position}): the packed keys of the degree-d
        monomials, grevlex-descending, and the position of each."""
        got = self._mon_cache.get(d)
        if got is not None:
            return got
        if d >= EXP_LIMIT:
            raise RingError(f"degree {d} exceeds the packed bound {EXP_LIMIT - 1}")
        out = []

        def rec(i, rem, cur):
            w = self.var_degs[i]
            if i == self.nvars - 1:
                if rem % w == 0:
                    out.append(tuple(cur + [rem // w]))
                return
            for e in range(rem // w, -1, -1):
                rec(i + 1, rem - e * w, cur + [e])

        if d >= 0:
            if self.nvars == 0:
                if d == 0:
                    out.append(())
            else:
                rec(0, d, [])
        out.sort(key=lambda e: e[::-1])
        keys = tuple(map(self.pack, out))
        got = (keys, {k: i for i, k in enumerate(keys)})
        self._mon_cache[d] = got
        return got

    # -- parsing

    def poly(self, s):
        return parse_poly(self, s)


class Poly:
    """Sparse polynomial in canonical form (no zero coefficients): terms maps
    packed monomial keys to coefficients."""

    __slots__ = ("ring", "terms")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms

    @staticmethod
    def add_products(cells, c, lrows, rrows):
        """Add c times the product of two polynomial matrices into cells.

        The factors come as their nonzero rows, {i: {k: Poly}} and
        {k: {j: Poly}} (the layout of MatrixMap.rows), and cells is
        {i: {j: term dict}} with the coefficients left unreduced, so a sum
        of products is made canonical once per cell by Poly.reduced.  c is
        an int or a field element.  This is the one polynomial product
        loop; Poly.__mul__ runs it on 1x1 matrices.
        """
        for i, lrow in lrows.items():
            out = cells.get(i)
            if out is None:
                out = cells[i] = {}
            for k, a in lrow.items():
                brow = rrows.get(k)
                if brow is None:
                    continue
                for e1, c1 in a.terms.items():
                    c1 *= c
                    for j, b in brow.items():
                        t = out.get(j)
                        if t is None:
                            # a new cell: the keys e1 + e2 are distinct
                            out[j] = {e1 + e2: c1 * c2 for e2, c2 in b.terms.items()}
                            continue
                        for e2, c2 in b.terms.items():
                            e = e1 + e2
                            t[e] = t.get(e, 0) + c1 * c2

    @staticmethod
    def reduced(ring, cells):
        """The rows {i: {j: Poly}} of cells {i: {j: term dict}} with
        unreduced coefficients: each cell reduced mod p once, zero
        coefficients, zero cells and empty rows dropped.  Every product
        passes here, so this is where a degree reaching EXP_LIMIT is
        caught."""
        limit = ring._key_limit
        p = ring.field.char
        rows = {}
        for i, acc in cells.items():
            out = {}
            for j, t in acc.items():
                if t and max(t) >= limit:
                    raise RingError(f"product of degree {max(t) >> ring.deg_shift} "
                                    f"exceeds the packed bound {EXP_LIMIT - 1}")
                if p:
                    t = {e: r for e, c in t.items() if (r := c % p)}
                else:
                    t = {e: c for e, c in t.items() if c}
                if t:
                    out[j] = Poly(ring, t)
            if out:
                rows[i] = out
        return rows

    # -- predicates

    def is_zero(self):
        return not self.terms

    def is_homogeneous(self):
        # the degree is the top field, so the keys of least and greatest
        # degree are the least and the greatest key
        t = self.terms
        s = self.ring.deg_shift
        return not t or min(t) >> s == max(t) >> s

    def degree(self):
        """Degree of a homogeneous polynomial; None for 0; error if mixed."""
        if not self.terms:
            return None
        if not self.is_homogeneous():
            raise RingError(f"inhomogeneous polynomial {self}")
        return next(iter(self.terms)) >> self.ring.deg_shift

    def homogeneous_parts(self):
        s = self.ring.deg_shift
        parts = {}
        for e, c in self.terms.items():
            parts.setdefault(e >> s, {})[e] = c
        return {d: Poly(self.ring, t) for d, t in sorted(parts.items())}

    # -- arithmetic

    def _check(self, other):
        if self.ring is not other.ring:
            raise RingError("polynomials from different rings")

    def _combine(self, other, op):
        self._check(other)
        t = dict(self.terms)
        for e, c in other.terms.items():
            s = op(t.get(e, 0), c)
            if s == 0:
                t.pop(e, None)
            else:
                t[e] = s
        return Poly(self.ring, t)

    def __add__(self, other):
        return self._combine(other, self.ring.field.add)

    def __sub__(self, other):
        return self._combine(other, self.ring.field.sub)

    def __neg__(self):
        fld = self.ring.field
        return Poly(self.ring, {e: fld.neg(c) for e, c in self.terms.items()})

    def __mul__(self, other):
        if not isinstance(other, Poly):
            return self.scale(other)
        self._check(other)
        cells = {}
        Poly.add_products(cells, 1, {0: {0: self}}, {0: {0: other}})
        got = Poly.reduced(self.ring, cells).get(0)
        return got[0] if got else self.ring.zero()

    __rmul__ = __mul__

    def scale(self, c):
        fld = self.ring.field
        c = fld.canon(c)
        if c == 0:
            return self.ring.zero()
        return Poly(self.ring, {e: fld.mul(cc, c) for e, cc in self.terms.items()})

    def __eq__(self, other):
        return isinstance(other, Poly) and self.ring is other.ring and self.terms == other.terms

    def __hash__(self):
        return hash(frozenset(self.terms.items()))

    # -- printing (grevlex-descending, deterministic)

    def sorted_terms(self):
        """(exponent tuple, coefficient) pairs, grevlex-descending."""
        ring = self.ring
        s = ring.deg_shift
        items = [(ring.unpack(k), k >> s, c) for k, c in self.terms.items()]
        items.sort(key=lambda it: (-it[1], it[0][::-1]))
        return [(e, c) for e, _, c in items]

    def __str__(self):
        if not self.terms:
            return "0"
        ring = self.ring
        out = []
        for e, c in self.sorted_terms():
            factors = []
            for i, ei in enumerate(e):
                if ei == 1:
                    factors.append(ring.var_names[i])
                elif ei > 1:
                    factors.append(f"{ring.var_names[i]}^{ei}")
            neg = False
            if ring.field.char:
                # print elements of F_p in (-p/2, p/2] for readability
                cc = c if c <= ring.field.char // 2 else c - ring.field.char
            else:
                cc = c
            if cc < 0:
                neg = True
                cc = -cc
            if not factors:
                body = str(cc)
            elif cc == 1:
                body = "*".join(factors)
            else:
                body = "*".join([str(cc)] + factors)
            if not out:
                out.append(("-" if neg else "") + body)
            else:
                out.append(("- " if neg else "+ ") + body)
        return " ".join(out)

    __repr__ = __str__


_TOKEN = re.compile(r"\s*([A-Za-z][A-Za-z0-9_]*|\d+/\d+|\d+|\^|\*|\+|\-)")


def parse_poly(ring, s):
    """Parse the fixed polynomial grammar: terms of `coef*var^e*...` joined
    by + and -."""
    pos = 0
    tokens = []
    while pos < len(s):
        m = _TOKEN.match(s, pos)
        if not m:
            if s[pos:].strip() == "":
                break
            raise RingError(f"cannot parse polynomial {s!r} at {s[pos:]!r}")
        tokens.append(m.group(1))
        pos = m.end()
    result = ring.zero()
    sign = 1
    cur_coeff = None
    cur_expo = None

    def flush():
        nonlocal result, cur_coeff, cur_expo, sign
        if cur_expo is None and cur_coeff is None:
            return
        c = ring.field.canon(1) if cur_coeff is None else cur_coeff
        if sign < 0:
            c = ring.field.neg(c)
        e = cur_expo if cur_expo is not None else [0] * ring.nvars
        result = result + ring.monomial(tuple(e), c)
        cur_coeff = None
        cur_expo = None
        sign = 1

    i = 0
    expect_factor = False
    while i < len(tokens):
        t = tokens[i]
        if t == "+" or t == "-":
            if expect_factor:
                raise RingError(f"dangling '*' in {s!r}")
            # x--y would read as x - y, and a trailing sign would vanish
            if i + 1 == len(tokens) or tokens[i + 1] in ("+", "-"):
                raise RingError(f"sign without a term in {s!r}")
            flush()
            sign = 1 if t == "+" else -1
            i += 1
            continue
        if t == "*":
            # a '*' joins two factors: one doubled, or first in its term,
            # would silently turn x**2 into 2*x
            if expect_factor or (cur_coeff is None and cur_expo is None):
                raise RingError(f"misplaced '*' in {s!r}")
            expect_factor = True
            i += 1
            continue
        if re.fullmatch(r"\d+(/\d+)?", t):
            num, _, den = t.partition("/")
            if den and int(den) == 0:
                raise RingError(f"zero denominator in {s!r}")
            c = ring.field.canon(Fraction(int(num), int(den)) if den else int(num))
            cur_coeff = c if cur_coeff is None else ring.field.mul(cur_coeff, c)
        else:
            if t not in ring._var_index:
                raise RingError(f"unknown variable {t!r} in {s!r}")
            e = 1
            if i + 1 < len(tokens) and tokens[i + 1] == "^":
                if i + 2 == len(tokens) or not tokens[i + 2].isdigit():
                    raise RingError(f"'^' without an exponent in {s!r}")
                e = int(tokens[i + 2])
                i += 2
            if cur_expo is None:
                cur_expo = [0] * ring.nvars
            cur_expo[ring._var_index[t]] += e
        expect_factor = False
        i += 1
    if expect_factor:
        raise RingError(f"dangling '*' in {s!r}")
    flush()
    return result
