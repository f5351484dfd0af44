"""Exact coefficient fields, sparse graded polynomials, and graded rings.

The default field is F_32003 (a large prime standing in for an infinite
residue field); any prime up to MAX_PRIME, or characteristic zero over
Fractions (slower), may be chosen.  Polynomials are sparse maps from
exponent vectors to nonzero field scalars, kept in canonical form, with a
fixed graded-reverse-lexicographic term order for printing and serialization.
"""

from __future__ import annotations

import re
from fractions import Fraction
from functools import cmp_to_key
from operator import add

from . import _kernels

DEFAULT_PRIME = 32003
# the largest prime p with (p - 1)**2 + p <= 2**53, accepted as the input
# contract; the kernels work on Python ints and need no bound of their own
MAX_PRIME = 94906249


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
                            f"{MAX_PRIME}, got {char}")
        self.char = char

    def __eq__(self, other):
        return isinstance(other, Field) and self.char == other.char

    def __hash__(self):
        return hash(("Field", self.char))

    def __repr__(self):
        return f"Field({self.char})"

    def canon(self, x):
        if self.char:
            return int(x) % self.char
        return Fraction(x)

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

    def solve_many(self, A, B):
        return _kernels.solve_many(A, B, self.char)

    def nullspace(self, A):
        return _kernels.nullspace(A, self.char)


# ---------------------------------------------------------------------------
# Monomial order: graded reverse lexicographic on weighted exponent vectors.


def _grevlex_cmp(pair_a, pair_b):
    (da, ea), (db, eb) = pair_a, pair_b
    if da != db:
        return -1 if da > db else 1
    if ea == eb:
        return 0
    for x, y in zip(reversed(ea), reversed(eb)):
        if x != y:
            # last differing exponent smaller  ->  earlier (bigger in grevlex)
            return -1 if x < y else 1
    return 0


class GradedRing:
    """Positively graded polynomial ring with a distinguished regular sequence.

    Variables carry degrees >= 1.  The regular sequence f_1..f_c is stored as
    homogeneous polynomials; quotient levels p refer to the prefix ideals
    (f_1, ..., f_p).
    """

    def __init__(self, field, variables):
        names = tuple(n for n, _ in variables)
        degs = tuple(int(d) for _, d in variables)
        if len(set(names)) != len(names):
            raise RingError("duplicate variable names")
        for n in names:
            if not re.fullmatch(r"[A-Za-z][A-Za-z0-9_]*", n):
                raise RingError(f"bad variable name {n!r}")
        if any(d < 1 for d in degs):
            raise RingError("variable degrees must be >= 1")
        self.field = field
        self.var_names = names
        self.var_degs = degs
        self.nvars = len(names)
        self._var_index = {n: i for i, n in enumerate(names)}
        self.regseq = ()
        self._mon_cache = {}
        self._membership_pieces = {}

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
        self._membership_pieces.clear()
        return self

    @property
    def codim(self):
        return len(self.regseq)

    def fdeg(self, j):
        """Degree of f_j (1-based)."""
        return self.regseq[j - 1].degree()

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
        return Poly(self, {(0,) * self.nvars: c})

    def var(self, name):
        i = self._var_index[name]
        e = [0] * self.nvars
        e[i] = 1
        return Poly(self, {tuple(e): self.field.canon(1)})

    def monomial(self, expo, coeff=1):
        c = self.field.canon(coeff)
        if c == 0:
            return self.zero()
        return Poly(self, {tuple(expo): c})

    def mono_degree(self, expo):
        return sum(e * d for e, d in zip(expo, self.var_degs))

    def monomials(self, d):
        """All exponent tuples of weighted degree d, grevlex-descending."""
        return self._monomial_basis(d)[0]

    def monomial_index(self, d):
        """Position of each degree-d exponent tuple in monomials(d)."""
        return self._monomial_basis(d)[1]

    def _monomial_basis(self, d):
        if d < 0:
            return (), {}
        got = self._mon_cache.get(d)
        if got is not None:
            return got
        out = []

        def rec(i, rem, cur):
            if i == self.nvars - 1:
                w = self.var_degs[i]
                if rem % w == 0:
                    out.append(tuple(cur + [rem // w]))
                return
            w = self.var_degs[i]
            for e in range(rem // w, -1, -1):
                rec(i + 1, rem - e * w, cur + [e])

        if self.nvars == 0:
            if d == 0:
                out.append(())
        else:
            rec(0, d, [])
        out.sort(key=cmp_to_key(lambda a, b: _grevlex_cmp((d, a), (d, b))))
        res = tuple(out)
        got = (res, {m: i for i, m in enumerate(res)})
        self._mon_cache[d] = got
        return got

    # -- parsing

    def poly(self, s):
        return parse_poly(self, s)


class Poly:
    """Sparse polynomial in canonical form (no zero coefficients)."""

    __slots__ = ("ring", "terms", "_deg")

    def __init__(self, ring, terms):
        self.ring = ring
        self.terms = terms
        self._deg = None

    @staticmethod
    def add_products(t, terms1, terms2):
        """Add the product of two term dicts into the term dict t, leaving
        the coefficients unreduced; Poly.reduced makes the sum canonical."""
        for e1, c1 in terms1.items():
            for e2, c2 in terms2.items():
                e = tuple(map(add, e1, e2))
                t[e] = t.get(e, 0) + c1 * c2

    @staticmethod
    def reduced(ring, t):
        """The Poly of a term dict with unreduced coefficients: reduced mod
        p once, zero coefficients dropped."""
        p = ring.field.char
        if p:
            return Poly(ring, {e: r for e, c in t.items() if (r := c % p)})
        return Poly(ring, {e: c for e, c in t.items() if c})

    # -- predicates

    def is_zero(self):
        return not self.terms

    def is_homogeneous(self):
        degs = {self.ring.mono_degree(e) for e in self.terms}
        return len(degs) <= 1

    def degree(self):
        """Degree of a homogeneous polynomial; None for 0; error if mixed."""
        if not self.terms:
            return None
        if self._deg is None:
            degs = {self.ring.mono_degree(e) for e in self.terms}
            if len(degs) != 1:
                raise RingError(f"inhomogeneous polynomial {self}")
            self._deg = degs.pop()
        return self._deg

    def homogeneous_parts(self):
        parts = {}
        for e, c in self.terms.items():
            parts.setdefault(self.ring.mono_degree(e), {})[e] = c
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
        t = {}
        Poly.add_products(t, self.terms, other.terms)
        return Poly.reduced(self.ring, t)

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
        ring = self.ring
        items = [((ring.mono_degree(e), e), e, c) for e, c in self.terms.items()]
        items.sort(key=cmp_to_key(lambda a, b: _grevlex_cmp(a[0], b[0])))
        return [(e, c) for _, e, c in items]

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
            flush()
            sign = 1 if t == "+" else -1
            i += 1
            continue
        if t == "*":
            expect_factor = True
            i += 1
            continue
        if re.fullmatch(r"\d+(/\d+)?", t):
            val = Fraction(t) if "/" in t else int(t)
            c = ring.field.canon(val)
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
