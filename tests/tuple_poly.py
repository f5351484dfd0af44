"""Tuple-keyed polynomials: the test reference for hmf.ring's packed keys.

A polynomial is a dict {exponent tuple: nonzero coefficient} over the field
of a GradedRing, multiplied by adding exponent tuples entrywise, and printed
in the order of _grevlex_cmp, the comparison the ring's key sorts replace.
"""

from fractions import Fraction
from functools import cmp_to_key
from itertools import product


def _grevlex_cmp(pair_a, pair_b):
    """Compare (degree, exponent tuple) pairs: higher degree first, then the
    smaller last differing exponent first."""
    (da, ea), (db, eb) = pair_a, pair_b
    if da != db:
        return -1 if da > db else 1
    if ea == eb:
        return 0
    for x, y in zip(reversed(ea), reversed(eb)):
        if x != y:
            return -1 if x < y else 1
    return 0


def canon(p, c):
    """The field element of an int or Fraction c: c mod p, or c over Q."""
    c = Fraction(c)
    if not p:
        return c
    return c.numerator * pow(c.denominator, p - 2, p) % p


def mono_degree(ring, e):
    return sum(x * w for x, w in zip(e, ring.var_degs))


def from_poly(P):
    return {P.ring.unpack(k): c for k, c in P.terms.items()}


def make(ring, spec):
    """The reference polynomial of (exponent tuple, coefficient) pairs."""
    p = ring.field.char
    t = {}
    for e, c in spec:
        t[e] = canon(p, t.get(e, 0) + canon(p, c))
    return {e: c for e, c in t.items() if c}


def add(ring, a, b):
    p = ring.field.char
    t = dict(a)
    for e, c in b.items():
        t[e] = canon(p, t.get(e, 0) + c)
    return {e: c for e, c in t.items() if c}


def neg(ring, a):
    p = ring.field.char
    return {e: canon(p, -c) for e, c in a.items()}


def mul(ring, a, b):
    p = ring.field.char
    t = {}
    for e1, c1 in a.items():
        for e2, c2 in b.items():
            e = tuple(x + y for x, y in zip(e1, e2))
            t[e] = canon(p, t.get(e, 0) + c1 * c2)
    return {e: c for e, c in t.items() if c}


def homogeneous_parts(ring, a):
    parts = {}
    for e, c in a.items():
        parts.setdefault(mono_degree(ring, e), {})[e] = c
    return parts


def to_str(ring, a):
    """The ring's print format, terms ordered by _grevlex_cmp."""
    if not a:
        return "0"
    p = ring.field.char
    terms = sorted(a.items(), key=cmp_to_key(
        lambda s, t: _grevlex_cmp((mono_degree(ring, s[0]), s[0]),
                                  (mono_degree(ring, t[0]), t[0]))))
    out = []
    for e, c in terms:
        factors = [n if x == 1 else f"{n}^{x}"
                   for n, x in zip(ring.var_names, e) if x]
        if p and c > p // 2:
            c -= p
        sign = "-" if c < 0 else "+"
        c = abs(c)
        body = "*".join(([str(c)] if c != 1 or not factors else []) + factors)
        out.append(f"{sign} {body}")
    first = out[0]
    out[0] = first[2:] if first[0] == "+" else "-" + first[2:]
    return " ".join(out)


def monomials(ring, d):
    """All exponent tuples of degree d, enumerated over a box and sorted by
    _grevlex_cmp."""
    box = product(*(range(d // w + 1) for w in ring.var_degs))
    mons = [e for e in box if mono_degree(ring, e) == d]
    return sorted(mons, key=cmp_to_key(lambda s, t: _grevlex_cmp((d, s), (d, t))))
