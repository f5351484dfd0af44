"""Operations on maps and complexes that only the tests use.

The package builds every direct sum as a mapping cone and every product
with a polynomial through MatrixMap.combine; these spell the operations out
for the tests that check those constructions.
"""

from hmf.complexes import Complex, FreeModule, MatrixMap, ShapeError


def scale_poly(M, g):
    """g * M: M followed by g times the identity of its target."""
    gid = MatrixMap.poly_times_identity(M.ring, g, M.dst, M.level)
    return MatrixMap.combine(M.ring, M.src, M.dst, M.level,
                             gid.shift + M.shift, [(1, gid, M)])


def with_shift(M, shift):
    """M's rows as a map of the given shift, unchecked."""
    return MatrixMap(M.ring, M.src, M.dst, M.rows, M.level, shift, check=False)


def direct_sum(C1, C2):
    if C1.ring is not C2.ring or C1.level != C2.level:
        raise ShapeError("direct sum needs matching ring and level")
    lo, hi = min(C1.lo, C2.lo), max(C1.hi, C2.hi)
    modules = {}
    diffs = {}
    for i in range(lo, hi + 1):
        modules[i] = FreeModule.concat([C1.module(i), C2.module(i)])
    for i in range(lo + 1, hi + 1):
        diffs[i] = MatrixMap.from_blocks(
            C1.ring,
            [[C1.diff(i), None], [None, C2.diff(i)]],
            [C1.module(i), C2.module(i)],
            [C1.module(i - 1), C2.module(i - 1)],
            modules[i],
            modules[i - 1],
            C1.level,
        )
    return Complex(C1.ring, C1.level, modules, diffs, lo, hi)
