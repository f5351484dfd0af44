"""A second deterministic solution of every graded solve: the tests' way to
build a second system of higher homotopies.

Higher homotopies are unique only up to homotopy, and the package fixes one
choice, the canonical first-pivot solution with free variables zero.  Inside
second_solution(), every solve of complexes.solve_factorization returns that
solution plus the first nullspace vector of the slot matrix, a different
solution whenever the solution is not unique.  The comparison-map tests
compare the two systems.
"""

import contextlib

import pytest
from piece_reference import piece_matrix

import hmf.complexes as complexes
from hmf.graded import graded_solve
from hmf.ring import Poly


def shifted_solve(ring, dst_twists, e, slots, slot_degs, targets, ntargets):
    """graded_solve plus the first nullspace vector of the slot matrix."""
    results = graded_solve(ring, dst_twists, e, slots, slot_degs, targets,
                           ntargets)
    A = piece_matrix(ring, slots, slot_degs, dst_twists, 0, e)
    unknowns = [(si, m) for si, sdeg in enumerate(slot_degs)
                for m in ring.monomial_basis(e - sdeg)[0]]
    if A.shape[0] == 0 or not unknowns:
        # no rows: every target was zero, and the solution is not shifted
        return results
    fld = ring.field
    col = {u: k for k, u in enumerate(unknowns)}
    N = fld.nullspace(A)
    first = {i: row[0] for i, row in N.rows.items() if 0 in row}
    out = []
    for res in results:
        if res is None:
            out.append(None)
            continue
        sol = {col[si, m]: x for si, q in res.items() for m, x in q.terms.items()}
        for i, x in first.items():
            sol[i] = fld.add(sol.get(i, 0), x)
        terms = {}
        for k in sorted(sol):
            if sol[k]:
                si, m = unknowns[k]
                terms.setdefault(si, {})[m] = sol[k]
        out.append({si: Poly(ring, t) for si, t in terms.items()})
    return out


@contextlib.contextmanager
def second_solution():
    """Within the block, every solve_factorization picks the shifted
    solution.  Yields the MonkeyPatch, so that a further patch of
    graded_solve is undone before this one."""
    with pytest.MonkeyPatch.context() as mp:
        mp.setattr(complexes, "graded_solve", shifted_solve)
        yield mp
