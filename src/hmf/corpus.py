"""Golden example factorizations used by tests and shipped as JSON.

codim2_xa_yb: the codimension-2 example over k[a,b,x,y] with elements
(x*a, y*b); its displayed matrices are pinned by the acceptance suite.
codim2_xz_y2: the stability counterexample over k[x,y,z] with elements
(x*z, y^2) where the top block has B_0(2) = 0.  micro_codim1: k[x] with
f = x^2.  codim3_shifted: the codimension-2 coupling embedded at levels
(2,3) of a codimension-3 sequence, giving nontrivial off-diagonal blocks
at depth 3.
"""

from __future__ import annotations

from .complexes import FreeModule
from .factorization import HMF
from .ring import DEFAULT_PRIME, Field, GradedRing


def codim2_xa_yb(char=DEFAULT_PRIME):
    ring = GradedRing.make(
        Field(char), [("a", 1), ("b", 1), ("x", 1), ("y", 1)], ["x*a", "y*b"]
    )
    b1 = {1: FreeModule((1, 1)), 2: FreeModule((1, 1))}
    b0 = {1: FreeModule((0, 0)), 2: FreeModule((0,))}
    P = ring.poly
    d = [
        [P("a"), P("0"), P("0"), P("-b")],
        [P("y"), P("x"), P("0"), P("0")],
        [P("0"), P("0"), P("y"), P("x")],
    ]
    h = {
        1: [[P("x"), P("0")], [P("-y"), P("a")]],
        2: [
            [P("0"), P("b"), P("0")],
            [P("0"), P("0"), P("0")],
            [P("x"), P("0"), P("b")],
            [P("-y"), P("a"), P("0")],
        ],
    }
    return HMF(ring, b1, b0, d, h)


def codim2_xz_y2(char=DEFAULT_PRIME):
    ring = GradedRing.make(
        Field(char), [("x", 1), ("y", 1), ("z", 1)], ["x*z", "y^2"]
    )
    b1 = {1: FreeModule((1, 1)), 2: FreeModule((1,))}
    b0 = {1: FreeModule((0, 0)), 2: FreeModule(())}
    P = ring.poly
    d = [
        [P("z"), P("-y"), P("0")],
        [P("0"), P("x"), P("y")],
    ]
    h = {
        1: [[P("x"), P("y")], [P("0"), P("z")]],
        2: [[P("0"), P("0")], [P("-y"), P("0")], [P("x"), P("y")]],
    }
    return HMF(ring, b1, b0, d, h)


def micro_codim1(char=DEFAULT_PRIME):
    ring = GradedRing.make(Field(char), [("x", 1)], ["x^2"])
    b1 = {1: FreeModule((1,))}
    b0 = {1: FreeModule((0,))}
    P = ring.poly
    return HMF(ring, b1, b0, [[P("x")]], {1: [[P("x")]]})


def codim3_shifted(char=DEFAULT_PRIME):
    """Depth-3 coupling: levels (2,3) carry the codimension-2 example,
    level 1 is empty, over the sequence (u*v, x*a, y*b)."""
    ring = GradedRing.make(
        Field(char),
        [("a", 1), ("b", 1), ("x", 1), ("y", 1), ("u", 1), ("v", 1)],
        ["u*v", "x*a", "y*b"],
    )
    b1 = {2: FreeModule((1, 1)), 3: FreeModule((1, 1))}
    b0 = {2: FreeModule((0, 0)), 3: FreeModule((0,))}
    P = ring.poly
    d = [
        [P("a"), P("0"), P("0"), P("-b")],
        [P("y"), P("x"), P("0"), P("0")],
        [P("0"), P("0"), P("y"), P("x")],
    ]
    h = {
        1: [],
        2: [[P("x"), P("0")], [P("-y"), P("a")]],
        3: [
            [P("0"), P("b"), P("0")],
            [P("0"), P("0"), P("0")],
            [P("x"), P("0"), P("b")],
            [P("-y"), P("a"), P("0")],
        ],
    }
    return HMF(ring, b1, b0, d, h)


GOLDEN_BUILDERS = {
    "codim2_xa_yb": codim2_xa_yb,
    "codim2_xz_y2": codim2_xz_y2,
    "micro_codim1": micro_codim1,
    "codim3_shifted": codim3_shifted,
}


def corpus_dir():
    import os

    here = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    return os.path.join(here, "corpus")


def load_golden(name):
    import os

    from .io_json import load

    return load(os.path.join(corpus_dir(), f"{name}.json"))
