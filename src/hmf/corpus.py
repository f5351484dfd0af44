"""Golden example factorizations, read from the shipped corpus/*.json.

codim2_xa_yb: the codimension-2 example over k[a,b,x,y] with elements
(x*a, y*b); its displayed matrices are pinned by the acceptance suite.
codim2_xz_y2: the stability counterexample over k[x,y,z] with elements
(x*z, y^2) where the top block has B_0(2) = 0.  micro_codim1: k[x] with
f = x^2.  codim3_shifted: the codimension-2 coupling embedded at levels
(2,3) of a codimension-3 sequence, giving nontrivial off-diagonal blocks
at depth 3.
"""

from __future__ import annotations

import json
import os

from .io_json import hmf_from_json
from .ring import DEFAULT_PRIME


def corpus_dir():
    here = os.path.dirname(os.path.dirname(os.path.dirname(__file__)))
    return os.path.join(here, "corpus")


def load_golden(name, char=DEFAULT_PRIME):
    """The factorization of corpus/<name>.json over the field of
    characteristic char."""
    path = os.path.join(corpus_dir(), f"{name}.json")
    with open(path) as fh:
        obj = json.load(fh)
    obj["ring"]["field"] = char
    return hmf_from_json(obj, where=path)


def codim2_xa_yb(char=DEFAULT_PRIME):
    return load_golden("codim2_xa_yb", char)


def codim2_xz_y2(char=DEFAULT_PRIME):
    return load_golden("codim2_xz_y2", char)


def micro_codim1(char=DEFAULT_PRIME):
    return load_golden("micro_codim1", char)


def codim3_shifted(char=DEFAULT_PRIME):
    return load_golden("codim3_shifted", char)


GOLDEN_BUILDERS = {
    "codim2_xa_yb": codim2_xa_yb,
    "codim2_xz_y2": codim2_xz_y2,
    "micro_codim1": micro_codim1,
    "codim3_shifted": codim3_shifted,
}
