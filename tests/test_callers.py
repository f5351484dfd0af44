"""Every function of hmf is called from hmf, or is on a named list.

A function that only tests call proves a statement that no report shows
(ROADMAP item 8), so a new one must be added to the list on purpose, and
a listed one that gains a caller in hmf must leave it.
"""

import ast
from pathlib import Path

import hmf

SRC = Path(hmf.__file__).resolve().parent

# only tests call these (ROADMAP item 8)
TEST_ONLY = {
    "extract.syzygy_shift_check",
    "factorization.change_of_generators_complex",
    "factorization.truncate_hmf",
    "lifting.ci_commutation_failures",
    "lifting.homotopy_comparison",
    "lifting.lifted_comparison_check",
    "resolutions.box_unroll",
}
# perfbench and the command line call these; main dispatches to cmd_<name>
# by its name at call time
OUTSIDE_CALLERS = {
    "_kernels.backend_name",
    "resolutions.special_lifting_and_ci",
    "ring.GradedRing.make",
}


def _names(node):
    for n in ast.walk(node):
        if isinstance(n, ast.Name):
            yield n.id
        elif isinstance(n, ast.Attribute):
            yield n.attr
        elif isinstance(n, ast.alias):
            yield n.name.rsplit(".", 1)[-1]


def _scopes(tree, mod):
    """(qualified name, defined name or None, node) for every module-level
    function, every method but the dunder ones, and the remaining code."""
    for node in tree.body:
        if isinstance(node, ast.FunctionDef):
            yield f"{mod}.{node.name}", node.name, node
        elif isinstance(node, ast.ClassDef):
            rest = []
            for sub in node.body:
                if isinstance(sub, ast.FunctionDef) and not sub.name.startswith("__"):
                    yield f"{mod}.{node.name}.{sub.name}", sub.name, sub
                else:
                    rest.append(sub)
            yield f"{mod}.{node.name}", None, ast.Module(rest, [])
        else:
            yield f"{mod}:module", None, node


def uncalled_functions():
    """Functions that no hmf code refers to by name, outside their own
    body; a method counts as referred to by any attribute of its name."""
    defined, refs = {}, {}
    for path in sorted(SRC.glob("*.py")):
        for qual, name, node in _scopes(ast.parse(path.read_text()), path.stem):
            if name is not None:
                defined[qual] = name
            for ref in _names(node):
                refs.setdefault(ref, set()).add(qual)
    return {qual for qual, name in defined.items()
            if not refs.get(name, set()) - {qual}}


def test_uncalled_functions_are_listed():
    from hmf.cli import _COMMANDS

    commands = {"cli.cmd_" + name.replace("-", "_") for name, _, _ in _COMMANDS}
    assert uncalled_functions() == TEST_ONLY | OUTSIDE_CALLERS | commands


def test_one_writer_of_the_homotopy_identity():
    # itertools.product enumerates the b + s = a of the homotopy identity,
    # and no other hmf code calls a product: the solver and the checker
    # read the sum from HomotopySystem.identity
    writers = set()
    for path in sorted(SRC.glob("*.py")):
        for qual, _, node in _scopes(ast.parse(path.read_text()), path.stem):
            for n in ast.walk(node):
                if isinstance(n, ast.Call) and "product" in _names(n.func):
                    writers.add(qual)
    assert writers == {"complexes.HomotopySystem.identity"}
