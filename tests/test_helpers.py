"""The test oracles stay independent of the kernels they check.

An oracle in ``helpers.py`` that imported a kernel's private block size,
chunking or constant would share the design it is there to check, so a
fault in that design would pass on both sides.
"""

import ast
from pathlib import Path

import pytest


def private_graphmix_names(source: str) -> list[str]:
    """The underscore names that ``source`` imports from ``graphmix``, or reads off a name imported from it."""
    tree = ast.parse(source)
    found, bound = [], set()
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and (node.module or "").split(".")[0] == "graphmix":
            names = [(f"{node.module}.{a.name}", a.asname or a.name) for a in node.names]
        elif isinstance(node, ast.Import):
            names = [(a.name, a.asname or a.name.split(".")[0]) for a in node.names if a.name.split(".")[0] == "graphmix"]
        else:
            continue
        for dotted, name in names:
            bound.add(name)
            if any(part.startswith("_") for part in dotted.split(".")):
                found.append(dotted)
    for node in ast.walk(tree):
        if (isinstance(node, ast.Attribute) and isinstance(node.value, ast.Name) and node.value.id in bound
                and node.attr.startswith("_") and not node.attr.startswith("__")):
            found.append(f"{node.value.id}.{node.attr}")
    return found


def test_helpers_import_nothing_private_from_graphmix():
    source = Path(__file__).with_name("helpers.py").read_text()
    assert private_graphmix_names(source) == []


@pytest.mark.parametrize("source, names", [
    ("from graphmix.inference import _TINY, PTC_GRID, _block_rows",
     ["graphmix.inference._TINY", "graphmix.inference._block_rows"]),
    ("from graphmix import _check", ["graphmix._check"]),
    ("import graphmix._check as c", ["graphmix._check"]),
    ("import graphmix.inference as inf\nx = inf._chunk_cuts", ["inf._chunk_cuts"]),
    ("from graphmix import graph\ngraph._first_bad_edge(e, 3, True)", ["graph._first_bad_edge"]),
    ("from graphmix.inference import PTC_GRID\nimport numpy as np\nnp._x, PTC_GRID.__len__", []),
])
def test_private_names_are_found(source, names):
    assert private_graphmix_names(source) == names
