"""Every public name of the library is used by the library or exported.

A public module-level function, class or constant of `h1geo` that no other
statement in `src/h1geo` reads, and that `h1geo/__init__` does not export,
exists only for the tests: an oracle belongs in `tests/oracles.py`, and a
second path to a quantity belongs nowhere.  References are read from the
syntax tree, so a name in a docstring or a comment does not count.
"""

import ast
import os

import pytest

import h1geo

SRC = os.path.dirname(h1geo.__file__)


def _trees():
    trees = {}
    for name in sorted(os.listdir(SRC)):
        if name.endswith(".py"):
            with open(os.path.join(SRC, name)) as fh:
                trees[name[:-3]] = ast.parse(fh.read())
    return trees


def _defined(stmt):
    """The public names a top-level statement defines."""
    if isinstance(stmt, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
        names = [stmt.name]
    elif isinstance(stmt, (ast.Assign, ast.AnnAssign)):
        targets = stmt.targets if isinstance(stmt, ast.Assign) else [stmt.target]
        names = [n.id for t in targets for n in ast.walk(t) if isinstance(n, ast.Name)]
    else:
        names = []
    return [n for n in names if not n.startswith("_")]


def _read(stmt):
    """The names a statement reads, as a bare name or as an attribute."""
    out = set()
    for node in ast.walk(stmt):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            out.add(node.id)
        elif isinstance(node, ast.Attribute):
            out.add(node.attr)
    return out


def _unused():
    """(module, name) of each public definition that no other top-level
    statement of the package reads and that the package does not export."""
    trees = _trees()
    exported = {alias.asname or alias.name for stmt in trees["__init__"].body
                if isinstance(stmt, ast.ImportFrom) for alias in stmt.names}
    statements = [(module, stmt) for module, tree in trees.items() for stmt in tree.body]
    reads = [(module, stmt, _read(stmt)) for module, stmt in statements]
    unused = []
    for module, stmt in statements:
        for name in _defined(stmt):
            used = any(name in names for m, other, names in reads
                       if not (m == module and other is stmt))
            if not used and name not in exported:
                unused.append((module, name))
    return unused


def test_every_public_name_is_used_or_exported():
    assert _unused() == []


def test_the_walk_reads_the_package():
    # so that an empty walk cannot pass: a function, a class, two kinds of
    # constant, and the export of the graph equation's H
    trees = _trees()
    defined = {name for tree in trees.values() for stmt in tree.body for name in _defined(stmt)}
    assert {"write_mesh", "BernsteinGraph", "TOL_SINGULAR", "CURVATURE"} <= defined
    assert "graph_pde_mean_curvature" in {alias.name for stmt in trees["__init__"].body
                                          if isinstance(stmt, ast.ImportFrom)
                                          for alias in stmt.names}


@pytest.mark.parametrize("source, expected", [
    ("def used():\n    pass\n\n\ndef caller():\n    used()\n", ["caller"]),
    ("def lonely():\n    '''lonely() names itself here only.'''\n", ["lonely"]),
    ("def recurse(n):\n    return recurse(n - 1)\n", ["recurse"]),
    ("LIMIT = 3\n\n\ndef f(x):\n    return x < LIMIT\n", ["f"]),
    ("class C:\n    pass\n\n\ndef g(m):\n    return m.C\n", ["g"]),
], ids=["called", "docstring-only", "self-only", "constant", "attribute"])
def test_the_walk_on_small_modules(monkeypatch, source, expected):
    # the walk over a one-module package with an empty __init__
    monkeypatch.setitem(globals(), "_trees",
                        lambda: {"__init__": ast.parse(""), "mod": ast.parse(source)})
    assert [name for _, name in _unused()] == expected
