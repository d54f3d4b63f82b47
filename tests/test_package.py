"""Tests for the package layout: each public name has one home."""

import ast
from pathlib import Path

import pytest

import dmimo

MODULES = sorted(Path(dmimo.__file__).parent.glob("*.py"))


def top_level_names(tree):
    """Names bound by the module's own top-level def, class or assignment
    (imports excluded)."""
    names = set()
    for node in tree.body:
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = (node.targets if isinstance(node, ast.Assign)
                       else [node.target])
            for target in targets:
                names.update(n.id for n in ast.walk(target)
                             if isinstance(n, ast.Name)
                             and isinstance(n.ctx, ast.Store))
    return names


def declared_all(tree):
    for node in tree.body:
        if (isinstance(node, ast.Assign)
                and any(isinstance(t, ast.Name) and t.id == "__all__"
                        for t in node.targets)):
            return ast.literal_eval(node.value)
    return []


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_all_names_are_defined_in_their_module(path):
    # a name in __all__ that the module only imports is a second import
    # path for it; the benchmark's tracer also wraps only the __all__
    # functions a module defines
    tree = ast.parse(path.read_text(encoding="utf-8"))
    assert not set(declared_all(tree)) - top_level_names(tree)
