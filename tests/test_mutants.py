"""The mutant list of tests/mutants.py stays applicable: every anchor occurs
exactly once in src/, in the file its entry names, and every target test
still exists. Running the mutants is `python tests/mutants.py`."""

from __future__ import annotations

import ast

import pytest

from mutants import MUTANTS, ROOT

SOURCES = {p.relative_to(ROOT).as_posix(): p.read_text() for p in sorted((ROOT / "src").rglob("*.py"))}


@pytest.mark.parametrize("mutant", MUTANTS, ids=lambda m: m.name)
def test_mutant_anchor_occurs_once_and_its_target_exists(mutant):
    found = [path for path, text in SOURCES.items() for _ in range(text.count(mutant.anchor))]
    assert found == [mutant.path]
    assert mutant.replacement != mutant.anchor
    path, _, name = mutant.target.partition("::")
    tree = ast.parse((ROOT / path).read_text())
    assert name in {node.name for node in tree.body if isinstance(node, ast.FunctionDef)}


def test_mutant_names_are_unique():
    assert len({m.name for m in MUTANTS}) == len(MUTANTS)
