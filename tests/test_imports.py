"""Every name a module of the package imports is used in that module."""

import ast
from pathlib import Path

import pytest

import resqnn

MODULES = sorted(Path(resqnn.__file__).parent.glob("*.py"))


def unused_imports(source: str) -> list[str]:
    """Names bound by ``import`` statements that nothing else in ``source`` reads.

    ``from __future__ import ...`` is a compiler directive, not a binding, so it
    is skipped. A name counts as used when it is read anywhere in the module
    (an ``a.b`` chain reads ``a``) or listed in ``__all__``.
    """
    tree = ast.parse(source)
    imported = []
    for node in ast.walk(tree):
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                imported.append(alias.asname or alias.name.split(".")[0])
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    for node in ast.walk(tree):
        if isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used.update(ast.literal_eval(node.value))
    return [name for name in imported if name not in used]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: p.name)
def test_no_unused_imports(path):
    assert unused_imports(path.read_text()) == []


def test_detects_an_unused_import():
    source = (
        "from __future__ import annotations\n"
        "import json\nimport os.path\nfrom typing import Sequence as Seq, Callable\n"
        "x: Seq = os.path.join('a')\n"
    )
    assert unused_imports(source) == ["json", "Callable"]
