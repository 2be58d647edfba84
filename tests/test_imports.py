"""Every module under src/auseg, tests/ and scripts/ uses each name it imports.

``src/auseg/__init__.py`` is skipped: its imports are the public API.
"""
import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# package modules are named by file name, test and script files by directory/file name
FILES = {p.name: p for p in (ROOT / "src" / "auseg").glob("*.py") if p.name != "__init__.py"}
FILES.update({f"{d}/{p.name}": p for d in ("tests", "scripts") for p in (ROOT / d).glob("*.py")})


def unused_imports(source: str) -> list[str]:
    """Names bound by import statements that no expression or annotation reads."""
    tree = ast.parse(source)
    imported: dict[str, int] = {}
    used: set[str] = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.partition(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, (ast.arg, ast.AnnAssign, ast.FunctionDef)):
            # quoted annotations name types too
            ann = node.returns if isinstance(node, ast.FunctionDef) else node.annotation
            if isinstance(ann, ast.Constant) and isinstance(ann.value, str):
                used |= {n.id for n in ast.walk(ast.parse(ann.value, mode="eval"))
                         if isinstance(n, ast.Name)}
    return [f"{name} (line {line})" for name, line in sorted(imported.items())
            if name not in used]


@pytest.mark.parametrize("module", sorted(FILES))
def test_no_unused_imports(module):
    assert unused_imports(FILES[module].read_text()) == []


def test_checker_finds_unused_names():
    source = ("import os\nimport numpy as np\nfrom .tensor import Tensor, full\n"
              "def f(x: 'Tensor') -> None:\n    return np.zeros(1)\n")
    assert unused_imports(source) == ["full (line 3)", "os (line 1)"]
