"""Every module under src/auseg, tests/ and scripts/ uses each name it imports, every
definition under src/auseg has a caller outside the tests, every matrix product of the
ops runs in the convolution core, and training runs in one function.

``src/auseg/__init__.py`` is skipped by the import check: its imports are the public API.
"""
import ast
import re
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
# package modules are named by file name, test and script files by directory/file name
FILES = {p.name: p for p in (ROOT / "src" / "auseg").glob("*.py") if p.name != "__init__.py"}
FILES.update({f"{d}/{p.name}": p for d in ("tests", "scripts") for p in (ROOT / d).glob("*.py")})
# the code that may call the package: tests do not count
CALLERS = [p for d in ("src", "scripts", "perfbench") for p in sorted((ROOT / d).rglob("*.py"))
           if not p.name.startswith("test_")]


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


def definitions(source: str) -> set[str]:
    """Functions and classes at any depth, methods included, and upper-case names bound
    by assignment. Dunder methods are left out: the language calls them."""
    names = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
            names.add(node.name)
        elif isinstance(node, (ast.Assign, ast.AnnAssign)):
            targets = node.targets if isinstance(node, ast.Assign) else [node.target]
            names |= {t.id for t in targets if isinstance(t, ast.Name) and t.id.isupper()}
    return {n for n in names if not (n.startswith("__") and n.endswith("__"))}


def references(source: str) -> set[str]:
    """Names that are read, bare or as an attribute; a definition or assignment is not one."""
    refs = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
            refs.add(node.id)
        elif isinstance(node, ast.Attribute):
            refs.add(node.attr)
    return refs


def test_every_definition_has_a_caller_besides_tests():
    defined = set().union(*(definitions(p.read_text())
                            for p in (ROOT / "src" / "auseg").glob("*.py")))
    named = set().union(*(references(p.read_text()) for p in CALLERS))
    # console scripts, "module:function" in pyproject.toml, are called by name
    named |= set(re.findall(r'"[\w.]+:(\w+)"', (ROOT / "pyproject.toml").read_text()))
    assert sorted(defined - named) == []


def test_dead_code_checker_finds_uncalled_names():
    source = ("LIMIT = 3\nSPARE = 4\nclass Box:\n    def __init__(self): pass\n"
              "    def size(self): return LIMIT\n    def spare(self): pass\n"
              "def make(): return Box().size()\n")
    assert definitions(source) - references(source) == {"SPARE", "spare", "make"}


# the one convolution core: every matrix product of the ops runs in these functions
GEMM_HOMES = {"_conv", "_conv_kernel_grad"}


def gemm_sites(source: str) -> list[str]:
    """Each ``@`` and ``np.matmul`` (or ``dot``, ``einsum``, ``tensordot``) outside the
    top-level functions of GEMM_HOMES, named by its top-level definition and line."""
    sites = []
    for top in ast.parse(source).body:
        name = getattr(top, "name", "<module>")
        for node in ast.walk(top):
            if (isinstance(getattr(node, "op", None), ast.MatMult)
                    or isinstance(node, ast.Attribute)
                    and node.attr in {"matmul", "dot", "einsum", "tensordot"}):
                sites.append(f"{name} (line {node.lineno})")
    return [s for s in sites if s.split()[0] not in GEMM_HOMES]


def test_every_gemm_of_the_ops_runs_in_the_core():
    assert gemm_sites((ROOT / "src" / "auseg" / "nn_ops.py").read_text()) == []


def test_gemm_checker_finds_products_outside_the_core():
    source = ("import numpy as np\ndef _conv(a, b):\n    return a @ b\n"
              "def up(a, b):\n    c = a\n    c @= b\n    return np.matmul(a, b)\n"
              "class Op:\n    def run(self, a, b): return np.einsum('ij,jk', a, b)\n")
    assert gemm_sites(source) == ["up (line 6)", "up (line 7)", "Op (line 9)"]


# the one place training runs: `auseg train` calls it once, `auseg sweep-lr` once per rate
TRAIN_HOME = "cli._train_run"


def train_sites(source: str, module: str) -> list[str]:
    """Each call of ``train``, bare or as an attribute, outside TRAIN_HOME, named by
    ``module``, its top-level definition and line."""
    sites = []
    for top in ast.parse(source).body:
        name = f"{module}.{getattr(top, 'name', '<module>')}"
        for node in ast.walk(top):
            if isinstance(node, ast.Call) and "train" in (getattr(node.func, "id", None),
                                                          getattr(node.func, "attr", None)):
                sites.append(f"{name} (line {node.lineno})")
    return [s for s in sites if s.split()[0] != TRAIN_HOME]


def test_training_runs_only_in_its_home():
    files = [*(ROOT / "src" / "auseg").glob("*.py"), *(ROOT / "scripts").glob("*.py")]
    assert [s for p in sorted(files) for s in train_sites(p.read_text(), p.stem)] == []


def test_train_checker_finds_calls_outside_the_home():
    source = ("from . import training\nfrom .training import train\n"
              "def _train_run(m):\n    return train(m)\n"
              "def sweep(m):\n    for _ in range(2):\n        training.train(m)\n"
              "class Loop:\n    def go(self): return train(self)\n")
    assert train_sites(source, "cli") == ["cli.sweep (line 7)", "cli.Loop (line 9)"]
    assert train_sites(source, "run") == ["run._train_run (line 4)", "run.sweep (line 7)",
                                          "run.Loop (line 9)"]
