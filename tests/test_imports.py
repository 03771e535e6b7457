"""No module in src/, tests/ or perfbench/ imports a name it never uses, no
function, class or method of the package is left for the tests alone, and
the program runs without scipy and without ``numpy.random``, which only the
tests use as references.

Package ``__init__.py`` files are skipped by the import check: their imports
are the public re-exports. A name counts as used when it appears as a name
anywhere in the module, string annotations such as ``list["Cluster"]``
included.
"""

import ast
import os
import re
import subprocess
import sys
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p
    for p in [*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/*.py"), *ROOT.glob("perfbench/*.py")]
    if p.name != "__init__.py"
)
# the program: the package and the benchmark harness that drives it
PROGRAM = sorted(
    p
    for p in [*ROOT.glob("src/**/*.py"), *ROOT.glob("perfbench/*.py")]
    if not p.name.startswith("test_")
)


def unused_imports(source: str) -> list[str]:
    imported: dict[str, int] = {}
    used: set[str] = set()
    annotations = []
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            for alias in node.names:
                imported[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                if alias.name != "*":
                    imported[alias.asname or alias.name] = node.lineno
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.arg):
            annotations.append(node.annotation)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)):
            annotations.append(node.returns)
        elif isinstance(node, ast.AnnAssign):
            annotations.append(node.annotation)
    for annotation in filter(None, annotations):
        for sub in ast.walk(annotation):
            if isinstance(sub, ast.Constant) and isinstance(sub.value, str):
                parsed = ast.parse(sub.value, mode="eval")
                used.update(n.id for n in ast.walk(parsed) if isinstance(n, ast.Name))
    return [f"{name} (line {line})" for name, line in imported.items() if name not in used]


def test_checker_finds_unused_names():
    source = (
        "import os\n"
        "import os.path as osp\n"
        "import xml.dom\n"
        "from typing import Any, List\n"
        "def f(x: 'List[int]') -> None:\n"
        "    return xml.dom\n"
    )
    assert unused_imports(source) == ["os (line 1)", "osp (line 2)", "Any (line 4)"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def defined_names(source: str) -> set[str]:
    """Functions, classes and methods a module defines, dunders aside."""
    return {
        node.name
        for node in ast.walk(ast.parse(source))
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef))
        and not (node.name.startswith("__") and node.name.endswith("__"))
    }


def referenced_names(source: str) -> set[str]:
    """Every name a module reads or writes, every attribute it touches and
    every string constant; the last because some callers look names up by
    string (perfbench's ``hooks.SPANS``)."""
    found = set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Name):
            found.add(node.id)
        elif isinstance(node, ast.Attribute):
            found.add(node.attr)
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            found.add(node.value)
    return found


def test_dead_name_checker_sees_names_attributes_and_strings():
    source = (
        "class A:\n"
        "    def __init__(self): pass\n"
        "    def used(self): pass\n"
        "    def dead(self): pass\n"
        "def by_string(): pass\n"
        "def by_name(): pass\n"
        "A().used()\n"
        "hooks = [('mod', 'by_string')]\n"
        "f = by_name\n"
    )
    assert defined_names(source) - referenced_names(source) == {"dead"}


def test_every_package_name_is_used_by_the_program():
    sources = {p: p.read_text(encoding="utf-8") for p in PROGRAM}
    used = set().union(*map(referenced_names, sources.values()))
    dead = {
        f"{p.relative_to(ROOT)}: {name}"
        for p, source in sources.items()
        if p.is_relative_to(ROOT / "src")
        for name in defined_names(source) - used
    }
    assert sorted(dead) == []


def test_the_program_never_imports_scipy():
    # a fresh interpreter: this test process has scipy and numpy.random loaded already
    code = (
        "import sys\n"
        "import mvsparse, mvsparse.runtime.cli, mvsparse.runtime.distributed\n"
        "from mvsparse.runtime.config import MODES, RunConfig\n"
        "from mvsparse.runtime.simulation import run_sim\n"
        "for mode in MODES:\n"
        "    run_sim(RunConfig(mode=mode, frames=12, seed=11))\n"
        "print(sorted(m for m in sys.modules if m.split('.')[0] == 'scipy'))\n"
        "print(sorted(m for m in sys.modules if m.startswith('numpy.random')))\n"
    )
    path = os.pathsep.join(filter(None, [str(ROOT / "src"), os.environ.get("PYTHONPATH")]))
    proc = subprocess.run(
        [sys.executable, "-c", code],
        capture_output=True,
        text=True,
        timeout=300,
        env={**os.environ, "PYTHONPATH": path},
    )
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.split("\n")[:2] == ["[]", "[]"]


def test_the_source_never_names_numpy_random():
    # grep -rn "np.random\|numpy.random" src/ (a dot matches any character)
    pattern = re.compile(r"np.random|numpy.random")
    hits = [
        f"{p.relative_to(ROOT)}:{n}: {line.strip()}"
        for p in sorted(ROOT.glob("src/**/*.py"))
        for n, line in enumerate(p.read_text(encoding="utf-8").splitlines(), start=1)
        if pattern.search(line)
    ]
    assert hits == []
