"""No module in src/ or tests/ imports a name it never uses.

Package ``__init__.py`` files are skipped: their imports are the public
re-exports. A name counts as used when it appears as a name anywhere in the
module, string annotations such as ``list["Cluster"]`` included.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
MODULES = sorted(
    p for p in [*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/*.py")] if p.name != "__init__.py"
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
