"""Import hygiene: every module uses each name it imports."""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parent.parent
# package __init__ files import names to re-export them, so they are skipped
MODULES = sorted(path for tree in ("src", "tests", "tools", "demos")
                 for path in (ROOT / tree).rglob("*.py") if path.name != "__init__.py")


def unused_imports(source: str) -> list[str]:
    """Names a module's import statements bind and the module never reads,
    each as "line: name"."""
    tree = ast.parse(source)
    bound = []
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            bound += [(a.lineno, a.asname or a.name.split(".")[0]) for a in node.names]
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            bound += [(a.lineno, a.asname or a.name) for a in node.names]
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [f"{line}: {name}" for line, name in bound if name not in used]


def test_unused_imports_are_found():
    source = ("from __future__ import annotations\nimport math\nimport os.path\n"
              "import numpy as np\nfrom a import b, c as d\n"
              "def f():\n    from e import g\n    return np.zeros(os.path.sep, b)\n")
    assert unused_imports(source) == ["2: math", "5: d", "7: g"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_module_uses_every_import(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []
