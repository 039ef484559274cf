"""The exact layer imports no numpy: only the float pipeline may need it."""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "leibniz"


def numpy_imports(path: Path) -> list[int]:
    """Line numbers of every ``import numpy...`` / ``from numpy... import`` in a file."""
    lines = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            names = [alias.name for alias in node.names]
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            names = [node.module or ""]
        else:
            continue
        if any(name == "numpy" or name.startswith("numpy.") for name in names):
            lines.append(node.lineno)
    return lines


@pytest.mark.parametrize("module", ["poly", "brackets", "algebroid", "catalog"])
def test_exact_module_imports_no_numpy(module):
    assert numpy_imports(SRC / f"{module}.py") == []


def test_the_check_sees_numpy_imports():
    # dynamics is float code and imports numpy at module level
    assert numpy_imports(SRC / "dynamics.py")
