"""No exact module imports numpy itself: only the float pipeline may need it.

The check reads each module's own import statements.  At run time numpy still
loads with any of them, since ``leibniz/__init__`` imports ``dynamics``.  The
same reading checks the layering: ``dynamics`` integrates polynomial systems
and takes nothing from the structure modules.
"""

import ast
from pathlib import Path

import pytest

SRC = Path(__file__).parent.parent / "src" / "leibniz"


def imported_modules(path: Path) -> list[tuple[int, str]]:
    """(line number, module) of every import in a file; relative modules keep their dots."""
    found = []
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            found += [(node.lineno, alias.name) for alias in node.names]
        elif isinstance(node, ast.ImportFrom):
            dots = "." * node.level
            if node.module is None:  # ``from . import x`` imports module x
                found += [(node.lineno, dots + alias.name) for alias in node.names]
            else:
                found.append((node.lineno, dots + node.module))
    return found


def numpy_imports(path: Path) -> list[int]:
    """Line numbers of every ``import numpy...`` / ``from numpy... import`` in a file."""
    return [
        line
        for line, name in imported_modules(path)
        if name == "numpy" or name.startswith("numpy.")
    ]


@pytest.mark.parametrize("module", ["poly", "brackets", "algebroid", "catalog"])
def test_exact_module_imports_no_numpy(module):
    assert numpy_imports(SRC / f"{module}.py") == []


def test_the_check_sees_numpy_imports():
    # dynamics is float code and imports numpy at module level
    assert numpy_imports(SRC / "dynamics.py")


def test_dynamics_takes_only_poly_and_kernels_from_the_package():
    names = {name for _, name in imported_modules(SRC / "dynamics.py")}
    assert {n for n in names if n.startswith((".", "leibniz"))} == {".poly", "._kernels"}
