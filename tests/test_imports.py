"""Every module under src/ and tests/ uses each name it imports, and every
function and class under src/ is referenced somewhere.

The project has no linter, so these stdlib ``ast`` checks stand in for the
unused-import rule and for a dead-code check. A name counts as used when the
module reads it anywhere or lists it in ``__all__`` (the package's
re-exports). A definition counts as referenced when any module under src/,
tests/ or perfbench/ names it: read as a name or an attribute, imported, or
listed in ``__all__``.
"""

import ast
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/*.py")])
LIBRARY = sorted(ROOT.glob("src/**/*.py"))
USERS = sorted({*MODULES, *ROOT.glob("perfbench/**/*.py")})


def scan(source: str) -> tuple[set[str], set[str], set[str], set[str]]:
    """One walk over a module: (imported, used, referenced, defined).

    ``used`` holds the names read and the ``__all__`` strings; ``referenced``
    adds attribute names and the original names of ``from`` imports;
    ``defined`` holds function and class names other than dunders.
    """
    imported, used, referenced, defined = set(), set(), set(), set()
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
            referenced |= {a.name for a in node.names}
        elif isinstance(node, ast.Name):
            used.add(node.id)
        elif isinstance(node, ast.Attribute):
            referenced.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            used |= set(ast.literal_eval(node.value))
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                defined.add(node.name)
    return imported, used, referenced | used, defined


def unused_imports(source: str) -> list[str]:
    imported, used, _, _ = scan(source)
    return sorted(imported - used)


def dead_definitions(library: list[str], users: list[str]) -> list[str]:
    """Functions and classes defined in ``library`` that no ``users`` source names."""
    defined = set().union(*(scan(source)[3] for source in library))
    referenced = set().union(*(scan(source)[2] for source in users))
    return sorted(defined - referenced)


def test_checker_finds_an_unused_import():
    source = "import os\nimport numpy as np\nfrom a import b, c\n__all__ = ['c']\nnp.sum()\n"
    assert unused_imports(source) == ["b", "os"]


def test_checker_finds_a_dead_definition():
    library = (
        "def imported():\n    pass\n"
        "def unused():\n    pass\n"
        "def exported():\n    pass\n"
        "__all__ = ['exported']\n"
        "class Called:\n"
        "    def __init__(self):\n        pass\n"
        "    def method(self):\n        pass\n"
        "    def never(self):\n        pass\n"
    )
    user = "from lib import imported as alias\nCalled().method()\n"
    assert dead_definitions([library], [library, user]) == ["never", "unused"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_no_dead_definitions():
    read = [p.read_text(encoding="utf-8") for p in USERS]
    library = [p.read_text(encoding="utf-8") for p in LIBRARY]
    assert dead_definitions(library, read) == []
