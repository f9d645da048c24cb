"""Every module under src/ and tests/ uses each name it imports, every
function and class under src/ is named by the program, and every policy
states engine blocks with both block methods or neither.

The project has no linter, so these stdlib ``ast`` checks stand in for the
unused-import rule and for a dead-code check. A name counts as used when the
module reads it anywhere or lists it in ``__all__`` (the package's
re-exports). A definition counts as named when a module reads it as a name
or an attribute, imports it and reads it, or holds it as a string constant,
as ``getattr(policy, "schedule", None)`` does. Two checks use that:

- every definition is named or re-exported (imported, or listed in
  ``__all__``) by some module under src/, tests/ or perfbench/;
- every definition is named by src/ or perfbench/ themselves, re-exports
  not counted, so no library code is left that only tests call.
"""

import ast
from collections import defaultdict
from pathlib import Path

import pytest

ROOT = Path(__file__).resolve().parents[1]
MODULES = sorted([*ROOT.glob("src/**/*.py"), *ROOT.glob("tests/*.py")])
LIBRARY = sorted(ROOT.glob("src/**/*.py"))
PROGRAM = sorted([*LIBRARY, *ROOT.glob("perfbench/**/*.py")])
USERS = sorted({*MODULES, *PROGRAM})

TEST_ONLY = []


def scan(source: str) -> tuple[set[str], ...]:
    """One walk over a module: (imported, used, named, exported, defined).

    ``used`` holds the names read and the ``__all__`` strings. ``named``
    holds the names read, attribute names, the string constants outside
    ``__all__`` and the original names of ``from`` imports whose local name
    is read. ``exported`` holds the ``__all__`` strings and the original
    names of every ``from`` import, re-exports included. ``defined`` holds
    function and class names other than dunders.
    """
    imported, read, listed, named, defined = set(), set(), set(), set(), set()
    aliases = []  # (local name, original name) of every ``from`` import
    in_all: set[int] = set()  # ids of the nodes under the __all__ value
    for node in ast.walk(ast.parse(source)):
        if isinstance(node, ast.Import):
            imported |= {a.asname or a.name.split(".")[0] for a in node.names}
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            imported |= {a.asname or a.name for a in node.names}
            aliases += [(a.asname or a.name, a.name) for a in node.names]
        elif isinstance(node, ast.Name):
            read.add(node.id)
        elif isinstance(node, ast.Attribute):
            named.add(node.attr)
        elif isinstance(node, ast.Assign) and any(
            isinstance(t, ast.Name) and t.id == "__all__" for t in node.targets
        ):
            listed |= set(ast.literal_eval(node.value))
            in_all |= {id(n) for n in ast.walk(node.value)}
        elif isinstance(node, ast.Constant) and isinstance(node.value, str):
            if id(node) not in in_all:
                named.add(node.value)
        elif isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.ClassDef)):
            if not (node.name.startswith("__") and node.name.endswith("__")):
                defined.add(node.name)
    named |= read | {name for local, name in aliases if local in read}
    exported = listed | {name for _, name in aliases}
    return imported, read | listed, named, exported, defined


def unused_imports(source: str) -> list[str]:
    imported, used, *_ = scan(source)
    return sorted(imported - used)


def dead_definitions(
    library: list[str], users: list[str], exports: bool = True
) -> list[str]:
    """Functions and classes defined in ``library`` that no ``users`` source names.

    With ``exports`` set, ``__all__`` entries and re-exporting imports name
    a definition too.
    """
    defined = set().union(*(scan(source)[4] for source in library))
    named = set()
    for source in users:
        _, _, names, exported, _ = scan(source)
        named |= (names | exported) if exports else names
    return sorted(defined - named)


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


def test_checker_finds_a_test_only_definition():
    library = (
        "def called():\n    pass\n"
        "def exported():\n    pass\n"
        "def looked_up():\n    pass\n"
        "def reexported():\n    pass\n"
        "def tested():\n    pass\n"
        "__all__ = ['called', 'exported', 'looked_up', 'reexported', 'tested']\n"
        "called()\n"
        "getattr(object, 'looked_up', None)\n"
    )
    package = "from lib import reexported\n__all__ = ['reexported']\n"
    tests = "from lib import tested\ntested()\n"
    users = [library, package]
    assert dead_definitions([library], [*users, tests]) == []
    assert dead_definitions([library], users, exports=False) == [
        "exported", "reexported", "tested"
    ]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_no_unused_imports(path):
    assert unused_imports(path.read_text(encoding="utf-8")) == []


def test_no_dead_definitions():
    read = [p.read_text(encoding="utf-8") for p in USERS]
    library = [p.read_text(encoding="utf-8") for p in LIBRARY]
    assert dead_definitions(library, read) == []


def test_no_test_only_definitions():
    program = [p.read_text(encoding="utf-8") for p in PROGRAM]
    library = [p.read_text(encoding="utf-8") for p in LIBRARY]
    assert dead_definitions(library, program, exports=False) == TEST_ONLY


BLOCK_METHODS = {"schedule", "observe_block"}


def classes(source: str) -> list[tuple[str, list[str | None], set[str]]]:
    """(name, base names, method names) of every class in a module, nested
    ones included; a base that is not a plain name is None."""
    return [
        (
            node.name,
            [b.id if isinstance(b, ast.Name) else None for b in node.bases],
            {n.name for n in node.body if isinstance(n, (ast.FunctionDef, ast.AsyncFunctionDef))},
        )
        for node in ast.walk(ast.parse(source))
        if isinstance(node, ast.ClassDef)
    ]


def half_block_apis(module: str, library: list[str]) -> list[str]:
    """Classes in ``module`` that define one block method and do not define
    or inherit the other ("both or neither", ``engine.Policy``).

    A base is looked up by name among the classes of ``module`` and
    ``library``; a class that needs a base it cannot look up is listed.
    """
    known = defaultdict(list)  # name -> (bases, methods) of each class so named
    for source in [*library, module]:
        for name, bases, methods in classes(source):
            known[name].append((bases, methods))

    def inherited(bases: list[str | None], seen: frozenset) -> set[str] | None:
        found = set()
        for base in bases:
            if base == "object" or base in seen:
                continue
            if base not in known:
                return None
            for grand, methods in known[base]:
                more = inherited(grand, seen | {base})
                if more is None:
                    return None
                found |= methods | more
        return found

    halves = []
    for name, bases, methods in classes(module):
        own = methods & BLOCK_METHODS
        if own and own != BLOCK_METHODS:
            found = inherited(bases, frozenset({name}))
            if found is None or not BLOCK_METHODS <= own | found:
                halves.append(name)
    return sorted(halves)


def test_checker_finds_a_half_block_api():
    library = (
        "class Both:\n"
        "    def schedule(self, t):\n        pass\n"
        "    def observe_block(self, outcomes):\n        pass\n"
    )
    module = (
        "class Fine(Both):\n    def observe_block(self, outcomes):\n        pass\n"
        "class Deeper(Fine):\n    def schedule(self, t):\n        pass\n"
        "class Neither(Unknown):\n    def observe(self, obs):\n        pass\n"
        "class Half:\n    def schedule(self, t):\n        pass\n"
        "class Unresolved(Unknown):\n    def observe_block(self, outcomes):\n        pass\n"
        "def make(cls):\n"
        "    class Local(cls):\n        def schedule(self, t):\n            pass\n"
    )
    assert half_block_apis(module, [library]) == ["Half", "Local", "Unresolved"]


@pytest.mark.parametrize("path", MODULES, ids=lambda p: str(p.relative_to(ROOT)))
def test_block_methods_come_in_pairs(path):
    library = [p.read_text(encoding="utf-8") for p in LIBRARY]
    assert half_block_apis(path.read_text(encoding="utf-8"), library) == []


def test_no_stale_block_query_name():
    """``schedule`` replaced the block query ``stable_for``: no code names the old one."""
    paths = [p for p in USERS if p != Path(__file__).resolve()] + [ROOT / "README.md"]
    stale = [p for p in paths if "stable_for" in p.read_text(encoding="utf-8")]
    assert [str(p.relative_to(ROOT)) for p in stale] == []
