"""Source hygiene: no module of the package imports a name it never uses, no
module-level function, class or constant is left that the package neither
uses nor exports, and importing the package leaves the command-line layer out."""
import ast
import subprocess
import sys
from pathlib import Path

import pytest

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "bgk_sl"
SOURCES = sorted(p for p in PACKAGE.glob("*.py") if p.name != "__init__.py")
INIT = PACKAGE / "__init__.py"


def _unused_imports(tree: ast.Module) -> list[str]:
    """Names bound by the module-level imports of tree and never loaded."""
    imported = set()
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            # `import a.b` binds `a`
            imported.update(alias.asname or alias.name.split(".")[0] for alias in node.names)
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted(name for name in imported if name not in used)


@pytest.mark.parametrize("path", SOURCES, ids=lambda p: p.name)
def test_no_unused_module_imports(path):
    assert _unused_imports(ast.parse(path.read_text(encoding="utf-8"))) == []


def test_an_unused_import_is_found():
    tree = ast.parse("import os\nfrom math import pi, inf\nimport numpy as np\nx = np.pi + inf\n")
    assert _unused_imports(tree) == ["os", "pi"]


def _bound_names(node: ast.stmt) -> list[str]:
    """The names a module-level statement binds: a function, a class or the
    targets of an assignment."""
    if isinstance(node, (ast.FunctionDef, ast.ClassDef)):
        return [node.name]
    if isinstance(node, (ast.Assign, ast.AnnAssign)):
        targets = node.targets if isinstance(node, ast.Assign) else [node.target]
        return [n.id for target in targets for n in ast.walk(target) if isinstance(n, ast.Name)]
    return []


def _dead_definitions(modules: dict[str, ast.Module], init: ast.Module) -> list[str]:
    """module.name of each module-level function, class or constant that no
    module loads by name or attribute and that init does not import."""
    used = {alias.asname or alias.name for node in ast.walk(init)
            if isinstance(node, ast.ImportFrom) for alias in node.names}
    for tree in modules.values():
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
    return sorted(
        f"{module}.{name}"
        for module, tree in modules.items()
        for node in tree.body
        for name in _bound_names(node)
        if name not in used
    )


def test_no_dead_module_level_definitions():
    """Every module-level function, class or constant is used by the package
    or exported from it: source that only tests read does not stay."""
    modules = {p.stem: ast.parse(p.read_text(encoding="utf-8")) for p in SOURCES}
    assert _dead_definitions(modules, ast.parse(INIT.read_text(encoding="utf-8"))) == []


def test_a_dead_definition_is_found():
    modules = {
        "a": ast.parse("def used():\n    return helper() + LIMIT\ndef helper():\n    pass\n"
                       "def orphan():\n    pass\nclass Old:\n    pass\n"
                       "LIMIT = 3\nTABLE: dict = {}\nUNUSED = (1, 2)\n"),
        "b": ast.parse("import a\nx = a.used() + len(a.TABLE)\n"),
    }
    init = ast.parse("from .a import Old\n")
    assert _dead_definitions(modules, init) == ["a.UNUSED", "a.orphan", "b.x"]


def test_importing_the_package_leaves_the_cli_out():
    """`import bgk_sl` loads none of the command-line modules, so library
    users, and the benchmark, never run cli.py's code."""
    probe = "import sys, bgk_sl; print(sorted({'bgk_sl.cli', 'argparse', 'csv'} & set(sys.modules)))"
    proc = subprocess.run(
        [sys.executable, "-c", probe], capture_output=True, text=True, timeout=120, check=True
    )
    assert proc.stdout == "[]\n"
