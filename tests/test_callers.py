"""Every public module-level function in ``src/ptopt`` has a caller outside the tests.

A function that only tests call is an oracle, and oracles live in
``tests/helpers.py``. Callers are looked for in ``src/ptopt`` and in
``perfbench/``, by syntax alone: an attribute of an imported module
(``ag.mha``, ``ptopt.cli.main``), a ``from ptopt.x import name``, or a bare
name inside the module that defines it that no enclosing function binds (a
parameter ``scale`` is not the function ``scale``). A bare name elsewhere is
not matched, because names collide across modules (``np.sqrt``, argparse's
``sub``).
"""

import ast
from pathlib import Path

ROOT = Path(__file__).resolve().parents[1]
PACKAGE = ROOT / "src" / "ptopt"
CALLER_DIRS = (PACKAGE, ROOT / "perfbench")


def module_name(path: Path) -> str:
    return "ptopt" if path.stem == "__init__" else f"ptopt.{path.stem}"


def public_functions() -> set[tuple[str, str]]:
    found = set()
    for path in sorted(PACKAGE.glob("*.py")):
        for node in ast.parse(path.read_text(encoding="utf-8")).body:
            if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef)) and not node.name.startswith("_"):
                found.add((module_name(path), node.name))
    return found


def dotted(node) -> str | None:
    """``a.b.c`` for a chain of attribute lookups on a name, else None."""
    if isinstance(node, ast.Name):
        return node.id
    if isinstance(node, ast.Attribute):
        owner = dotted(node.value)
        return None if owner is None else f"{owner}.{node.attr}"
    return None


def module_scope_loads(tree) -> set[str]:
    """Names read in ``tree`` that no enclosing function binds as a parameter or local."""
    loads = set()

    def visit(node, local: frozenset):
        if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef, ast.Lambda)):
            a = node.args
            params = {arg.arg for arg in (*a.posonlyargs, *a.args, *a.kwonlyargs, a.vararg, a.kwarg) if arg}
            body = node.body if isinstance(node.body, list) else [node.body]
            stored = {
                n.id for b in body for n in ast.walk(b) if isinstance(n, ast.Name) and isinstance(n.ctx, ast.Store)
            }
            local = local | params | stored
        elif isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load) and node.id not in local:
            loads.add(node.id)
        for child in ast.iter_child_nodes(node):
            visit(child, local)

    visit(tree, frozenset())
    return loads


def references(path: Path, own_module: str | None) -> set[tuple[str, str]]:
    """The (module, name) pairs that the source file at ``path`` refers to."""
    tree = ast.parse(path.read_text(encoding="utf-8"))
    modules = {}  # a local name or dotted path -> the module it stands for
    refs = set()
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                modules[alias.asname or alias.name] = alias.name
        elif isinstance(node, ast.ImportFrom) and node.module:
            for alias in node.names:
                refs.add((node.module, alias.name))
                modules[alias.asname or alias.name] = f"{node.module}.{alias.name}"
    for node in ast.walk(tree):
        if isinstance(node, ast.Attribute) and dotted(node.value) in modules:
            refs.add((modules[dotted(node.value)], node.attr))
    if own_module:
        refs |= {(own_module, name) for name in module_scope_loads(tree)}
    return refs


def test_every_public_function_has_a_caller_outside_the_tests():
    called = set()
    for directory in CALLER_DIRS:
        for path in directory.glob("*.py"):
            called |= references(path, module_name(path) if directory == PACKAGE else None)
    orphans = sorted(f"{module}.{name}" for module, name in public_functions() - called)
    assert not orphans, f"public functions that only tests call (move them to tests/helpers.py): {orphans}"


def test_caller_matching_is_qualified_by_module(tmp_path):
    source = tmp_path / "caller.py"
    source.write_text(
        "import numpy as np\n"
        "import ptopt.autograd as ag\n"
        "import ptopt.cli\n"
        "from ptopt.model import grn\n"
        "ag.mha(); ptopt.cli.main(); np.sqrt(2.0); sub()\n"
        "def f(scale):\n    return scale\n",
        encoding="utf-8",
    )
    refs = references(source, None)
    assert {("ptopt.autograd", "mha"), ("ptopt.cli", "main"), ("ptopt.model", "grn")} <= refs
    assert not any(name in ("sqrt", "sub") and module.startswith("ptopt") for module, name in refs)
    own = references(source, "ptopt.x")
    assert ("ptopt.x", "sub") in own
    assert ("ptopt.x", "scale") not in own
