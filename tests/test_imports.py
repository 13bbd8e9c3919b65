"""Every module-level import in ``src/ptopt`` binds a name that its module reads.

An import left behind by a deletion still loads its module and still reads as
a dependency. The check is by syntax alone: a name counts as read if it is
loaded anywhere in the module, annotations included. ``from __future__``
imports bind nothing and are exempt.
"""

import ast
from pathlib import Path

PACKAGE = Path(__file__).resolve().parents[1] / "src" / "ptopt"


def unused_imports(tree) -> list[tuple[str, int]]:
    """(bound name, line) of every module-level import whose name the module never loads."""
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load)}
    unused = []
    for node in tree.body:
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if isinstance(node, (ast.Import, ast.ImportFrom)):
            for alias in node.names:
                # ``import a.b`` binds ``a``; ``as`` names the binding itself
                bound = alias.asname or (alias.name.split(".")[0] if isinstance(node, ast.Import) else alias.name)
                if bound not in read:
                    unused.append((bound, node.lineno))
    return unused


def test_no_module_in_src_has_an_unused_import():
    unused = [
        f"{path.name}:{line} {name}"
        for path in sorted(PACKAGE.glob("*.py"))
        for name, line in unused_imports(ast.parse(path.read_text(encoding="utf-8")))
    ]
    assert not unused, f"imports that their module never reads: {unused}"


def test_the_import_check_sees_each_form_of_import():
    tree = ast.parse(
        "from __future__ import annotations\n"
        "import os\n"
        "import numpy as np\n"
        "import ptopt.autograd\n"
        "from ptopt.autograd import ShapeError, Tensor\n"
        "from ptopt.model import _pack as pack\n"
        "def f(x: Tensor) -> None:\n"
        "    import json\n"
        "    return ptopt.autograd.mean(np.asarray(x))\n"
    )
    assert unused_imports(tree) == [("os", 2), ("ShapeError", 5), ("pack", 6)]
