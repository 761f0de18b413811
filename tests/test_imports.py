"""Every module-level import in the library is read by its module.

No linter runs over the package, so an import left behind by a deletion
would go unnoticed; this parses each module and names the ones it never
reads.  The package ``__init__`` is exempt: its imports are re-exports.
"""

import ast
from pathlib import Path

import streamfec

PACKAGE = Path(streamfec.__file__).parent


def unused_imports(source):
    tree = ast.parse(source)
    bound = {}
    for node in tree.body:
        if isinstance(node, ast.Import):
            for alias in node.names:
                bound[alias.asname or alias.name.split(".")[0]] = node.lineno
        elif isinstance(node, ast.ImportFrom) and node.module != "__future__":
            for alias in node.names:
                bound[alias.asname or alias.name] = node.lineno
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return sorted((line, name) for name, line in bound.items()
                  if name not in read)


def test_no_unused_module_imports():
    # the finder sees an unread name, including one bound by "as"
    sample = ("from __future__ import annotations\n"
              "import os, numpy as np\nfrom typing import List, Dict\n"
              "def f(x: List[int]) -> int:\n    return np.sum(x)\n")
    assert unused_imports(sample) == [(2, "os"), (3, "Dict")]
    found = [f"{path.name}:{line}: {name}"
             for path in sorted(PACKAGE.glob("*.py"))
             if path.name != "__init__.py"
             for line, name in unused_imports(path.read_text())]
    assert not found, found
