"""Every module-level import in the library is read by its module, and
every name the package re-exports is read by the code that ships.

No linter runs over the package, so an import left behind by a deletion
would go unnoticed; this parses each module and names the ones it never
reads.  The package ``__init__`` is exempt: its imports are re-exports.
A re-export must be read outside its own module by the package, the
demos or the bench, so that code only the tests call lives in
``tests/``; the few that stay in the package for another reason are
listed with that reason.
"""

import ast
from pathlib import Path

import streamfec

PACKAGE = Path(streamfec.__file__).parent
ROOT = Path(__file__).resolve().parent.parent

# re-exports that no shipped code outside their module reads, and why
# they stay in the package
KEPT = {
    "TraceEvent": "the element type of the public trace, StreamLog.trace",
    "rlc_decode_times": "an exact loss curve, which simulate approximates",
    "segmented_bursts": "an exact loss curve, which simulate approximates",
    "single_burst": "the one-burst erasure mask of the README's example",
}


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


def unread_reexports(init_source, sources):
    """Names ``init_source`` re-exports (``from .module import name``)
    that no source but their own module's reads, as a bare name or as an
    attribute; ``sources`` maps a name to each source's text, a package
    module's name being its stem."""
    exported = {alias.name: node.module
                for node in ast.parse(init_source).body
                if isinstance(node, ast.ImportFrom) and node.level == 1
                for alias in node.names}
    read = {stem: {node.id if isinstance(node, ast.Name) else node.attr
                   for node in ast.walk(ast.parse(text))
                   if isinstance(getattr(node, "ctx", None), ast.Load)
                   and isinstance(node, (ast.Name, ast.Attribute))}
            for stem, text in sources.items()}
    return sorted(name for name, module in exported.items()
                  if not any(name in names for stem, names in read.items()
                             if stem != module))


def test_every_reexport_is_read_by_shipped_code():
    # a name read only by its own module, or only stored, is unread
    sample = unread_reexports(
        "from .a import x, y\nfrom .b import w\n",
        {"a": "def x():\n    pass\ndef y():\n    return x()\n",
         "b": "w = 1\n", "demo": "import a\nprint(a.x)\n"})
    assert sample == ["w", "y"]
    sources = {path.stem: path.read_text() for path in PACKAGE.glob("*.py")
               if path.name != "__init__.py"}
    sources.update({f"{folder}/{path.name}": path.read_text()
                    for folder in ("demos", "bench")
                    for path in (ROOT / folder).glob("*.py")})
    unread = unread_reexports((PACKAGE / "__init__.py").read_text(), sources)
    extra = [name for name in unread if name not in KEPT]
    assert not extra, extra
    assert sorted(KEPT) == [name for name in unread if name in KEPT]
