"""The runtime stays on the standard library, numpy and requests."""

import ast
import os
import sys

import seedforge

ALLOWED = {"numpy", "requests", "seedforge"}


def imported_packages(path):
    """Top-level package of every import in one source file, with its line."""
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name.split(".")[0]
        elif isinstance(node, ast.ImportFrom):
            # a relative import stays inside seedforge
            name = "seedforge" if node.level else node.module
            yield node.lineno, name.split(".")[0]


def test_runtime_imports_only_stdlib_numpy_and_requests():
    root = os.path.dirname(seedforge.__file__)
    sources = [os.path.join(folder, name)
               for folder, _, names in os.walk(root)
               for name in names if name.endswith(".py")]
    assert len(sources) > 20
    outside = [f"{os.path.relpath(path, root)}:{line} imports {package}"
               for path in sources
               for line, package in imported_packages(path)
               if package not in ALLOWED
               and package not in sys.stdlib_module_names]
    assert outside == []
