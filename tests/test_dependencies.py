"""The runtime stays on the standard library, numpy and requests, and the
gateway never imports the pipeline modules built on top of it."""

import ast
import os
import sys

import seedforge

ALLOWED = {"numpy", "requests", "seedforge"}
ROOT = os.path.dirname(seedforge.__file__)
# All of seedforge that a gateway module may import.
GATEWAY_MAY_IMPORT = ("seedforge.gateway.", "seedforge.errors.",
                      "seedforge.constants.", "seedforge.seeding.")


def sources(folder):
    return [os.path.join(path, name)
            for path, _, names in os.walk(folder)
            for name in names if name.endswith(".py")]


def imported_packages(path):
    """Full dotted name of everything each import in one source file
    binds, function-local imports included, with its line: `import a.b`
    gives a.b and `from a import b` gives a.b."""
    package = os.path.relpath(os.path.dirname(path),
                              os.path.dirname(ROOT)).split(os.sep)
    with open(path, encoding="utf-8") as handle:
        tree = ast.parse(handle.read(), filename=path)
    for node in ast.walk(tree):
        if isinstance(node, ast.Import):
            for alias in node.names:
                yield node.lineno, alias.name
        elif isinstance(node, ast.ImportFrom):
            base = [node.module] if node.module else []
            if node.level:
                base = package[:len(package) + 1 - node.level] + base
            for alias in node.names:
                yield node.lineno, ".".join(base + [alias.name])


def test_runtime_imports_only_stdlib_numpy_and_requests():
    found = sources(ROOT)
    assert len(found) > 20
    outside = [f"{os.path.relpath(path, ROOT)}:{line} imports {name}"
               for path in found
               for line, name in imported_packages(path)
               if name.split(".")[0] not in ALLOWED
               and name.split(".")[0] not in sys.stdlib_module_names]
    assert outside == []


def test_gateway_imports_only_errors_constants_and_seeding():
    found = sources(os.path.join(ROOT, "gateway"))
    assert len(found) >= 6
    upward = [f"{os.path.relpath(path, ROOT)}:{line} imports {name}"
              for path in found
              for line, name in imported_packages(path)
              if name.split(".")[0] == "seedforge"
              and not (name + ".").startswith(GATEWAY_MAY_IMPORT)]
    assert upward == []
