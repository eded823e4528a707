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


def unused_imports(text):
    """(line, name) of every name an import in `text` binds that the
    module never reads. An import statement marked `# noqa: F401` is a
    re-export and is skipped, and so is `from __future__ import ...`."""
    tree = ast.parse(text)
    lines = text.splitlines()
    bound = []
    for node in ast.walk(tree):
        if not isinstance(node, (ast.Import, ast.ImportFrom)):
            continue
        if isinstance(node, ast.ImportFrom) and node.module == "__future__":
            continue
        if any("noqa: F401" in line
               for line in lines[node.lineno - 1:node.end_lineno]):
            continue
        for alias in node.names:
            name = alias.asname or alias.name.split(".")[0]
            bound.append((node.lineno, name))
    read = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    return [(line, name) for line, name in bound if name not in read]


def test_unused_imports_finds_a_planted_one():
    text = ("import os\nimport json  # noqa: F401\nfrom a.b import c as d\n"
            "from __future__ import annotations\nimport x.y\n\n"
            "def f():\n    import re\n    return x.y.z(os.sep)\n")
    assert unused_imports(text) == [(3, "d"), (8, "re")]


def test_no_module_imports_a_name_it_never_uses():
    # An __init__.py may import names only to re-export them.
    found = [path for path in sources(ROOT)
             if os.path.basename(path) != "__init__.py"]
    assert len(found) > 20
    unused = []
    for path in found:
        with open(path, encoding="utf-8") as handle:
            unused += [f"{os.path.relpath(path, ROOT)}:{line} imports "
                       f"{name}" for line, name in unused_imports(
                           handle.read())]
    assert unused == []
