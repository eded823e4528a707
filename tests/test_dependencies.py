"""The runtime stays on the standard library, numpy and requests, the
gateway never imports the pipeline modules built on top of it, only the
CLI imports the pipeline, and no module imports a name it never uses or
offers a default nobody sets."""

import ast
import os
import subprocess
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


def pipeline_importers(paths):
    """`file:line` of every import of seedforge.pipeline, or of a name
    from it, in `paths` outside a cli.py."""
    return [f"{os.path.basename(path)}:{line}"
            for path in paths if os.path.basename(path) != "cli.py"
            for line, name in imported_packages(path)
            if (name + ".").startswith("seedforge.pipeline.")]


def test_pipeline_importers_finds_a_planted_one(tmp_path):
    planted = {"cli.py": "from seedforge import pipeline\n",
               "a.py": "import json\nfrom seedforge.pipeline import x\n",
               "b.py": "def f():\n    import seedforge.pipeline\n",
               "c.py": "from seedforge import pipelines, topics\n"}
    for name, text in planted.items():
        (tmp_path / name).write_text(text)
    paths = sorted(str(tmp_path / name) for name in planted)
    assert pipeline_importers(paths) == ["a.py:2", "b.py:2"]


def test_only_the_cli_imports_the_pipeline():
    """The pipeline builds on ablations, contexts and instructions, never
    the other way round; the CLI is its one caller in src/."""
    found = sources(ROOT)
    assert len(found) > 20
    assert pipeline_importers(found) == []


# Each is imported first in a fresh interpreter: an import cycle that the
# suite's import order hides shows there.
FIRST_IMPORTS = ("seedforge.ablations", "seedforge.contexts",
                 "seedforge.instructions", "seedforge.pipeline")


def test_each_module_imports_first_on_its_own():
    env = {**os.environ, "PYTHONPATH": os.path.dirname(ROOT)}
    for module in FIRST_IMPORTS:
        child = subprocess.run([sys.executable, "-c", f"import {module}"],
                               env=env, capture_output=True, text=True,
                               timeout=120)
        assert child.returncode == 0, (module, child.stderr)


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


# The repository root: callers are searched in src/, bench/ and tests/.
REPO = os.path.dirname(os.path.dirname(os.path.abspath(__file__)))
CALLER_DIRS = ("src", "bench", "tests")
# Defaults that bind a value into a nested function when it is defined,
# not options a caller may set: (file, function, parameter).
BINDING_DEFAULTS = {("evalreport.py", "cell", "_ts")}


def _name(func):
    if isinstance(func, ast.Name):
        return func.id
    if isinstance(func, ast.Attribute):
        return func.attr
    return None


def defaulted_parameters(tree):
    """(name, parameter, positional index or None, line) of every
    parameter with a default. A method's index does not count `self`,
    which a call through an attribute passes implicitly; an `__init__`
    is named after its class, since callers call the class."""
    found = []

    def visit(node, owner):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, child)
                continue
            if isinstance(child, (ast.FunctionDef, ast.AsyncFunctionDef)):
                args = child.args
                positional = args.posonlyargs + args.args
                bound = owner is not None and not any(
                    _name(d) == "staticmethod" for d in child.decorator_list)
                name = (owner.name if owner is not None
                        and child.name == "__init__" else child.name)
                first = len(positional) - len(args.defaults)
                for index in range(first, len(positional)):
                    found.append((name, positional[index].arg,
                                  index - bound, child.lineno))
                for arg, default in zip(args.kwonlyargs, args.kw_defaults):
                    if default is not None:
                        found.append((name, arg.arg, None, child.lineno))
                visit(child, None)
                continue
            visit(child, owner)

    visit(tree, None)
    return found


def calls(tree):
    """name -> [(positional count, keywords, *args present)] for every
    call in `tree`; **kwargs shows as the keyword None, which names no
    parameter. A
    `super().__init__(...)` call counts as a call of each base class
    named in the enclosing class statement."""
    found: dict = {}

    def visit(node, bases):
        for child in ast.iter_child_nodes(node):
            if isinstance(child, ast.ClassDef):
                visit(child, [_name(base) for base in child.bases])
                continue
            if isinstance(child, ast.Call):
                name = _name(child.func)
                entry = (len(child.args), {k.arg for k in child.keywords},
                         any(isinstance(a, ast.Starred) for a in child.args))
                for target in ([b for b in bases if b]
                               if name == "__init__" else [name]):
                    found.setdefault(target, []).append(entry)
            visit(child, bases)

    visit(tree, [])
    return found


def unset_defaults(src_files, caller_files):
    """`file:line name(parameter)` for every defaulted parameter of a
    function in `src_files` that no call in `caller_files` passes, by
    keyword, by position or through *args. A **mapping sets no
    parameter: a wrapper that forwards its **kwargs sets only what its
    own callers pass by name."""
    index: dict = {}
    for path in caller_files:
        with open(path, encoding="utf-8") as handle:
            for name, entries in calls(ast.parse(handle.read())).items():
                index.setdefault(name, []).extend(entries)
    unset = []
    for path in src_files:
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        base = os.path.basename(path)
        for name, param, position, line in defaulted_parameters(tree):
            if (base, name, param) in BINDING_DEFAULTS:
                continue
            if not any(param in keywords
                       or (position is not None
                           and (starred or count > position))
                       for count, keywords, starred in index.get(name, ())):
                unset.append(f"{base}:{line} {name}({param})")
    return unset


def test_unset_defaults_finds_a_planted_one(tmp_path):
    src = tmp_path / "m.py"
    src.write_text(
        "def f(a, b=1, *, c=2, d=3):\n    pass\n\n"
        "def g(e=0):\n    pass\n\n"
        "class K:\n    def __init__(self, x=0, y=1):\n        pass\n\n"
        "    def m(self, z=0):\n        pass\n\n"
        "class L(K):\n    def __init__(self):\n"
        "        super().__init__(1)\n")
    caller = tmp_path / "use.py"
    caller.write_text("f(0, c=1)\nf(*args)\ng(**kw)\nk.m(1)\n")
    assert unset_defaults([str(src)], [str(src), str(caller)]) == [
        "m.py:1 f(d)", "m.py:4 g(e)", "m.py:8 K(y)"]


def test_every_default_is_set_by_some_call():
    """A defaulted parameter that no caller sets is an option nobody
    uses: make it a constant instead."""
    src = sources(ROOT)
    callers = [path for folder in CALLER_DIRS
               for path in sources(os.path.join(REPO, folder))]
    assert len(callers) > len(src) > 20
    assert unset_defaults(src, callers) == []


# Defaulted parameters in src/ that no call in src/ or bench/ sets, only
# tests: "file function(parameter)" -> why it stays. The list only
# shrinks: a new knob that only tests set fails the check below, and so
# does an entry whose parameter src/ or bench/ starts setting, or that goes.
TEST_ONLY_DEFAULTS = {
    "http.py HttpCompletionClient(transport)": "test seam: fake HTTP",
    "http.py HttpEmbedder(transport)": "test seam: fake HTTP",
    "http.py HttpTranslator(transport)": "test seam: fake HTTP",
    "http.py HttpParaphraser(transport)": "test seam: fake HTTP",
    "http.py MediaWikiClient(transport)": "test seam: fake HTTP",
    "__init__.py Gateway(clock)": "test seam: fake retry clock",
    "__init__.py Gateway(sleep)": "test seam: no real retry sleeps",
    "dedup.py _dedup_exact(block)": "small tiles for small tests",
    "dedup.py _dedup_exact(width)": "small tiles for small tests",
    "stats.py wilcoxon_rank_sum(method)":
        "reference selection: exact and normal p-values each checked",
    "metrics.py bleu(max_order)":
        "reference selection: hand-computed values at lower orders",
    "metrics.py bleu(tokenizer)":
        "the report scores bleu_score on its overlap tables",
    "metrics.py bleu(smooth)":
        "the report scores bleu_score on its overlap tables",
    "metrics.py rouge_n(n)":
        "the report scores rouge_n_score on its overlap tables",
    "metrics.py rouge_n(tokenizer)":
        "the report scores rouge_n_score on its overlap tables",
    "ablations.py generate_pass(start_index)":
        "bench/tracing.py wraps generate_pass; goes with ROADMAP item 22",
    "ablations.py generate_pass(round_no)":
        "bench/tracing.py wraps generate_pass; goes with ROADMAP item 22",
}


def knobs_only_tests_set(src_files, caller_files):
    """`file function(parameter)` of every defaulted parameter of a
    function in `src_files` that no call in `caller_files` sets; with
    tests left out of `caller_files`, the knobs only tests turn."""
    return sorted(f"{entry.split(':')[0]} {entry.split(' ', 1)[1]}"
                  for entry in unset_defaults(src_files, caller_files))


def test_knobs_only_tests_set_finds_a_planted_one(tmp_path):
    src = tmp_path / "m.py"
    src.write_text("def f(a, seam=None, *, size=1):\n    pass\n")
    caller = tmp_path / "use.py"
    caller.write_text("f(0, size=2)\n")
    test = tmp_path / "test_m.py"
    test.write_text("f(0, object())\n")
    assert unset_defaults([str(src)], [str(caller), str(test)]) == []
    assert knobs_only_tests_set([str(src)], [str(caller)]) == [
        "m.py f(seam)"]


def test_knobs_only_tests_set_are_listed():
    """A default that only tests set is a test seam or dead weight: each
    one is listed in TEST_ONLY_DEFAULTS with its reason."""
    callers = [path for folder in ("src", "bench")
               for path in sources(os.path.join(REPO, folder))]
    assert knobs_only_tests_set(sources(ROOT), callers) == sorted(
        TEST_ONLY_DEFAULTS)


# Top-level names src/ defines only for readers outside it, with the
# folder that reads them: bench/tracing.py wraps ablations.generate_pass
# and the metrics in its METRIC_FNS by name. The report derives rouge_n,
# bleu, chrf and squad_f1 from its overlap tables, so only bench and
# tests call those four.
OUTSIDE_READERS = {
    "ablations.py generate_pass": "bench",
    "metrics.py bleu": "bench",
    "metrics.py chrf": "bench",
    "metrics.py rouge_n": "bench",
    "metrics.py squad_f1": "bench",
}


def names_read(paths, strings=False):
    """Every name the code in `paths` reads, bare or as an attribute, and
    with `strings` every string constant, as getattr takes a name."""
    read = set()
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        for node in ast.walk(tree):
            if isinstance(node, ast.Name) and isinstance(node.ctx, ast.Load):
                read.add(node.id)
            elif isinstance(node, ast.Attribute):
                read.add(node.attr)
            elif (strings and isinstance(node, ast.Constant)
                  and isinstance(node.value, str)):
                read.add(node.value)
    return read


def unread_definitions(paths, root):
    """`file name` of every top-level function or class in `paths` whose
    name no code in `paths` reads; a definition does not read itself."""
    read = names_read(paths)
    unread = []
    for path in paths:
        with open(path, encoding="utf-8") as handle:
            tree = ast.parse(handle.read())
        unread += [f"{os.path.relpath(path, root)} {node.name}"
                   for node in tree.body
                   if isinstance(node, (ast.FunctionDef, ast.AsyncFunctionDef,
                                        ast.ClassDef))
                   and node.name not in read]
    return sorted(unread)


def test_unread_definitions_finds_a_planted_one(tmp_path):
    (tmp_path / "a.py").write_text(
        "class K:\n    pass\n\n"
        "def f():\n    return K()\n\n"
        "def g():\n    return g\n\n"
        "def orphan():\n    '''Mentioned in h's docstring only.'''\n")
    (tmp_path / "b.py").write_text(
        "import a\n\ndef h():\n    '''Not orphan.'''\n    return a.f()\n")
    paths = [str(tmp_path / "a.py"), str(tmp_path / "b.py")]
    assert unread_definitions(paths, str(tmp_path)) == ["a.py orphan",
                                                        "b.py h"]


def test_every_definition_is_read():
    """A top-level function or class that no code in src/ reads is dead,
    unless a folder outside src/ reads it by name."""
    found = sources(ROOT)
    assert unread_definitions(found, ROOT) == sorted(OUTSIDE_READERS)
    for entry, folder in OUTSIDE_READERS.items():
        assert entry.split()[1] in names_read(
            sources(os.path.join(REPO, folder)), strings=True), entry
