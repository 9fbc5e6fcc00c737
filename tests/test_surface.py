"""The library surface that the benchmark tools and the README rely on.

perfbench/ is not part of this suite, so a rename there would otherwise only
show up when the benchmark runs.
"""

import ast
import importlib
import importlib.util
import inspect
import pathlib
import re

import pytest

ROOT = pathlib.Path(__file__).resolve().parent.parent


def _load(path):
    spec = importlib.util.spec_from_file_location(path.stem, path)
    module = importlib.util.module_from_spec(spec)
    spec.loader.exec_module(module)
    return module


TRACED = _load(ROOT / "perfbench" / "tracer.py").TRACED


@pytest.mark.parametrize("name", [f"{mod}.{fn}" for mod, fns in TRACED.items()
                                  for fn in fns])
def test_traced_names_are_functions_of_their_module(name):
    # the tracer rebinds these by identity in every gradstyle namespace, so
    # each must be a plain function defined in the module it names
    mod, fn = name.split(".")
    obj = getattr(importlib.import_module(f"gradstyle.{mod}"), fn)
    assert inspect.isfunction(obj) and obj.__module__ == f"gradstyle.{mod}"


def _run_imports(nodes, filename):
    exec(compile(ast.Module(body=nodes, type_ignores=[]), filename, "exec"), {})


def test_readme_library_imports_resolve():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    blocks = re.findall(r"```python\n(.*?)```", readme, flags=re.S)
    assert blocks
    for block in blocks:
        _run_imports([node for node in ast.parse(block).body
                      if isinstance(node, (ast.Import, ast.ImportFrom))],
                     "README.md")


@pytest.mark.parametrize("path", sorted((ROOT / "perfbench").glob("*.py")),
                         ids=lambda p: p.name)
def test_perfbench_gradstyle_imports_resolve(path):
    # the `from gradstyle... import` statements, at any depth
    tree = ast.parse(path.read_text(encoding="utf-8"))
    _run_imports([node for node in ast.walk(tree)
                  if isinstance(node, ast.ImportFrom)
                  and (node.module or "").split(".")[0] == "gradstyle"],
                 str(path))


def _checked_imports(tree):
    """Import statements outside `from __future__` and `if TYPE_CHECKING:`."""
    skipped = set()
    for node in ast.walk(tree):
        if (isinstance(node, ast.If) and isinstance(node.test, ast.Name)
                and node.test.id == "TYPE_CHECKING"):
            skipped.update(id(n) for stmt in node.body for n in ast.walk(stmt))
    return [node for node in ast.walk(tree)
            if isinstance(node, (ast.Import, ast.ImportFrom))
            and id(node) not in skipped
            and getattr(node, "module", None) != "__future__"]


@pytest.mark.parametrize(
    "path", sorted(p for pattern in ("src/gradstyle/*.py", "tests/*.py",
                                     "scripts/*.py")
                   for p in ROOT.glob(pattern)
                   if p.name != "__init__.py"),  # __init__ imports to re-export
    ids=lambda p: p.name)
def test_every_import_is_used(path):
    tree = ast.parse(path.read_text(encoding="utf-8"))
    used = {node.id for node in ast.walk(tree) if isinstance(node, ast.Name)}
    unused = [alias.asname or alias.name.split(".")[0]
              for node in _checked_imports(tree) for alias in node.names
              if (alias.asname or alias.name.split(".")[0]) not in used]
    assert not unused, f"{path.name} imports but never uses {unused}"


# Public names kept with no program caller, each with its reason.
UNCALLED_PUBLIC = {
    # tests differentiate through vsum, and its vjp keeps no input, which
    # the tape-memory tests rely on
    "vsum",
}


def test_every_public_name_has_a_program_caller():
    # a top-level function or class of src/gradstyle that no library module,
    # script or benchmark file reads is surface that nothing needs
    paths = [p for pattern in ("src/gradstyle/*.py", "scripts/*.py",
                               "perfbench/*.py") for p in ROOT.glob(pattern)]
    public, used = [], set()
    for path in paths:
        tree = ast.parse(path.read_text(encoding="utf-8"))
        in_src = path.parent.name == "gradstyle"
        if in_src:
            public += [(node.name, f"{path.name}:{node.name}")
                       for node in tree.body
                       if isinstance(node, (ast.FunctionDef, ast.ClassDef))
                       and not node.name.startswith("_")]
        for node in ast.walk(tree):
            if isinstance(node, ast.Name):
                used.add(node.id)
            elif isinstance(node, ast.Attribute):
                used.add(node.attr)
            elif isinstance(node, ast.alias) and not in_src:
                used.add(node.name.split(".")[-1])
    uncalled = sorted(where for name, where in public
                      if name not in used | UNCALLED_PUBLIC)
    assert not uncalled, f"public names with no program caller: {uncalled}"
