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
import runpy
import sys

import numpy as np
import pytest

from gradstyle.imagecodec import read_image, write_ppm

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


def _readme_python_blocks():
    readme = (ROOT / "README.md").read_text(encoding="utf-8")
    return re.findall(r"```python\n(.*?)```", readme, flags=re.S)


def test_readme_library_imports_resolve():
    blocks = _readme_python_blocks()
    assert blocks
    for block in blocks:
        _run_imports([node for node in ast.parse(block).body
                      if isinstance(node, (ast.Import, ast.ImportFrom))],
                     "README.md")


def test_readme_library_example_runs(tmp_path, monkeypatch, capsys):
    # the example's free names are bound to small arrays, and contents/
    # holds 3 images, so train fits on 2 and validates on 1
    rng = np.random.default_rng(0)
    (tmp_path / "contents").mkdir()
    for i in range(3):
        write_ppm(tmp_path / "contents" / f"c{i}.ppm",
                  rng.uniform(0, 1, (3, 16, 16)))
    monkeypatch.chdir(tmp_path)
    (block,) = [b for b in _readme_python_blocks() if "stylize(" in b]
    names = {"style_image": rng.uniform(0, 1, (3, 16, 16)),
             "my_array": rng.uniform(-0.2, 1.2, (3, 20, 24))}
    exec(compile(block, "README.md", "exec"), names)
    assert len(names["rows"]) == 3              # epochs 0, 1 and 2
    assert float(capsys.readouterr().out) == names["rows"][-1].total
    for out in (names["art"], names["photo"]):
        assert isinstance(out, np.ndarray) and out.shape == (3, 20, 24)


def test_make_demo_data_writes_readable_images(tmp_path, monkeypatch):
    out = tmp_path / "demo"
    monkeypatch.setattr(sys, "argv", ["make_demo_data.py", "--out", str(out),
                                      "--count", "2", "--side", "16"])
    runpy.run_path(str(ROOT / "scripts" / "make_demo_data.py"),
                   run_name="__main__")
    written = sorted(p.relative_to(out).as_posix() for p in out.rglob("*.ppm"))
    assert written == ["contents/content_000.ppm", "contents/content_001.ppm",
                       "held_out.ppm", "style.ppm"]
    for name in written:
        img = read_image(out / name)
        assert img.shape == (3, 16, 16)
        assert 0.0 <= img.min() and img.max() <= 1.0


# modules that speak only arrays: the codec and the filters never build or
# read a Tensor, and the package's re-exports are array entry points
ARRAY_ONLY = ("imagecodec.py", "graphfilter.py", "guided.py", "__init__.py")


@pytest.mark.parametrize("name", ARRAY_ONLY)
def test_array_only_modules_import_no_tensor(name):
    tree = ast.parse((ROOT / "src" / "gradstyle" / name).read_text(
        encoding="utf-8"))
    imported = [alias.asname or alias.name for node in ast.walk(tree)
                if isinstance(node, (ast.Import, ast.ImportFrom))
                for alias in node.names]
    assert "Tensor" not in imported


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
