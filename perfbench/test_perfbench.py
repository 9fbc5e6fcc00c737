"""Self-tests of the benchmark: tracing, seeded inputs, metric names, and
refusal to run without the program's source.

Run from the repository root: python3 -m pytest -q perfbench
"""

import filecmp
import json
import os
import shutil
import subprocess
import sys

import numpy as np
import pytest

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
sys.path[:0] = [HERE, os.path.join(ROOT, "src")]

import gen                                                  # noqa: E402
import run                                                  # noqa: E402
import tracer                                               # noqa: E402
import workloads                                            # noqa: E402
from gradstyle import cli, network, tensor                  # noqa: E402
from gradstyle.training import save_checkpoint             # noqa: E402


@pytest.fixture(scope="module")
def small_inputs(tmp_path_factory):
    """A 32x32 photo (every pyramid level holds a 3x3 window) and a model."""
    d = tmp_path_factory.mktemp("small")
    gen.write_ppm(str(d / "in.ppm"), gen.photo(gen.rng_for(0, "artistic"), 32, 32))
    save_checkpoint(gen.checkpoint_model(0), str(d / "model.unrl"))
    return d


def traced_op(argv):
    tr = tracer.Tracer()
    tr.install()
    try:
        assert cli.main(argv) == 0
    finally:
        tr.uninstall()
    tr.ops = 1
    calls = {}
    for *_, name, _, _ in tr.spans:
        calls[name] = calls.get(name, 0) + 1
    return tr.metrics(), calls


def stylize_argv(d, *extra):
    return ["stylize", "--model", str(d / "model.unrl"), "--input",
            str(d / "in.ppm"), "--output", str(d / "out.ppm"), *extra]


def test_wrappers_see_from_import_bindings_artistic(small_inputs):
    metrics, calls = traced_op(stylize_argv(small_inputs))
    # descent_step is reached through network's module global, conv through
    # network's `from .tensor import` binding, clamp through clip_unit
    assert calls["network.descent_step"] == 4
    assert metrics["tensor.conv2d_reflect.calls"] == 32
    assert metrics["tensor.clamp.calls"] == 1
    assert calls["cli.main"] == 1
    assert metrics["graphfilter.filter_map.calls"] == 0
    assert metrics["tensor.backward.tape_records"] == 0


def test_wrappers_see_filter_hooks_photoreal(small_inputs):
    metrics, calls = traced_op(stylize_argv(small_inputs, "--photoreal",
                                            "--guided-filter"))
    assert metrics["graphfilter.filter_map.calls"] == 32
    assert metrics["graphfilter.filter_map.matvecs_per_channel"] == 5
    assert metrics["graphfilter.estimate_lambda_max.matvecs"] > 0
    assert metrics["guided.box_ops"] > 0
    # relu reaches tensor.clamp through the tensor module global
    assert metrics["tensor.clamp.calls"] == 13


def test_uninstall_restores_every_binding(small_inputs):
    originals = (tensor.conv2d_reflect, network.conv2d_reflect, cli.main)
    tr = tracer.Tracer()
    tr.install()
    assert network.conv2d_reflect is not originals[1]
    tr.uninstall()
    assert (tensor.conv2d_reflect, network.conv2d_reflect, cli.main) == originals


def test_self_time_excludes_children():
    tr = tracer.Tracer()
    tr.spans = [(0, None, 0, "outer", 0, 100), (1, 0, 0, "inner", 10, 40),
                (2, 0, 0, "inner", 50, 60)]
    assert tr.self_ns() == {"outer": 60, "inner": 40}


@pytest.mark.parametrize("name", ["photoreal", "train"])
def test_seed_reproduces_inputs(tmp_path, name):
    dirs = {}
    for label, seed in (("a", 3), ("b", 3), ("c", 4)):
        dirs[label] = tmp_path / label
        dirs[label].mkdir()
        workloads.WORKLOADS[name](name, str(dirs[label]), seed).build()

    def same(x, y):
        cmp = filecmp.dircmp(x, y)
        return (not cmp.left_only and not cmp.right_only
                and not filecmp.cmpfiles(x, y, cmp.common_files,
                                         shallow=False)[1]
                and all(same(os.path.join(x, s), os.path.join(y, s))
                        for s in cmp.common_dirs))

    assert same(dirs["a"], dirs["b"])
    assert not same(dirs["a"], dirs["c"])


def test_photo_is_not_flat():
    img = gen.photo(gen.rng_for(0, "artistic"), 64, 64)
    assert img.shape == (3, 64, 64) and 0.0 <= img.min() and img.max() <= 1.0
    steps = np.abs(np.diff(img, axis=2))
    assert steps.max() > 0.2                             # hard edges
    assert np.median(steps) > 0.01                       # fine texture


def test_read_ppm_keeps_whitespace_valued_first_pixel(tmp_path):
    # a first pixel byte of 9-13 or 32 must not be taken for header padding
    for first in (9, 10, 13, 32):
        q = np.full((2, 3, 3), 200, dtype=np.uint8)
        q[0, 0, 0] = first
        path = tmp_path / "img.ppm"
        path.write_bytes(b"P6\n3 2\n255\n" + q.tobytes())
        assert np.array_equal(gen.read_ppm(str(path)), q)


def test_benchmark_json_names_match_reported_metrics():
    with open(os.path.join(ROOT, "BENCHMARK.json"), encoding="utf-8") as fh:
        spec = json.load(fh)
    assert {m["name"]: m["unit"] for m in spec["end_to_end"]} == run.END_TO_END
    assert {m["name"]: m["unit"] for m in spec["per_layer"]} == tracer.PER_LAYER
    assert [w["name"] for w in spec["workloads"]] == list(run.NAMES)


def test_refuses_to_run_without_program_source(tmp_path):
    shutil.copytree(HERE, tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("work", "out", "__pycache__"))
    shutil.copy(os.path.join(ROOT, "BENCHMARK.json"), tmp_path)
    proc = subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", "artistic",
         "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path, capture_output=True, text=True, timeout=120)
    assert proc.returncode != 0
    assert '"correct"' not in proc.stdout
