import os
import pathlib
import struct
import subprocess
import sys

import numpy as np
import pytest

import gradstyle
from conftest import save_bad_gram_checkpoint, smooth_image
from gradstyle import cli, solver
from gradstyle.cli import main
from gradstyle.imagecodec import read_image, write_ppm
from gradstyle.network import NUM_STEPS, descent_step, init_model
from gradstyle.perceptual import (
    content_features,
    default_extractor,
    extract_features,
    total_loss,
)
from gradstyle.tensor import Tensor
from gradstyle.training import load_checkpoint, save_checkpoint


@pytest.fixture(scope="module")
def workspace(tmp_path_factory):
    root = tmp_path_factory.mktemp("cli")
    contents = root / "contents"
    contents.mkdir()
    rng = np.random.default_rng(77)
    for i in range(6):
        write_ppm(contents / f"c{i}.ppm", smooth_image(rng, 16))
    style = root / "style.ppm"
    write_ppm(style, smooth_image(rng, 32))
    ckpt = root / "model.ckpt"
    code = main(["train", "--contents", str(contents), "--style", str(style),
                 "--out", str(ckpt), "--epochs", "0", "--size", "16",
                 "--seed", "3"])
    assert code == 0
    return {"root": root, "contents": contents, "style": style, "ckpt": ckpt,
            "rng": rng}


class TestTrainCommand:
    def test_outputs_exist(self, workspace):
        assert workspace["ckpt"].exists()
        assert (workspace["root"] / "model.ckpt.log.csv").exists()
        assert (workspace["root"] / "model.ckpt.manifest").exists()

    def test_manifest_records_resolved_config(self, workspace):
        text = (workspace["root"] / "model.ckpt.manifest").read_text()
        entries = dict(line.split("=", 1) for line in text.strip().splitlines())
        assert entries["command"] == "train"
        assert entries["epochs"] == "0"
        assert entries["seed"] == "3"
        assert entries["lam_c"] == "0.025"
        assert entries["lam_tv"] == "0.5"
        assert entries["lr"] == "1e-05"
        assert float(entries["style0.lam_s"]) > 0

    def test_bit_reproducible(self, workspace, tmp_path):
        out1, out2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        argv = ["train", "--contents", str(workspace["contents"]),
                "--style", str(workspace["style"]), "--epochs", "1",
                "--size", "16", "--seed", "5"]
        assert main(argv + ["--out", str(out1)]) == 0
        assert main(argv + ["--out", str(out2)]) == 0
        assert out1.read_bytes() == out2.read_bytes()
        log1 = (tmp_path / "a.ckpt.log.csv").read_text()
        log2 = (tmp_path / "b.ckpt.log.csv").read_text()
        assert log1 == log2

    def test_missing_contents_dir_exits_3(self, workspace, tmp_path, capsys):
        code = main(["train", "--contents", str(tmp_path / "nope"),
                     "--style", str(workspace["style"]),
                     "--out", str(tmp_path / "x.ckpt")])
        assert code == 3
        assert "nope" in capsys.readouterr().err

    def test_style_too_small_to_pad_exits_3(self, workspace, tmp_path, capsys):
        style = tmp_path / "tiny.ppm"
        write_ppm(style, smooth_image(np.random.default_rng(0), 3))
        code = main(["train", "--contents", str(workspace["contents"]),
                     "--style", str(style), "--out", str(tmp_path / "x.ckpt")])
        assert code == 3
        err = capsys.readouterr().err
        assert err.count("\n") == 1 and "too small" in err

    def test_missing_required_flag_exits_2(self, workspace):
        with pytest.raises(SystemExit) as exc:
            main(["train", "--contents", str(workspace["contents"])])
        assert exc.value.code == 2

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_exits_4_with_last_good_checkpoint(
            self, workspace, tmp_path, capsys, monkeypatch):
        # an infinite step size turns the weights non-finite in epoch 1, so
        # the checkpoint saved is the one from before it: the init
        monkeypatch.setattr("gradstyle.training.ADAM_LR", np.inf)
        out = tmp_path / "x.ckpt"
        assert main(["train", "--contents", str(workspace["contents"]),
                     "--style", str(workspace["style"]), "--out", str(out),
                     "--epochs", "1", "--size", "16", "--seed", "4"]) == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].endswith("(last good checkpoint saved)")
        saved = load_checkpoint(out).parameters()
        init = init_model(4).parameters()
        assert len(saved) == len(init)
        for s, p in zip(saved, init):
            np.testing.assert_array_equal(s.data,
                                          p.data.astype(np.float32))
        assert not (tmp_path / "x.ckpt.log.csv").exists()


class TestStylizeCommand:
    def test_alpha_zero_roundtrips_input(self, workspace, tmp_path):
        inp = tmp_path / "in.ppm"
        write_ppm(inp, smooth_image(np.random.default_rng(5), 16))
        out = tmp_path / "out.ppm"
        code = main(["stylize", "--model", str(workspace["ckpt"]),
                     "--input", str(inp), "--output", str(out),
                     "--alpha", "0"])
        assert code == 0
        assert out.read_bytes() == inp.read_bytes()

    def test_deterministic_output(self, workspace, tmp_path):
        inp = tmp_path / "in.ppm"
        write_ppm(inp, smooth_image(np.random.default_rng(6), 16))
        outs = []
        for name in ("o1.ppm", "o2.ppm"):
            out = tmp_path / name
            assert main(["stylize", "--model", str(workspace["ckpt"]),
                         "--input", str(inp), "--output", str(out)]) == 0
            outs.append(out.read_bytes())
        assert outs[0] == outs[1]

    def test_photoreal_defaults(self, workspace, tmp_path):
        inp = tmp_path / "in.ppm"
        write_ppm(inp, smooth_image(np.random.default_rng(7), 16))
        out = tmp_path / "photo.ppm"
        code = main(["stylize", "--model", str(workspace["ckpt"]),
                     "--input", str(inp), "--output", str(out), "--photoreal"])
        assert code == 0
        entries = dict(line.split("=", 1) for line in
                       (tmp_path / "photo.ppm.manifest").read_text().strip().splitlines())
        assert entries["alpha"] == "1.2"
        assert entries["cheb_order"] == "5"
        assert entries["lambda_star_frac"] == "0.2"
        assert entries["matting_eps"] == "1e-05"

    def test_alpha_override_with_photoreal(self, workspace, tmp_path):
        inp = tmp_path / "in.ppm"
        write_ppm(inp, smooth_image(np.random.default_rng(8), 16))
        out = tmp_path / "p2.ppm"
        assert main(["stylize", "--model", str(workspace["ckpt"]),
                     "--input", str(inp), "--output", str(out),
                     "--photoreal", "--alpha", "0.7"]) == 0
        entries = dict(line.split("=", 1) for line in
                       (tmp_path / "p2.ppm.manifest").read_text().strip().splitlines())
        assert entries["alpha"] == "0.7"

    def test_photoreal_with_odd_deepest_level(self, workspace, tmp_path):
        # 100 pads to 104, whose 1/8 level is 13 pixels wide
        inp = tmp_path / "in.ppm"
        write_ppm(inp, smooth_image(np.random.default_rng(14), 100))
        out = tmp_path / "o.ppm"
        assert main(["stylize", "--model", str(workspace["ckpt"]),
                     "--input", str(inp), "--output", str(out),
                     "--photoreal"]) == 0
        assert read_image(out).shape == (3, 100, 100)

    def test_style_id_out_of_range_exits_2(self, workspace, tmp_path):
        inp = tmp_path / "in.ppm"
        write_ppm(inp, smooth_image(np.random.default_rng(9), 16))
        code = main(["stylize", "--model", str(workspace["ckpt"]),
                     "--input", str(inp), "--output", str(tmp_path / "o.ppm"),
                     "--style-id", "5"])
        assert code == 2

    def test_corrupt_model_exits_3(self, workspace, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"garbage")
        inp = tmp_path / "in.ppm"
        write_ppm(inp, smooth_image(np.random.default_rng(10), 16))
        assert main(["stylize", "--model", str(bad), "--input", str(inp),
                     "--output", str(tmp_path / "o.ppm")]) == 3

    def test_malformed_style_weight_exits_3(self, tmp_path, capsys):
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(init_model(0), ckpt)
        data = bytearray(ckpt.read_bytes())
        data[48:56] = struct.pack("<d", np.nan)     # style 0's lam_s
        ckpt.write_bytes(bytes(data))
        inp = tmp_path / "in.ppm"
        write_ppm(inp, smooth_image(np.random.default_rng(17), 16))
        assert main(["stylize", "--model", str(ckpt), "--input", str(inp),
                     "--output", str(tmp_path / "o.ppm")]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and "style weight" in lines[0]

    @pytest.mark.parametrize("flag", ["--content-mask", "--blend-mask"])
    def test_missing_mask_exits_3_before_the_pyramid(self, workspace, tmp_path,
                                                     monkeypatch, flag):
        def refuse(*args, **kwargs):
            raise AssertionError("masks are read before the pyramid is built")
        monkeypatch.setattr(cli, "build_pyramid", refuse)
        inp = tmp_path / "in.ppm"
        write_ppm(inp, smooth_image(np.random.default_rng(16), 16))
        assert main(["stylize", "--model", str(workspace["ckpt"]),
                     "--input", str(inp), "--output", str(tmp_path / "o.ppm"),
                     "--photoreal", flag, str(tmp_path / "missing.ppm")]) == 3

    @pytest.mark.filterwarnings("error")
    def test_non_finite_values_exit_4(self, workspace, tmp_path, capsys):
        # a readable checkpoint whose weights overflow the forward pass is
        # numeric divergence, not an I/O failure; the overflow is reported
        # as one line naming the step, with no NumPy warning before it
        model = load_checkpoint(workspace["ckpt"])
        for layer in model.fwd:
            layer.kernel.data *= 1e30
        huge = tmp_path / "huge.ckpt"
        save_checkpoint(model, huge)
        inp = tmp_path / "in.ppm"
        write_ppm(inp, smooth_image(np.random.default_rng(15), 16))
        assert main(["stylize", "--model", str(huge), "--input", str(inp),
                     "--output", str(tmp_path / "o.ppm")]) == 4
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1
        assert lines[0].startswith(
            "gradstyle: descent step 0 produced non-finite values: ")


class TestCompareCommand:
    def test_zero_iters_content_init(self, workspace, tmp_path):
        inp = tmp_path / "in.ppm"
        write_ppm(inp, smooth_image(np.random.default_rng(11), 16))
        out_csv = tmp_path / "cmp.csv"
        code = main(["compare", "--model", str(workspace["ckpt"]),
                     "--input", str(inp), "--style-id", "0", "--iters", "0",
                     "--init", "content", "--out", str(out_csv)])
        assert code == 0
        lines = out_csv.read_text().strip().splitlines()
        assert lines[0] == "method,iter,total,content,style,tv"
        assert len(lines) == 3  # one gd row (iter 0) + one network row
        gd = lines[1].split(",")
        net = lines[2].split(",")
        assert gd[0] == "gd" and int(gd[1]) == 0
        assert net[0] == "network" and int(net[1]) == NUM_STEPS

        # the gd row at iteration 0 equals the loss at the content init,
        # recomputed independently through the public API
        model = load_checkpoint(workspace["ckpt"])
        fe = default_extractor(model.extractor_seed)
        content = Tensor(read_image(inp))
        target = model.styles[0].target
        feats = extract_features(content, fe)
        _, parts = total_loss(content, feats, target, fe)
        assert float(gd[2]) == pytest.approx(parts.total, rel=1e-12)

        # and the network row matches four descent steps plus the same loss
        x = content
        for t in range(NUM_STEPS):
            x = descent_step(x, t, model, 0)
        _, net_parts = total_loss(x, feats, target, fe)
        assert float(net[2]) == pytest.approx(net_parts.total, rel=1e-12)

    def test_both_init_modes_share_format(self, workspace, tmp_path):
        inp = tmp_path / "in.ppm"
        write_ppm(inp, smooth_image(np.random.default_rng(12), 16))
        headers, bodies = [], []
        for mode in ("content", "noise"):
            csv_path = tmp_path / f"{mode}.csv"
            assert main(["compare", "--model", str(workspace["ckpt"]),
                         "--input", str(inp), "--style-id", "0",
                         "--iters", "2", "--mu", "0.1", "--init", mode,
                         "--out", str(csv_path)]) == 0
            lines = csv_path.read_text().strip().splitlines()
            headers.append(lines[0])
            bodies.append(lines[1:])
        assert headers[0] == headers[1]
        assert bodies[0] != bodies[1]

    def test_deterministic_with_manifest(self, workspace, tmp_path):
        inp = tmp_path / "in.ppm"
        write_ppm(inp, smooth_image(np.random.default_rng(13), 16))
        blobs = []
        for name in ("r1.csv", "r2.csv"):
            csv_path = tmp_path / name
            assert main(["compare", "--model", str(workspace["ckpt"]),
                         "--input", str(inp), "--style-id", "0",
                         "--iters", "1", "--init", "noise", "--seed", "4",
                         "--out", str(csv_path)]) == 0
            blobs.append(csv_path.read_bytes())
        assert blobs[0] == blobs[1]


    def test_content_features_extracted_once(self, workspace, tmp_path,
                                             monkeypatch):
        # the descent rows and the network row score against one extraction
        # of the content's features
        extracted, scored = [], []

        def extract(x, fe):
            extracted.append(content_features(x, fe))
            return extracted[-1]

        def score(x, c_feats, target, fe):
            scored.append(c_feats)
            return total_loss(x, c_feats, target, fe)

        monkeypatch.setattr(cli, "content_features", extract)
        monkeypatch.setattr(solver, "total_loss", score)
        inp = tmp_path / "in.ppm"
        write_ppm(inp, smooth_image(np.random.default_rng(15), 16))
        assert main(["compare", "--model", str(workspace["ckpt"]),
                     "--input", str(inp), "--iters", "2",
                     "--out", str(tmp_path / "cmp.csv")]) == 0
        assert len(extracted) == 1
        assert scored and all(feats is extracted[0] for feats in scored)

    @pytest.mark.parametrize("case", ["2 layers", "6 layers", "NaN entry"])
    def test_malformed_gram_targets_exit_3(self, tmp_path, capsys, case):
        ckpt = tmp_path / "m.ckpt"
        save_bad_gram_checkpoint(ckpt, case)
        inp = tmp_path / "in.ppm"
        write_ppm(inp, smooth_image(np.random.default_rng(14), 16))
        assert main(["compare", "--model", str(ckpt), "--input", str(inp),
                     "--iters", "1", "--mu", "0.1"]) == 3
        lines = capsys.readouterr().err.splitlines()
        assert len(lines) == 1 and lines[0].startswith("gradstyle: ")


class TestInspectCommand:
    def test_canonical_counts_line(self, workspace, capsys):
        assert main(["inspect", "--model", str(workspace["ckpt"])]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "194755 / 21760 / 281795"
        assert "style 0" in out

    def test_corrupt_file_exits_3(self, tmp_path):
        bad = tmp_path / "bad.ckpt"
        bad.write_bytes(b"nope")
        assert main(["inspect", "--model", str(bad)]) == 3

    def test_unknown_command_exits_2(self):
        with pytest.raises(SystemExit) as exc:
            main(["frobnicate"])
        assert exc.value.code == 2


_STYLIZE = ["stylize", "--model", "m.ckpt", "--input", "in.ppm",
            "--output", "out.ppm"]
_TRAIN = ["train", "--contents", "dir", "--style", "s.ppm", "--out", "m.ckpt"]
_COMPARE = ["compare", "--model", "m.ckpt", "--input", "in.ppm"]


@pytest.mark.parametrize("argv", [
    _STYLIZE + ["--cheb-order", "0"],
    _STYLIZE + ["--lambda-star-frac", "1.5"],
    _STYLIZE + ["--lambda-star-frac", "0"],
    _STYLIZE + ["--gf-radius", "0"],
    _STYLIZE + ["--gf-eps", "0"],
    _STYLIZE + ["--matting-eps", "-1"],
    _STYLIZE + ["--matting-eps", "inf"],
    _STYLIZE + ["--alpha", "-1"],
    _STYLIZE + ["--alpha", "nan"],
    _STYLIZE + ["--alpha", "inf"],
    _TRAIN + ["--epochs", "-1"],
    _TRAIN + ["--size", "12"],
    _TRAIN + ["--size", "24"],
    _TRAIN + ["--size", "0"],
    _TRAIN + ["--seed", "-1"],
    _TRAIN + ["--seed", str(2**64)],
    _COMPARE + ["--iters", "-1"],
    _COMPARE + ["--iters", "1", "--seed", "-1"],
    _COMPARE + ["--iters", "1", "--mu", "0"],
    _COMPARE + ["--iters", "1", "--mu", "nan"],
    _COMPARE + ["--iters", "1", "--init", "bogus"],
], ids=lambda argv: " ".join([argv[0]] + argv[-2:]))
def test_invalid_flag_values_exit_2(argv):
    # rejected while parsing, before any file is opened
    with pytest.raises(SystemExit) as exc:
        main(argv)
    assert exc.value.code == 2


_SPARSE_PROBE = """
import sys

import gradstyle
import gradstyle.cli

contents, style, image, root = sys.argv[1:]
ckpt = root + "/m.ckpt"


def run(*argv):
    code = gradstyle.cli.main(list(argv))
    assert code == 0, (argv, code)


run("train", "--contents", contents, "--style", style, "--out", ckpt,
    "--epochs", "0", "--size", "32")
run("inspect", "--model", ckpt)
run("stylize", "--model", ckpt, "--input", image, "--output", root + "/a.ppm")
run("compare", "--model", ckpt, "--input", image, "--iters", "1",
    "--mu", "0.1", "--out", root + "/c.csv")
loaded = ["scipy.sparse" in sys.modules]
run("stylize", "--model", ckpt, "--input", image, "--output", root + "/p.ppm",
    "--photoreal")
loaded.append("scipy.sparse" in sys.modules)
print(loaded)
"""


def test_only_photoreal_loads_scipy_sparse(tmp_path):
    # a fresh interpreter: this one has imported scipy.sparse for the oracles
    rng = np.random.default_rng(17)
    contents = tmp_path / "contents"
    contents.mkdir()
    write_ppm(contents / "c0.ppm", smooth_image(rng, 32))
    write_ppm(tmp_path / "style.ppm", smooth_image(rng, 32))
    src = str(pathlib.Path(gradstyle.__file__).resolve().parent.parent)
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (src, env.get("PYTHONPATH")) if p)
    proc = subprocess.run(
        [sys.executable, "-c", _SPARSE_PROBE, str(contents),
         str(tmp_path / "style.ppm"), str(contents / "c0.ppm"), str(tmp_path)],
        env=env, capture_output=True, text=True, timeout=300)
    assert proc.returncode == 0, proc.stderr
    assert proc.stdout.splitlines()[-1] == "[False, True]"
