"""Acceptance suite: one test per release criterion, each printing a
PASS/FAIL line and enforcing its stated tolerance and runtime budget."""

import contextlib
import csv
import time

import numpy as np

import oracles
from oracles import IdentityHooks, descend, descent_iterates, exact_projector
from conftest import make_small_extractor, smooth_image
import gradstyle.cli as cli
from gradstyle.cli import main
from gradstyle.graphfilter import (
    jackson_cheb_coeffs,
    matting_laplacian,
)
from gradstyle.imagecodec import decode_bytes, encode_bytes, write_ppm
from gradstyle.network import (
    InferenceOptions,
    backward_map,
    descent_step,
    forward_maps,
    init_model,
    style_correction,
    stylize,
)
from gradstyle.perceptual import (
    build_mask_pyramid,
    build_style_target,
    extract_features,
    style_loss,
    total_loss,
)
from gradstyle.solver import DescentConfig
from gradstyle.tensor import GradTape, Tensor, backward, masked_gram
from gradstyle.training import load_checkpoint, save_checkpoint


@contextlib.contextmanager
def criterion(num, budget_s, label):
    start = time.monotonic()
    try:
        yield
    except BaseException:
        print(f"ACCEPTANCE {num}: FAIL — {label}")
        raise
    elapsed = time.monotonic() - start
    assert elapsed < budget_s, f"criterion {num} took {elapsed:.1f}s"
    print(f"ACCEPTANCE {num}: PASS — {label} ({elapsed:.1f}s)")


def test_criterion_1_parameter_reconstruction(tmp_path, capsys):
    with criterion(1, 1.0, "inspect prints 194755 / 21760 / 281795"):
        ckpt = tmp_path / "canonical.ckpt"
        save_checkpoint(init_model(seed=0), ckpt)
        assert main(["inspect", "--model", str(ckpt)]) == 0
        out = capsys.readouterr().out
        assert out.splitlines()[0] == "194755 / 21760 / 281795"


def test_criterion_2_gradient_correctness():
    with criterion(2, 120.0, "analytic gradients match finite differences"):
        rng = np.random.default_rng(42)
        # the full-depth extractor needs 16-divisible inputs, so the 8x8
        # checks run on a seeded 3-level extractor with the same loss forms
        fe = make_small_extractor(seed=5)
        content = Tensor(rng.uniform(0.15, 0.85, (3, 8, 8)))
        target = build_style_target(rng.uniform(0.1, 0.9, (3, 8, 8)), fe)
        c_feats = extract_features(content, fe)

        # (a) objective gradient w.r.t. the image, rel err <= 1e-4
        x = Tensor(rng.uniform(0.15, 0.85, (3, 8, 8)))
        with GradTape() as tape:
            loss, _ = total_loss(x, c_feats, target, fe)
            g_img = backward(tape, loss)[x]
        numeric = oracles.numeric_grad(
            lambda: total_loss(x, c_feats, target, fe)[0].item(), x.data)
        assert oracles.rel_err(g_img, numeric) <= 1e-4

        # (b) >= 50 weights spanning all 24 parameter groups, rel err <= 1e-3
        model = init_model(seed=3)
        for t in range(4):
            for l in range(4):
                h = model.styles[0].h[t][l]
                h.data[:] = 0.01 * rng.standard_normal(h.shape)

        def run_loss():
            z = content
            for t in range(4):
                z = descent_step(z, t, model, 0)
            return total_loss(z, c_feats, target, fe)[0]

        with GradTape() as tape:
            grads = backward(tape, run_loss())
        groups = model.param_groups()
        assert len(groups) == 24
        checked = 0
        for name, params in groups.items():
            p = params[0]
            flat = p.data.reshape(-1)
            idxs = rng.choice(flat.size, size=min(3, flat.size), replace=False)
            for idx in idxs:
                analytic = grads[p].reshape(-1)[idx]
                old = flat[idx]
                flat[idx] = old + 1e-5
                lp = run_loss().item()
                flat[idx] = old - 1e-5
                lm = run_loss().item()
                flat[idx] = old
                num = (lp - lm) / 2e-5
                rel = abs(analytic - num) / max(abs(analytic), abs(num), 1e-8)
                assert rel <= 1e-3, f"{name}[{idx}]: {analytic} vs {num}"
                checked += 1
        assert checked >= 50


def test_criterion_3_matting_laplacian_invariants():
    with criterion(3, 60.0, "matting Laplacian structure and dense-oracle match"):
        for seed in range(20):
            img = np.random.default_rng(seed).uniform(0, 1, (3, 8, 8))
            lap = matting_laplacian(img, epsilon=1e-5)
            dense = lap.mat.toarray()
            assert np.max(np.abs(dense - dense.T)) <= 1e-10
            assert np.max(np.abs(dense.sum(axis=1))) <= 1e-8
            assert np.linalg.eigvalsh((dense + dense.T) / 2).min() >= -1e-8
            assert np.diff(lap.mat.indptr).max() <= 25
            ref = oracles.matting_laplacian_dense(img, 1e-5)
            assert np.max(np.abs(dense - ref)) <= 1e-10


def test_criterion_4_spectral_filter_fidelity():
    with criterion(4, 120.0, "polynomial filtering matches the spectral oracle"):
        for seed in range(10):
            img = np.random.default_rng(seed).uniform(0, 1, (3, 8, 8))
            lap = matting_laplacian(img)
            star = 0.2 * lap.lambda_max
            f5 = jackson_cheb_coeffs(5, star, lap.lambda_max)
            sig = np.random.default_rng(seed + 500).standard_normal(lap.n)
            sig /= np.linalg.norm(sig)
            from gradstyle.graphfilter import apply_poly_filter
            out = apply_poly_filter(lap, f5, sig)
            ref = oracles.spectral_filter_dense(lap.mat.toarray(), f5.response,
                                                sig)
            assert np.max(np.abs(out - ref)) <= 1e-8

            lams = np.linalg.eigvalsh(lap.mat.toarray())
            ideal = (lams <= star).astype(float)
            f50 = jackson_cheb_coeffs(50, star, lap.lambda_max)
            err5 = np.max(np.abs(f5.response(lams) - ideal))
            err50 = np.max(np.abs(f50.response(lams) - ideal))
            assert err50 < err5

            assert f5.response(0.0) >= 0.8
            assert f5.response(lap.lambda_max) <= 0.2


def test_criterion_5_projected_descent_bandlimitedness():
    with criterion(5, 60.0, "projected iterates stay bandlimited"):
        rng = np.random.default_rng(11)
        fe = make_small_extractor()
        content = rng.uniform(0.1, 0.9, (3, 8, 8))
        target = build_style_target(rng.uniform(0.1, 0.9, (3, 8, 8)), fe)
        lap = matting_laplacian(content)
        projector = exact_projector(lap, 0.2 * lap.lambda_max)
        cfg = DescentConfig(iters=5, mu=0.5, projector=projector)
        for it in descent_iterates(content, target, fe, cfg):
            for c in range(3):
                v = it[c].reshape(-1)
                r = v - projector(v)
                assert r @ r <= 1e-10 * (v @ v)

        # with the threshold at/above the top eigenvalue, projection is the
        # identity and the trajectories agree bit for bit
        wide = exact_projector(lap, lap.lambda_max * 1.01)
        assert wide.is_identity
        plain_cfg = DescentConfig(iters=4, mu=0.5)
        proj_cfg = DescentConfig(iters=4, mu=0.5, projector=wide)
        plain = descend(content, target, fe, plain_cfg)
        proj = descend(content, target, fe, proj_cfg)
        for a, b in zip(descent_iterates(content, target, fe, plain_cfg),
                        descent_iterates(content, target, fe, proj_cfg)):
            assert np.array_equal(a, b)
        for a, b in zip(plain.trajectory, proj.trajectory):
            assert (a.total, a.content, a.style, a.tv) == \
                (b.total, b.content, b.style, b.tv)


def test_criterion_6_training_progress(tmp_path):
    with criterion(6, 900.0, "desk training lowers the objective and beats "
                             "one tuned descent step"):
        contents = tmp_path / "contents"
        contents.mkdir()
        rng = np.random.default_rng(42)
        for i in range(20):
            write_ppm(contents / f"c{i:02d}.ppm", smooth_image(rng, 64))
        style_p = tmp_path / "style.ppm"
        write_ppm(style_p, smooth_image(rng, 64))
        held_p = tmp_path / "held.ppm"
        write_ppm(held_p, smooth_image(np.random.default_rng(999), 64))

        ckpt = tmp_path / "desk.ckpt"
        assert main(["train", "--contents", str(contents),
                     "--style", str(style_p), "--out", str(ckpt),
                     "--epochs", "2", "--size", "64", "--seed", "0"]) == 0
        with open(f"{ckpt}.log.csv", newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["epoch"] == "0" and rows[-1]["epoch"] == "2"
        assert float(rows[-1]["val_total"]) < float(rows[0]["val_total"])

        cmp_p = tmp_path / "cmp.csv"
        assert main(["compare", "--model", str(ckpt), "--input", str(held_p),
                     "--style-id", "0", "--iters", "1", "--init", "content",
                     "--out", str(cmp_p)]) == 0
        with open(cmp_p, newline="") as fh:
            crows = list(csv.DictReader(fh))
        gd1 = [float(r["total"]) for r in crows
               if r["method"] == "gd" and r["iter"] == "1"]
        net = [float(r["total"]) for r in crows if r["method"] == "network"]
        assert len(gd1) == 1 and len(net) == 1
        assert net[0] < gd1[0]


def test_criterion_7_runtime_restructuring_identities():
    with criterion(7, 60.0, "alpha=0, all-ones masks and identity hooks are "
                            "exact no-ops"):
        rng = np.random.default_rng(5)
        model = init_model(seed=2)
        for t in range(4):
            for l in range(4):
                h = model.styles[0].h[t][l]
                h.data[:] = 0.02 * rng.standard_normal(h.shape)
        x = Tensor(rng.uniform(0.05, 0.95, (3, 16, 16)))

        # intensity zero returns the input exactly
        out = descent_step(x, 0, model, 0, InferenceOptions(alpha=0.0))
        assert np.array_equal(out.data, x.data)
        assert np.array_equal(stylize(x.data, model, 0,
                                      InferenceOptions(alpha=0.0)),
                              x.data)

        # all-ones masks reproduce every unmasked computation to 1e-12
        feats = forward_maps(x, model)
        ones_pix = np.ones(feats[0].data[0].size)
        g_plain = masked_gram(feats[0]).data
        g_ones = masked_gram(feats[0], ones_pix).data
        assert np.max(np.abs(g_plain - g_ones)) <= 1e-12

        fe = make_small_extractor(seed=9, channels=(4, 8, 8))
        xf = extract_features(Tensor(rng.uniform(0.1, 0.9, (3, 16, 16))), fe)
        target = build_style_target(rng.uniform(0.1, 0.9, (3, 16, 16)), fe)
        ones_pyr = build_mask_pyramid(np.ones((16, 16)), fe.depth)
        assert abs(style_loss(xf, target, fe, ones_pyr).item()
                   - style_loss(xf, target, fe).item()) <= 1e-12

        corr_plain = style_correction(feats[1], model.styles[0].h[0][1])
        ones1 = np.ones(feats[1].data[0].size)
        corr_ones = style_correction(feats[1], model.styles[0].h[0][1], ones1)
        assert np.max(np.abs(corr_plain.data - corr_ones.data)) <= 1e-12

        # identity filter hooks reproduce the unfiltered network bitwise
        corrections = [style_correction(f, model.styles[0].h[0][l])
                       for l, f in enumerate(feats)]
        plain = backward_map(corrections, model)
        hooked = backward_map(corrections, model, IdentityHooks())
        assert np.array_equal(plain.data, hooked.data)
        s_plain = stylize(x.data, model)
        s_hooked = stylize(x.data, model, 0,
                           InferenceOptions(filter_hooks=IdentityHooks()))
        assert np.array_equal(s_plain, s_hooked)


def test_criterion_8_photoreal_feasibility(tmp_path, monkeypatch):
    with criterion(8, 60.0, "256x256 photoreal run: sparse-only, 5 mat-vecs "
                            "per filtered channel"):
        rng = np.random.default_rng(0)
        inp = tmp_path / "big.ppm"
        write_ppm(inp, smooth_image(rng, 256, waves=4))
        model = init_model(seed=1)
        r2 = np.random.default_rng(7)
        for t in range(4):
            for l in range(4):
                h = model.styles[0].h[t][l]
                h.data[:] = 0.01 * r2.standard_normal(h.shape)
        ckpt = tmp_path / "m.ckpt"
        save_checkpoint(model, ckpt)

        captured = {}
        orig_build = cli.build_pyramid

        def spy_build(*a, **k):
            pyr = orig_build(*a, **k)
            captured["pyr"] = pyr
            captured["after_build"] = [lap.matvec_count
                                       for lap in pyr.laplacians]
            return pyr

        monkeypatch.setattr(cli, "build_pyramid", spy_build)

        def forbidden(*args, **kwargs):
            raise AssertionError("dense eigendecomposition in photoreal path")

        for name in ("eigh", "eig", "eigvalsh", "eigvals", "svd"):
            monkeypatch.setattr(np.linalg, name, forbidden)

        start = time.monotonic()
        assert main(["stylize", "--model", str(ckpt), "--input", str(inp),
                     "--output", str(tmp_path / "out.ppm"),
                     "--photoreal"]) == 0
        assert time.monotonic() - start < 60.0

        pyr = captured["pyr"]
        assert pyr.laplacians[0].n == 65_536
        # per pass: corrections with 16/32/64/128 channels plus conv outputs
        # with 3/16/32/64 channels, each filtered once per of the 4 passes
        per_level_maps = [16 + 3, 32 + 16, 64 + 32, 128 + 64]
        for lvl, lap in enumerate(pyr.laplacians):
            delta = lap.matvec_count - captured["after_build"][lvl]
            assert delta == 5 * per_level_maps[lvl] * 4


def test_criterion_9_serialization_and_determinism(tmp_path):
    with criterion(9, 60.0, "bit-exact checkpoints, reproducible commands, "
                            "exact codec round-trip"):
        rng = np.random.default_rng(3)
        contents = tmp_path / "contents"
        contents.mkdir()
        for i in range(4):
            write_ppm(contents / f"c{i}.ppm", smooth_image(rng, 16))
        style_p = tmp_path / "style.ppm"
        write_ppm(style_p, smooth_image(rng, 32))

        # repeating the identical command reproduces every artifact,
        # manifest included
        ckpt = tmp_path / "x.ckpt"
        argv = ["train", "--contents", str(contents), "--style", str(style_p),
                "--out", str(ckpt), "--epochs", "1", "--size", "16",
                "--seed", "7"]
        blobs = []
        for _ in range(2):
            assert main(argv) == 0
            blobs.append((ckpt.read_bytes(),
                          (tmp_path / "x.ckpt.log.csv").read_bytes(),
                          (tmp_path / "x.ckpt.manifest").read_bytes()))
        assert blobs[0] == blobs[1]
        resaved = tmp_path / "resaved.ckpt"
        save_checkpoint(load_checkpoint(ckpt), resaved)
        assert resaved.read_bytes() == ckpt.read_bytes()

        # stylize and compare are bit-reproducible
        inp = tmp_path / "in.ppm"
        write_ppm(inp, smooth_image(np.random.default_rng(8), 16))
        outs = []
        for name in ("s1.ppm", "s2.ppm"):
            assert main(["stylize", "--model", str(ckpt), "--input", str(inp),
                         "--output", str(tmp_path / name)]) == 0
            outs.append((tmp_path / name).read_bytes())
        assert outs[0] == outs[1]
        cmps = []
        for name in ("t1.csv", "t2.csv"):
            assert main(["compare", "--model", str(ckpt), "--input", str(inp),
                         "--style-id", "0", "--iters", "2", "--init", "noise",
                         "--seed", "5", "--out", str(tmp_path / name)]) == 0
            cmps.append((tmp_path / name).read_bytes())
        assert cmps[0] == cmps[1]

        # codec quantization round-trips raw bytes exactly
        raw = np.random.default_rng(9).integers(
            0, 256, size=12 * 10 * 3, dtype=np.uint8).tobytes()
        assert encode_bytes(decode_bytes(raw, 12, 10)) == raw
