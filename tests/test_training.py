import struct
from dataclasses import replace

import numpy as np
import pytest

from conftest import BAD_GRAM_SIDES, save_bad_gram_checkpoint, smooth_image
from gradstyle import tensor, training
from gradstyle.imagecodec import write_ppm
from gradstyle.network import init_model
from gradstyle.perceptual import (
    build_style_target,
    default_extractor,
    extract_features,
    style_loss,
)
from gradstyle.tensor import DivergenceError, NonFiniteError, Tensor
from gradstyle.training import (
    ADAM_LR,
    AdamState,
    CheckpointError,
    TrainConfig,
    adam_step,
    load_checkpoint,
    load_content_set,
    resize_bilinear,
    save_checkpoint,
    train,
    write_training_log,
)

HEADER_BYTES = 48
FB_WEIGHTS = 194_755
STYLE_WEIGHTS_PER_STEP = 21_760


def snapshot(model):
    return [p.data.copy() for p in model.parameters()]


def assert_same_weights(model, snap):
    for p, s in zip(model.parameters(), snap):
        np.testing.assert_array_equal(p.data, s)


def make_content_dir(tmp_path, count=6, side=24, seed=0):
    d = tmp_path / "contents"
    d.mkdir()
    rng = np.random.default_rng(seed)
    for i in range(count):
        write_ppm(d / f"img_{i:02d}.ppm", smooth_image(rng, side))
    return d


class TestAdam:
    def test_zero_grad_zero_state_unchanged(self):
        p = Tensor(np.array([1.0, -2.0, 3.0]))
        state = AdamState([p])
        adam_step(state, [np.zeros(3)])
        np.testing.assert_array_equal(p.data, [1.0, -2.0, 3.0])

    def test_first_step_magnitude(self):
        p = Tensor(np.zeros(4))
        state = AdamState([p])
        g = np.array([0.5, -2.0, 10.0, 0.01])
        adam_step(state, [g])
        mag = np.abs(p.data)
        assert np.all(mag >= 0.9 * ADAM_LR) and np.all(mag <= ADAM_LR)
        assert np.all(np.sign(p.data) == -np.sign(g))

    def test_two_steps_match_hand_recurrence(self, rng):
        g = rng.standard_normal(5)
        p = Tensor(rng.standard_normal(5))
        expected = p.data.copy()
        state = AdamState([p])
        m = v = 0.0
        for t in (1, 2):
            adam_step(state, [g])
            m = 0.9 * m + 0.1 * g
            v = 0.999 * v + 0.001 * g * g
            mh = m / (1 - 0.9 ** t)
            vh = v / (1 - 0.999 ** t)
            expected = expected - ADAM_LR * mh / (np.sqrt(vh) + 1e-8)
        np.testing.assert_allclose(p.data, expected, atol=1e-15)

    def test_non_finite_gradient_aborts(self):
        p = Tensor(np.zeros(2))
        state = AdamState([p])
        with pytest.raises(NonFiniteError, match="Adam"):
            adam_step(state, [np.array([1.0, np.inf])])
        np.testing.assert_array_equal(p.data, 0.0)  # untouched
        assert state.step == 0


class TestResize:
    def test_identity_when_same_size(self, rng):
        data = rng.uniform(0, 1, (3, 7, 9))
        np.testing.assert_array_equal(resize_bilinear(data, 7, 9), data)

    def test_downscale_is_block_interpolation(self):
        data = np.arange(16.0).reshape(1, 4, 4)
        out = resize_bilinear(data, 2, 2)
        assert out.shape == (1, 2, 2)
        np.testing.assert_allclose(out, [[[2.5, 4.5], [10.5, 12.5]]])


class TestLoadContentSet:
    def test_crop_and_resize_rule(self, tmp_path, rng):
        img = rng.uniform(0, 1, (3, 60, 100))
        p = tmp_path / "wide.ppm"
        write_ppm(p, img)
        images, names = load_content_set(tmp_path, 32)
        assert names == ["wide.ppm"]
        assert images[0].shape == (3, 32, 32)
        # center crop keeps the middle 60x60 columns before resizing
        decoded = np.floor(img * 255 + 0.5) / 255.0
        expected = resize_bilinear(decoded[:, :, 20:80], 32, 32)
        np.testing.assert_allclose(images[0], expected, atol=1e-12)

    def test_square_passthrough(self, tmp_path, rng):
        img = rng.uniform(0, 1, (3, 16, 16))
        write_ppm(tmp_path / "sq.ppm", img)
        images, _ = load_content_set(tmp_path, 16)
        decoded = np.floor(img * 255 + 0.5) / 255.0
        assert isinstance(images[0], np.ndarray)
        np.testing.assert_array_equal(images[0], decoded)

    def test_deterministic_order_and_checksums(self, tmp_path):
        d = make_content_dir(tmp_path, count=3, side=16, seed=5)
        images1, names1 = load_content_set(d, 16)
        images2, names2 = load_content_set(d, 16)
        assert names1 == names2 == sorted(names1)
        for a, b in zip(images1, images2):
            np.testing.assert_array_equal(a, b)

    def test_undecodable_skipped_with_warning(self, tmp_path, rng):
        write_ppm(tmp_path / "good.ppm", rng.uniform(0, 1, (3, 8, 8)))
        (tmp_path / "junk.ppm").write_bytes(b"not an image")
        with pytest.warns(UserWarning, match="junk"):
            images, names = load_content_set(tmp_path, 8)
        assert names == ["good.ppm"]

    def test_empty_dir_rejected(self, tmp_path):
        with pytest.raises(ValueError, match="no decodable"):
            load_content_set(tmp_path, 8)


class TestTrain:
    def test_zero_epochs_model_unchanged(self, tmp_path, rng):
        contents = make_content_dir(tmp_path)
        model = init_model(0)
        snap = snapshot(model)
        rows = train(model, [(smooth_image(rng, 32), None)], contents,
                     TrainConfig(epochs=0, side=16))
        assert_same_weights(model, snap)
        assert len(rows) == 1               # epoch 0: before any step

    def test_zero_lr_model_and_validation_constant(self, tmp_path, rng,
                                                  monkeypatch):
        monkeypatch.setattr(training, "ADAM_LR", 0.0)
        contents = make_content_dir(tmp_path)
        model = init_model(1)
        snap = snapshot(model)
        rows = train(model, [(smooth_image(rng, 32), None)], contents,
                     TrainConfig(epochs=1, side=16))
        assert_same_weights(model, snap)
        assert rows[1].total == rows[0].total

    def test_training_is_bit_deterministic(self, tmp_path, rng):
        contents = make_content_dir(tmp_path)
        style = smooth_image(rng, 32)
        cfg = TrainConfig(epochs=1, side=16, seed=9)
        m1, m2 = init_model(2), init_model(2)
        rows1 = train(m1, [(style, None)], contents, cfg)
        rows2 = train(m2, [(style, None)], contents, cfg)
        for a, b in zip(m1.parameters(), m2.parameters()):
            np.testing.assert_array_equal(a.data, b.data)
        assert [r.total for r in rows1] == [r.total for r in rows2]

    def test_runs_in_float64(self, tmp_path, rng, monkeypatch):
        # stylize's float32 direction must not reach training: every
        # primitive of the taped steps and of the validation rows is float64
        seen = set()
        emit = tensor._emit

        def spy(inputs, out_data, vjp, opname):
            seen.add((tensor._active_tape() is not None, out_data.dtype))
            return emit(inputs, out_data, vjp, opname)

        monkeypatch.setattr(tensor, "_emit", spy)
        train(init_model(4), [(smooth_image(rng, 32), None)],
              make_content_dir(tmp_path), TrainConfig(epochs=1, side=16))
        f64 = np.dtype(np.float64)
        assert seen == {(True, f64), (False, f64)}

    def test_weights_actually_move(self, tmp_path, rng):
        contents = make_content_dir(tmp_path)
        model = init_model(3)
        snap = snapshot(model)
        train(model, [(smooth_image(rng, 32), None)], contents,
              TrainConfig(epochs=1, side=16))
        moved = any(not np.array_equal(p.data, s)
                    for p, s in zip(model.parameters(), snap))
        assert moved

    @pytest.mark.parametrize("side", [0, 12, 24])
    def test_side_must_fit_the_extractor_pyramid(self, side):
        # the default extractor pools four times: sides are multiples of 16
        with pytest.raises(ValueError, match="multiple of 16"):
            TrainConfig(side=side)

    def test_style_count_mismatch_rejected(self, tmp_path, rng):
        contents = make_content_dir(tmp_path)
        with pytest.raises(ValueError, match="style slots"):
            train(init_model(0, n_styles=2), [(smooth_image(rng, 32), None)],
                  contents, TrainConfig(epochs=0, side=16))

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_divergence_aborts_with_last_good_snapshot(self, tmp_path, rng,
                                                       monkeypatch):
        # an infinite step size turns the weights non-finite, and the next
        # forward pass raises
        monkeypatch.setattr(training, "ADAM_LR", np.inf)
        contents = make_content_dir(tmp_path)
        model = init_model(6)
        snap = snapshot(model)
        with pytest.raises(DivergenceError, match="diverged") as excinfo:
            train(model, [(smooth_image(rng, 32), None)], contents,
                  TrainConfig(epochs=1, side=16))
        last_good = excinfo.value.last_good
        assert_same_weights(last_good, snap)  # pre-epoch snapshot preserved

    def test_initial_style_pull_within_factor_ten(self, rng):
        # the auto style weight normalizes the initial style term across styles
        fe = default_extractor(0)
        feats = extract_features(Tensor(smooth_image(rng, 32)), fe)
        terms = []
        for seed in range(4):
            r = np.random.default_rng(100 + seed)
            target = build_style_target(smooth_image(r, 32), fe)
            terms.append(target.lam_s * style_loss(feats, target, fe).item())
        assert max(terms) <= 10.0 * min(terms)


class TestCheckpoint:
    def _trained_model(self, tmp_path, rng, n_styles=1):
        contents = make_content_dir(tmp_path)
        model = init_model(4, n_styles=n_styles)
        styles = [(smooth_image(rng, 32), None) for _ in range(n_styles)]
        train(model, styles, contents, TrainConfig(epochs=0, side=16))
        return model

    def test_roundtrip_bit_exact(self, tmp_path, rng):
        model = self._trained_model(tmp_path, rng)
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(model, p1)
        loaded = load_checkpoint(p1)
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert loaded.extractor_seed == model.extractor_seed
        assert loaded.styles[0].target.lam_s == model.styles[0].target.lam_s

    def test_untrained_roundtrip_bit_exact(self, tmp_path):
        # an untrained style has no Grams and weight 1, and keeps both
        p1, p2 = tmp_path / "a.ckpt", tmp_path / "b.ckpt"
        save_checkpoint(init_model(0), p1)
        loaded = load_checkpoint(p1)
        save_checkpoint(loaded, p2)
        assert p1.read_bytes() == p2.read_bytes()
        assert loaded.styles[0].target.grams == []
        assert loaded.styles[0].target.lam_s == 1.0

    @pytest.mark.parametrize("lam_s", [0.0, -1.0, np.nan, np.inf])
    def test_malformed_style_weight_rejected(self, tmp_path, lam_s):
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_model(0), path)
        data = bytearray(path.read_bytes())
        # style 0's f64 lam_s follows the header
        data[HEADER_BYTES:HEADER_BYTES + 8] = struct.pack("<d", lam_s)
        path.write_bytes(bytes(data))
        with pytest.raises(ValueError, match="style weight"):
            load_checkpoint(path)

    @pytest.mark.parametrize("case", BAD_GRAM_SIDES)
    def test_malformed_gram_targets_rejected(self, tmp_path, case):
        # a Gram count or side other than the default extractor's, or a
        # non-finite entry, used to load and fail or mislead later
        path = tmp_path / "m.ckpt"
        save_bad_gram_checkpoint(path, case)
        with pytest.raises(ValueError, match="Gram target"):
            load_checkpoint(path)

    def test_quantization_applied_once(self, tmp_path, rng):
        model = self._trained_model(tmp_path, rng)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        loaded = load_checkpoint(path)
        for a, b in zip(model.parameters(), loaded.parameters()):
            np.testing.assert_array_equal(a.data.astype(np.float32), b.data)

    def test_file_size_formula(self, tmp_path, rng):
        model = self._trained_model(tmp_path, rng)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        gram_sides = [g.shape[0] for g in model.styles[0].target.grams]
        metadata = 8 + 4 + sum(4 + 8 * s * s for s in gram_sides)
        weights = 4 * (FB_WEIGHTS + 4 * STYLE_WEIGHTS_PER_STEP)
        assert path.stat().st_size == HEADER_BYTES + metadata + weights

    def test_two_style_size(self, tmp_path, rng):
        model = self._trained_model(tmp_path, rng, n_styles=2)
        path = tmp_path / "m2.ckpt"
        save_checkpoint(model, path)
        from gradstyle.network import param_count
        total = param_count(load_checkpoint(path))[2]
        assert total == FB_WEIGHTS + 2 * 4 * STYLE_WEIGHTS_PER_STEP

    def test_bad_magic_rejected(self, tmp_path, rng):
        model = self._trained_model(tmp_path, rng)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        data = bytearray(path.read_bytes())
        data[:4] = b"XXXX"
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="magic"):
            load_checkpoint(path)

    def test_unknown_version_rejected(self, tmp_path, rng):
        model = self._trained_model(tmp_path, rng)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        data = bytearray(path.read_bytes())
        data[4:6] = (99).to_bytes(2, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="version"):
            load_checkpoint(path)

    def test_header_bytes(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(replace(init_model(0, n_styles=2), extractor_seed=9), path)
        # magic, version 1, section 1, 4 levels, reserved 0, the channel
        # schedule, 2 styles, extractor seed 9, two reserved zero words
        expected = b"UNRL" + struct.pack("<HHHH4IIQII", 1, 1, 4, 0,
                                         16, 32, 64, 128, 2, 9, 0, 0)
        assert path.read_bytes()[:HEADER_BYTES] == expected

    def test_other_section_rejected(self, tmp_path):
        path = tmp_path / "m.ckpt"
        save_checkpoint(init_model(0), path)
        data = bytearray(path.read_bytes())
        assert data[6:8] == (1).to_bytes(2, "little")
        data[6:8] = (2).to_bytes(2, "little")
        path.write_bytes(bytes(data))
        with pytest.raises(CheckpointError, match="section"):
            load_checkpoint(path)

    def test_truncated_rejected(self, tmp_path, rng):
        model = self._trained_model(tmp_path, rng)
        path = tmp_path / "m.ckpt"
        save_checkpoint(model, path)
        path.write_bytes(path.read_bytes()[:1000])
        with pytest.raises(CheckpointError, match="truncated"):
            load_checkpoint(path)


def test_training_log_format(tmp_path, rng):
    from gradstyle.perceptual import LossParts
    rows = [LossParts(1.5, 0.5, 0.75, 0.25), LossParts(1.0, 0.3, 0.5, 0.2)]
    path = tmp_path / "log.csv"
    write_training_log(path, rows)
    lines = path.read_text().strip().splitlines()
    assert lines[0] == "epoch,val_total,val_content,val_style,val_tv"
    assert lines[1].startswith("0,1.5,")
    assert lines[2].startswith("1,1.0,")
    assert len(lines) == 3
