import sys
import threading
import warnings
from dataclasses import replace

import numpy as np
import pytest
import scipy.sparse as sp
from scipy.sparse._base import _spbase

import oracles
from conftest import smooth_image, traced_peak
from gradstyle import tensor
from gradstyle.graphfilter import build_pyramid
from gradstyle.guided import GuidedFilterParams
from gradstyle.network import (
    CHANNELS,
    NUM_STEPS,
    InferenceOptions,
    UnrolledModel,
    backward_map,
    descent_step,
    forward_maps,
    init_model,
    param_count,
    style_correction,
    stylize,
    unroll,
)
from gradstyle.perceptual import StyleTarget
from gradstyle.tensor import (
    GradTape,
    NonFiniteError,
    Tensor,
    avg_pool2,
    backward,
    bilinear_up2,
    mirror_pad,
    conv2d_reflect,
    lincomb,
    masked_gram,
    sqsum,
)


def zero_model(n_styles=1):
    model = init_model(0, n_styles)
    for layer in model.fwd + model.bwd:
        layer.kernel.data[:] = 0.0
        layer.bias.data[:] = 0.0
    return model


def seeded_model(seed=0, h_scale=0.02):
    model = init_model(seed)
    rng = np.random.default_rng(seed + 999)
    for t in range(4):
        for l in range(4):
            h = model.styles[0].h[t][l]
            h.data[:] = h_scale * rng.standard_normal(h.shape)
    return model


class TestForwardMaps:
    def test_shape_contract(self, rng):
        model = init_model(0)
        feats = forward_maps(Tensor(rng.uniform(0, 1, (3, 32, 32))), model)
        assert [f.shape for f in feats] == [
            (16, 32, 32), (32, 16, 16), (64, 8, 8), (128, 4, 4)]

    def test_channel_and_spatial_schedule(self, rng):
        feats = forward_maps(Tensor(rng.uniform(0, 1, (3, 16, 16))),
                             init_model(1))
        for l, f in enumerate(feats):
            assert f.shape == (16 * 2 ** l, 16 >> l, 16 >> l)
            assert f.shape[0] == CHANNELS[l]

    def test_zero_weights_zero_features(self, rng):
        feats = forward_maps(Tensor(rng.uniform(0, 1, (3, 16, 16))),
                             zero_model())
        for f in feats:
            np.testing.assert_array_equal(f.data, 0.0)

    def test_matches_manual_composition(self, rng):
        model = init_model(3)
        x = Tensor(rng.uniform(0, 1, (3, 16, 16)))
        feats = forward_maps(x, model)
        cur = x
        for i in range(4):
            cur = conv2d_reflect(cur, model.fwd[i])
            np.testing.assert_array_equal(feats[i].data, cur.data)
            if i < 3:
                cur = avg_pool2(cur)

    def test_non_multiple_of_8_rejected(self, rng):
        with pytest.raises(ValueError, match="multiples of 8"):
            forward_maps(Tensor(rng.uniform(0, 1, (3, 12, 12))), init_model(0))


class TestStyleCorrection:
    def test_gram_matched_matrix_gives_zero(self, rng):
        feat = Tensor(rng.standard_normal((4, 3, 3)))
        h = masked_gram(feat)
        out = style_correction(feat, h)
        np.testing.assert_allclose(out.data, 0.0, atol=1e-14)

    def test_all_ones_mask_equals_unmasked(self, rng):
        feat = Tensor(rng.standard_normal((4, 3, 3)))
        h = Tensor(rng.standard_normal((4, 4)))
        a = style_correction(feat, h)
        b = style_correction(feat, h, np.ones(9))
        np.testing.assert_array_equal(a.data, b.data)

    def test_matches_dense_oracle(self, rng):
        feat = Tensor(rng.standard_normal((4, 3, 3)))
        h = Tensor(rng.standard_normal((4, 4)))
        mask = np.array([1, 0, 1, 1, 1, 0, 1, 1, 1], dtype=float)
        out = style_correction(feat, h, mask)
        f2 = feat.data.reshape(4, 9).T
        g = oracles.gram_reference(feat.data, mask)
        ref = (f2 @ (g - h.data)).T.reshape(4, 3, 3)
        np.testing.assert_allclose(out.data, ref, atol=1e-12)

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="match"):
            style_correction(Tensor(rng.standard_normal((4, 3, 3))),
                             Tensor(np.zeros((3, 3))))


class TestBackwardMap:
    def _corrections(self, rng, side=16):
        return [Tensor(rng.standard_normal((CHANNELS[l], side >> l, side >> l)))
                for l in range(4)]

    def test_zero_weights_zero_direction(self, rng):
        out = backward_map(self._corrections(rng), zero_model())
        np.testing.assert_array_equal(out.data, 0.0)

    def test_identity_hooks_bitwise_equal(self, rng):
        model = init_model(5)
        corr = self._corrections(rng)
        plain = backward_map(corr, model)
        hooked = backward_map(corr, model, oracles.IdentityHooks())
        np.testing.assert_array_equal(plain.data, hooked.data)

    def test_matches_manual_composition(self, rng):
        model = init_model(6)
        c1, c2, c3, c4 = self._corrections(rng)
        b4 = conv2d_reflect(c4, model.bwd[0])
        b3 = conv2d_reflect(lincomb(c3, bilinear_up2(b4)), model.bwd[1])
        b2 = conv2d_reflect(lincomb(c2, bilinear_up2(b3)), model.bwd[2])
        g = conv2d_reflect(lincomb(c1, bilinear_up2(b2)), model.bwd[3])
        out = backward_map([c1, c2, c3, c4], model)
        np.testing.assert_array_equal(out.data, g.data)
        assert out.shape[0] == 3

    def test_last_layer_allows_negative(self, rng):
        out = backward_map(self._corrections(rng), init_model(7))
        assert out.data.min() < 0.0


class TestDescentStep:
    def test_alpha_zero_is_identity(self, rng):
        x = Tensor(rng.uniform(0, 1, (3, 16, 16)))
        out = descent_step(x, 0, seeded_model(), 0, InferenceOptions(alpha=0.0))
        np.testing.assert_array_equal(out.data, x.data)

    def test_zero_model_is_identity(self, rng):
        x = Tensor(rng.uniform(0, 1, (3, 16, 16)))
        out = descent_step(x, 2, zero_model())
        np.testing.assert_array_equal(out.data, x.data)

    def test_matches_manual_composition(self, rng):
        model = seeded_model(4)
        x = Tensor(rng.uniform(0, 1, (3, 16, 16)))
        feats = forward_maps(x, model)
        corr = [style_correction(f, model.styles[0].h[1][l])
                for l, f in enumerate(feats)]
        g = backward_map(corr, model)
        expected = x.data - g.data
        np.testing.assert_array_equal(descent_step(x, 1, model).data, expected)

    def test_update_is_literal_subtraction(self, rng):
        # alpha = 1, no hooks: x_out + g == x_in
        model = seeded_model(8)
        x = Tensor(rng.uniform(0, 1, (3, 16, 16)))
        feats = forward_maps(x, model)
        corr = [style_correction(f, model.styles[0].h[0][l])
                for l, f in enumerate(feats)]
        g = backward_map(corr, model)
        out = descent_step(x, 0, model)
        assert np.max(np.abs(out.data + g.data - x.data)) <= 1e-12

    def test_bad_indices_rejected(self, rng):
        x = Tensor(rng.uniform(0, 1, (3, 16, 16)))
        with pytest.raises(ValueError, match="step index"):
            descent_step(x, 4, seeded_model())
        with pytest.raises(ValueError, match="style id"):
            descent_step(x, 0, seeded_model(), style_id=1)

    @pytest.mark.parametrize("alpha", [-1.0, np.nan, np.inf])
    def test_bad_alpha_rejected(self, alpha):
        with pytest.raises(ValueError, match="alpha"):
            InferenceOptions(alpha=alpha)

    @pytest.mark.parametrize("value", [-0.5, 1.5, np.nan])
    def test_bad_blend_mask_rejected(self, value):
        blend = np.full((4, 4), 0.5)
        blend[1, 2] = value
        with pytest.raises(ValueError, match="blend mask"):
            InferenceOptions(blend_mask=blend)

    def test_unroll_is_every_descent_step_in_order(self, rng):
        model = seeded_model(5)
        x = Tensor(rng.uniform(0, 1, (3, 16, 16)))
        expected = x
        for t in range(NUM_STEPS):
            expected = descent_step(expected, t, model)
        np.testing.assert_array_equal(unroll(x, model).data, expected.data)

    @pytest.mark.filterwarnings("error")
    def test_unroll_names_the_overflowing_step(self, rng):
        model = seeded_model(5)
        for layer in model.fwd:
            layer.kernel.data *= 1e30
        x = Tensor(rng.uniform(0, 1, (3, 16, 16)))
        with pytest.raises(NonFiniteError,
                           match="descent step 0 produced non-finite values"):
            unroll(x, model)


def half_mask_opts(side=16, **extra):
    """Options whose content mask covers the left half of a square image."""
    mask = np.zeros((side, side))
    mask[:, :side // 2] = 1.0
    return InferenceOptions(content_mask=mask, **extra)


class TestContentMaskInOptions:
    """The content mask reaches every unrolled step through
    InferenceOptions alone, so unroll honours it as stylize does."""

    def test_masked_unroll_differs_from_unmasked(self, rng):
        x = Tensor(rng.uniform(0, 1, (3, 16, 16)))
        model = seeded_model(17)
        masked = unroll(x, model, 0, half_mask_opts())
        assert not np.array_equal(masked.data, unroll(x, model).data)

    def test_stylize_is_the_clipped_float32_unroll(self, rng):
        x = rng.uniform(0, 1, (3, 16, 16))
        model = seeded_model(18)
        opts = half_mask_opts()
        expected = np.clip(
            unroll(Tensor(x), model.astype(np.float32), 0, opts).data, 0, 1)
        np.testing.assert_array_equal(stylize(x, model, 0, opts), expected)

    def test_options_holding_masks_compare_without_raising(self):
        # comparing the mask arrays element-wise would raise "truth value
        # of an array ... is ambiguous", so options compare by identity
        a = InferenceOptions(blend_mask=np.ones((2, 2)))
        b = InferenceOptions(blend_mask=np.ones((2, 2)))
        assert a == a
        assert a != b

    def test_replace_rebuilds_the_mask_pyramid(self):
        opts = half_mask_opts()
        assert len(opts.content_masks) == len(CHANNELS)
        assert replace(opts, content_mask=None).content_masks is None
        ones = replace(opts, content_mask=np.ones((16, 16))).content_masks
        for m in ones:
            np.testing.assert_array_equal(m, 1.0)


class TestParamCount:
    def test_canonical_counts(self):
        fb, per_iter, total = param_count(init_model(0))
        assert fb == 194_755
        assert per_iter == 21_760 == sum(c * c for c in CHANNELS)
        assert total == 281_795

    def test_multi_style_total(self):
        fb, per_iter, total = param_count(init_model(0, n_styles=2))
        assert total == 194_755 + 2 * 4 * 21_760

    def test_h_matrices_initialized_at_zero(self):
        model = init_model(11, n_styles=2)
        for style in model.styles:
            for t in range(4):
                for l in range(4):
                    np.testing.assert_array_equal(style.h[t][l].data, 0.0)


class TestStylize:
    def test_zero_model_returns_content(self, rng):
        x = rng.uniform(0.05, 0.95, (3, 16, 16))
        out = stylize(x, zero_model())
        assert isinstance(out, np.ndarray)
        np.testing.assert_array_equal(out, x)

    def test_all_zero_blend_returns_content(self, rng):
        x = rng.uniform(0.05, 0.95, (3, 16, 16))
        opts = InferenceOptions(blend_mask=np.zeros((16, 16)))
        out = stylize(x, seeded_model(9), 0, opts)
        np.testing.assert_array_equal(out, x)

    def test_deterministic(self, rng):
        x = rng.uniform(0, 1, (3, 16, 16))
        model = seeded_model(10)
        a = stylize(x, model)
        b = stylize(x, model)
        np.testing.assert_array_equal(a, b)

    def test_output_in_unit_range(self, rng):
        out = stylize(rng.uniform(0, 1, (3, 16, 16)), seeded_model(12))
        assert out.min() >= 0.0 and out.max() <= 1.0

    def test_odd_size_padded_and_cropped(self, rng):
        x = rng.uniform(0, 1, (3, 13, 22))
        out = stylize(x, seeded_model(13))
        assert out.shape == (3, 13, 22)
        # padding must not change the zero-model identity
        np.testing.assert_array_equal(stylize(x, zero_model()), x)

    def test_content_mask_changes_result(self, rng):
        x = rng.uniform(0, 1, (3, 16, 16))
        mask = np.zeros((16, 16))
        mask[:, :8] = 1.0
        model = seeded_model(14)
        masked = stylize(x, model, 0, InferenceOptions(content_mask=mask))
        plain = stylize(x, model)
        assert not np.array_equal(masked, plain)

    def test_all_ones_content_mask_matches_plain(self, rng):
        x = rng.uniform(0, 1, (3, 16, 16))
        model = seeded_model(15)
        ones = stylize(x, model, 0, InferenceOptions(content_mask=np.ones((16, 16))))
        plain = stylize(x, model)
        np.testing.assert_array_equal(ones, plain)

    @pytest.mark.parametrize("name", ["content", "blend"])
    def test_mask_of_another_size_rejected(self, rng, name):
        x = rng.uniform(0, 1, (3, 16, 16))
        opts = InferenceOptions(**{f"{name}_mask": np.ones((16, 8))})
        with pytest.raises(ValueError, match=f"{name} mask shape"):
            stylize(x, seeded_model(15), 0, opts)

    def test_out_of_range_pixels_rejected(self):
        with pytest.raises(ValueError, match="0, 1"):
            stylize(np.full((3, 16, 16), 1.5), zero_model())

    @pytest.mark.parametrize("value", [np.nan, -0.1, 1.5])
    def test_pixel_outside_unit_range_or_nan_rejected(self, rng, value):
        # an array, unlike a Tensor, does not reject NaN on its own, so the
        # range check must be written so that NaN fails it
        x = rng.uniform(0, 1, (3, 16, 16))
        x[1, 4, 7] = value
        with pytest.raises(ValueError,
                           match=r"^content pixels must lie in \[0, 1\]$"):
            stylize(x, zero_model())

    def test_guided_toggle_runs(self, rng):
        x = rng.uniform(0.1, 0.9, (3, 16, 16))
        out = stylize(x, seeded_model(16), 0,
                      InferenceOptions(guided=GuidedFilterParams(radius=2)))
        assert out.shape == x.shape


class _ProjectorHooks:
    """Exact bandlimiting projector at every injection point."""

    def __init__(self, projectors, sides):
        self.projectors = projectors
        self.sides = sides

    def filter_map(self, level, arr):
        assert arr.shape[1:] == self.sides[level]
        return self.projectors[level](arr)


def test_projector_hooks_keep_iterates_bandlimited(rng):
    side = 16
    content = rng.uniform(0.1, 0.9, (3, side, side))
    pyr = build_pyramid(content)
    projs, sides = [], []
    for lvl in range(4):
        lap = pyr.laplacians[lvl]
        projs.append(oracles.exact_projector(lap, 0.2 * lap.lambda_max)
                     if pyr.filters[lvl] is not None else (lambda v: v))
        sides.append((lap.height, lap.width))
    hooks = _ProjectorHooks(projs, sides)
    x0 = Tensor(projs[0](content))
    model = seeded_model(20, h_scale=0.05)
    opts = InferenceOptions(filter_hooks=hooks)
    x = x0
    for t in range(4):
        x = descent_step(x, t, model, 0, opts)
    # high-band energy above lambda_star on the full-resolution Laplacian
    p0 = projs[0]
    for c in range(3):
        v = x.data[c].reshape(-1)
        residual = v - p0(v)
        assert residual @ residual <= 1e-8 * (v @ v)


def test_pad_to_multiple8_mirrors(rng):
    data = rng.uniform(0, 1, (1, 9, 10))
    padded = mirror_pad(data, 8)
    assert padded.shape == (1, 16, 16)
    np.testing.assert_array_equal(padded[:, :9, :10], data)
    np.testing.assert_array_equal(padded[0, 9, :10], data[0, 7, :])
    np.testing.assert_array_equal(padded[0, :9, 10], data[0, :, 8])


@pytest.mark.parametrize("side", [3, 6])
def test_mirror_pad_rejects_sides_it_cannot_reflect_onto(side):
    # padding 6 up to 16 would need 10 mirrored rows from 5 distinct ones
    data = np.arange(float(side * 20)).reshape(1, side, 20)
    with pytest.raises(ValueError, match="too small"):
        mirror_pad(data, 16)
    with pytest.raises(ValueError, match="too small"):
        mirror_pad(data.transpose(0, 2, 1), 16)


def test_tape_in_one_thread_records_nothing_from_another(rng):
    """Two inference threads share a model while a third holds a tape open;
    the tape sees only its own thread's primitives and every result is
    bit-equal to a serial run."""
    model = seeded_model(4)
    img = rng.uniform(0.1, 0.9, (3, 16, 16))
    hooked = InferenceOptions(filter_hooks=oracles.IdentityHooks())
    tape_open, inference_done = threading.Event(), threading.Barrier(3)

    def train_step(concurrent):
        with GradTape() as tape:
            loss = sqsum(descent_step(Tensor(img), 0, model))
            if concurrent:
                tape_open.set()
                inference_done.wait(timeout=60)
            recorded = len(tape.records)
            grads = backward(tape, loss)
        return recorded, grads[model.bwd[-1].kernel]

    def infer(opts):
        tape_open.wait(timeout=60)
        try:
            return stylize(img, model, 0, opts)
        finally:
            inference_done.wait(timeout=60)

    serial = {"plain": stylize(img, model),
              "hooked": stylize(img, model, 0, hooked),
              "train": train_step(False)}
    results, errors = {}, []

    def run(name, fn, *args):
        try:
            results[name] = fn(*args)
        except Exception as err:       # reported by the assertion below
            errors.append(f"{name}: {err!r}")

    threads = [threading.Thread(target=run, args=("train", train_step, True)),
               threading.Thread(target=run, args=("plain", infer, None)),
               threading.Thread(target=run, args=("hooked", infer, hooked))]
    for t in threads:
        t.start()
    for t in threads:
        t.join(timeout=120)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    np.testing.assert_array_equal(results["plain"], serial["plain"])
    np.testing.assert_array_equal(results["hooked"], serial["hooked"])
    assert results["train"][0] == serial["train"][0]
    np.testing.assert_array_equal(results["train"][1], serial["train"][1])


def test_untaped_stylize_peak_memory(rng):
    # an untaped 128^2 stylize peaks near 6.9 MB: one step's float32 maps
    # and one conv's scratch at a time, which at 128^2 is one band per conv
    model = init_model(0)
    img = rng.uniform(0.1, 0.9, (3, 128, 128))
    assert traced_peak(lambda: stylize(img, model)) < 8e6


def test_hooked_backward_pyramid_frees_each_map_once_used(rng):
    # with a pyramid as hooks an untaped 128^2 stylize peaks near 7.0 MB;
    # holding every correction and every filtered conv input until the
    # backward pyramid returns, at 9.5 MB
    model = init_model(0)
    img = rng.uniform(0.1, 0.9, (3, 128, 128))
    opts = InferenceOptions(filter_hooks=build_pyramid(img))
    assert traced_peak(lambda: stylize(img, model, 0, opts)) < 8e6


def test_backward_map_does_not_mutate_its_argument(rng):
    model = init_model(0)
    x = Tensor(rng.uniform(0.1, 0.9, (3, 16, 16)))
    corrections = [style_correction(f, h) for f, h in
                   zip(forward_maps(x, model), model.styles[0].h[0])]
    kept = list(corrections)
    first = backward_map(corrections, model)
    assert corrections == kept
    np.testing.assert_array_equal(backward_map(iter(corrections), model).data,
                                  first.data)


def spy_dtypes(monkeypatch):
    """(primitive name, output dtype) of every primitive evaluated from now
    on, in order."""
    seen = []
    emit = tensor._emit

    def spy(inputs, out_data, vjp, opname):
        seen.append((opname, out_data.dtype))
        return emit(inputs, out_data, vjp, opname)

    monkeypatch.setattr(tensor, "_emit", spy)
    return seen


def photoreal_opts(x, **extra):
    """Masked photoreal options on a square image: a content mask over its
    left half and the content's filter pyramid, as the CLI builds them."""
    return half_mask_opts(x.shape[1], alpha=1.2, filter_hooks=build_pyramid(x),
                          **extra)


def benchmark_like_model(seed):
    """Style matrices drawn as in seeded_model and the last backward conv
    scaled by 0.15, so few output pixels sit at a clip limit."""
    model = seeded_model(seed)
    model.bwd[-1].kernel.data *= 0.15
    return model


def test_photoreal_stylize_builds_no_csr(monkeypatch):
    """The pyramid is built and applied on its diagonals alone: no CSR
    matrix is made and nothing is converted to DIA."""
    def refuse(*args, **kwargs):
        raise AssertionError("sparse conversion on the stylize path")

    for cls in (sp.csr_matrix, sp.csr_array):
        monkeypatch.setattr(cls, "__init__", refuse)
    for cls in (_spbase, sp.coo_matrix, sp.coo_array):
        monkeypatch.setattr(cls, "todia", refuse)
    with pytest.raises(AssertionError, match="conversion"):
        sp.csr_matrix(np.eye(2))
    x = smooth_image(np.random.default_rng(27), 32, waves=4)
    opts = photoreal_opts(x, guided=GuidedFilterParams(radius=2))
    out = stylize(x, benchmark_like_model(27), 0, opts)
    assert out.shape == x.shape


def test_threads_share_one_pyramid():
    """Two photoreal stylize calls, one masked, share one pyramid while a
    third thread builds its CSR view; every result is bit-equal to a serial
    run on a pyramid of its own."""
    x = smooth_image(np.random.default_rng(28), 32, waves=4)
    model = benchmark_like_model(28)
    mask = photoreal_opts(x).content_mask

    def jobs(pyramid):
        return {
            "plain": lambda: stylize(x, model, 0, InferenceOptions(
                filter_hooks=pyramid)),
            "masked": lambda: stylize(x, model, 0, InferenceOptions(
                alpha=1.2, content_mask=mask, filter_hooks=pyramid)),
            "csr": lambda: [lap.mat for lap in pyramid.laplacians]}

    serial = {name: fn() for name, fn in jobs(build_pyramid(x)).items()}
    start = threading.Barrier(3)
    results, errors = {}, []

    def run(name, fn):
        try:
            start.wait(timeout=60)
            results[name] = fn()
        except Exception as err:       # reported by the assertion below
            errors.append(f"{name}: {err!r}")

    threads = [threading.Thread(target=run, args=item)
               for item in jobs(build_pyramid(x)).items()]
    interval = sys.getswitchinterval()
    sys.setswitchinterval(1e-5)      # switch threads often
    try:
        for t in threads:
            t.start()
        for t in threads:
            t.join(timeout=120)
    finally:
        sys.setswitchinterval(interval)
    assert not any(t.is_alive() for t in threads)
    assert errors == []
    np.testing.assert_array_equal(results["plain"], serial["plain"])
    np.testing.assert_array_equal(results["masked"], serial["masked"])
    for mat, ref in zip(results["csr"], serial["csr"]):
        for part in ("data", "indices", "indptr"):
            np.testing.assert_array_equal(getattr(mat, part), getattr(ref, part))


class TestFloat32Direction:
    """stylize computes each step's descent direction in float32; the
    iterate, the update, the clip, the blend and the guided filter stay
    float64."""

    # the only float64 primitives of a stylize call: each step's update
    # x - alpha*g, then the clip
    FLOAT64_OPS = [("lincomb", np.float64)] * NUM_STEPS + [("clamp", np.float64)]

    def test_artistic_direction_is_float32(self, rng, monkeypatch):
        x = rng.uniform(0, 1, (3, 16, 16))
        model = seeded_model(21)
        seen = spy_dtypes(monkeypatch)
        out = stylize(x, model)
        assert out.dtype == np.float64
        assert [op for op in seen if op[1] != np.float32] == self.FLOAT64_OPS
        assert len(seen) > 10 * NUM_STEPS
        # the weights the caller passed are not touched
        assert all(p.data.dtype == np.float64 for p in model.parameters())

    def test_masked_photoreal_direction_is_float32(self, monkeypatch):
        x = smooth_image(np.random.default_rng(22), 32, waves=4)
        blend = np.linspace(0.0, 1.0, 32 * 32).reshape(32, 32)
        opts = photoreal_opts(x, blend_mask=blend,
                              guided=GuidedFilterParams(radius=2))
        pyramid = opts.filter_hooks
        answers = []

        def filter_map(level, arr):
            out = type(pyramid).filter_map(pyramid, level, arr)
            answers.append((arr.dtype, out.dtype))
            return out

        pyramid.filter_map = filter_map
        seen = spy_dtypes(monkeypatch)
        out = stylize(x, seeded_model(22), 0, opts)
        assert out.dtype == np.float64
        assert [op for op in seen if op[1] != np.float32] == self.FLOAT64_OPS
        # 4 corrections and 4 conv outputs per step, every one filtered in
        # float32
        assert answers == [(np.float32, np.float32)] * (8 * NUM_STEPS)

    def test_float64_hook_answer_is_cast_back(self, rng, monkeypatch):
        class Float64Hooks:
            def filter_map(self, level, arr):
                return arr.astype(np.float64)

        x = rng.uniform(0, 1, (3, 16, 16))
        model = seeded_model(23)
        seen = spy_dtypes(monkeypatch)
        hooked = stylize(x, model, 0, InferenceOptions(filter_hooks=Float64Hooks()))
        assert [op for op in seen if op[1] != np.float32] == self.FLOAT64_OPS
        # float32 -> float64 -> float32 is exact, so the hook is a no-op
        np.testing.assert_array_equal(hooked, stylize(x, model))

    def test_cast_under_a_tape_is_refused(self, rng):
        x = Tensor(rng.uniform(0, 1, (3, 16, 16)))
        with GradTape(), pytest.raises(RuntimeError, match="inference-only"):
            descent_step(x, 0, seeded_model(24).astype(np.float32))

    @pytest.mark.parametrize("n_styles", [1, 2])
    def test_astype_copies_every_weight(self, n_styles):
        model = init_model(25, n_styles)
        rng = np.random.default_rng(25)
        for p in model.parameters():    # distinct values catch a misordering
            p.data[:] = rng.standard_normal(p.shape)
        for s, style in enumerate(model.styles):
            style.target = StyleTarget(
                [rng.standard_normal((c, c)) for c in (8, 16)], 0.5 + s)
        model32 = model.astype(np.float32)
        assert isinstance(model32, UnrolledModel)
        assert model32.extractor_seed == model.extractor_seed
        assert ([l.relu for l in model32.fwd + model32.bwd]
                == [l.relu for l in model.fwd + model.bwd])
        assert len(model32.parameters()) == len(model.parameters())
        for a, b in zip(model.parameters(), model32.parameters()):
            assert b.data.dtype == np.float32 and b is not a
            np.testing.assert_array_equal(b.data, a.data.astype(np.float32))
        assert len(model32.styles) == n_styles
        for a, b in zip(model.styles, model32.styles):
            assert b.target is a.target

    def test_weight_beyond_float32_is_non_finite(self):
        model = seeded_model(26)
        model.bwd[0].bias.data[0] = 1e300
        with warnings.catch_warnings():
            warnings.simplefilter("error")
            with pytest.raises(NonFiniteError):
                model.astype(np.float32)


def quantize(img):
    """The 8-bit levels imagecodec writes."""
    return np.floor(img * 255.0 + 0.5).astype(int)


# Largest |stylize - stylize_float64| measured on the two cases below:
# 7.0e-8 (artistic) and 5.9e-8 (photoreal), with 0 8-bit levels changed;
# the bound leaves a factor of about 7.
FLOAT32_BOUND = 5e-7


@pytest.mark.parametrize("photoreal", [False, True], ids=["artistic", "photoreal"])
def test_stylize_matches_float64_oracle(photoreal):
    rng = np.random.default_rng(30)
    side = 48 if photoreal else 64
    x = smooth_image(rng, side, waves=4)
    opts = photoreal_opts(x) if photoreal else InferenceOptions()
    model = benchmark_like_model(31)
    out = stylize(x, model, 0, opts)
    ref = oracles.stylize_float64(x, model, 0, opts)
    assert np.mean((ref == 0.0) | (ref == 1.0)) < 0.25     # 8-10% clip
    assert np.max(np.abs(quantize(out) - quantize(ref))) <= 1
    assert np.max(np.abs(out - ref)) <= FLOAT32_BOUND
