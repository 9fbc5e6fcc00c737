import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import make_small_extractor, random_image
from gradstyle.perceptual import (
    DegenerateMaskError,
    LossWeights,
    StyleTarget,
    build_mask_pyramid,
    build_style_target,
    content_loss,
    default_extractor,
    extract_features,
    style_loss,
    total_loss,
)
from gradstyle.tensor import (
    ConvLayer,
    GradTape,
    Tensor,
    backward,
    masked_gram,
    mirror_pad,
    tv,
)
from gradstyle.perceptual import FeatureExtractor


class TestExtractFeatures:
    def test_default_shapes_on_32(self, rng):
        fe = default_extractor(0)
        feats = extract_features(random_image(rng, (3, 32, 32)), fe)
        assert [f.shape for f in feats] == [
            (8, 32, 32), (16, 16, 16), (32, 8, 8), (64, 4, 4), (64, 2, 2)]

    def test_deterministic_across_instances(self, rng):
        x = random_image(rng, (3, 32, 32))
        f1 = extract_features(x, default_extractor(7))
        f2 = extract_features(x, default_extractor(7))
        for a, b in zip(f1, f2):
            np.testing.assert_array_equal(a.data, b.data)

    def test_zero_input_zero_features(self):
        fe = default_extractor(0)
        feats = extract_features(Tensor(np.zeros((3, 32, 32))), fe)
        for f in feats:
            np.testing.assert_array_equal(f.data, 0.0)

    def test_indivisible_dims_rejected(self, rng):
        with pytest.raises(ValueError, match="divisible"):
            extract_features(random_image(rng, (3, 24, 24)), default_extractor(0))

    def test_wrong_channel_count_rejected(self, rng):
        with pytest.raises(ValueError, match="3-channel"):
            extract_features(Tensor(rng.uniform(0, 1, (1, 32, 32))),
                             default_extractor(0))


class TestGram:
    def test_two_pixel_example(self):
        f = Tensor(np.array([[[1.0, 1.0]], [[0.0, 0.0]]]))  # 2 ch, 1x2
        np.testing.assert_allclose(masked_gram(f).data, [[1.0, 0.0], [0.0, 0.0]],
                                   atol=1e-15)

    def test_all_ones_mask_equals_unmasked(self, rng):
        f = random_image(rng, (3, 2, 3))
        np.testing.assert_array_equal(masked_gram(f, np.ones(6)).data, masked_gram(f).data)

    def test_matches_dense_oracle(self, rng):
        f = Tensor(rng.standard_normal((3, 2, 3)))
        mask = np.array([1.0, 0.0, 1.0, 1.0, 0.0, 1.0])
        ref = oracles.gram_reference(f.data, mask)
        np.testing.assert_allclose(masked_gram(f, mask).data, ref, atol=1e-12)

    def test_empty_mask_rejected(self, rng):
        with pytest.raises(ValueError, match="empty"):
            masked_gram(random_image(rng, (2, 2, 2)), np.zeros(4))

    @pytest.mark.parametrize("seed", range(10))
    def test_symmetric_psd(self, seed):
        rng = np.random.default_rng(seed)
        g = masked_gram(Tensor(rng.standard_normal((4, 3, 3)))).data
        np.testing.assert_array_equal(g, g.T)
        assert np.linalg.eigvalsh(g).min() >= -1e-10


class TestContentLoss:
    def test_identical_is_zero(self, rng):
        fe = make_small_extractor()
        feats = extract_features(random_image(rng), fe)
        assert content_loss(feats, feats, fe).item() == 0.0

    def test_all_ones_difference_normalizes_to_one(self):
        fe = make_small_extractor(content_layers=(0,))
        c, n = 4, 64
        f = [Tensor(np.ones((4, 8, 8))), None, None]
        cfeats = [Tensor(np.zeros((4, 8, 8))), None, None]
        assert content_loss(f, cfeats, fe).item() == pytest.approx(1.0)

    def test_matches_direct_recomputation(self, rng):
        fe = make_small_extractor()
        xf = extract_features(random_image(rng), fe)
        cf = extract_features(random_image(rng), fe)
        ref = oracles.content_loss_reference([f.data for f in xf],
                                             [f.data for f in cf],
                                             fe.content_layers)
        assert content_loss(xf, cf, fe).item() == pytest.approx(ref, rel=1e-12)

    def test_layer_shape_mismatch_rejected(self, rng):
        fe = make_small_extractor()
        xf = extract_features(random_image(rng), fe)
        cf = extract_features(random_image(rng, (3, 16, 16)), fe)
        with pytest.raises(ValueError, match="mismatch"):
            content_loss(xf, cf, fe)


class TestStyleLoss:
    def test_matched_grams_zero(self, rng):
        fe = make_small_extractor()
        x = random_image(rng)
        feats = extract_features(x, fe)
        target = StyleTarget([masked_gram(feats[l]).data for l in fe.style_layers],
                             lam_s=1.0)
        assert style_loss(feats, target, fe).item() == 0.0

    def test_all_ones_mask_recovers_unmasked(self, rng):
        fe = make_small_extractor()
        x = random_image(rng)
        feats = extract_features(x, fe)
        target = build_style_target(random_image(rng), fe)
        ones = build_mask_pyramid(np.ones((8, 8)), fe.depth)
        masked = style_loss(feats, target, fe, ones).item()
        plain = style_loss(feats, target, fe).item()
        assert masked == pytest.approx(plain, abs=1e-12)

    def test_matches_dense_oracle(self, rng):
        fe = make_small_extractor()
        xf = extract_features(random_image(rng), fe)
        target = build_style_target(random_image(rng), fe)
        ref = oracles.style_loss_reference([f.data for f in xf], target.grams,
                                           fe.style_layers)
        assert style_loss(xf, target, fe).item() == pytest.approx(ref, rel=1e-12)

    def test_empty_content_mask_rejected(self, rng):
        fe = make_small_extractor()
        xf = extract_features(random_image(rng), fe)
        target = build_style_target(random_image(rng), fe)
        dead = [np.zeros(64), np.ones(16), np.ones(4)]
        with pytest.raises(ValueError, match="empty"):
            style_loss(xf, target, fe, dead)


class TestTvLoss:
    def test_constant_zero(self):
        assert tv(Tensor(np.full((3, 5, 5), 0.3))).item() == 0.0

    def test_single_squared_difference(self):
        assert tv(Tensor(np.array([[[0.0, 1.0]]]))).item() == 1.0

    def test_matches_double_loop_oracle(self, rng):
        x = random_image(rng, (3, 5, 6))
        assert tv(x).item() == pytest.approx(
            oracles.tv_reference(x.data), rel=1e-12)


class TestTotalLoss:
    def test_zero_when_only_style_and_matched(self, rng):
        fe = make_small_extractor()
        x = random_image(rng)
        feats = extract_features(x, fe)
        target = StyleTarget([masked_gram(feats[l]).data for l in fe.style_layers], 1.0)
        c_feats = extract_features(random_image(rng), fe)
        loss = total_loss(x, c_feats, target, fe, LossWeights(0.0, 0.0))
        assert loss.item() == 0.0

    def test_default_weights(self):
        w = LossWeights()
        assert (w.lam_c, w.lam_tv) == (0.025, 0.5)

    def test_compositional_identity(self, rng):
        fe = make_small_extractor()
        x = random_image(rng)
        c_feats = extract_features(random_image(rng), fe)
        target = build_style_target(random_image(rng), fe)
        w = LossWeights(0.3, 0.7)
        total, parts = total_loss(x, c_feats, target, fe, w, return_parts=True)
        recomposed = w.lam_c * parts.content + target.lam_s * parts.style \
            + w.lam_tv * parts.tv
        assert total.item() == pytest.approx(recomposed, rel=1e-12)

    def test_gradient_matches_finite_differences(self, rng):
        fe = make_small_extractor()
        x = random_image(rng, lo=0.15, hi=0.85)
        c_feats = extract_features(random_image(rng), fe)
        target = build_style_target(random_image(rng), fe)

        def value():
            return total_loss(x, c_feats, target, fe).item()

        with GradTape() as tape:
            loss = total_loss(x, c_feats, target, fe)
            g = backward(tape, loss)[x]
        numeric = oracles.numeric_grad(value, x.data)
        assert oracles.rel_err(g, numeric) <= 1e-4

    def test_clipped_pixels_get_zero_gradient(self, rng):
        fe = make_small_extractor()
        x = random_image(rng)
        x.data[0, 0, 0] = 1.7
        x.data[1, 3, 2] = -0.4
        c_feats = extract_features(random_image(rng), fe)
        target = build_style_target(random_image(rng), fe)
        with GradTape() as tape:
            loss = total_loss(x, c_feats, target, fe)
            g = backward(tape, loss)[x]
        assert g[0, 0, 0] == 0.0
        assert g[1, 3, 2] == 0.0


class TestStyleWeightAuto:
    def test_hand_example_unit_gram(self):
        # one level whose feature map is the constant 1 on a 1x2 image:
        # Gram = 1, so the auto weight is exactly 1
        layer = ConvLayer(Tensor(np.zeros((1, 3, 3, 3))), Tensor(np.ones(1)),
                          relu=True)
        fe = FeatureExtractor([layer], (0,), (0,))
        style = Tensor(np.zeros((3, 1, 2)))
        assert build_style_target(style, fe).lam_s == pytest.approx(1.0, rel=1e-14)

    def test_homogeneity_degree_minus_four(self, rng):
        fe = make_small_extractor()  # zero biases: positively homogeneous
        style = Tensor(rng.uniform(0.05, 0.45, (3, 8, 8)))
        lam1 = build_style_target(style, fe).lam_s
        lam2 = build_style_target(Tensor(2.0 * style.data), fe).lam_s
        assert lam2 == pytest.approx(lam1 / 16.0, rel=1e-12)

    def test_matches_direct_formula(self, rng):
        fe = default_extractor(3)
        style = random_image(rng, (3, 32, 32))
        feats = extract_features(style, fe)
        acc = 0.0
        for lvl in fe.style_layers:
            g = oracles.gram_reference(feats[lvl].data)
            acc += np.sum(g * g) / feats[lvl].channels ** 2
        expected = 1.0 / (acc / len(fe.style_layers))
        assert build_style_target(style, fe).lam_s == pytest.approx(expected, rel=1e-10)

    def test_zero_style_rejected(self):
        fe = make_small_extractor()
        with pytest.raises(ValueError, match="undefined"):
            build_style_target(Tensor(np.zeros((3, 8, 8))), fe)


def test_style_target_pads_style_and_mask_to_the_extractor(rng):
    # the default extractor pools four times, so 21 pads to 32
    fe = default_extractor(0)
    assert fe.multiple == 16
    style = random_image(rng, (3, 21, 21))
    mask = np.zeros((21, 21))
    mask[:, :12] = 1.0
    got = build_style_target(style, fe, mask)
    ref = build_style_target(Tensor(mirror_pad(style.data, 16)), fe,
                             mirror_pad(mask, 16))
    assert got.lam_s == ref.lam_s
    for g, r in zip(got.grams, ref.grams):
        np.testing.assert_array_equal(g, r)


class TestMaskPyramid:
    def test_all_ones_identity_everywhere(self):
        fe = default_extractor(0)
        pyr = build_mask_pyramid(np.ones((32, 32)), fe.depth)
        sides = (32, 16, 8, 4, 2)
        for mask, side in zip(pyr, sides):
            np.testing.assert_array_equal(mask, np.ones(side * side))

    def test_all_zeros_degenerate(self):
        with pytest.raises(DegenerateMaskError):
            build_mask_pyramid(np.zeros((32, 32)), default_extractor(0).depth)

    def test_left_half_survives_at_all_levels(self):
        mask = np.zeros((32, 32))
        mask[:, :16] = 1.0
        pyr = build_mask_pyramid(mask, default_extractor(0).depth)
        for lvl, m in enumerate(pyr):
            side = 32 >> lvl
            expected = np.zeros((side, side))
            expected[:, :side // 2] = 1.0
            np.testing.assert_array_equal(m, expected.reshape(-1))

    def test_matches_pool_threshold_oracle(self, rng):
        mask = (rng.uniform(0, 1, (16, 16)) > 0.4).astype(float)
        pyr = build_mask_pyramid(mask, 3)
        for lvl in range(3):
            side = 16 >> lvl
            k = 1 << lvl
            ref = np.zeros((side, side))
            for i in range(side):
                for j in range(side):
                    block = mask[i * k:(i + 1) * k, j * k:(j + 1) * k]
                    ref[i, j] = 1.0 if block.mean() >= 0.5 else 0.0
            np.testing.assert_array_equal(pyr[lvl], ref.reshape(-1))

    @pytest.mark.parametrize("levels", [3, 5])
    def test_pads_the_mask_as_images_are_padded(self, rng, levels):
        mask = (rng.uniform(0, 1, (21, 21)) > 0.4).astype(float)
        got = build_mask_pyramid(mask, levels)
        ref = build_mask_pyramid(mirror_pad(mask, 2 ** (levels - 1)), levels)
        assert len(got) == levels
        for g, r in zip(got, ref):
            np.testing.assert_array_equal(g, r)

    def test_non_binary_rejected(self):
        with pytest.raises(ValueError, match="0 or 1"):
            build_mask_pyramid(np.full((4, 4), 0.5), 2)


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000), st.integers(1, 6), st.integers(1, 5),
       st.integers(1, 5))
def test_gram_is_always_symmetric_psd(seed, c, h, w):
    rng = np.random.default_rng(seed)
    g = masked_gram(Tensor(rng.standard_normal((c, h, w)))).data
    assert np.array_equal(g, g.T)
    assert np.linalg.eigvalsh(g).min() >= -1e-10


@settings(max_examples=40, deadline=None)
@given(st.integers(0, 10_000))
def test_all_ones_mask_never_changes_gram(seed):
    rng = np.random.default_rng(seed)
    shape = (rng.integers(1, 6), rng.integers(1, 5), rng.integers(1, 5))
    f = Tensor(rng.standard_normal(shape))
    ones = np.ones(shape[1] * shape[2])
    assert np.array_equal(masked_gram(f, ones).data, masked_gram(f).data)


class TestStyleTarget:
    def test_grams_symmetric_psd(self, rng):
        target = build_style_target(random_image(rng, (3, 16, 16)),
                                    make_small_extractor())
        for g in target.grams:
            np.testing.assert_array_equal(g, g.T)
            assert np.linalg.eigvalsh(g).min() >= -1e-10

    def test_masked_target_uses_style_mask(self, rng):
        fe = make_small_extractor()
        style = random_image(rng, (3, 16, 16))
        mask = np.zeros((16, 16))
        mask[:, :8] = 1.0
        masked = build_style_target(style, fe, mask)
        plain = build_style_target(style, fe)
        assert any(not np.array_equal(a, b)
                   for a, b in zip(masked.grams, plain.grams))
