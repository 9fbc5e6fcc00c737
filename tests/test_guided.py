import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import smooth_image, traced_peak
from gradstyle import guided
from gradstyle.guided import GuidedFilterParams, guided_filter


def textured_image(rng, side):
    base = smooth_image(rng, side)
    return np.clip(base + rng.uniform(-0.06, 0.06, base.shape), 0, 1)


class TestGuidedFilter:
    def test_constant_input_passes_through(self, rng):
        guide = textured_image(rng, 12)
        p = np.full((3, 12, 12), 0.42)
        out = guided_filter(p, guide, GuidedFilterParams(radius=3))
        np.testing.assert_allclose(out, 0.42, atol=1e-12)

    def test_self_guidance_near_identity(self, rng):
        guide = textured_image(rng, 16)
        out = guided_filter(guide, guide, GuidedFilterParams(radius=2, eps=1e-12))
        assert np.max(np.abs(out - guide)) <= 1e-3

    def test_matches_dense_window_oracle(self, rng):
        guide = textured_image(rng, 16)
        p = rng.uniform(0, 1, (3, 16, 16))
        params = GuidedFilterParams(radius=3, eps=1e-4)
        out = guided_filter(p, guide, params)
        ref = oracles.guided_filter_reference(p, guide, params.radius, params.eps)
        assert np.max(np.abs(out - ref)) <= 1e-8

    @pytest.mark.parametrize("eps", [1e-4, 1e-8])
    @pytest.mark.parametrize("kind", ["constant", "two-colour"])
    def test_degenerate_guides_match_solve_oracle(self, kind, eps, rng):
        # a constant guide has a zero covariance in every window, and a
        # two-colour guide a rank-1 one (zero where a window sees one
        # colour), so cov + eps*I is as ill-conditioned as eps allows
        colours = rng.uniform(0, 1, (3, 2))
        cols = np.arange(12) >= (12 if kind == "constant" else 5)
        guide = np.broadcast_to(colours[:, cols.astype(int)][:, None, :],
                                (3, 12, 12))
        p = rng.uniform(0, 1, (3, 12, 12))
        params = GuidedFilterParams(radius=2, eps=eps)
        out = guided_filter(p, guide, params)
        ref = oracles.guided_filter_reference(p, guide, params.radius, eps)
        assert np.all(np.isfinite(out))
        assert np.max(np.abs(out - ref)) <= 1e-10

    def test_no_lapack_inverse_or_solve(self, rng, no_lapack_solves):
        guide = textured_image(rng, 12)
        guided_filter(rng.uniform(0, 1, (3, 12, 12)), guide, GuidedFilterParams(radius=2))

    def test_default_params(self):
        params = GuidedFilterParams()
        assert (params.radius, params.eps) == (8, 1e-4)

    @pytest.mark.parametrize("seed", range(5))
    def test_constant_shift_invariance(self, seed):
        rng = np.random.default_rng(seed)
        guide = textured_image(rng, 12)
        p = rng.uniform(0, 0.5, (3, 12, 12))
        params = GuidedFilterParams(radius=2)
        base = guided_filter(p, guide, params)
        shifted = guided_filter(p + 0.25, guide, params)
        np.testing.assert_allclose(shifted, base + 0.25, atol=1e-10)

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="mismatch"):
            guided_filter(np.zeros((3, 8, 8)), textured_image(rng, 12))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            GuidedFilterParams(radius=0)
        with pytest.raises(ValueError):
            GuidedFilterParams(eps=0.0)
        with pytest.raises(ValueError):
            GuidedFilterParams(eps=float("nan"))
        with pytest.raises(ValueError):
            GuidedFilterParams(eps=float("inf"))

    @pytest.mark.parametrize("radius", [2.5, 3.0, "3", None])
    def test_non_integer_radius_rejected(self, radius):
        # a float radius used to pass and then fail inside the box sums
        with pytest.raises(ValueError, match="integer"):
            GuidedFilterParams(radius=radius)

    def test_numpy_integer_radius_accepted(self):
        assert GuidedFilterParams(radius=np.int64(3)).radius == 3

    def test_peak_memory_bounded(self):
        # plane-wise box means and six guide products peak near 21 MB at
        # 250^2; (h, w, 9) box means of the full guide outer product, 36 MB
        rng = np.random.default_rng(7)
        p = rng.uniform(0, 1, (3, 250, 250))
        guide = rng.uniform(0, 1, (3, 250, 250))
        assert traced_peak(lambda: guided_filter(p, guide)) < 28e6


@settings(max_examples=60, deadline=None)
@given(st.integers(1, 12), st.integers(1, 12), st.integers(1, 4),
       st.integers(1, 16), st.sampled_from(["random", "constant",
                                            "checkerboard"]),
       st.sampled_from([1e-8, 1e-4, 1e-1]), st.integers(0, 2 ** 32 - 1))
@example(1, 1, 1, 1, "random", 1e-4, 0)
@example(5, 9, 4, 9, "checkerboard", 1e-8, 1)
def test_bit_equal_to_channels_last_filter(h, w, channels, radius, kind, eps,
                                           seed):
    # radii from 1 up to past the image side, on 1-4 channels
    rng = np.random.default_rng(seed)
    if kind == "random":
        guide = rng.uniform(0, 1, (3, h, w))
    elif kind == "constant":
        guide = np.broadcast_to(rng.uniform(0, 1, (3, 1, 1)), (3, h, w))
    else:
        board = np.indices((h, w)).sum(axis=0) % 2
        guide = np.where(board, rng.uniform(0, 1, (3, 1, 1)),
                         rng.uniform(0, 1, (3, 1, 1)))
    p = rng.uniform(0, 1, (channels, h, w))
    out = guided_filter(p, guide, GuidedFilterParams(radius, eps))
    ref = oracles.guided_filter_channels_last(p, guide, radius, eps)
    np.testing.assert_array_equal(out, ref)


@settings(max_examples=30, deadline=None)
@given(st.integers(1, 9), st.integers(1, 9), st.integers(0, 3),
       st.sampled_from([1, 3]), st.sampled_from([1e-4, 1e-2]),
       st.integers(0, 2 ** 32 - 1))
def test_windows_clamped_on_every_side(h, w, extra, channels, eps, seed):
    # a radius of at least the image side clamps every window on both ends
    # of both axes, so each one covers the whole image
    rng = np.random.default_rng(seed)
    guide = rng.uniform(0, 1, (3, h, w))
    p = rng.uniform(0, 1, (channels, h, w))
    radius = max(h, w) + extra
    out = guided_filter(p, guide, GuidedFilterParams(radius, eps))
    ref = oracles.guided_filter_reference(p, guide, radius, eps)
    assert np.max(np.abs(out - ref)) <= 1e-8


def test_box_ops_scale_linearly_with_pixels(rng):
    params = GuidedFilterParams(radius=4)
    costs = {}
    for side in (16, 32):
        guide = textured_image(rng, side)
        p = rng.uniform(0, 1, (3, side, side))
        guided.BOX_OPS = 0
        guided_filter(p, guide, params)
        costs[side] = guided.BOX_OPS
    # doubling each side quadruples the pixels and exactly quadruples the work
    assert costs[32] == 4 * costs[16]


@pytest.mark.parametrize("channels", [1, 3])
def test_box_ops_count_planes(channels, rng):
    # 3 guide means and the 6 lower-triangle guide products, then per
    # channel its mean, 3 guide cross products, 3 slopes and 1 offset
    guide = textured_image(rng, 10)
    p = rng.uniform(0, 1, (channels, 10, 10))
    guided.BOX_OPS = 0
    guided_filter(p, guide, GuidedFilterParams(radius=2))
    assert guided.BOX_OPS == (3 + 6 + 8 * channels) * 10 * 10
