import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import oracles
from conftest import smooth_image
from gradstyle import guided
from gradstyle.guided import GuidedFilterParams, guided_filter
from gradstyle.tensor import Tensor


def textured_image(rng, side):
    base = smooth_image(rng, side).data
    return Tensor(np.clip(base + rng.uniform(-0.06, 0.06, base.shape), 0, 1))


class TestGuidedFilter:
    def test_constant_input_passes_through(self, rng):
        guide = textured_image(rng, 12)
        p = Tensor(np.full((3, 12, 12), 0.42))
        out = guided_filter(p, guide, GuidedFilterParams(radius=3))
        np.testing.assert_allclose(out.data, 0.42, atol=1e-12)

    def test_self_guidance_near_identity(self, rng):
        guide = textured_image(rng, 16)
        out = guided_filter(guide, guide, GuidedFilterParams(radius=2, eps=1e-12))
        assert np.max(np.abs(out.data - guide.data)) <= 1e-3

    def test_matches_dense_window_oracle(self, rng):
        guide = textured_image(rng, 16)
        p = Tensor(rng.uniform(0, 1, (3, 16, 16)))
        params = GuidedFilterParams(radius=3, eps=1e-4)
        out = guided_filter(p, guide, params)
        ref = oracles.guided_filter_reference(p.data, guide.data,
                                              params.radius, params.eps)
        assert np.max(np.abs(out.data - ref)) <= 1e-8

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
        out = guided_filter(Tensor(p), Tensor(guide), params).data
        ref = oracles.guided_filter_reference(p, guide, params.radius, eps)
        assert np.all(np.isfinite(out))
        assert np.max(np.abs(out - ref)) <= 1e-10

    def test_no_lapack_inverse_or_solve(self, rng, no_lapack_solves):
        guide = textured_image(rng, 12)
        guided_filter(Tensor(rng.uniform(0, 1, (3, 12, 12))), guide,
                      GuidedFilterParams(radius=2))

    def test_default_params(self):
        params = GuidedFilterParams()
        assert (params.radius, params.eps) == (8, 1e-4)

    @pytest.mark.parametrize("seed", range(5))
    def test_constant_shift_invariance(self, seed):
        rng = np.random.default_rng(seed)
        guide = textured_image(rng, 12)
        p = Tensor(rng.uniform(0, 0.5, (3, 12, 12)))
        params = GuidedFilterParams(radius=2)
        base = guided_filter(p, guide, params)
        shifted = guided_filter(Tensor(p.data + 0.25), guide, params)
        np.testing.assert_allclose(shifted.data, base.data + 0.25, atol=1e-10)

    def test_shape_mismatch_rejected(self, rng):
        with pytest.raises(ValueError, match="mismatch"):
            guided_filter(Tensor(np.zeros((3, 8, 8))),
                          textured_image(rng, 12))

    def test_param_validation(self):
        with pytest.raises(ValueError):
            GuidedFilterParams(radius=0)
        with pytest.raises(ValueError):
            GuidedFilterParams(eps=0.0)
        with pytest.raises(ValueError):
            GuidedFilterParams(eps=float("nan"))
        with pytest.raises(ValueError):
            GuidedFilterParams(eps=float("inf"))


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
    out = guided_filter(Tensor(p), Tensor(guide), GuidedFilterParams(radius, eps))
    ref = oracles.guided_filter_reference(p, guide, radius, eps)
    assert np.max(np.abs(out.data - ref)) <= 1e-8


def test_box_ops_scale_linearly_with_pixels(rng):
    params = GuidedFilterParams(radius=4)
    costs = {}
    for side in (16, 32):
        guide = textured_image(rng, side)
        p = Tensor(rng.uniform(0, 1, (3, side, side)))
        guided.BOX_OPS = 0
        guided_filter(p, guide, params)
        costs[side] = guided.BOX_OPS
    # doubling each side quadruples the pixels and exactly quadruples the work
    assert costs[32] == 4 * costs[16]
