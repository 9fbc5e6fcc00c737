import sys
import threading
import tracemalloc
from collections import Counter
from unittest import mock

import numpy as np
import pytest
import scipy.sparse as sp
from hypothesis import example, given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

import oracles
from conftest import traced_peak
from gradstyle import graphfilter
from gradstyle.graphfilter import (
    DEFAULT_MATTING_EPS,
    LaplacianPyramid,
    SparseLaplacian,
    apply_poly_filter,
    build_pyramid,
    estimate_lambda_max,
    jackson_cheb_coeffs,
    matting_laplacian,
)
from gradstyle.tensor import block_mean2, mirror_pad


def random_rgb(seed, h=8, w=8):
    return np.random.default_rng(seed).uniform(0.0, 1.0, (3, h, w))


def make_image(kind, h, w, rng):
    """A random, constant, near-constant or two-colour checkerboard
    (3, h, w) image."""
    if kind == "random":
        return rng.uniform(0.0, 1.0, (3, h, w))
    if kind == "constant":
        return np.broadcast_to(rng.uniform(0.0, 1.0, (3, 1, 1)), (3, h, w))
    if kind == "near-constant":
        return (rng.uniform(0.01, 0.99, (3, 1, 1))
                + rng.uniform(-0.01, 0.01, (3, h, w)))
    board = np.indices((h, w)).sum(axis=0) % 2
    return np.where(board, rng.uniform(0.0, 1.0, (3, 1, 1)),
                    rng.uniform(0.0, 1.0, (3, 1, 1)))


def zero_one_image(kind, h, w):
    """An all-ones, all-zeros or 0/1 checkerboard (3, h, w) image."""
    if kind == "ones":
        return np.ones((3, h, w))
    if kind == "zeros":
        return np.zeros((3, h, w))
    board = (np.indices((h, w)).sum(axis=0) % 2).astype(np.float64)
    return np.broadcast_to(board, (3, h, w))


def as_float32(lap):
    """The Laplacian with its diagonals rounded to float32, as a pyramid
    level keeps them."""
    return SparseLaplacian(lap.dia.astype(np.float32), lap.height, lap.width)


def offset_nnz(h, w):
    """Entries of an h x w image's 25-offset pattern that fall inside it."""
    return sum((h - abs(dy)) * (w - abs(dx))
               for dy in range(-2, 3) for dx in range(-2, 3))


class TestMattingLaplacian:
    def test_rows_sum_to_zero(self, rng):
        lap = matting_laplacian(random_rgb(0))
        assert np.max(np.abs(lap.mat.sum(axis=1))) <= 1e-8

    def test_constant_3x3_closed_form(self):
        lap = matting_laplacian(np.full((3, 3, 3), 0.5))
        expected = np.eye(9) - np.ones((9, 9)) / 9.0
        np.testing.assert_allclose(lap.mat.toarray(), expected, atol=1e-12)

    def test_matches_dense_window_oracle(self):
        img = random_rgb(7, 4, 4)
        lap = matting_laplacian(img, epsilon=1e-5)
        ref = oracles.matting_laplacian_dense(img, 1e-5)
        assert np.max(np.abs(lap.mat.toarray() - ref)) <= 1e-10

    @pytest.mark.parametrize("seed", range(5))
    def test_structural_invariants(self, seed):
        lap = matting_laplacian(random_rgb(seed))
        dense = lap.mat.toarray()
        assert np.max(np.abs(dense - dense.T)) <= 1e-10
        assert np.max(np.abs(dense.sum(axis=1))) <= 1e-8
        rng = np.random.default_rng(seed + 100)
        for _ in range(20):
            v = rng.standard_normal(lap.n)
            assert v @ dense @ v >= -1e-8 * (v @ v)
        nnz_per_row = np.diff(lap.mat.indptr)
        assert nnz_per_row.max() <= 25

    def test_too_small_rejected(self):
        with pytest.raises(ValueError, match="window"):
            matting_laplacian(np.full((3, 2, 5), 0.5))

    def test_out_of_range_pixels_rejected(self):
        with pytest.raises(ValueError, match="0, 1"):
            matting_laplacian(np.full((3, 4, 4), 1.5))

    @pytest.mark.parametrize("bad", [np.nan, np.inf, -np.inf])
    def test_non_finite_pixels_rejected(self, bad):
        img = np.full((3, 4, 4), 0.5)
        img[1, 2, 3] = bad
        with pytest.raises(ValueError, match="0, 1"):
            matting_laplacian(img)

    @pytest.mark.parametrize("eps", [0.0, -1e-5, np.nan])
    def test_non_positive_epsilon_rejected(self, eps):
        # a flat window's S_k is singular, and a negative epsilon breaks PSD
        with pytest.raises(ValueError, match="epsilon"):
            matting_laplacian(random_rgb(0), epsilon=eps)

    def test_no_lapack_inverse_or_solve(self, no_lapack_solves):
        matting_laplacian(random_rgb(1))

    @pytest.mark.parametrize("kind", ["random", "constant", "checkerboard"])
    @pytest.mark.parametrize("h, w", [(3, 3), (3, 11), (10, 3), (7, 9),
                                      (64, 64)])
    def test_matches_coo_oracle(self, kind, h, w):
        img = make_image(kind, h, w, np.random.default_rng(h * w))
        mat = matting_laplacian(img).mat
        ref = oracles.matting_laplacian_coo(img, DEFAULT_MATTING_EPS)
        assert mat.indptr.dtype == ref.indptr.dtype
        assert mat.indices.dtype == ref.indices.dtype
        np.testing.assert_array_equal(mat.indptr, ref.indptr)
        np.testing.assert_array_equal(mat.indices, ref.indices)
        tol = 1e-10 * max(1.0, np.abs(ref.data).max())
        assert np.max(np.abs(mat.data - ref.data)) <= tol
        # every pair of pixels at most 2 apart in both axes shares a window
        assert mat.nnz == offset_nnz(h, w)

    @pytest.mark.parametrize("kind", ["random", "constant", "checkerboard"])
    @pytest.mark.parametrize("h, w", [(3, 3), (3, 4), (4, 9), (10, 3), (7, 9),
                                      (64, 64)])
    def test_matvec_bit_equal_to_csr(self, kind, h, w):
        # the diagonals are summed in column order, as a CSR row is; at
        # w <= 4 two offsets dy*w + dx coincide and share one diagonal. A
        # float32 copy, as a pyramid level keeps, multiplies in float32.
        rng = np.random.default_rng(h * w + 1)
        lap = matting_laplacian(make_image(kind, h, w, rng))
        assert len(lap.dia.offsets) == len(np.unique(
            np.arange(-2, 3)[:, None] * w + np.arange(-2, 3)))
        x = rng.standard_normal(lap.n)
        y = lap.matvec(x)
        assert y.dtype == np.float64
        np.testing.assert_array_equal(y, lap.mat @ x)
        x32 = x.astype(np.float32)
        y32 = as_float32(lap).matvec(x32)
        assert y32.dtype == np.float32
        np.testing.assert_array_equal(y32, lap.mat.astype(np.float32) @ x32)

    def test_nnz_closed_form_at_256(self):
        mat = matting_laplacian(random_rgb(5, 256, 256)).mat
        assert mat.nnz == offset_nnz(256, 256) == 1_623_076

    def test_peak_memory_bounded(self):
        # the banded assembly peaks near 8.0 MB here, 3.3 MB of it the 25
        # diagonals; stacks over the whole image peak at 11.7 MB, and a COO
        # assembly of 81 int64 (row, col) pairs and a value per window at
        # 82.6 MB
        img = random_rgb(3, 128, 128)
        assert traced_peak(lambda: matting_laplacian(img)) < 10e6

    def test_peak_memory_bounded_at_256(self):
        # 13.1 MB of diagonals plus one band's stacks peak near 18.2 MB;
        # stacks over the whole image add 34 MB, for a 47.2 MB peak
        img = random_rgb(6, 256, 256)
        assert traced_peak(lambda: matting_laplacian(img)) < 30e6

    def test_pyramid_keeps_no_csr(self):
        # float32 diagonals alone keep 4 bytes per slot (2.2 MB for this
        # 4-level pyramid); adding a float64 copy makes 12 bytes per slot,
        # and a CSR keeps f32 values and int32 indices, about 8 bytes per
        # stored entry
        img = random_rgb(4, 128, 128)
        tracemalloc.start()
        try:
            pyramid = build_pyramid(img)
            kept, _ = tracemalloc.get_traced_memory()
        finally:
            tracemalloc.stop()
        assert all(lap.dia.dtype == np.float32 for lap in pyramid.laplacians)
        slots = 25 * sum(lap.n for lap in pyramid.laplacians)
        assert kept < 5 * slots


def assert_matches_whole_image_assembly(img):
    lap = matting_laplacian(img)
    diags, offsets = oracles.matting_diagonals_whole_image(
        img, DEFAULT_MATTING_EPS)
    np.testing.assert_array_equal(lap.dia.offsets, offsets)
    np.testing.assert_array_equal(lap.dia.data, diags)


@settings(max_examples=60, deadline=None)
@given(st.integers(3, 12), st.integers(2, 5), st.integers(1, 4),
       st.integers(-1, 1),
       st.sampled_from(["random", "constant", "checkerboard"]),
       st.integers(0, 2 ** 32 - 1))
@example(3, 2, 1, 1, "random", 0)           # one 3x3 window
@example(11, 3, 1, 0, "checkerboard", 1)    # 3xn: one band holds every row
@example(3, 2, 3, 1, "random", 2)           # a last band of one row
def test_banded_assembly_bit_equal_to_whole_image(w, band, bands, delta, kind,
                                                  seed):
    # bands of `band` rows: heights of one band, a band +- 1 and several
    # bands, each entry summed in the whole-image order
    h = max(3, band * bands + delta)
    img = make_image(kind, h, w, np.random.default_rng(seed))
    with mock.patch.object(graphfilter, "_BAND_WINDOWS", band * w):
        assert_matches_whole_image_assembly(img)


@pytest.mark.parametrize("h, w", [(3, 3), (3, 40), (3, 8193), (4, 8193),
                                  (3, 2048), (4, 2048), (5, 2048), (9, 2048),
                                  (2729, 3), (2730, 3), (2731, 3), (5461, 3)])
def test_default_bands_bit_equal_to_whole_image(h, w):
    # widths of 8193, 2048 and 3 give bands of 2, 4 and 2730 rows; at width
    # 3 a band of one window row would sum its einsums in another order
    img = make_image("random", h, w, np.random.default_rng(h + w))
    assert_matches_whole_image_assembly(img)


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 9), st.integers(3, 9),
       st.sampled_from(["random", "constant", "checkerboard"]),
       st.integers(0, 2 ** 32 - 1))
def test_every_window_adds_trace_at_least_5(h, w, kind, seed):
    # each window's block I - M_k has trace 8 - tr((S + eps/9 I)^-1 S) > 5,
    # so no matting Laplacian is the zero matrix
    lap = matting_laplacian(make_image(kind, h, w, np.random.default_rng(seed)))
    assert lap.mat.diagonal().sum() >= 5 * (h - 2) * (w - 2)
    assert lap.lambda_max > 0.0


@settings(max_examples=40, deadline=None)
@given(st.integers(3, 9), st.integers(3, 9),
       st.sampled_from(["random", "near-constant", "checkerboard"]),
       st.integers(0, 2 ** 32 - 1))
def test_spectrum_at_most_9(h, w, kind, seed):
    # each window adds I - M_k, whose eigenvalues lie in [0, 1], and every
    # pixel lies in at most 9 windows
    lap = matting_laplacian(make_image(kind, h, w, np.random.default_rng(seed)))
    assert np.linalg.eigvalsh(lap.mat.toarray()).max() <= 9.0


def estimate_of(mat, height, width):
    return estimate_lambda_max(SparseLaplacian(sp.dia_matrix(mat), height, width))


class TestLambdaMax:
    def test_two_node_path(self):
        est = estimate_of(np.array([[1.0, -1.0], [-1.0, 1.0]]), 1, 2)
        assert est == pytest.approx(2.0 * 1.01, rel=1e-3)

    def test_diagonal(self):
        est = estimate_of(np.diag([2.0, 1.0]), 1, 2)
        assert est == pytest.approx(2.0 * 1.01, rel=1e-3)

    @pytest.mark.parametrize("seed", range(5))
    def test_within_two_percent_of_dense(self, seed):
        lap = matting_laplacian(random_rgb(seed))
        true = np.linalg.eigvalsh(lap.mat.toarray()).max()
        assert abs(lap.lambda_max - true) <= 0.02 * true

    def test_zero_matrix_degenerate(self):
        assert estimate_of(np.zeros((4, 4)), 2, 2) == 0.0

    def test_iterates_on_the_float32_diagonals(self, monkeypatch):
        # the iterate has the Laplacian's dtype, so on a pyramid level, whose
        # float32 diagonals the filters apply, it is float32
        lap64 = matting_laplacian(random_rgb(2))
        level = build_pyramid(random_rgb(2, 16, 16)).laplacians[0]
        for lap, dtype in ((lap64, np.float64), (level, np.float32)):
            seen = []

            def spy(x, matvec=lap.matvec):
                seen.append(x.dtype)
                return matvec(x)
            monkeypatch.setattr(lap, "matvec", spy)
            estimate_lambda_max(lap)
            assert lap.dia.dtype == dtype
            assert seen and set(seen) == {np.dtype(dtype)}

    @pytest.mark.xfail(strict=True, reason="the 1.01x power-iteration "
                       "estimate can fall below lambda_max (ROADMAP item 2)")
    def test_estimate_covers_the_spectrum(self):
        # 8.064 against 8.281: the top of the spectrum lies outside the
        # Chebyshev domain [0, lambda_max]
        lap = matting_laplacian(random_rgb(12, 8, 8))
        assert lap.lambda_max >= np.linalg.eigvalsh(lap.mat.toarray()).max()


class TestChebCoeffs:
    def test_full_passband_is_identity(self):
        f = jackson_cheb_coeffs(5, 2.0, 2.0)
        np.testing.assert_allclose(f.coeffs, [1, 0, 0, 0, 0, 0], atol=1e-12)

    def test_half_band_analytic_values(self):
        f = jackson_cheb_coeffs(3, 1.0, 2.0)  # b = 0
        # Jackson damping at order 3: g_0 = 1, g_1 = cos(pi / 5)
        assert f.coeffs[0] == pytest.approx(0.5, abs=1e-14)
        assert f.coeffs[1] == pytest.approx(-2.0 / np.pi * np.cos(np.pi / 5),
                                            abs=1e-14)

    def test_damping_starts_at_one(self):
        f = jackson_cheb_coeffs(5, 0.4, 2.0)
        # g_0 = 1 leaves c_0 = (pi - arccos(b)) / pi undamped; b = -0.6
        assert f.coeffs[0] == pytest.approx(1.0 - np.arccos(-0.6) / np.pi,
                                            abs=1e-14)

    def test_order5_response_at_band_edges(self):
        f = jackson_cheb_coeffs(5, 0.2, 1.0)
        assert f.response(0.0) >= 0.8
        assert f.response(1.0) <= 0.2

    def test_jackson_bounds_on_grid(self):
        f = jackson_cheb_coeffs(5, 0.2, 1.0)
        grid = np.linspace(0.0, 1.0, 1000)
        r = f.response(grid)
        assert r.max() <= 1.1
        assert r.min() >= -0.1

    def test_response_matches_out_of_place_recurrence(self):
        f = jackson_cheb_coeffs(7, 0.3, 1.7)
        lams = np.linspace(0.0, 1.7, 257)
        x = 2.0 * lams / f.lambda_max - 1.0
        ref = oracles.cheb_sum_reference(f.coeffs, lambda v: x * v,
                                         np.ones_like(x))
        np.testing.assert_array_equal(f.response(lams), ref)

    def test_invalid_threshold_rejected(self):
        with pytest.raises(ValueError):
            jackson_cheb_coeffs(5, 0.0, 1.0)
        with pytest.raises(ValueError):
            jackson_cheb_coeffs(5, 2.0, 1.0)
        with pytest.raises(ValueError):
            jackson_cheb_coeffs(0, 0.5, 1.0)


class TestApplyPolyFilter:
    def test_identity_filter_returns_input(self):
        lap = matting_laplacian(random_rgb(3))
        f = jackson_cheb_coeffs(5, lap.lambda_max, lap.lambda_max)
        x = np.random.default_rng(0).standard_normal(lap.n)
        np.testing.assert_array_equal(apply_poly_filter(lap, f, x), x)

    def test_constant_is_zero_eigenvector(self):
        lap = matting_laplacian(random_rgb(4))
        f = jackson_cheb_coeffs(5, 0.2 * lap.lambda_max, lap.lambda_max)
        x = np.full(lap.n, 0.7)
        expected = f.response(0.0) * x
        assert np.max(np.abs(apply_poly_filter(lap, f, x) - expected)) <= 1e-10

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_keeps_the_signal_dtype(self, dtype):
        # on a Laplacian of the signal's dtype; a float64 coefficient or
        # scale would promote a float32 recurrence to float64 (NumPy 2
        # promotion of float64 scalars)
        lap64 = matting_laplacian(random_rgb(6))
        lap = lap64 if dtype == np.float64 else as_float32(lap64)
        f = jackson_cheb_coeffs(5, 0.2 * lap64.lambda_max, lap64.lambda_max)
        x = np.random.default_rng(6).standard_normal(lap.n)
        start = lap.matvec_count
        out = apply_poly_filter(lap, f, x.astype(dtype))
        assert out.dtype == dtype
        assert lap.matvec_count - start == 5
        ref = apply_poly_filter(lap64, f, x)
        np.testing.assert_allclose(out, ref, rtol=0, atol=1e-5 * np.abs(ref).max())

    def test_output_dtype_follows_promotion(self):
        # the recurrence adds the signal to the Laplacian's products, so a
        # float32 signal on a float64 Laplacian yields float64; a pyramid
        # level's filter_map returns the same, not rounded to the map's dtype
        lap = matting_laplacian(random_rgb(6))
        f = jackson_cheb_coeffs(5, 0.2 * lap.lambda_max, lap.lambda_max)
        x = np.random.default_rng(6).standard_normal(lap.n)
        maps = np.random.default_rng(7).standard_normal(
            (2, lap.height, lap.width))
        for lap_dtype in (np.float32, np.float64):
            op = lap if lap_dtype == np.float64 else as_float32(lap)
            for x_dtype in (np.float32, np.float64):
                out = apply_poly_filter(op, f, x.astype(x_dtype))
                assert out.dtype == np.promote_types(lap_dtype, x_dtype)
                arr = maps.astype(x_dtype)
                got = LaplacianPyramid([op], [f]).filter_map(0, arr)
                ref = np.stack([apply_poly_filter(op, f, ch.reshape(-1))
                                for ch in arr]).reshape(arr.shape)
                assert got.dtype == ref.dtype == out.dtype
                np.testing.assert_array_equal(got, ref)

    @pytest.mark.parametrize("dtype", [np.float32, np.float64])
    def test_matches_out_of_place_recurrence(self, dtype):
        # the in-place iterate updates keep the out-of-place operation
        # order, on a Laplacian of the signal's dtype
        lap64 = matting_laplacian(random_rgb(8, 12, 10))
        lap = lap64 if dtype == np.float64 else as_float32(lap64)
        f = jackson_cheb_coeffs(6, 0.2 * lap64.lambda_max, lap64.lambda_max)
        x = np.random.default_rng(8).standard_normal(lap.n).astype(dtype)
        scale = x.dtype.type(2.0 / f.lambda_max)
        ref = oracles.cheb_sum_reference(
            f.coeffs.astype(dtype), lambda v: scale * lap.matvec(v) - v, x)
        out = apply_poly_filter(lap, f, x)
        assert out.dtype == ref.dtype == dtype
        np.testing.assert_array_equal(out, ref)

    def test_float32_filtering_leaves_the_pyramid_alone(self):
        img = random_rgb(7, 16, 16)
        pyramid = build_pyramid(img)
        lap = pyramid.laplacians[0]
        dia = lap.dia
        values, offsets = dia.data.copy(), dia.offsets.copy()
        assert dia.dtype == np.float32
        np.testing.assert_array_equal(
            values, matting_laplacian(img).dia.data.astype(np.float32))
        arr = np.random.default_rng(7).standard_normal((4, 16, 16))
        out = pyramid.filter_map(0, arr.astype(np.float32))
        assert out.dtype == np.float32
        assert lap.dia is dia and dia.dtype == np.float32
        np.testing.assert_array_equal(dia.data, values)
        np.testing.assert_array_equal(dia.offsets, offsets)

    @pytest.mark.parametrize("seed", range(5))
    def test_matches_dense_spectral_oracle(self, seed):
        lap = matting_laplacian(random_rgb(seed))
        f = jackson_cheb_coeffs(5, 0.2 * lap.lambda_max, lap.lambda_max)
        x = np.random.default_rng(seed + 50).standard_normal(lap.n)
        x /= np.linalg.norm(x)
        ref = oracles.spectral_filter_dense(lap.mat.toarray(), f.response, x)
        assert np.max(np.abs(apply_poly_filter(lap, f, x) - ref)) <= 1e-8

    def test_linear_in_signal(self):
        lap = matting_laplacian(random_rgb(9))
        f = jackson_cheb_coeffs(5, 0.2 * lap.lambda_max, lap.lambda_max)
        rng = np.random.default_rng(1)
        x, y = rng.standard_normal((2, lap.n))
        lhs = apply_poly_filter(lap, f, 0.3 * x - 1.7 * y)
        rhs = 0.3 * apply_poly_filter(lap, f, x) - 1.7 * apply_poly_filter(lap, f, y)
        assert np.max(np.abs(lhs - rhs)) <= 1e-12

    def test_exactly_order_matvecs_per_signal(self):
        lap = matting_laplacian(random_rgb(11))
        f = jackson_cheb_coeffs(5, 0.2 * lap.lambda_max, lap.lambda_max)
        before = lap.matvec_count
        apply_poly_filter(lap, f, np.ones(lap.n))
        assert lap.matvec_count - before == 5

    def test_dimension_mismatch_rejected(self):
        lap = matting_laplacian(random_rgb(2))
        f = jackson_cheb_coeffs(5, 0.2 * lap.lambda_max, lap.lambda_max)
        with pytest.raises(ValueError, match="length"):
            apply_poly_filter(lap, f, np.ones(5))
        with pytest.raises(ValueError, match="length"):
            apply_poly_filter(lap, f, np.ones((lap.n, 2)))

    @pytest.mark.parametrize("seed", range(5))
    def test_order50_beats_order5_against_ideal_step(self, seed):
        lap = matting_laplacian(random_rgb(seed + 20))
        lams = np.linalg.eigvalsh(lap.mat.toarray())
        star = 0.2 * lap.lambda_max
        ideal = (lams <= star).astype(float)
        errs = {}
        for p in (5, 50):
            f = jackson_cheb_coeffs(p, star, lap.lambda_max)
            errs[p] = np.max(np.abs(f.response(lams) - ideal))
        assert errs[50] < errs[5]


class TestExactProjector:
    def test_eigenvector_pass_and_kill(self):
        lap = matting_laplacian(random_rgb(5))
        dense = lap.mat.toarray()
        lams, u = np.linalg.eigh((dense + dense.T) / 2)
        star = 0.2 * lap.lambda_max
        proj = oracles.exact_projector(lap, star)
        np.testing.assert_allclose(proj(u[:, 0]), u[:, 0], atol=1e-10)
        assert lams[-1] > star
        np.testing.assert_allclose(proj(u[:, -1]), 0.0, atol=1e-10)

    def test_idempotent(self):
        lap = matting_laplacian(random_rgb(6))
        proj = oracles.exact_projector(lap, 0.2 * lap.lambda_max)
        p = proj.matrix
        assert np.max(np.abs(p @ p - p)) <= 1e-10

    def test_full_band_is_identity_map(self):
        lap = matting_laplacian(random_rgb(8))
        proj = oracles.exact_projector(lap, lap.lambda_max * 2.0)
        assert proj.is_identity
        x = np.arange(float(lap.n))
        assert proj(x) is x
        np.testing.assert_array_equal(proj.matrix, np.eye(lap.n))

    def test_size_cap(self):
        lap = matting_laplacian(random_rgb(1))
        with pytest.raises(ValueError, match="limited to"):
            oracles.exact_projector(lap, 1.0, max_n=10)


# even-sided (3, h, w) arrays with entries anywhere in [0, 1], ends included
UNIT_ARRAYS = st.tuples(st.integers(1, 6), st.integers(1, 6)).flatmap(
    lambda hw: hnp.arrays(np.float64, (3, 2 * hw[0], 2 * hw[1]),
                          elements=st.floats(0.0, 1.0)))


@settings(max_examples=60, deadline=None)
@given(UNIT_ARRAYS)
@example(zero_one_image("ones", 6, 8))
@example(zero_one_image("zeros", 6, 8))
@example(zero_one_image("checkerboard", 6, 8))
def test_block_mean2_of_unit_values_stays_in_unit_interval(arr):
    # every partial sum of four values in [0, 1] rounds to within [0, 4] and
    # the 0.25 scale is exact, so build_pyramid needs no clip between levels
    out = block_mean2(arr)
    assert 0.0 <= out.min() and out.max() <= 1.0


class TestPyramid:
    def test_level_dimensions(self):
        pyr = build_pyramid(np.random.default_rng(0).uniform(0, 1, (3, 32, 32)))
        assert [lap.n for lap in pyr.laplacians] == [1024, 256, 64, 16]

    def test_nan_pixel_rejected_as_out_of_range(self):
        # NaN fails both `min() < 0` and `max() > 1`; let through, it
        # surfaces as "need 0 < lambda_star <= lambda_max, got nan vs nan"
        img = random_rgb(2, 32, 32)
        img[0, 5, 7] = np.nan
        with pytest.raises(ValueError, match=r"pixel values must lie in \[0, 1\]"):
            build_pyramid(img)

    def test_constant_filters_as_zero_eigenvector(self):
        # a float32 level's rows sum to zero only within float32 rounding
        # (4.2e-7 here), so a float32 constant passes within a few float32
        # ulps of 1.3 (2.8e-7 measured)
        pyr = build_pyramid(np.full((3, 16, 16), 0.25))
        for lvl in range(4):
            side = 16 >> lvl
            sig = np.full((2, side, side), 1.3, dtype=np.float32)
            out = pyr.filter_map(lvl, sig)
            assert out.dtype == np.float32
            r0 = pyr.filters[lvl].response(0.0) if pyr.filters[lvl] else 1.0
            assert np.max(np.abs(out - r0 * sig)) <= 1e-6

    def test_every_level_matches_dense_oracle(self):
        # the 1/8 level of a 16x16 image is 2x2: no 3x3 window fits, the
        # Laplacian is empty and the exact low-pass there is the identity.
        # The oracle decomposes the level's float32 values in float64, the
        # precision a float64 signal is filtered in.
        content = np.random.default_rng(2).uniform(0, 1, (3, 16, 16))
        pyr = build_pyramid(content)
        rng = np.random.default_rng(3)
        for lvl in range(4):
            lap, f = pyr.laplacians[lvl], pyr.filters[lvl]
            x = rng.standard_normal(lap.n)
            x /= np.linalg.norm(x)
            ref = x if f is None else oracles.spectral_filter_dense(
                lap.mat.toarray().astype(np.float64), f.response, x)
            side = 16 >> lvl
            out = pyr.filter_map(lvl, x.reshape(1, side, side)).reshape(-1)
            assert np.max(np.abs(out - ref)) <= 1e-8
        assert pyr.filters[3] is None and pyr.laplacians[3].mat.nnz == 0

    def test_lambda_max_is_estimated_once_at_build(self, monkeypatch):
        # reading a level's lambda_max after the build multiplies nothing,
        # and two threads filtering one pyramid each make exactly 5
        # products per filtered channel at every level
        pyr = build_pyramid(random_rgb(9, 32, 32))
        built = [lap.matvec_count for lap in pyr.laplacians]
        assert all(built)

        def no_estimate(lap):
            raise AssertionError("lambda_max estimated after the build")
        monkeypatch.setattr(graphfilter, "estimate_lambda_max", no_estimate)
        assert ([lap.lambda_max for lap in pyr.laplacians]
                == [f.lambda_max for f in pyr.filters])
        assert [lap.matvec_count for lap in pyr.laplacians] == built

        callers = [[] for _ in pyr.laplacians]
        for lap, log in zip(pyr.laplacians, callers):
            def spy(x, matvec=lap.matvec, log=log):
                log.append(threading.get_ident())
                return matvec(x)
            monkeypatch.setattr(lap, "matvec", spy)
        channels = {"a": 2, "b": 3}
        rng = np.random.default_rng(9)
        maps = {name: [rng.standard_normal((c, lap.height, lap.width))
                       .astype(np.float32) for lap in pyr.laplacians]
                for name, c in channels.items()}
        start = threading.Barrier(len(channels))
        idents, results, errors = {}, {}, []

        def run(name):
            try:
                idents[name] = threading.get_ident()
                start.wait(timeout=60)
                results[name] = [pyr.filter_map(lvl, arr)
                                 for lvl, arr in enumerate(maps[name])]
            except Exception as err:       # reported by the assertion below
                errors.append(f"{name}: {err!r}")

        threads = [threading.Thread(target=run, args=(name,))
                   for name in channels]
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
        for log in callers:
            assert Counter(log) == {idents[name]: 5 * c
                                    for name, c in channels.items()}
        for name in channels:
            for lvl, arr in enumerate(maps[name]):
                np.testing.assert_array_equal(results[name][lvl],
                                              pyr.filter_map(lvl, arr))

    @pytest.mark.parametrize("side", [24, 40])
    def test_odd_deepest_level_builds(self, side):
        # side / 8 is odd: the deepest level must not be halved once more
        pyr = build_pyramid(np.random.default_rng(side).uniform(0, 1, (3, side, side)))
        assert [(lap.height, lap.width) for lap in pyr.laplacians] == [
            (side >> lvl, side >> lvl) for lvl in range(4)]

    @pytest.mark.parametrize("kind", ["ones", "checkerboard"])
    def test_extreme_images_build_every_level(self, kind):
        # matting_laplacian rejects a level that leaves [0, 1]
        pyr = build_pyramid(zero_one_image(kind, 32, 32))
        assert [lap.n for lap in pyr.laplacians] == [1024, 256, 64, 16]

    def test_resolution_mismatch_rejected(self):
        pyr = build_pyramid(np.full((3, 16, 16), 0.5))
        with pytest.raises(ValueError, match="expects"):
            pyr.filter_map(0, np.zeros((1, 8, 8)))

    def test_pads_its_input_like_stylize(self):
        # 250 pads to 256: every level is built on the mirror-padded content
        img = np.random.default_rng(5).uniform(0, 1, (3, 250, 250))
        pyr = build_pyramid(img)
        ref = build_pyramid(mirror_pad(img, 8))
        for lap, f, ref_lap, ref_f in zip(pyr.laplacians, pyr.filters,
                                          ref.laplacians, ref.filters):
            assert (lap.height, lap.width) == (ref_lap.height, ref_lap.width)
            for part in ("data", "indices", "indptr"):
                np.testing.assert_array_equal(getattr(lap.mat, part),
                                              getattr(ref_lap.mat, part))
            assert lap.lambda_max == ref_lap.lambda_max
            np.testing.assert_array_equal(f.coeffs, ref_f.coeffs)
        assert [lap.height for lap in pyr.laplacians] == [256, 128, 64, 32]

