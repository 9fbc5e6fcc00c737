import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from gradstyle.tensor import (
    ConvLayer,
    GradTape,
    NonFiniteError,
    TapeError,
    Tensor,
    avg_pool2,
    backward,
    bilinear_up2,
    chan_matmul,
    clip_unit,
    conv2d_reflect,
    lincomb,
    masked_gram,
    relu,
    sqsum,
    tv,
    vsum,
    xavier_init_rng,
)


def make_layer(rng, out_ch, in_ch, k=3, use_relu=False, zero_bias=False):
    kernel = Tensor(rng.standard_normal((out_ch, in_ch, k, k)))
    bias = Tensor(np.zeros(out_ch) if zero_bias else rng.standard_normal(out_ch))
    return ConvLayer(kernel, bias, relu=use_relu)


class TestConv:
    def test_identity_1x1_kernel(self, rng):
        x = Tensor(rng.uniform(-1, 1, (1, 5, 7)))
        layer = ConvLayer(Tensor(np.ones((1, 1, 1, 1))), Tensor(np.zeros(1)),
                          relu=False)
        out = conv2d_reflect(x, layer)
        np.testing.assert_array_equal(out.data, x.data)

    def test_constant_preserved_by_mean_kernel(self):
        layer = ConvLayer(Tensor(np.full((1, 1, 3, 3), 1.0 / 9.0)),
                          Tensor(np.zeros(1)), relu=False)
        x = Tensor(np.full((1, 6, 4), 0.37))
        out = conv2d_reflect(x, layer)
        np.testing.assert_allclose(out.data, 0.37, atol=1e-15)

    def test_matches_loop_nest_oracle(self, rng):
        x = Tensor(rng.uniform(-1, 1, (2, 4, 4)))
        layer = make_layer(rng, 3, 2)
        out = conv2d_reflect(x, layer)
        ref = oracles.conv_reference(x.data, layer.kernel.data,
                                     layer.bias.data, False)
        assert np.max(np.abs(out.data - ref)) <= 1e-12

    def test_relu_flag_matches_oracle(self, rng):
        x = Tensor(rng.uniform(-1, 1, (2, 5, 3)))
        layer = make_layer(rng, 2, 2, use_relu=True)
        out = conv2d_reflect(x, layer)
        ref = oracles.conv_reference(x.data, layer.kernel.data,
                                     layer.bias.data, True)
        assert np.max(np.abs(out.data - ref)) <= 1e-12

    def test_channel_mismatch_rejected(self, rng):
        x = Tensor(rng.uniform(0, 1, (3, 4, 4)))
        with pytest.raises(ValueError, match="channel mismatch"):
            conv2d_reflect(x, make_layer(rng, 2, 2))

    def test_degenerate_1x1_input_replicates(self, rng):
        # the deepest level of an 8x8 image is 1x1; padding replicates there
        x = Tensor(np.array([[[2.0]]]))
        layer = make_layer(rng, 1, 1)
        out = conv2d_reflect(x, layer)
        expected = 2.0 * layer.kernel.data.sum() + layer.bias.data[0]
        np.testing.assert_allclose(out.data[0, 0, 0], expected, rtol=1e-14)


class TestPool:
    def test_block_mean(self):
        x = Tensor(np.array([[[1.0, 2.0], [3.0, 4.0]]]))
        assert avg_pool2(x).data[0, 0, 0] == 2.5

    def test_constant_preserved(self):
        x = Tensor(np.full((2, 4, 6), 0.81))
        np.testing.assert_array_equal(avg_pool2(x).data, 0.81)

    def test_matches_oracle(self, rng):
        x = Tensor(rng.uniform(-1, 1, (2, 6, 6)))
        np.testing.assert_allclose(avg_pool2(x).data,
                                   oracles.pool_reference(x.data), atol=1e-14)

    def test_odd_dims_rejected(self, rng):
        with pytest.raises(ValueError, match="even"):
            avg_pool2(Tensor(rng.uniform(0, 1, (1, 3, 4))))


class TestBilinearUp2:
    def test_constant(self):
        x = Tensor(np.full((2, 3, 5), 0.4))
        np.testing.assert_allclose(bilinear_up2(x).data, 0.4, atol=1e-15)

    def test_1x1_clamps(self):
        out = bilinear_up2(Tensor(np.array([[[0.7]]])))
        np.testing.assert_array_equal(out.data, np.full((1, 2, 2), 0.7))

    def test_1x2_coordinates(self):
        out = bilinear_up2(Tensor(np.array([[[0.0, 1.0]]])))
        np.testing.assert_allclose(out.data[0, 0], [0.0, 0.25, 0.75, 1.0],
                                   atol=1e-15)
        np.testing.assert_allclose(out.data[0, 1], [0.0, 0.25, 0.75, 1.0],
                                   atol=1e-15)

    def test_matches_oracle(self, rng):
        x = Tensor(rng.uniform(-1, 1, (2, 3, 4)))
        np.testing.assert_allclose(bilinear_up2(x).data,
                                   oracles.bilinear_up2_reference(x.data),
                                   atol=1e-14)


class TestPointwise:
    def test_relu_values(self):
        out = relu(Tensor(np.array([[[-1.0, 2.0]]])))
        np.testing.assert_array_equal(out.data, [[[0.0, 2.0]]])

    def test_clip_values(self):
        out = clip_unit(Tensor(np.array([[[1.5, -0.2, 0.3]]])))
        np.testing.assert_array_equal(out.data, [[[1.0, 0.0, 0.3]]])

    @pytest.mark.parametrize("x,expected", [(0.5, 1.0), (1.5, 0.0), (-0.5, 0.0)])
    def test_clip_gradient(self, x, expected):
        t = Tensor(np.array([[[x]]]))
        with GradTape() as tape:
            loss = vsum(clip_unit(t))
            grads = backward(tape, loss)
        assert grads[t][0, 0, 0] == expected


class TestBackward:
    def test_sum_gradient_all_ones(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 3)))
        with GradTape() as tape:
            grads = backward(tape, vsum(x))
        np.testing.assert_array_equal(grads[x], np.ones((2, 3, 3)))

    def test_relu_square_analytic(self):
        x = Tensor(np.array([[[1.0, -1.0]]]))
        with GradTape() as tape:
            loss = sqsum(relu(x))
            grads = backward(tape, loss)
        np.testing.assert_array_equal(grads[x], [[[2.0, 0.0]]])

    def test_rejects_non_scalar(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 2)))
        with GradTape() as tape:
            y = relu(x)
            with pytest.raises(TapeError, match="scalar"):
                backward(tape, y)

    def test_rejects_empty_tape(self):
        with pytest.raises(TapeError, match="empty"):
            backward(GradTape(), Tensor(np.asarray(1.0)))

    def test_shared_input_accumulates(self, rng):
        x = Tensor(np.array([[[3.0]]]))
        with GradTape() as tape:
            loss = vsum(lincomb(x, x, 1.0, 2.0))
            grads = backward(tape, loss)
        assert grads[x][0, 0, 0] == 3.0

    def test_non_finite_is_rejected(self):
        with pytest.raises(NonFiniteError):
            Tensor(np.array([np.nan]))


def _fd_check(build, params, rng, tol=1e-4):
    """Gradient of a taped scalar vs central differences on every input."""
    with GradTape() as tape:
        loss = build()
        grads = backward(tape, loss)
    for p in params:
        numeric = oracles.numeric_grad(lambda: float(build().data), p.data)
        assert oracles.rel_err(grads[p], numeric) <= tol


PRIMITIVE_CASES = [
    "conv", "conv_relu", "pool", "up", "clamp", "lincomb", "chan_matmul",
    "masked_gram", "sqsum", "vsum", "tv",
]


@pytest.mark.parametrize("kind", PRIMITIVE_CASES)
@pytest.mark.parametrize("seed", range(20))
def test_primitive_vjp_matches_finite_differences(kind, seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.uniform(-1, 1, (2, 4, 4)))
    if kind in ("conv", "conv_relu"):
        layer = make_layer(rng, 3, 2, use_relu=kind == "conv_relu")
        build = lambda: sqsum(conv2d_reflect(x, layer))
        params = [x, layer.kernel, layer.bias]
    elif kind == "pool":
        build = lambda: sqsum(avg_pool2(x))
        params = [x]
    elif kind == "up":
        build = lambda: sqsum(bilinear_up2(x))
        params = [x]
    elif kind == "clamp":
        # keep probes away from the kinks so differences are two-sided
        x = Tensor(np.where(np.abs(x.data) < 0.05, 0.2, x.data))
        build = lambda: sqsum(clip_unit(x))
        params = [x]
    elif kind == "lincomb":
        y = Tensor(rng.uniform(-1, 1, (2, 4, 4)))
        build = lambda: sqsum(lincomb(x, y, 0.7, -1.3))
        params = [x, y]
    elif kind == "chan_matmul":
        m = Tensor(rng.standard_normal((2, 2)))
        build = lambda: sqsum(chan_matmul(x, m))
        params = [x, m]
    elif kind == "masked_gram":
        mask = (rng.uniform(0, 1, 16) > 0.3).astype(float)
        mask[0] = 1.0
        build = lambda: sqsum(masked_gram(x, mask))
        params = [x]
    elif kind == "sqsum":
        build = lambda: sqsum(x)
        params = [x]
    elif kind == "vsum":
        build = lambda: sqsum(lincomb(vsum(x), a=0.5))
        params = [x]
    else:
        build = lambda: tv(x)
        params = [x]
    _fd_check(build, params, rng)


@pytest.mark.parametrize("seed", range(5))
def test_spatial_primitives_are_linear(seed):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((2, 4, 6)))
    y = Tensor(rng.standard_normal((2, 4, 6)))
    a, b = rng.standard_normal(2)
    layer = make_layer(rng, 3, 2, zero_bias=True)
    combo = Tensor(a * x.data + b * y.data)
    for f in (lambda t: conv2d_reflect(t, layer), avg_pool2, bilinear_up2):
        lhs = f(combo).data
        rhs = a * f(x).data + b * f(y).data
        assert np.max(np.abs(lhs - rhs)) <= 1e-12


@settings(max_examples=30, deadline=None)
@given(st.integers(0, 10_000), st.floats(-2, 2), st.floats(-2, 2))
def test_lincomb_matches_direct_arithmetic(seed, a, b):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((1, 3, 3)))
    y = Tensor(rng.standard_normal((1, 3, 3)))
    np.testing.assert_allclose(lincomb(x, y, a, b).data,
                               a * x.data + b * y.data, atol=1e-12)


# spatial sides cover the degenerate 1 (pad replicates), 2 (pad equals
# side - 1) and odd sizes; channel relations select both conv GEMM orders
SIDES = st.integers(1, 7)
RELATIONS = {"fewer_out": (4, 2), "more_out": (2, 4), "equal": (3, 3)}
ACTIVATIONS = {"relu": (True, True), "linear": (False, True),
               "relu_deferred": (True, False)}


def _conv_case(seed, relation, k, h, w, use_relu=False):
    rng = np.random.default_rng(seed)
    c, co = RELATIONS[relation]
    x = Tensor(rng.uniform(-1, 1, (c, h, w)))
    return x, make_layer(rng, co, c, k=k, use_relu=use_relu)


def _vjp(build, g):
    """Vector-Jacobian product of the single primitive `build` records."""
    with GradTape() as tape:
        out = build()
    assert len(tape.records) == 1
    return out.data, tape.records[0].vjp(g)


@pytest.mark.parametrize("activation", ACTIVATIONS)
@pytest.mark.parametrize("relation", RELATIONS)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.sampled_from((1, 3)), h=SIDES, w=SIDES)
@example(seed=0, k=3, h=1, w=1)
@example(seed=1, k=3, h=1, w=5)
@example(seed=2, k=3, h=2, w=2)
@example(seed=3, k=1, h=5, w=3)
def test_conv_matches_oracle_for_any_shape(relation, activation, seed, k, h, w):
    use_relu, apply = ACTIVATIONS[activation]
    x, layer = _conv_case(seed, relation, k, h, w, use_relu)
    out = conv2d_reflect(x, layer, apply_activation=apply)
    ref = oracles.conv_reference(x.data, layer.kernel.data, layer.bias.data,
                                 use_relu and apply)
    assert np.max(np.abs(out.data - ref)) <= 1e-12


@pytest.mark.parametrize("relation", RELATIONS)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.sampled_from((1, 3)), h=SIDES, w=SIDES)
@example(seed=0, k=3, h=1, w=1)
@example(seed=1, k=3, h=1, w=4)
@example(seed=2, k=3, h=2, w=2)
def test_conv_vjp_is_the_adjoint(relation, seed, k, h, w):
    # a linear conv is bilinear in (input, kernel): <conv(x; W) + b, g>
    # equals <x, g_x> + <b, g_b> and <W, g_w> + <b, g_b>
    x, layer = _conv_case(seed, relation, k, h, w)
    g = np.random.default_rng(seed + 1).standard_normal((layer.out_ch, h, w))
    out, (g_x, g_w, g_b) = _vjp(lambda: conv2d_reflect(x, layer), g)
    lhs = np.sum(out * g)
    bias_term = np.sum(layer.bias.data * g_b)
    scale = max(1.0, abs(lhs))
    assert abs(np.sum(x.data * g_x) + bias_term - lhs) <= 1e-12 * scale
    assert abs(np.sum(layer.kernel.data * g_w) + bias_term - lhs) <= 1e-12 * scale
    np.testing.assert_allclose(g_b, g.reshape(layer.out_ch, -1).sum(axis=1),
                               rtol=1e-14)


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), c=st.integers(1, 3), h=SIDES, w=SIDES)
@example(seed=0, c=1, h=1, w=1)
@example(seed=1, c=2, h=1, w=6)
@example(seed=2, c=2, h=5, w=1)
def test_bilinear_up2_is_bit_equal_to_the_gather_formula(seed, c, h, w):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((c, h, w)))
    np.testing.assert_array_equal(bilinear_up2(x).data,
                                  oracles.bilinear_up2_gather(x.data))
    g = rng.standard_normal((c, 2 * h, 2 * w))
    out, (g_x,) = _vjp(lambda: bilinear_up2(x), g)
    assert abs(np.sum(x.data * g_x) - np.sum(out * g)) <= 1e-12 * max(
        1.0, abs(np.sum(out * g)))


@settings(max_examples=40, deadline=None)
@given(seed=st.integers(0, 10_000), c=st.integers(1, 3),
       h=st.integers(1, 4), w=st.integers(1, 4))
def test_avg_pool2_matches_oracle(seed, c, h, w):
    rng = np.random.default_rng(seed)
    x = Tensor(rng.standard_normal((c, 2 * h, 2 * w)))
    np.testing.assert_allclose(avg_pool2(x).data,
                               oracles.pool_reference(x.data), atol=1e-15)
    g = rng.standard_normal((c, h, w))
    out, (g_x,) = _vjp(lambda: avg_pool2(x), g)
    assert abs(np.sum(x.data * g_x) - np.sum(out * g)) <= 1e-12 * max(
        1.0, abs(np.sum(out * g)))


class TestXavier:
    def test_conv_bound_formula(self):
        w = xavier_init_rng(np.random.default_rng(0), (32, 16, 3, 3))
        bound = np.sqrt(6.0 / (16 * 9 + 32 * 9))
        assert np.max(np.abs(w)) <= bound
        assert np.max(np.abs(w)) >= 0.95 * bound  # draws reach the bound

    def test_draw_statistics(self):
        w = xavier_init_rng(np.random.default_rng(1),
                            (100, 100, 3, 3)).reshape(-1)[:100_000]
        bound = np.sqrt(6.0 / (100 * 9 + 100 * 9))
        assert abs(w.mean()) <= 0.01 * bound
        assert abs(w.var() - bound ** 2 / 3.0) <= 0.1 * bound ** 2 / 3.0
