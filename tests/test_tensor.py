import copy
import weakref
from dataclasses import replace
from functools import partial

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

import oracles
from conftest import held_bytes, traced_peak
from gradstyle.network import init_model, unroll
from gradstyle.perceptual import (
    build_style_target,
    default_extractor,
    extract_features,
    total_loss,
)
from gradstyle.tensor import (
    ConvLayer,
    GradTape,
    NonFiniteError,
    TapeError,
    Tensor,
    _active_tape,
    avg_pool2,
    backward,
    bilinear_up2,
    block_mean2,
    chan_matmul,
    clip_unit,
    conv2d_reflect,
    inv_sym3,
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
        # one 2x2 mean for the network and the photoreal and mask pyramids
        np.testing.assert_array_equal(avg_pool2(x).data, block_mean2(x.data))

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

    def test_rejects_output_not_recorded_on_the_tape(self, rng):
        # a loss formed after the tape closed used to return {loss: 1.0}
        # and no gradient for x
        x = Tensor(rng.standard_normal((1, 2, 2)))
        with GradTape() as tape:
            y = relu(x)
        with pytest.raises(TapeError, match="not recorded"):
            backward(tape, vsum(y))
        with GradTape() as other:
            z = vsum(y)
        with pytest.raises(TapeError, match="not recorded"):
            backward(tape, z)
        assert set(backward(other, z)) == {y}

    def test_shared_input_accumulates(self, rng):
        x = Tensor(np.array([[[3.0]]]))
        with GradTape() as tape:
            loss = vsum(lincomb(x, x, 1.0, 2.0))
            grads = backward(tape, loss)
        assert grads[x][0, 0, 0] == 3.0

    def test_non_finite_is_rejected(self):
        with pytest.raises(NonFiniteError):
            Tensor(np.array([np.nan]))

    def test_result_holds_only_the_leaves(self, rng):
        x = Tensor(rng.standard_normal((2, 3, 3)))
        m = Tensor(rng.standard_normal((2, 2)))
        with GradTape() as tape:
            y = relu(chan_matmul(x, m))
            loss = vsum(lincomb(y, x, 1.0, 0.5))
            grads = backward(tape, loss)
        assert set(grads) == {x, m}

    def test_training_step_peak_memory(self, rng):
        # one 64x64 training step: keeping every intermediate gradient until
        # the end peaked at 25 MB, the leaves' gradients alone take 5.4 MB
        model, fe = init_model(0), default_extractor(0)
        target = build_style_target(rng.uniform(0, 1, (3, 64, 64)), fe)
        img = Tensor(rng.uniform(0, 1, (3, 64, 64)))
        c_feats = extract_features(img, fe)
        with GradTape() as tape:
            loss, _ = total_loss(unroll(img, model), c_feats, target, fe)
            grads = backward(tape, loss)
            peak = traced_peak(lambda: backward(tape, loss))
        assert set(model.parameters()) <= set(grads)
        assert peak < 12e6

    def test_training_tape_keeps_only_what_vjps_read(self, rng):
        # one 64x64 training step's tape: holding every intermediate map
        # kept 26.7 MB, the arrays the vjps read and the leaves take 13.4 MB
        model, fe = init_model(0), default_extractor(0)
        target = build_style_target(rng.uniform(0, 1, (3, 64, 64)), fe)
        img = Tensor(rng.uniform(0, 1, (3, 64, 64)))
        c_feats = extract_features(img, fe)

        def taped_step():
            with GradTape() as tape:
                total_loss(unroll(img, model), c_feats, target, fe)
            return tape
        assert held_bytes(taped_step) < 18e6

    def test_unread_intermediate_is_freed_while_the_tape_is_open(self, rng):
        # neither bilinear_up2's vjp nor lincomb's reads the upsampled map
        x = Tensor(rng.standard_normal((2, 4, 4)))
        y = Tensor(rng.standard_normal((2, 8, 8)))
        with GradTape() as tape:
            up = bilinear_up2(x)
            alive = weakref.ref(up.data)
            out = lincomb(up, y, 1.0, 2.0)
            del up
            assert alive() is None
            grads = backward(tape, vsum(out))
        assert set(grads) == {x, y}
        # each input pixel's bilinear weights over the doubled grid sum to 4
        np.testing.assert_array_equal(grads[x], np.full((2, 4, 4), 4.0))

    @pytest.mark.parametrize("use_relu", [False, True])
    def test_conv_output_is_kept_only_for_its_relu_mask(self, use_relu, rng):
        # vsum's vjp reads no input, so only conv's own vjp could keep it
        x = Tensor(rng.standard_normal((2, 4, 4)))
        layer = make_layer(rng, 3, 2, use_relu=use_relu)
        with GradTape() as tape:
            y = conv2d_reflect(x, layer)
            alive = weakref.ref(y.data)
            loss = vsum(y)
            del y
            assert (alive() is not None) == use_relu
            grads = backward(tape, loss)
        assert set(grads) == {x, layer.kernel, layer.bias}

    def test_deep_copy_of_taped_tensor_is_its_own_leaf(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 2)))
        with GradTape() as tape:
            a = lincomb(x, x)
            b = copy.deepcopy(a)
            grads = backward(tape, vsum(lincomb(a, b, 1.0, 3.0)))
        assert set(grads) == {x, b}
        # b's gradient stays on b: through a alone, x gets 2 per entry
        np.testing.assert_array_equal(grads[x], np.full((1, 2, 2), 2.0))
        np.testing.assert_array_equal(grads[b], np.full((1, 2, 2), 3.0))


class TestNestedTapes:
    def test_inner_tape_takes_over_while_open(self, rng):
        x = Tensor(rng.standard_normal((1, 2, 2)))
        with GradTape() as outer:
            a = relu(x)
            with GradTape() as inner:
                assert _active_tape() is inner
                b = relu(a)
            assert _active_tape() is outer
            c = relu(b)
        assert _active_tape() is None
        assert [r.output for r in outer.records] == [a._key, c._key]
        assert [r.output for r in inner.records] == [b._key]
        # to the outer tape, the inner tape's output is a leaf
        assert outer.records[1].inputs[0] is b


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
        build = lambda: sqsum(lincomb(vsum(x), vsum(x), 0.25, 0.25))
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
    out = conv2d_reflect(x, replace(layer, relu=use_relu and apply))
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
    co = layer.kernel.data.shape[0]
    g = np.random.default_rng(seed + 1).standard_normal((co, h, w))
    out, (g_x, g_w, g_b) = _vjp(lambda: conv2d_reflect(x, layer), g)
    lhs = np.sum(out * g)
    bias_term = np.sum(layer.bias.data * g_b)
    scale = max(1.0, abs(lhs))
    assert abs(np.sum(x.data * g_x) + bias_term - lhs) <= 1e-12 * scale
    assert abs(np.sum(layer.kernel.data * g_w) + bias_term - lhs) <= 1e-12 * scale
    np.testing.assert_allclose(g_b, g.reshape(co, -1).sum(axis=1),
                               rtol=1e-14)


def _assert_conv_vjp_matches_oracle(x, layer, g):
    out, grads = _vjp(lambda: conv2d_reflect(x, layer), g)
    refs = oracles.conv_vjp_reference(x.data, layer.kernel.data, out, g,
                                      layer.relu)
    for got, ref in zip(grads, refs):
        assert got.shape == ref.shape
        assert np.max(np.abs(got - ref)) <= 1e-12 * np.max(np.abs(ref))


@pytest.mark.parametrize("relation", RELATIONS)
@settings(max_examples=25, deadline=None)
@given(seed=st.integers(0, 10_000), k=st.sampled_from((1, 3)), h=SIDES,
       w=SIDES, use_relu=st.booleans())
@example(seed=0, k=1, h=1, w=1, use_relu=False)
@example(seed=1, k=3, h=1, w=1, use_relu=True)
@example(seed=2, k=3, h=2, w=7, use_relu=False)
def test_conv_vjp_matches_column_oracle(relation, seed, k, h, w, use_relu):
    x, layer = _conv_case(seed, relation, k, h, w, use_relu)
    co = layer.kernel.data.shape[0]
    g = np.random.default_rng(seed + 1).standard_normal((co, h, w))
    _assert_conv_vjp_matches_oracle(x, layer, g)


# (in, out, side, relu) of the 13 convs a 64x64 training step runs: the
# network's forward and backward pyramids and the loss extractor
TRAIN_LAYERS = [(3, 16, 64, True), (16, 32, 32, True), (32, 64, 16, True),
                (64, 128, 8, True), (128, 64, 8, True), (64, 32, 16, True),
                (32, 16, 32, True), (16, 3, 64, False), (3, 8, 64, True),
                (8, 16, 32, True), (16, 32, 16, True), (32, 64, 8, True),
                (64, 64, 4, True)]


@pytest.mark.parametrize("c,co,side,use_relu", TRAIN_LAYERS)
def test_conv_vjp_matches_column_oracle_on_train_layers(c, co, side, use_relu):
    rng = np.random.default_rng(c * co + side)
    x = Tensor(rng.uniform(-1, 1, (c, side, side)))
    layer = ConvLayer(Tensor(xavier_init_rng(rng, (co, c, 3, 3))),
                      Tensor(0.1 * rng.standard_normal(co)), relu=use_relu)
    _assert_conv_vjp_matches_oracle(x, layer,
                                    rng.standard_normal((co, side, side)))


class TestConvMemory:
    """A taped conv keeps its padded input and output; its vjp multiplies
    shifted windows of that input and builds no (c*9, h*w) column matrix
    (4.7 MB in float64 for 16 input channels at 64x64)."""

    @staticmethod
    def _case(c, co):
        rng = np.random.default_rng(c + co)
        return (Tensor(rng.standard_normal((c, 64, 64))),
                make_layer(rng, co, c, use_relu=True),
                rng.standard_normal((co, 64, 64)))

    def test_vjp_builds_no_column_matrix(self):
        x, layer, g = self._case(16, 3)
        with GradTape() as tape:
            conv2d_reflect(x, layer)
        vjp = tape.records[0].vjp
        assert traced_peak(lambda: vjp(g)) < 4e6

    def test_taped_conv_keeps_no_column_matrix(self):
        x, layer, _ = self._case(16, 32)

        def taped_conv():
            with GradTape() as tape:
                conv2d_reflect(x, layer)
            assert len(tape.records) == 1
            return tape
        assert held_bytes(taped_conv) < 3e6


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


class TestDtype:
    def test_float32_is_kept(self):
        arr = np.ones((1, 2, 2), dtype=np.float32)
        assert Tensor(arr).data is arr

    @pytest.mark.parametrize("dtype", [np.int64, np.uint8, np.float16])
    def test_other_dtypes_become_float64(self, dtype):
        assert Tensor(np.ones((1, 2, 2), dtype=dtype)).data.dtype == np.float64

    @pytest.mark.parametrize("kind", ["conv_taps", "conv_cols", "pool", "up",
                                      "masked_gram", "chan_matmul", "lincomb",
                                      "relu"])
    def test_primitives_keep_float32(self, kind, rng):
        data, mat = rng.standard_normal((4, 6, 6)), rng.standard_normal((4, 4))
        mask = (np.arange(36) % 3 > 0).astype(float)
        # fewer outputs than inputs takes the tap GEMM, more the im2col one
        layers = {"conv_taps": make_layer(rng, 2, 4),
                  "conv_cols": make_layer(rng, 6, 4)}

        def run(dtype):
            x = Tensor(data.astype(dtype))
            if kind in layers:
                layer = layers[kind]
                return conv2d_reflect(x, ConvLayer(
                    Tensor(layer.kernel.data.astype(dtype)),
                    Tensor(layer.bias.data.astype(dtype)), relu=True))
            return {"pool": lambda: avg_pool2(x),
                    "up": lambda: bilinear_up2(x),
                    "masked_gram": lambda: masked_gram(x, mask),
                    "chan_matmul": lambda: chan_matmul(x, Tensor(mat.astype(dtype))),
                    "lincomb": lambda: lincomb(x, x, 0.5, -2.0),
                    "relu": lambda: relu(x)}[kind]()

        out32, out64 = run(np.float32).data, run(np.float64).data
        assert out32.dtype == np.float32 and out64.dtype == np.float64
        np.testing.assert_allclose(out32, out64, rtol=1e-5, atol=1e-5)

    @pytest.mark.parametrize("kind", ["conv_taps", "conv_cols", "pool", "up",
                                      "vsum"])
    def test_vjps_keep_float32(self, kind, rng):
        data = rng.standard_normal((4, 6, 6))
        # fewer outputs than inputs, then more
        layer = {"conv_taps": make_layer(rng, 2, 4, use_relu=True),
                 "conv_cols": make_layer(rng, 6, 4, use_relu=True)}.get(kind)
        g = rng.standard_normal({"conv_taps": (2, 6, 6), "conv_cols": (6, 6, 6),
                                 "pool": (4, 3, 3), "up": (4, 12, 12),
                                 "vsum": ()}[kind])

        def run(dtype):
            x = Tensor(data.astype(dtype))
            if layer is None:
                build = {"pool": avg_pool2, "up": bilinear_up2, "vsum": vsum}[kind]
            else:
                conv = ConvLayer(Tensor(layer.kernel.data.astype(dtype)),
                                 Tensor(layer.bias.data.astype(dtype)))
                build = partial(conv2d_reflect, layer=conv)
            return _vjp(lambda: build(x), g.astype(dtype))[1]

        for g32, g64 in zip(run(np.float32), run(np.float64), strict=True):
            assert g32.dtype == np.float32 and g64.dtype == np.float64
            np.testing.assert_allclose(g32, g64, rtol=1e-5, atol=1e-5)


@settings(max_examples=60, deadline=None)
@given(st.integers(0, 2 ** 32 - 1), st.sampled_from([(1,), (5,), (2, 4)]),
       st.sampled_from(["general", "rank-1"]), st.floats(-6.0, 0.0))
@example(seed=0, planes=(5,), kind="rank-1", log_delta=-6.0)
def test_inv_sym3_matches_lapack(seed, planes, kind, log_delta):
    # SPD stacks, down to rank 1 + delta*I with delta 1e-6 of the trace. A
    # backward-stable inverse errs by about cond(m) * unit roundoff relative
    # to its largest entry; the bound allows 16 times that
    rng = np.random.default_rng(seed)
    a = rng.standard_normal(planes + (3, 1 if kind == "rank-1" else 3))
    m = a @ np.swapaxes(a, -1, -2)
    delta = 10.0 ** log_delta * np.trace(m, axis1=-2, axis2=-1)
    m += delta[..., None, None] * np.eye(3)
    got = np.moveaxis(inv_sym3(np.moveaxis(m, (-2, -1), (0, 1))), (0, 1),
                      (-2, -1))
    ref = np.linalg.inv(m)
    eig = np.linalg.eigvalsh(m)
    cond = eig[..., -1] / eig[..., 0]
    err = (np.abs(got - ref).max(axis=(-2, -1))
           / np.abs(ref).max(axis=(-2, -1)))
    assert np.all(err <= 16.0 * cond * np.finfo(np.float64).eps)
    np.testing.assert_array_equal(got, np.swapaxes(got, -1, -2))
