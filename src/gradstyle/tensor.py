"""Dense float64 tensors with a fixed primitive set and tape-based reverse mode.

Images and feature maps are rank-3 arrays laid out (channels, height, width),
row-major within each channel. The primitive set is closed: every operation
used by the losses and the unrolled network is one of the functions below,
each paired with a vector-Jacobian product so any scalar built from them can
be differentiated by replaying the tape backward.
"""

from __future__ import annotations

from contextvars import ContextVar
from dataclasses import dataclass, field

import numpy as np


class NonFiniteError(ValueError):
    """A primitive produced NaN or Inf."""


class TapeError(RuntimeError):
    """Backward pass requested on an unusable tape/output."""


def _check_finite(data, opname):
    if not np.all(np.isfinite(data)):
        raise NonFiniteError(f"{opname} produced non-finite values")


class Tensor:
    """Array node. Rank 3 = (channels, height, width) for images/features;
    kernels, style matrices and scalars ride on the same class."""

    __slots__ = ("data",)

    def __init__(self, data):
        arr = np.asarray(data, dtype=np.float64)
        _check_finite(arr, "Tensor")
        self.data = arr

    @property
    def channels(self):
        return self.data.shape[0]

    @property
    def height(self):
        return self.data.shape[1]

    @property
    def width(self):
        return self.data.shape[2]

    @property
    def shape(self):
        return self.data.shape

    def copy(self):
        return Tensor(self.data.copy())

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


@dataclass
class ConvLayer:
    """3x3 (or 1x1) convolution weights with optional fused ReLU.

    kernel: (out_ch, in_ch, kh, kw), bias: (out_ch,). Parameter count is
    out_ch*in_ch*kh*kw + out_ch.
    """

    kernel: Tensor
    bias: Tensor
    relu: bool = True

    @property
    def out_ch(self):
        return self.kernel.data.shape[0]

    @property
    def in_ch(self):
        return self.kernel.data.shape[1]

    def param_count(self):
        return self.kernel.data.size + self.bias.data.size


@dataclass
class _Record:
    inputs: tuple
    output: Tensor
    vjp: object  # callable(grad_out) -> tuple of grads aligned with inputs


@dataclass
class GradTape:
    """Recorded primitive applications, replayed in reverse by backward().

    Single-writer: one computation records and differentiates a tape; tapes
    are not shared across concurrent computations. The stack of open tapes
    is per thread (and per asyncio task), so a tape opened in one thread
    never records primitives evaluated in another.
    """

    records: list = field(default_factory=list)

    def __enter__(self):
        _TAPES.set(_TAPES.get() + (self,))
        return self

    def __exit__(self, *exc):
        stack = _TAPES.get()
        i = max(k for k, tape in enumerate(stack) if tape is self)
        _TAPES.set(stack[:i] + stack[i + 1:])
        return False


_TAPES: ContextVar[tuple[GradTape, ...]] = ContextVar("gradstyle_tapes",
                                                       default=())


def _active_tape():
    stack = _TAPES.get()
    return stack[-1] if stack else None


def _emit(inputs, out_data, vjp, opname):
    _check_finite(out_data, opname)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    tape = _active_tape()
    if tape is not None:
        tape.records.append(_Record(tuple(inputs), out, vjp))
    return out


def backward(tape: GradTape, output: Tensor) -> dict:
    """Accumulate gradients of a scalar `output` w.r.t. every tensor on the tape.

    Returns a dict keyed by Tensor identity; shapes mirror the inputs.
    """
    if not tape.records:
        raise TapeError("empty tape")
    if np.ndim(output.data) != 0 and output.data.size != 1:
        raise TapeError(f"backward needs a scalar output, got shape {output.data.shape}")
    grads: dict[int, np.ndarray] = {id(output): np.ones_like(output.data)}
    by_id: dict[int, Tensor] = {id(output): output}
    for rec in reversed(tape.records):
        g_out = grads.get(id(rec.output))
        if g_out is None:
            continue
        for inp, g in zip(rec.inputs, rec.vjp(g_out)):
            if g is None or not isinstance(inp, Tensor):
                continue
            by_id[id(inp)] = inp
            if id(inp) in grads:
                grads[id(inp)] = grads[id(inp)] + g
            else:
                grads[id(inp)] = g
    return {by_id[k]: v for k, v in grads.items()}


# ---------------------------------------------------------------------------
# weight initialization


def xavier_init_rng(rng, shape):
    """Uniform draw on +/- sqrt(6 / (fan_in + fan_out)) for a conv kernel
    (out_ch, in_ch, kh, kw); the fans are channels * kernel area."""
    out_ch, in_ch, kh, kw = shape
    bound = np.sqrt(6.0 / (in_ch * kh * kw + out_ch * kh * kw))
    return rng.uniform(-bound, bound, size=shape)


def fresh_weights(rng):
    """weight(shape) source for new layers: Xavier draws for conv kernels,
    zeros for everything else (so only kernels consume the generator)."""
    return lambda shape: (xavier_init_rng(rng, shape) if len(shape) == 4
                          else np.zeros(shape))


# ---------------------------------------------------------------------------
# reflection padding, and the untaped sizing of inputs and masks


def _along(axis, index):
    """Index tuple selecting `index` on one axis and everything on the axes
    before it."""
    return (slice(None),) * axis + (index,)


def reflect_pad(arr, pad_h, pad_w):
    """Mirror-pad the two trailing axes of a (c, h, w) array.

    Single reflection (edge pixel not duplicated). For a side of 1 the
    reflection degenerates to replication so that 1x1 feature maps at the
    deepest network level remain convolvable.
    """
    h, w = arr.shape[-2], arr.shape[-1]
    if pad_h >= h and h > 1 or pad_w >= w and w > 1:
        raise ValueError("reflection pad width must be smaller than the dimension")
    widths = ((0, 0),) * (arr.ndim - 2) + ((pad_h, pad_h), (pad_w, pad_w))
    return np.pad(arr, widths, mode="reflect")


def _fold_reflect(g, pad, axis):
    """Adjoint of reflect_pad along one axis: each mirrored entry is added
    back onto the entry it copies."""
    if pad == 0:
        return g
    n = g.shape[axis] - 2 * pad
    out = g[_along(axis, slice(pad, pad + n))].copy()
    for k in range(1, pad + 1):
        lo, hi = (k, n - 1 - k) if n > 1 else (0, 0)
        out[_along(axis, lo)] += g[_along(axis, pad - k)]
        out[_along(axis, hi)] += g[_along(axis, pad + n - 1 + k)]
    return out


def side_multiple(levels: int) -> int:
    """Sides a pyramid of `levels` levels, halved between levels, needs."""
    return 2 ** (levels - 1)


def mirror_pad(data: np.ndarray, multiple: int) -> np.ndarray:
    """Mirror-pad the bottom/right of a (..., h, w) array up to multiples of
    `multiple`.

    The padding reflects about the last row/column without repeating it, so
    each side needs more pixels than it gains; smaller inputs are rejected.
    """
    h, w = data.shape[-2:]
    nh, nw = -(-h // multiple) * multiple, -(-w // multiple) * multiple
    if (nh, nw) == (h, w):
        return data
    if nh - h > h - 1 or nw - w > w - 1:
        raise ValueError(f"image {h}x{w} too small to mirror-pad to "
                         f"{nh}x{nw}")
    widths = ((0, 0),) * (data.ndim - 2) + ((0, nh - h), (0, nw - w))
    return np.pad(data, widths, mode="reflect")


def block_mean2(data: np.ndarray) -> np.ndarray:
    """2x2 block means of a (..., h, w) array, h and w even, each block
    summed row by row in any memory layout (avg_pool2 pairs terms otherwise)."""
    return 0.25 * (data[..., 0::2, 0::2] + data[..., 0::2, 1::2]
                   + data[..., 1::2, 0::2] + data[..., 1::2, 1::2])


# ---------------------------------------------------------------------------
# primitives


def _im2col(padded, kh, kw, h, w):
    """(c*kh*kw, h*w) matrix of the kh*kw shifted views of a padded map."""
    c = padded.shape[0]
    cols = np.empty((c, kh, kw, h, w), dtype=np.float64)
    for dy in range(kh):
        for dx in range(kw):
            cols[:, dy, dx] = padded[:, dy:dy + h, dx:dx + w]
    return cols.reshape(c * kh * kw, h * w)


def conv2d_reflect(x: Tensor, layer: ConvLayer, apply_activation: bool = True) -> Tensor:
    """2-D convolution with reflection padding, spatial size preserved.

    Fuses the layer's ReLU unless apply_activation is False (used when a
    graph filter must slot between the convolution and the nonlinearity).
    """
    c, h, w = x.data.shape
    kern, bias = layer.kernel, layer.bias
    co, ci, kh, kw = kern.data.shape
    if ci != c:
        raise ValueError(f"channel mismatch: input {c}, kernel expects {ci}")
    ph, pw = kh // 2, kw // 2
    padded = reflect_pad(x.data, ph, pw)
    w2 = kern.data.reshape(co, c * kh * kw)
    if co < c:
        # Fewer outputs than inputs: one GEMM evaluates every tap over the
        # padded grid, a (kh*kw*co, hp*wp) buffer instead of the larger
        # (c*kh*kw, h*w) column matrix, and the shifted tap slices are summed.
        # The columns are built only if the vjp runs.
        cols = None
        hp, wp = padded.shape[1:]
        taps = kern.data.transpose(2, 3, 0, 1).reshape(kh * kw * co, c)
        part = (taps @ padded.reshape(c, hp * wp)).reshape(kh, kw, co, hp, wp)
        out_data = part[0, 0, :, :h, :w].copy()
        for dy in range(kh):
            for dx in range(kw):
                if dy or dx:
                    out_data += part[dy, dx, :, dy:dy + h, dx:dx + w]
        out_data += bias.data[:, None, None]
    else:
        cols = _im2col(padded, kh, kw, h, w)
        out_data = w2 @ cols
        out_data += bias.data[:, None]
        out_data = out_data.reshape(co, h, w)
    use_relu = layer.relu and apply_activation
    if use_relu:
        np.maximum(out_data, 0.0, out=out_data)

    def vjp(g):
        g2 = g.reshape(co, h * w)
        if use_relu:
            g2 = g2 * (out_data.reshape(co, h * w) > 0.0)
        cols2 = cols if cols is not None else _im2col(padded, kh, kw, h, w)
        g_bias = g2.sum(axis=1)
        g_w = (g2 @ cols2.T).reshape(co, c, kh, kw)
        g_cols = (w2.T @ g2).reshape(c, kh, kw, h, w)
        g_padded = np.zeros((c, h + 2 * ph, w + 2 * pw), dtype=np.float64)
        for dy in range(kh):
            for dx in range(kw):
                g_padded[:, dy:dy + h, dx:dx + w] += g_cols[:, dy, dx]
        g_x = _fold_reflect(_fold_reflect(g_padded, ph, 1), pw, 2)
        return g_x, g_w, g_bias

    return _emit((x, kern, bias), out_data, vjp, "conv2d_reflect")


def avg_pool2(x: Tensor) -> Tensor:
    """2x2 average pooling; spatial dims must be even."""
    c, h, w = x.data.shape
    if h % 2 or w % 2:
        raise ValueError(f"avg_pool2 needs even spatial dims, got {h}x{w}")
    xd = x.data
    out_data = xd[:, 0::2, 0::2] + xd[:, 1::2, 0::2]
    out_data += xd[:, 0::2, 1::2] + xd[:, 1::2, 1::2]
    out_data *= 0.25

    def vjp(g):
        q = 0.25 * g
        gx = np.empty((c, h, w), dtype=np.float64)
        for dy in (0, 1):
            for dx in (0, 1):
                gx[:, dy::2, dx::2] = q
        return (gx,)

    return _emit((x,), out_data, vjp, "avg_pool2")


def _up2(a, axis):
    """Double one axis with half-pixel-center bilinear sampling.

    Interior outputs are fixed 0.75/0.25 blends of neighbouring inputs; the
    first and last outputs are clamped copies of the edge inputs.
    """
    n = a.shape[axis]
    out = np.empty(a.shape[:axis] + (2 * n,) + a.shape[axis + 1:])
    quarter, three_quarters = a * 0.25, a * 0.75
    lo, hi = _along(axis, slice(None, -1)), _along(axis, slice(1, None))
    out[_along(axis, 0)] = a[_along(axis, 0)]
    np.add(three_quarters[lo], quarter[hi], out=out[_along(axis, slice(1, -1, 2))])
    np.add(quarter[lo], three_quarters[hi], out=out[_along(axis, slice(2, None, 2))])
    out[_along(axis, -1)] = a[_along(axis, -1)]
    return out


def _up2_adjoint(g, axis):
    """Transpose of _up2 along the same axis."""
    n = g.shape[axis] // 2
    ga = np.zeros(g.shape[:axis] + (n,) + g.shape[axis + 1:])
    odd, even = g[_along(axis, slice(1, -1, 2))], g[_along(axis, slice(2, None, 2))]
    ga[_along(axis, slice(None, -1))] += odd * 0.75 + even * 0.25
    ga[_along(axis, slice(1, None))] += odd * 0.25 + even * 0.75
    ga[_along(axis, 0)] += g[_along(axis, 0)]
    ga[_along(axis, -1)] += g[_along(axis, -1)]
    return ga


def bilinear_up2(x: Tensor) -> Tensor:
    """Doubling bilinear upsample with half-pixel-center sampling."""
    out_data = _up2(_up2(x.data, 1), 2)

    def vjp(g):
        return (_up2_adjoint(_up2_adjoint(g, 2), 1),)

    return _emit((x,), out_data, vjp, "bilinear_up2")


def clamp(x: Tensor, lo=None, hi=None) -> Tensor:
    """Elementwise clamp; gradient flows only strictly inside the active region."""
    out_data = np.clip(x.data, lo, hi)
    xd = x.data

    def vjp(g):
        inside = np.ones_like(xd, dtype=bool)
        if lo is not None:
            inside &= xd > lo
        if hi is not None:
            inside &= xd < hi
        return (g * inside,)

    return _emit((x,), out_data, vjp, "clamp")


def relu(x: Tensor) -> Tensor:
    return clamp(x, lo=0.0)


def clip_unit(x: Tensor) -> Tensor:
    return clamp(x, lo=0.0, hi=1.0)


def _scale(a, v):
    """a * v, without the multiply when a is exactly 1 (bit-equal)."""
    return v if a == 1.0 else a * v


def lincomb(x: Tensor, y: Tensor | None = None, a: float = 1.0, b: float = 1.0) -> Tensor:
    """a*x + b*y (or a*x when y is omitted); shapes must match."""
    if y is None:
        out_data = a * x.data

        def vjp(g):
            return (a * g,)

        return _emit((x,), out_data, vjp, "lincomb")
    if x.data.shape != y.data.shape:
        raise ValueError(f"lincomb shape mismatch: {x.data.shape} vs {y.data.shape}")
    ax = _scale(a, x.data)
    # x - y is bit-equal to x + (-1.0 * y)
    out_data = ax - y.data if b == -1.0 else ax + _scale(b, y.data)

    def vjp2(g):
        return a * g, b * g

    return _emit((x, y), out_data, vjp2, "lincomb")


def chan_matmul(feat: Tensor, m: Tensor) -> Tensor:
    """Right-multiply a (c,h,w) feature map, viewed as (pixels, c), by a c x c matrix.

    This is the instance-dependent 1x1 convolution used by the style
    correction: each pixel's channel vector is transformed by `m`.
    """
    c, h, w = feat.data.shape
    if m.data.shape != (c, c):
        raise ValueError(f"matrix shape {m.data.shape} does not match {c} channels")
    # (pixels, c) @ m evaluated as m^T @ (c, pixels), so the result is
    # channel-major and contiguous like every other feature map
    f2 = feat.data.reshape(c, h * w)
    out_data = (m.data.T @ f2).reshape(c, h, w)

    def vjp(g):
        g2 = g.reshape(c, h * w)
        g_f = (m.data @ g2).reshape(c, h, w)
        g_m = f2 @ g2.T
        return g_f, g_m

    return _emit((feat, m), out_data, vjp, "chan_matmul")


def masked_gram(feat: Tensor, mask: np.ndarray | None = None) -> Tensor:
    """Normalized (optionally masked) channel Gram matrix of a feature map.

    Without a mask: F^T F / n over the pixel dimension. With a 0/1 pixel mask
    m: (diag(m) F)^T (diag(m) F) / trace(m). The result is symmetrized so the
    symmetry contract holds exactly. The mask is a constant, not a tensor.
    """
    c, h, w = feat.data.shape
    n = h * w
    f2 = feat.data.reshape(c, n).T
    if mask is None:
        fm = f2
        denom = float(n)
    else:
        mask = np.asarray(mask, dtype=np.float64).reshape(-1)
        if mask.shape[0] != n:
            raise ValueError(f"mask length {mask.shape[0]} != {n} pixels")
        denom = float(mask.sum())
        if denom <= 0.0:
            raise ValueError("mask has empty support (trace 0)")
        fm = f2 * mask[:, None]
    a = fm.T @ fm
    out_data = (a + a.T) / (2.0 * denom)

    def vjp(g):
        sym = (g + g.T) / (2.0 * denom)
        g_fm = fm @ (sym + sym.T)
        if mask is not None:
            g_fm = g_fm * mask[:, None]
        return (g_fm.T.reshape(c, h, w),)

    return _emit((feat,), out_data, vjp, "masked_gram")


def vsum(x: Tensor) -> Tensor:
    """Sum of all entries, as a scalar tensor."""
    out_data = np.asarray(np.sum(x.data))
    shape = x.data.shape

    def vjp(g):
        return (np.full(shape, float(g)),)

    return _emit((x,), out_data, vjp, "vsum")


def sqsum(x: Tensor) -> Tensor:
    """Sum of squares of all entries, as a scalar tensor."""
    out_data = np.asarray(np.sum(x.data * x.data))
    xd = x.data

    def vjp(g):
        return (2.0 * float(g) * xd,)

    return _emit((x,), out_data, vjp, "sqsum")


def tv(x: Tensor) -> Tensor:
    """Anisotropic squared total variation: sum of squared forward differences."""
    dh = x.data[:, 1:, :] - x.data[:, :-1, :]
    dw = x.data[:, :, 1:] - x.data[:, :, :-1]
    out_data = np.asarray(np.sum(dh * dh) + np.sum(dw * dw))

    def vjp(g):
        s = 2.0 * float(g)
        gx = np.zeros_like(x.data)
        gx[:, 1:, :] += s * dh
        gx[:, :-1, :] -= s * dh
        gx[:, :, 1:] += s * dw
        gx[:, :, :-1] -= s * dw
        return (gx,)

    return _emit((x,), out_data, vjp, "tv")
