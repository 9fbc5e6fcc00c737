"""Dense float tensors with a fixed primitive set and tape-based reverse mode.

Images and feature maps are rank-3 arrays laid out (channels, height, width),
row-major within each channel. The primitive set is closed: every operation
used by the losses and the unrolled network is one of the functions below,
each paired with a vector-Jacobian product so any scalar built from them can
be differentiated by replaying the tape backward.

A tensor holds float64, or float32 when it is given a float32 array; every
primitive computes in its inputs' dtype. Training and the losses run in
float64; only stylize's descent direction runs in float32.

The tape holds only what the vector-Jacobian products read, plus the
leaves, so a map that no vjp reads is freed once its caller drops it, and
backward frees each record as it replays it.
"""

from __future__ import annotations

import math
from contextvars import ContextVar
from dataclasses import dataclass
from typing import NamedTuple

import numpy as np


class NonFiniteError(ValueError):
    """A primitive produced NaN or Inf."""


class DivergenceError(NonFiniteError):
    """An iterative run (descent or training) produced a non-finite loss."""


class TapeError(RuntimeError):
    """Backward pass requested on an unusable tape/output."""


def as_float(data) -> np.ndarray:
    """The array as float32 if it is float32, else as float64."""
    arr = np.asarray(data)
    return arr if arr.dtype == np.float32 else arr.astype(np.float64, copy=False)


def _check_finite(data, opname):
    if not np.all(np.isfinite(data)):
        raise NonFiniteError(f"{opname} produced non-finite values")


class Tensor:
    """Array node of the tape, built only where a primitive runs: public
    entry points take and return plain arrays. Rank 3 = (channels, height,
    width) for images/features; kernels, style matrices and scalars ride on
    the same class."""

    __slots__ = ("data", "_key")

    def __init__(self, data):
        arr = as_float(data)
        _check_finite(arr, "Tensor")
        self.data = arr
        self._key = None

    @property
    def shape(self):
        return self.data.shape

    def item(self):
        return float(self.data)

    def __repr__(self):
        return f"Tensor(shape={self.data.shape})"


@dataclass
class ConvLayer:
    """3x3 (or 1x1) convolution weights with optional fused ReLU.

    kernel: (out_ch, in_ch, kh, kw), bias: (out_ch,).
    """

    kernel: Tensor
    bias: Tensor
    relu: bool = True


class _Record(NamedTuple):
    inputs: tuple  # per input: its node key if this tape made it, else the leaf
    output: object  # node key of the output
    vjp: object  # callable(grad_out) -> tuple of grads aligned with inputs


class GradTape:
    """Recorded primitive applications, replayed in reverse by backward(),
    which consumes them: a tape is differentiated once.

    A record names the tensors this tape made by their node keys and holds
    only the leaves as tensors, so it keeps just the arrays its vjp reads.
    Single-writer: one computation records and differentiates a tape; tapes
    are not shared across concurrent computations. The open tape is per
    thread (and per asyncio task), so a tape opened in one thread never
    records primitives evaluated in another. Tapes nest: an inner tape
    records while it is open, and the outer one resumes when it closes.
    """

    def __init__(self):
        self.records = []
        self._produced = set()

    def __enter__(self):
        self._token = _TAPE.set(self)
        return self

    def __exit__(self, *exc):
        _TAPE.reset(self._token)


_TAPE: ContextVar[GradTape | None] = ContextVar("gradstyle_tape", default=None)
_active_tape = _TAPE.get


def _emit(inputs, out_data, vjp, opname):
    """Wrap a primitive's output; an open tape records it under a fresh
    object() key, which a deep copy does not share, so the copy is a leaf."""
    _check_finite(out_data, opname)
    out = Tensor.__new__(Tensor)
    out.data = out_data
    out._key = None
    tape = _active_tape()
    if tape is not None:
        made = tape._produced
        ins = tuple(t._key if t._key in made else t for t in inputs)
        out._key = object()
        made.add(out._key)
        tape.records.append(_Record(ins, out._key, vjp))
    return out


def backward(tape: GradTape, output: Tensor) -> dict:
    """Gradients of a scalar `output` that `tape` recorded, w.r.t. the
    tape's leaves: the tensors on it that none of its records produced
    (parameters, images).

    Replayed by node keys, returned keyed by the leaf tensors themselves,
    which hash by identity (Tensor defines no __eq__). The tape is consumed:
    each record is popped off it as it is replayed, so the arrays its vjp
    reads are freed once that vjp has run, and a second backward on the
    tape raises TapeError. A produced tensor's gradient is dropped once its
    record has used it, so intermediate gradients never pile up.
    """
    records = tape.records
    if not records:
        raise TapeError("empty tape")
    if np.ndim(output.data) != 0 and output.data.size != 1:
        raise TapeError(f"backward needs a scalar output, got shape {output.data.shape}")
    if output._key not in tape._produced:
        raise TapeError("output was not recorded on this tape")
    grads = {output._key: np.ones_like(output.data)}
    while records:
        rec = records.pop()
        g_out = grads.pop(rec.output, None)
        if g_out is None:
            continue
        for inp, g in zip(rec.inputs, rec.vjp(g_out)):
            grads[inp] = grads[inp] + g if inp in grads else g
    return grads


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
    """2x2 block means of a (..., h, w) array, h and w even, as the sum of
    the block's two column sums; avg_pool2 and both pyramids pool with it."""
    out = data[..., 0::2, 0::2] + data[..., 1::2, 0::2]
    out += data[..., 0::2, 1::2] + data[..., 1::2, 1::2]
    out *= 0.25
    return out


def inv_sym3(m: np.ndarray) -> np.ndarray:
    """Inverses of symmetric positive-definite 3x3 matrices held as
    m[i, j, ...]: the matrix axes first, then any plane shape.

    Closed-form Cholesky, plane-wise: m = L L^T, U = L^-1, m^-1 = U^T U.
    Only the lower triangle is read, so m may also be a dict that maps each
    (i, j) with i >= j to its plane. Unlike the adjugate, whose cofactors
    cancel when m is near rank 1, every step divides by a pivot of L, so
    the error grows like cond(m) as it does for LAPACK's inverse.

    Each factor is dropped after its last use, and the six distinct
    entries of m^-1 are written into one preallocated array rather than
    stacked from three rows of three planes.
    """
    l00 = np.sqrt(m[0, 0])
    u00 = 1.0 / l00
    l10, l20 = m[1, 0] / l00, m[2, 0] / l00
    del l00
    l11 = np.sqrt(m[1, 1] - l10 * l10)
    u11 = 1.0 / l11
    l21 = (m[2, 1] - l20 * l10) / l11
    del l11
    l22 = np.sqrt(m[2, 2] - l20 * l20 - l21 * l21)
    u22 = 1.0 / l22
    del l22
    u10 = -l10 * u00 * u11
    del l10
    u21 = -l21 * u11 * u22
    u20 = -(l20 * u00 + l21 * u10) * u22
    del l20, l21
    # u20 depends on every entry of m, so it has the result's plane shape
    # and dtype
    inv = np.empty((3, 3) + u20.shape, dtype=u20.dtype)
    np.multiply(u22, u22, out=inv[2, 2])
    np.multiply(u21, u22, out=inv[1, 2])
    np.multiply(u20, u22, out=inv[0, 2])
    del u22
    np.multiply(u11, u11, out=inv[1, 1])
    inv[1, 1] += u21 * u21
    np.multiply(u10, u11, out=inv[0, 1])
    inv[0, 1] += u20 * u21
    del u11, u21
    np.multiply(u00, u00, out=inv[0, 0])
    inv[0, 0] += u10 * u10
    inv[0, 0] += u20 * u20
    inv[1, 0], inv[2, 0], inv[2, 1] = inv[0, 1], inv[0, 2], inv[1, 2]
    return inv


# ---------------------------------------------------------------------------
# primitives


# Elements of scratch (column matrix or tap buffer) one band of output rows
# may build, 4 MB in float32. Unbanded, the ~9.5 MB float32 buffers of the
# 128^2 convs set a 256^2 stylize's peak RSS: at 2^20 the artistic
# benchmark peaks at ~75 MB against 83.7 MB unbanded, at 2^19 the same,
# and at 2^21 at 82.5 MB, which loses the gain.
BAND_ELEMENTS = 2 ** 20


def _bands(h, width, halo, per_column):
    """Bands of the h output rows of a conv whose GEMM runs over a grid
    `width` columns wide and needs `halo` grid rows below a band's output
    rows: (r0, r1, start, stop) for output rows [r0, r1) and the flat grid
    columns [start, stop) of their GEMM. Bands are of equal height where h
    allows, each within BAND_ELEMENTS scratch elements at per_column
    elements a grid column, but at least one step of rows tall.

    A BLAS kernel sums a GEMM's last, partial tile of columns in another
    order than its full tiles, so each band's GEMM starts and ends on a
    multiple of 64 grid columns, except the last, which ends where the
    unbanded GEMM does. Every output element then comes out as in the
    one-band product, save where a short last band falls to OpenBLAS's
    small-matrix kernel (under about 10^6 multiply-adds), which may round
    its partial tile differently.
    """
    tile = 64
    step = tile // math.gcd(width, tile)  # rows that span whole tiles
    fit = BAND_ELEMENTS // (per_column * width) - halo
    fit = max(step, fit // step * step)
    count = -(-h // fit)
    rows = -(-h // (count * step)) * step
    bands = []
    for r0 in range(0, h, rows):
        r1 = min(r0 + rows, h)
        stop = min(-(-(r1 + halo) * width // tile) * tile, (h + halo) * width)
        bands.append((r0, r1, r0 * width, stop))
    return bands


def _im2col(padded, kh, kw, h, w, cols):
    """(c*kh*kw, h*w) matrix of the kh*kw shifted views of a padded map,
    written into the first h rows of cols, a (c, kh, kw, >= h, w) buffer."""
    c = padded.shape[0]
    cols = cols[:, :, :, :h]
    for dy in range(kh):
        for dx in range(kw):
            cols[:, dy, dx] = padded[:, dy:dy + h, dx:dx + w]
    return cols.reshape(c * kh * kw, h * w)


def conv2d_reflect(x: Tensor, layer: ConvLayer) -> Tensor:
    """2-D convolution with reflection padding, spatial size preserved.

    Fuses the ReLU when layer.relu is set; a caller that must act between
    the convolution and the nonlinearity passes replace(layer, relu=False),
    which shares the kernel and bias tensors. The forward pass computes the
    output one band of rows at a time (see _bands), so its scratch stays
    within BAND_ELEMENTS elements; every output element is the same dot
    product summed over the taps in the same order, whatever the banding.
    The tape keeps only the padded input and, when the ReLU is fused, the
    output its mask reads: the vjp computes each tap's kernel and input
    gradients as two GEMMs against a shifted window of the flattened padded
    map, so it builds no column matrix.
    """
    c, h, w = x.data.shape
    kern, bias = layer.kernel, layer.bias
    co, ci, kh, kw = kern.data.shape
    if ci != c:
        raise ValueError(f"channel mismatch: input {c}, kernel expects {ci}")
    ph, pw = kh // 2, kw // 2
    padded = reflect_pad(x.data, ph, pw)
    hp, wp = padded.shape[1:]
    dtype = np.result_type(kern.data, padded)
    if co < c:
        # Fewer outputs than inputs: one GEMM per band evaluates every tap
        # over the band's padded rows, a (kh*kw*co, rows*wp) buffer instead
        # of the larger column matrix, and the shifted tap slices are summed.
        taps = kern.data.transpose(2, 3, 0, 1).reshape(kh * kw * co, c)
        pf = padded.reshape(c, hp * wp)
        out_data = np.empty((co, h, w), dtype=dtype)
        bands = _bands(h, wp, kh - 1, kh * kw * co)
        # every band's GEMM fits the first's columns; the bands share them
        scratch = np.empty((kh * kw * co, bands[0][3]), dtype=dtype)
        for r0, r1, start, stop in bands:
            n, rows = r1 - r0, r1 - r0 + kh - 1
            part = np.matmul(taps, pf[:, start:stop],
                             out=scratch[:, :stop - start])
            part = part[:, :rows * wp].reshape(kh, kw, co, rows, wp)
            band = out_data[:, r0:r1]
            band[...] = part[0, 0, :, :n, :w]
            for dy in range(kh):
                for dx in range(kw):
                    if dy or dx:
                        band += part[dy, dx, :, dy:dy + n, dx:dx + w]
        out_data += bias.data[:, None, None]
    else:
        # One column matrix per band, built from its rows plus kh-1 halo
        # rows of the padded map in a buffer the bands share, multiplied
        # into that band of the output.
        w2 = kern.data.reshape(co, c * kh * kw)
        out_data = np.empty((co, h * w), dtype=dtype)
        bands = _bands(h, w, 0, c * kh * kw)
        cols = np.empty((c, kh, kw, bands[0][1], w), dtype=padded.dtype)
        for r0, r1, start, stop in bands:
            np.matmul(w2, _im2col(padded[:, r0:r1 + kh - 1], kh, kw,
                                  r1 - r0, w, cols),
                      out=out_data[:, start:stop])
        out_data += bias.data[:, None]
        out_data = out_data.reshape(co, h, w)
    relu_out = None
    if layer.relu:
        relu_out = np.maximum(out_data, 0.0, out=out_data)

    def vjp(g):
        g2 = g.reshape(co, h * w)
        if relu_out is not None:
            g2 = g2 * (relu_out.reshape(co, h * w) > 0.0)
        # On the flattened padded map tap (dy, dx) reads the contiguous
        # window [s, s + n); g, laid on the padded row stride with zeros in
        # the pad columns, meets each window in two GEMMs and no copies.
        n = (h - 1) * wp + w
        pf = padded.reshape(c, hp * wp)
        ge = np.zeros((co, h, wp), dtype=g.dtype)
        ge[:, :, :w] = g2.reshape(co, h, w)
        ge = ge.reshape(co, h * wp)[:, :n]
        g_w = np.empty((co, c, kh, kw), dtype=g.dtype)
        g_pf = np.zeros((c, hp * wp), dtype=g.dtype)
        for dy in range(kh):
            for dx in range(kw):
                s = dy * wp + dx
                g_w[:, :, dy, dx] = ge @ pf[:, s:s + n].T
                g_pf[:, s:s + n] += kern.data[:, :, dy, dx].T @ ge
        g_x = _fold_reflect(_fold_reflect(g_pf.reshape(c, hp, wp), ph, 1), pw, 2)
        return g_x, g_w, g2.sum(axis=1)

    return _emit((x, kern, bias), out_data, vjp, "conv2d_reflect")


def avg_pool2(x: Tensor) -> Tensor:
    """2x2 average pooling by block_mean2; spatial dims must be even."""
    c, h, w = x.data.shape
    if h % 2 or w % 2:
        raise ValueError(f"avg_pool2 needs even spatial dims, got {h}x{w}")
    out_data = block_mean2(x.data)

    def vjp(g):
        q = 0.25 * g
        gx = np.empty((c, h, w), dtype=g.dtype)
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
    out = np.empty(a.shape[:axis] + (2 * n,) + a.shape[axis + 1:], dtype=a.dtype)
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
    ga = np.zeros(g.shape[:axis] + (n,) + g.shape[axis + 1:], dtype=g.dtype)
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


def lincomb(x: Tensor, y: Tensor, a: float = 1.0, b: float = 1.0) -> Tensor:
    """a*x + b*y; shapes must match."""
    if x.data.shape != y.data.shape:
        raise ValueError(f"lincomb shape mismatch: {x.data.shape} vs {y.data.shape}")
    ax = _scale(a, x.data)
    # x - y is bit-equal to x + (-1.0 * y)
    out_data = ax - y.data if b == -1.0 else ax + _scale(b, y.data)

    def vjp(g):
        return a * g, b * g

    return _emit((x, y), out_data, vjp, "lincomb")


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
        mask = np.asarray(mask, dtype=f2.dtype).reshape(-1)
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
        return (np.full(shape, g, dtype=g.dtype),)

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
