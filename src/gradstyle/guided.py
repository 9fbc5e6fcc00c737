"""Edge-preserving guided filter with a color guide.

Within every box window the output is modelled as an affine function of the
guide image; per-pixel coefficients are averaged over all covering windows.
Box means use running sums, so the cost is linear in pixel count. Windows are
clamped at the borders (they shrink and the sums are renormalized). The
regularized guide covariance of every window is inverted once, in closed
form (tensor.inv_sym3), and that inverse is shared by all channels of the
filtered image; the filter runs in float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import Tensor, inv_sym3

# number of array elements pushed through box sums; tests assert linear scaling
BOX_OPS = 0


@dataclass
class GuidedFilterParams:
    radius: int = 8
    eps: float = 1e-4

    def __post_init__(self):
        if self.radius < 1:
            raise ValueError("radius must be >= 1")
        if not 0 < self.eps < np.inf:                  # NaN fails too
            raise ValueError("eps must be finite and positive")


def _box_mean(arr, radius):
    """Mean over clamped (2r+1)-square windows for each trailing channel.

    arr: (h, w) or (h, w, k). Integral-image implementation: O(h*w) per
    channel regardless of radius.
    """
    global BOX_OPS
    squeeze = arr.ndim == 2
    if squeeze:
        arr = arr[:, :, None]
    h, w, k = arr.shape
    BOX_OPS += h * w * k
    integral = np.zeros((h + 1, w + 1, k))
    np.cumsum(arr, axis=0, out=integral[1:, 1:])
    np.cumsum(integral[1:, 1:], axis=1, out=integral[1:, 1:])
    r = radius
    i = np.arange(h)
    j = np.arange(w)
    i1, i2 = np.maximum(i - r, 0), np.minimum(i + r, h - 1) + 1
    j1, j2 = np.maximum(j - r, 0), np.minimum(j + r, w - 1) + 1
    below, above = np.take(integral, i2, axis=0), np.take(integral, i1, axis=0)
    sums = (np.take(below, j2, axis=1) - np.take(above, j2, axis=1)
            - np.take(below, j1, axis=1) + np.take(above, j1, axis=1))
    counts = ((i2 - i1)[:, None] * (j2 - j1)[None, :]).astype(np.float64)
    out = sums / counts[:, :, None]
    return out[:, :, 0] if squeeze else out


def guided_filter(p: Tensor, guide: Tensor, params: GuidedFilterParams | None = None) -> Tensor:
    """Filter each channel of p using the 3-channel guide's local structure."""
    params = params or GuidedFilterParams()
    gd = guide.data
    if gd.shape[0] != 3:
        raise ValueError("guide must have 3 channels")
    if p.data.shape[1:] != gd.shape[1:]:
        raise ValueError(f"shape mismatch: p {p.data.shape[1:]} vs guide {gd.shape[1:]}")
    r = params.radius
    img = np.moveaxis(gd, 0, 2)                    # (h, w, 3)
    mean_i = _box_mean(img, r)
    # guide covariance per window: E[I I^T] - E[I] E[I]^T, plus regularizer
    outer = img[:, :, :, None] * img[:, :, None, :]
    h, w = img.shape[:2]
    corr_ii = _box_mean(outer.reshape(h, w, 9), r).reshape(h, w, 3, 3)
    cov_ii = corr_ii - mean_i[:, :, :, None] * mean_i[:, :, None, :]
    # (3, 3, h, w), shared by every channel of p
    inv = inv_sym3((cov_ii + params.eps * np.eye(3)).transpose(2, 3, 0, 1))
    out = np.empty_like(p.data)
    for c in range(p.data.shape[0]):
        pc = p.data[c]
        mean_p = _box_mean(pc, r)
        cov_ip = _box_mean(img * pc[:, :, None], r) - mean_i * mean_p[:, :, None]
        a = np.einsum("ijhw,hwj->hwi", inv, cov_ip)
        b = mean_p - np.einsum("hwi,hwi->hw", a, mean_i)
        out[c] = np.einsum("hwi,hwi->hw", _box_mean(a, r), img) + _box_mean(b, r)
    return Tensor(out)
