"""Edge-preserving guided filter with a color guide.

Within every box window the output is modelled as an affine function of the
guide image; per-pixel coefficients are averaged over all covering windows.
Box means use running sums, so the cost is linear in pixel count. Windows are
clamped at the borders (they shrink and the sums are renormalized), and every
box mean runs on one (h, w) plane. The regularized guide covariance of every
window is formed from its six lower-triangle guide products and inverted
once, in closed form (tensor.inv_sym3); that inverse is shared by all
channels of the filtered image. The filter runs in float64.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import inv_sym3

# number of array elements pushed through box sums; tests assert linear scaling
BOX_OPS = 0


@dataclass
class GuidedFilterParams:
    radius: int = 8
    eps: float = 1e-4

    def __post_init__(self):
        if not isinstance(self.radius, (int, np.integer)) or self.radius < 1:
            raise ValueError(f"radius must be an integer >= 1, got {self.radius!r}")
        if not 0 < self.eps < np.inf:                  # NaN fails too
            raise ValueError("eps must be finite and positive")


def _box_mean(arr, radius):
    """Mean over clamped (2r+1)-square windows of an (h, w) plane.

    Integral-image implementation: O(h*w) regardless of radius.
    """
    global BOX_OPS
    h, w = arr.shape
    BOX_OPS += h * w
    integral = np.zeros((h + 1, w + 1))
    np.cumsum(arr, axis=0, out=integral[1:, 1:])
    np.cumsum(integral[1:, 1:], axis=1, out=integral[1:, 1:])
    r = radius
    i = np.arange(h)
    j = np.arange(w)
    i1, i2 = np.maximum(i - r, 0), np.minimum(i + r, h - 1) + 1
    j1, j2 = np.maximum(j - r, 0), np.minimum(j + r, w - 1) + 1
    below, above = integral[i2], integral[i1]
    del integral
    sums = below[:, j2]
    sums -= above[:, j2]
    sums -= below[:, j1]
    sums += above[:, j1]
    sums /= ((i2 - i1)[:, None] * (j2 - j1)[None, :]).astype(np.float64)
    return sums


def guided_filter(p: np.ndarray, guide: np.ndarray,
                  params: GuidedFilterParams | None = None) -> np.ndarray:
    """Filter each channel of a (c, h, w) p by a (3, h, w) guide's structure.

    Every plane is freed once its last use is done, and each channel's
    intermediates before the next channel starts, so the peak comes in
    inv_sym3, while the covariance planes, its factors and the inverse are
    alive.
    """
    params = params or GuidedFilterParams()
    if guide.shape[0] != 3:
        raise ValueError("guide must have 3 channels")
    if p.shape[1:] != guide.shape[1:]:
        raise ValueError(f"shape mismatch: p {p.shape[1:]} vs guide {guide.shape[1:]}")
    r = params.radius
    mean_i = np.empty(guide.shape)
    for k, g in enumerate(guide):
        mean_i[k] = _box_mean(g, r)
    # the lower triangle of each window's guide covariance, the only part
    # inv_sym3 reads: E[I I^T] - E[I] E[I]^T, plus the regularizer
    cov = {}
    for i in range(3):
        for j in range(i + 1):
            cov[i, j] = _box_mean(guide[i] * guide[j], r)
            cov[i, j] -= mean_i[i] * mean_i[j]
            cov[i, j] += params.eps * (i == j)
    inv = inv_sym3(cov)
    del cov
    out = np.empty_like(p)
    means = np.empty(guide.shape)           # cov(I, p), then the mean of a
    for c, pc in enumerate(p):
        mean_p = _box_mean(pc, r)
        for k, g in enumerate(guide):
            means[k] = _box_mean(g * pc, r)
            means[k] -= mean_i[k] * mean_p
        a = np.einsum("ijhw,jhw->ihw", inv, means)
        b = np.einsum("ihw,ihw->hw", a, mean_i)
        np.subtract(mean_p, b, out=b)
        del mean_p
        for k, ak in enumerate(a):
            means[k] = _box_mean(ak, r)
        del a
        out[c] = np.einsum("ihw,ihw->hw", means, guide) + _box_mean(b, r)
        del b
    return out
