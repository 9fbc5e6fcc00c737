"""Spectral graph machinery for the photorealistic path.

A matting Laplacian built from local color affinities of the content image
defines a graph on which photorealistic results are smooth signals. Ideal
low-pass filtering below a threshold eigenvalue projects onto the bandlimited
subspace; at scale this is approximated by a damped Chebyshev polynomial of
the sparse Laplacian, so filtering costs exactly `order` sparse mat-vec
products per signal.
"""

from __future__ import annotations

from dataclasses import dataclass, field

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import sliding_window_view

from .network import CHANNELS, SIDE_MULTIPLE
from .tensor import Tensor, block_mean2, mirror_pad

DEFAULT_MATTING_EPS = 1e-5
DEFAULT_ORDER = 5
DEFAULT_LAMBDA_FRAC = 0.2
LAMBDA_MAX_ITERS = 200
LAMBDA_MAX_TOL = 1e-4


@dataclass
class SparseLaplacian:
    """Symmetric sparse PSD matrix with spectral metadata.

    matvec() is the only multiplication entry point so tests can assert how
    many sparse products an algorithm performed.
    """

    mat: sp.csr_matrix
    height: int
    width: int
    lambda_max: float = 0.0
    matvec_count: int = field(default=0, compare=False)

    @property
    def n(self):
        return self.mat.shape[0]

    def matvec(self, x):
        self.matvec_count += 1 if x.ndim == 1 else x.shape[1]
        return self.mat @ x


def matting_laplacian(image, epsilon: float = DEFAULT_MATTING_EPS) -> SparseLaplacian:
    """Matting Laplacian of an RGB image from 3x3 local affine models.

    For every 3x3 window w_k fully inside the image, with window mean mu_k and
    (biased) covariance S_k, pixels i, j in w_k contribute

        delta_ij - (1/9) * (1 + (I_i - mu_k)^T (S_k + eps/9 I)^-1 (I_j - mu_k)).

    Rows sum to zero and the assembled matrix is PSD with at most 25 nonzeros
    per row (pixels interact within a 5x5 neighborhood).
    """
    data = image.data if isinstance(image, Tensor) else np.asarray(image, dtype=np.float64)
    if data.ndim != 3 or data.shape[0] != 3:
        raise ValueError("expected a (3, h, w) image")
    _, h, w = data.shape
    if h < 3 or w < 3:
        raise ValueError("image smaller than one 3x3 window")
    if data.min() < 0.0 or data.max() > 1.0:
        raise ValueError("pixel values must lie in [0, 1]")
    img = np.moveaxis(data, 0, 2)                     # (h, w, 3)
    n = h * w
    idx = np.arange(n).reshape(h, w)
    win_idx = sliding_window_view(idx, (3, 3)).reshape(-1, 9)
    win_pix = img.reshape(n, 3)[win_idx]              # (K, 9, 3)
    mu = win_pix.mean(axis=1, keepdims=True)
    xc = win_pix - mu
    cov = np.einsum("kpi,kpj->kij", xc, xc) / 9.0
    inv = np.linalg.inv(cov + (epsilon / 9.0) * np.eye(3))
    quad = np.einsum("kpi,kij,kqj->kpq", xc, inv, xc)
    vals = np.eye(9)[None, :, :] - (1.0 + quad) / 9.0
    rows = np.broadcast_to(win_idx[:, :, None], vals.shape).ravel()
    cols = np.broadcast_to(win_idx[:, None, :], vals.shape).ravel()
    mat = sp.coo_matrix((vals.ravel(), (rows, cols)), shape=(n, n)).tocsr()
    lap = SparseLaplacian(mat, h, w)
    lap.lambda_max = estimate_lambda_max(lap)
    return lap


def estimate_lambda_max(lap: SparseLaplacian) -> float:
    """Largest-eigenvalue estimate by seeded power iteration, inflated by 1%.

    Stops when the relative Rayleigh-quotient change drops below
    LAMBDA_MAX_TOL, or after LAMBDA_MAX_ITERS products. A zero matrix yields
    0.0; a matting Laplacian never is one, since each window adds a block of
    trace 8 - tr((S_k + eps/9 I)^-1 S_k) > 5.
    """
    n = lap.mat.shape[0]
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n)
    v /= np.linalg.norm(v)
    ray_prev = None
    ray = 0.0
    for _ in range(LAMBDA_MAX_ITERS):
        w = lap.matvec(v)
        norm_w = np.linalg.norm(w)
        if norm_w == 0.0:
            return 0.0
        ray = float(v @ w)
        v = w / norm_w
        if (ray_prev is not None
                and abs(ray - ray_prev) <= LAMBDA_MAX_TOL * abs(ray)):
            break
        ray_prev = ray
    return 1.01 * ray


# ---------------------------------------------------------------------------
# polynomial low-pass filters


@dataclass
class ChebFilter:
    """Damped Chebyshev surrogate of the ideal low-pass step at lambda_star.

    The spectrum is rescaled to [-1, 1] by x = 2*lambda/lambda_max - 1; the
    step coefficients are Jackson-damped to suppress Gibbs ripple.
    """

    order: int
    lambda_star: float
    lambda_max: float
    coeffs: np.ndarray                # step coefficients * Jackson damping

    def response(self, lams) -> np.ndarray:
        """Polynomial response r(lambda), evaluated by scalar recurrence."""
        x = 2.0 * np.asarray(lams, dtype=np.float64) / self.lambda_max - 1.0
        t_prev = np.ones_like(x)
        t_cur = x.copy()
        r = self.coeffs[0] * t_prev
        if self.order >= 1:
            r = r + self.coeffs[1] * t_cur
        for j in range(2, self.order + 1):
            t_next = 2.0 * x * t_cur - t_prev
            r = r + self.coeffs[j] * t_next
            t_prev, t_cur = t_cur, t_next
        return r


def jackson_cheb_coeffs(order: int, lambda_star: float,
                        lambda_max: float) -> ChebFilter:
    """Jackson-damped Chebyshev coefficients of the step 1{lambda <= lambda_star}."""
    if order < 1:
        raise ValueError("order must be >= 1")
    if not 0.0 < lambda_star <= lambda_max:
        raise ValueError(f"need 0 < lambda_star <= lambda_max, got "
                         f"{lambda_star} vs {lambda_max}")
    b = 2.0 * lambda_star / lambda_max - 1.0
    beta = np.arccos(np.clip(b, -1.0, 1.0))
    c = np.empty(order + 1)
    c[0] = (np.pi - beta) / np.pi
    js = np.arange(1, order + 1)
    c[1:] = -2.0 / (np.pi * js) * np.sin(js * beta)
    # Jackson damping factors; g_0 = 1
    a = np.pi / (order + 2)
    j_all = np.arange(order + 1)
    g = ((1.0 - j_all / (order + 2)) * np.sin(a) * np.cos(j_all * a)
         + (1.0 / (order + 2)) * np.cos(a) * np.sin(j_all * a)) / np.sin(a)
    return ChebFilter(order, lambda_star, lambda_max, g * c)


def apply_poly_filter(lap: SparseLaplacian, filt: ChebFilter, signal):
    """Filter a signal (or the columns of a matrix) with the polynomial.

    Three-term Chebyshev recurrence on the rescaled operator; exactly
    filt.order sparse mat-vec products per signal, no dense spectral work.
    """
    x = np.asarray(signal, dtype=np.float64)
    if x.shape[0] != lap.n:
        raise ValueError(f"signal length {x.shape[0]} != dimension {lap.n}")
    scale = 2.0 / filt.lambda_max

    def op(v):
        return scale * lap.matvec(v) - v

    d = filt.coeffs
    y = d[0] * x
    t_prev = x
    t_cur = op(x)
    y = y + d[1] * t_cur
    for j in range(2, filt.order + 1):
        t_next = 2.0 * op(t_cur) - t_prev
        y = y + d[j] * t_next
        t_prev, t_cur = t_cur, t_next
    return y


# ---------------------------------------------------------------------------
# multiscale pyramid


@dataclass
class LaplacianPyramid:
    """Laplacian + filter per backward-map scale (full, 1/2, 1/4, 1/8).

    filter_map() is the hook the network calls to low-pass one feature map
    channelwise at a given level.
    """

    laplacians: list[SparseLaplacian]
    filters: list[ChebFilter]

    def filter_map(self, level: int, arr: np.ndarray) -> np.ndarray:
        lap = self.laplacians[level]
        c, h, w = arr.shape
        if h != lap.height or w != lap.width:
            raise ValueError(
                f"level {level} filter expects {lap.height}x{lap.width}, "
                f"got {h}x{w}")
        if self.filters[level] is None:
            return arr
        flat = arr.reshape(c, h * w).T
        out = apply_poly_filter(lap, self.filters[level], flat)
        return np.ascontiguousarray(out.T).reshape(c, h, w)


def build_pyramid(content, epsilon: float = DEFAULT_MATTING_EPS,
                  order: int = DEFAULT_ORDER,
                  lambda_frac: float = DEFAULT_LAMBDA_FRAC) -> LaplacianPyramid:
    """Laplacians of the content image downsampled to the network's scales.

    The content is mirror-padded to multiples of SIDE_MULTIPLE first, as
    stylize pads it, so each level matches a backward-map scale. Each level
    gets its own largest-eigenvalue estimate and a low-pass filter with
    threshold lambda_frac * lambda_max. A level too small to hold a 3x3
    window has an empty Laplacian, so its exact low-pass is the identity and
    no filter is built.
    """
    data = content.data if isinstance(content, Tensor) else np.asarray(content, dtype=np.float64)
    laps, filts = [], []
    img = mirror_pad(data, SIDE_MULTIPLE)
    for level in range(len(CHANNELS)):
        if level:
            img = np.clip(block_mean2(img), 0.0, 1.0)
        _, h, w = img.shape
        if h < 3 or w < 3:
            laps.append(SparseLaplacian(sp.csr_matrix((h * w, h * w)), h, w))
            filts.append(None)
            continue
        lap = matting_laplacian(img, epsilon)
        laps.append(lap)
        filts.append(jackson_cheb_coeffs(
            order, lambda_frac * lap.lambda_max, lap.lambda_max))
    return LaplacianPyramid(laps, filts)
