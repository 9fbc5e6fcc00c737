"""Spectral graph machinery for the photorealistic path.

A matting Laplacian built from local color affinities of the content image
defines a graph on which photorealistic results are smooth signals. Ideal
low-pass filtering below a threshold eigenvalue projects onto the bandlimited
subspace; at scale this is approximated by a damped Chebyshev polynomial of
the sparse Laplacian, so filtering costs exactly `order` sparse mat-vec
products per signal. The Laplacian is stored as its 25 diagonals, and a
feature map is filtered one contiguous channel at a time.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property

import numpy as np
import scipy.sparse as sp

from .network import CHANNELS, SIDE_MULTIPLE
from .tensor import Tensor, as_float, block_mean2, mirror_pad

DEFAULT_MATTING_EPS = 1e-5
DEFAULT_ORDER = 5
DEFAULT_LAMBDA_FRAC = 0.2
LAMBDA_MAX_ITERS = 200
LAMBDA_MAX_TOL = 1e-4


def _stencil_offsets(width):
    """(5, 5) flat offsets dy*width + dx of the pixels at most 2 away."""
    return np.arange(-2, 3)[:, None] * width + np.arange(-2, 3)


@dataclass
class SparseLaplacian:
    """Symmetric sparse PSD matrix on an h x w pixel grid, with spectral
    metadata.

    It couples pixels at most 2 apart in both axes, so it is held as a
    float64 dia_matrix with at most 25 diagonals, at the sorted offsets
    dy*w + dx, and a float32 copy of the diagonals, dia32, made once at
    construction. matvec() is the only multiplication entry point, so tests
    can assert how many sparse products an algorithm performed; it
    multiplies a float32 signal by dia32 and any other by dia, so the
    product keeps the signal's dtype and no multiplication ever changes the
    Laplacian. mat is a CSR view of the same matrix, built on first access.
    """

    dia: sp.dia_matrix
    height: int
    width: int
    lambda_max: float = 0.0
    matvec_count: int = field(default=0, compare=False)
    dia32: sp.dia_matrix = field(init=False, repr=False, compare=False)

    def __post_init__(self):
        d = self.dia
        self.dia32 = sp.dia_matrix((d.data.astype(np.float32), d.offsets),
                                   shape=d.shape)

    @property
    def n(self):
        return self.dia.shape[0]

    @cached_property
    def mat(self) -> sp.csr_matrix:
        """CSR of the same matrix. Row i holds every offset that stays inside
        the image and has a diagonal, in column order, explicit zeros
        included: the structure of the summed 3x3 window blocks."""
        h, w, d = self.height, self.width, self.dia
        offs = _stencil_offsets(w)
        ys = np.arange(h)[:, None] + np.arange(-2, 3)     # (h, 5) row of i + dy
        xs = np.arange(w)[:, None] + np.arange(-2, 3)     # (w, 5) col of i + dx
        in_y, in_x = (ys >= 0) & (ys < h), (xs >= 0) & (xs < w)
        inside = (in_y[:, None, :, None] & in_x[None, :, None, :]
                  & np.isin(offs, d.offsets))             # (h, w, 5, 5)
        row_nnz = inside.sum(axis=(2, 3)).ravel()
        index = np.int32 if row_nnz.sum() <= np.iinfo(np.int32).max else np.int64
        indptr = np.zeros(h * w + 1, dtype=index)
        np.cumsum(row_nnz, out=indptr[1:])
        cols = (ys.astype(index) * w)[:, None, :, None] + xs.astype(index)[None, :, None, :]
        cols = cols[inside]
        diag = np.broadcast_to(np.searchsorted(d.offsets, offs), inside.shape)
        return sp.csr_matrix((d.data[diag[inside], cols], cols, indptr),
                             shape=d.shape)

    def matvec(self, x):
        self.matvec_count += 1 if x.ndim == 1 else x.shape[1]
        return (self.dia32 if x.dtype == np.float32 else self.dia) @ x


def matting_laplacian(image, epsilon: float = DEFAULT_MATTING_EPS) -> SparseLaplacian:
    """Matting Laplacian of an RGB image from 3x3 local affine models.

    For every 3x3 window w_k fully inside the image, with window mean mu_k and
    (biased) covariance S_k, pixels i, j in w_k contribute

        delta_ij - (1/9) * (1 + (I_i - mu_k)^T (S_k + eps/9 I)^-1 (I_j - mu_k)).

    Rows sum to zero and the assembled matrix is PSD. A window couples
    pixels at most 2 apart, so L has 25 diagonals, one per offset (dy, dx)
    in [-2, 2]^2. Position p of every window at once is one slice of the
    image, so the values of one (p, q) pair over all windows form one
    vector, added with one slice into plane q - p of a (5, 5, h, w) array;
    81 such adds assemble L. Each plane is then copied, shifted by its flat
    offset dy*w + dx, into one row of a DIA matrix's diagonal storage; no
    CSR is built.
    """
    data = image.data if isinstance(image, Tensor) else np.asarray(image, dtype=np.float64)
    if data.ndim != 3 or data.shape[0] != 3:
        raise ValueError("expected a (3, h, w) image")
    _, h, w = data.shape
    if h < 3 or w < 3:
        raise ValueError("image smaller than one 3x3 window")
    if not (0.0 <= data.min() and data.max() <= 1.0):     # NaN fails too
        raise ValueError("pixel values must lie in [0, 1]")
    hk, wk = h - 2, w - 2                             # window top-left corners
    # xc[p, c, k]: channel c of pixel p (row-major in the 3x3 window) of
    # window k, less the window mean
    xc = np.stack([data[:, a:a + hk, b:b + wk]
                   for a in range(3) for b in range(3)])
    xc -= xc.mean(axis=0)
    xc = xc.reshape(9, 3, hk * wk)
    xk = xc.transpose(2, 0, 1)                        # (K, 9, 3) view
    cov = np.matmul(xk.transpose(0, 2, 1), xk) / 9.0
    inv = np.linalg.inv(cov + (epsilon / 9.0) * np.eye(3))
    xi = np.ascontiguousarray(np.matmul(xk, inv).transpose(1, 2, 0))
    planes = np.zeros((5, 5, h, w))
    for p in range(9):
        pa, pb = divmod(p, 3)
        for q in range(9):
            qa, qb = divmod(q, 3)
            quad = np.einsum("ik,ik->k", xi[p], xc[q]).reshape(hk, wk)
            planes[qa - pa + 2, qb - pb + 2, pa:pa + hk, pb:pb + wk] += (
                float(p == q) - (1.0 + quad) / 9.0)
    del xc, xk, xi                                    # before the diagonals
    lap = SparseLaplacian(_offset_dia(planes), h, w)
    del planes
    lap.lambda_max = estimate_lambda_max(lap)
    return lap


def _offset_dia(planes) -> sp.dia_matrix:
    """DIA of the (h*w)^2 matrix whose entry (i, i + dy*w + dx) is
    planes[dy + 2, dx + 2] at pixel i.

    The offsets are sorted, so a product sums each row in column order, as a
    CSR product does. When w <= 4 two (dy, dx) share one flat offset; their
    planes are summed into one diagonal, which is exact, since at any pixel
    at most one of them points inside the image.
    """
    _, _, h, w = planes.shape
    n = h * w
    offs = _stencil_offsets(w).ravel()
    uniq, slot = np.unique(offs, return_inverse=True)
    data = np.zeros((len(uniq), n))
    for plane, k, off in zip(planes.reshape(25, n), slot, offs):
        if off >= 0:                                  # data[k, j] is entry (j - off, j)
            data[k, off:] += plane[:n - off]
        else:
            data[k, :off] += plane[-off:]
    return sp.dia_matrix((data, uniq), shape=(n, n))


def estimate_lambda_max(lap: SparseLaplacian) -> float:
    """Largest-eigenvalue estimate by seeded power iteration, inflated by 1%.

    Stops when the relative Rayleigh-quotient change drops below
    LAMBDA_MAX_TOL, or after LAMBDA_MAX_ITERS products. A zero matrix yields
    0.0; a matting Laplacian never is one, since each window adds a block of
    trace 8 - tr((S_k + eps/9 I)^-1 S_k) > 5.
    """
    n = lap.n
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
    It runs in the signal's dtype (float32 stays float32): the scale and the
    coefficients are cast to it, since a float64 NumPy scalar would promote
    every product to float64.
    """
    x = as_float(signal)
    if x.shape[0] != lap.n:
        raise ValueError(f"signal length {x.shape[0]} != dimension {lap.n}")
    scale = x.dtype.type(2.0 / filt.lambda_max)

    def op(v):
        return scale * lap.matvec(v) - v

    d = filt.coeffs.astype(x.dtype)
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
    channelwise at a given level: each channel is one contiguous vector, so
    every product is a single-vector DIA product.
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
        flat = as_float(arr).reshape(c, h * w)
        out = np.empty_like(flat)
        for ch, row in enumerate(flat):
            out[ch] = apply_poly_filter(lap, self.filters[level], row)
        return out.reshape(c, h, w)


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
            laps.append(SparseLaplacian(sp.dia_matrix((h * w, h * w)), h, w))
            filts.append(None)
            continue
        lap = matting_laplacian(img, epsilon)
        laps.append(lap)
        filts.append(jackson_cheb_coeffs(
            order, lambda_frac * lap.lambda_max, lap.lambda_max))
    return LaplacianPyramid(laps, filts)
