"""Spectral graph machinery for the photorealistic path.

A matting Laplacian built from local color affinities of the content image
defines a graph on which photorealistic results are smooth signals. Ideal
low-pass filtering below a threshold eigenvalue projects onto the bandlimited
subspace; at scale this is approximated by a damped Chebyshev polynomial of
the sparse Laplacian, so filtering costs exactly `order` sparse mat-vec
products per signal. The Laplacian is stored as its 25 diagonals, float32
in a pyramid, and a feature map is filtered one contiguous channel at a time.

scipy.sparse is imported only inside the functions that build a DIA matrix,
so a process that never builds a matting Laplacian (artistic stylize, train,
compare, inspect) never loads it.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from functools import cached_property
from typing import TYPE_CHECKING

import numpy as np

from .network import CHANNELS, SIDE_MULTIPLE
from .tensor import as_float, block_mean2, inv_sym3, mirror_pad

if TYPE_CHECKING:
    import scipy.sparse as sp

DEFAULT_MATTING_EPS = 1e-5
DEFAULT_ORDER = 5
DEFAULT_LAMBDA_FRAC = 0.2
LAMBDA_MAX_ITERS = 200
LAMBDA_MAX_TOL = 1e-4
_BAND_WINDOWS = 8192                  # per band of matting_laplacian's assembly


@dataclass
class SparseLaplacian:
    """Symmetric sparse PSD matrix on an h x w pixel grid, with spectral
    metadata.

    It couples pixels at most 2 apart in both axes, so it is held as one
    dia_matrix with at most 25 diagonals, at the sorted offsets dy*w + dx.
    matvec() is the only multiplication entry point, so tests can assert
    how many sparse products an algorithm performed; it multiplies one
    vector per call by dia, and no multiplication ever changes the
    Laplacian. mat is a CSR matrix of the stored nonzeros and lambda_max
    the estimate_lambda_max of dia, each computed on first access.
    """

    dia: sp.dia_matrix
    height: int
    width: int
    matvec_count: int = field(init=False, default=0, compare=False)

    @property
    def n(self):
        return self.dia.shape[0]

    @cached_property
    def mat(self) -> sp.csr_matrix:
        """CSR of the stored nonzeros, in column order within each row."""
        return self.dia.tocsr()

    @cached_property
    def lambda_max(self) -> float:
        return estimate_lambda_max(self)

    def matvec(self, x):
        self.matvec_count += 1
        return self.dia @ x


def matting_laplacian(image, epsilon: float = DEFAULT_MATTING_EPS) -> SparseLaplacian:
    """Matting Laplacian of a (3, h, w) RGB array from 3x3 local affine models.

    For every 3x3 window w_k fully inside the image, with window mean mu_k and
    (biased) covariance S_k, pixels i, j in w_k contribute

        delta_ij - (1/9) * (1 + (I_i - mu_k)^T (S_k + eps/9 I)^-1 (I_j - mu_k)).

    Rows sum to zero and the assembled matrix is PSD. epsilon must be
    positive: S_k is singular on a flat window, and a negative epsilon
    breaks PSD. L is assembled in float64. A window couples pixels at most
    2 apart, so L has 25 diagonals, one per offset (dy, dx) in [-2, 2]^2, at
    the flat offset dy*w + dx. DIA storage keeps entry (i, j) at column j,
    the q pixel, so the term of pixel pair (p, q) of a window lands in the
    diagonal of offset q - p, and no other form is built. When w <= 4 two
    (dy, dx) share one flat offset and so one diagonal, which is exact: at
    any pixel at most one of them points inside the image.

    The diagonals are filled one band of rows [r0, r1) at a time, each of
    about _BAND_WINDOWS windows and two rows at least, so no per-window
    stack spans the whole image. A band reads the window rows [r0 - 2, r1),
    whose pixels reach it, and two at least where the image has two, since
    an einsum over one window sums in another order than over many.
    Position p of those windows is one slice of the image, and their 3x3
    inverses come from one closed-form Cholesky (inv_sym3), window axis
    last. The values of one (p, q) pair over the band's windows form one
    vector, added with one slice into the band's rows of its diagonal.
    Every band runs its 81 adds in p-major order, so each entry gets the
    same sums in the same order as from a whole-image assembly.
    """
    import scipy.sparse as sp

    data = np.asarray(image, dtype=np.float64)
    if data.ndim != 3 or data.shape[0] != 3:
        raise ValueError("expected a (3, h, w) image")
    _, h, w = data.shape
    if h < 3 or w < 3:
        raise ValueError("image smaller than one 3x3 window")
    if not (0.0 <= data.min() and data.max() <= 1.0):     # NaN fails too
        raise ValueError("pixel values must lie in [0, 1]")
    if not epsilon > 0:
        raise ValueError(f"epsilon must be positive, got {epsilon}")
    hk, wk = h - 2, w - 2                             # window top-left corners
    # sorted offsets, so a product sums each row in column order, as a CSR
    # product does; slot[dy + 2, dx + 2] is the diagonal of offset (dy, dx)
    uniq, slot = np.unique(np.arange(-2, 3)[:, None] * w + np.arange(-2, 3),
                           return_inverse=True)
    slot = slot.reshape(5, 5)                         # NumPy 1.x returns it flat
    diags = np.zeros((len(uniq), h, w))
    band = max(2, _BAND_WINDOWS // w)
    for r0 in range(0, h, band):
        r1 = min(r0 + band, h)
        # window rows [k0, k1): those whose pixels reach rows [r0, r1), and
        # two at least
        k1 = min(r1, hk)
        k0 = max(min(r0, k1) - 2, 0)
        # xc[p, c, k]: channel c of pixel p (row-major in the 3x3 window) of
        # window k, less the window mean
        xc = np.stack([data[:, k0 + a:k1 + a, b:b + wk]
                       for a in range(3) for b in range(3)])
        xc -= xc.mean(axis=0)
        xc = xc.reshape(9, 3, -1)
        cov = np.einsum("pck,pdk->cdk", xc, xc) / 9.0
        cov[[0, 1, 2], [0, 1, 2]] += epsilon / 9.0
        # xi[p, c, k] = ((S_k + eps/9 I)^-1 (I_p - mu_k))_c
        xi = np.einsum("pdk,dck->pck", xc, inv_sym3(cov))
        for p in range(9):
            pa, pb = divmod(p, 3)
            for q in range(9):
                qa, qb = divmod(q, 3)
                # window row k adds to row k + qa; keep rows [r0, r1)
                lo, hi = max(r0 - qa, k0), min(r1 - qa, k1)
                if lo < hi:
                    quad = np.einsum("ik,ik->k", xi[p], xc[q]).reshape(-1, wk)
                    diags[slot[qa - pa + 2, qb - pb + 2],
                          lo + qa:hi + qa, qb:qb + wk] += (
                        float(p == q) - (1.0 + quad[lo - k0:hi - k0]) / 9.0)
        del xc, cov, xi                 # freed before the next band's stacks
    n = h * w
    return SparseLaplacian(sp.dia_matrix((diags.reshape(-1, n), uniq),
                                         shape=(n, n)), h, w)


def estimate_lambda_max(lap: SparseLaplacian) -> float:
    """Largest-eigenvalue estimate by seeded power iteration, inflated by 1%.

    The iterate has the dtype of lap.dia, so the estimate is of the operator
    the Laplacian's filters apply: float32 on a pyramid level. Stops when
    the relative Rayleigh-quotient change drops below LAMBDA_MAX_TOL, which
    lies far above float32 rounding and so is reachable in either dtype, or
    after LAMBDA_MAX_ITERS products. A zero matrix yields 0.0; a matting
    Laplacian never is one, since each window adds a block of trace
    8 - tr((S_k + eps/9 I)^-1 S_k) > 5.

    The estimate is not a bound. The Rayleigh quotient approaches lambda_max
    from below, and where it converges slowly the 1% inflation can leave it
    under lambda_max; the top of the spectrum then lies outside the
    Chebyshev domain [0, lambda_max]. ROADMAP item 2 replaces it with the
    analytic bound lambda_max <= 9.
    """
    n = lap.n
    rng = np.random.default_rng(0)
    v = rng.standard_normal(n)
    v = (v / np.linalg.norm(v)).astype(lap.dia.dtype)
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

    lambda_star: float
    lambda_max: float
    coeffs: np.ndarray                # step coefficients * Jackson damping

    def response(self, lams) -> np.ndarray:
        """Polynomial response r(lambda), evaluated by scalar recurrence."""
        x = 2.0 * np.asarray(lams, dtype=np.float64) / self.lambda_max - 1.0
        return _cheb_sum(self.coeffs, lambda v: x * v, np.ones_like(x))


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
    return ChebFilter(lambda_star, lambda_max, g * c)


def _cheb_sum(coeffs, op, x):
    """sum_j coeffs[j] * T_j(op) x by the three-term Chebyshev recurrence,
    with len(coeffs) - 1 calls of op.

    op must return a fresh array: each new iterate and the sum are updated
    in place, in the operation order of 2 * op(t) - t_prev, so the result
    is bit-equal to the out-of-place recurrence.
    """
    y = coeffs[0] * x
    t_prev, t_cur = x, op(x)
    y = y + coeffs[1] * t_cur
    for c in coeffs[2:]:
        t_next = op(t_cur)
        t_next *= 2.0
        t_next -= t_prev
        y += c * t_next
        t_prev, t_cur = t_cur, t_next
    return y


def apply_poly_filter(lap: SparseLaplacian, filt: ChebFilter, signal):
    """Filter one signal, a vector of length lap.n, with the polynomial.

    Three-term Chebyshev recurrence on the rescaled operator; exactly
    len(filt.coeffs) - 1 sparse mat-vec products, no dense spectral work.
    The scale and the coefficients are cast to the signal's dtype, since a
    float64 NumPy scalar would promote every product to float64; the output
    dtype is NumPy's promotion of the signal's and the Laplacian's.
    """
    x = as_float(signal)
    if x.shape != (lap.n,):
        raise ValueError(f"signal of shape {x.shape} is not a vector of "
                         f"length {lap.n}")
    scale = x.dtype.type(2.0 / filt.lambda_max)
    return _cheb_sum(filt.coeffs.astype(x.dtype),
                     lambda v: scale * lap.matvec(v) - v, x)


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
        """Each channel of a (c, h, w) map filtered at `level`, in the dtype
        apply_poly_filter returns; a level without a filter returns arr."""
        lap = self.laplacians[level]
        c, h, w = arr.shape
        if h != lap.height or w != lap.width:
            raise ValueError(
                f"level {level} filter expects {lap.height}x{lap.width}, "
                f"got {h}x{w}")
        if self.filters[level] is None:
            return arr
        flat = as_float(arr).reshape(c, h * w)
        out = np.empty(flat.shape, np.result_type(flat, lap.dia.dtype))
        for ch, row in enumerate(flat):
            out[ch] = apply_poly_filter(lap, self.filters[level], row)
        return out.reshape(c, h, w)


def build_pyramid(content, epsilon: float = DEFAULT_MATTING_EPS,
                  order: int = DEFAULT_ORDER,
                  lambda_frac: float = DEFAULT_LAMBDA_FRAC) -> LaplacianPyramid:
    """Laplacians of a (3, h, w) content array at the network's scales.

    The content is mirror-padded to multiples of SIDE_MULTIPLE first, as
    stylize pads it, so each level matches a backward-map scale. Each level
    keeps float32 diagonals and a low-pass filter with threshold
    lambda_frac * lambda_max; its lambda_max is estimated here, before any
    thread filters. A level too small to hold a 3x3 window has an empty
    Laplacian, so its exact low-pass is the identity and no filter is built.
    """
    laps, filts = [], []
    img = mirror_pad(np.asarray(content, dtype=np.float64), SIDE_MULTIPLE)
    for level in range(len(CHANNELS)):
        if level:
            img = block_mean2(img)
        _, h, w = img.shape
        if h < 3 or w < 3:
            import scipy.sparse as sp

            laps.append(SparseLaplacian(
                sp.dia_matrix((h * w, h * w), dtype=np.float32), h, w))
            filts.append(None)
            continue
        lap = SparseLaplacian(
            matting_laplacian(img, epsilon).dia.astype(np.float32), h, w)
        laps.append(lap)
        filts.append(jackson_cheb_coeffs(
            order, lambda_frac * lap.lambda_max, lap.lambda_max))
    return LaplacianPyramid(laps, filts)
