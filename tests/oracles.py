"""Independent reference implementations used as test oracles.

Everything here is deliberately written as plain loop nests or dense linear
algebra, sharing no code path with the library implementations it checks.
"""

import numpy as np


def reflect_index(i, n):
    """Single-reflection index (edge not duplicated); replicates when n == 1."""
    if n == 1:
        return 0
    if i < 0:
        i = -i
    if i >= n:
        i = 2 * (n - 1) - i
    return min(max(i, 0), n - 1)


def conv_reference(x, kernel, bias, use_relu):
    """Dense loop-nest convolution with reflection padding."""
    co, ci, kh, kw = kernel.shape
    _, h, w = x.shape
    out = np.zeros((co, h, w))
    for o in range(co):
        for i in range(h):
            for j in range(w):
                acc = bias[o]
                for c in range(ci):
                    for dy in range(kh):
                        for dx in range(kw):
                            ii = reflect_index(i + dy - kh // 2, h)
                            jj = reflect_index(j + dx - kw // 2, w)
                            acc += kernel[o, c, dy, dx] * x[c, ii, jj]
                out[o, i, j] = max(acc, 0.0) if use_relu else acc
    return out


def pool_reference(x):
    c, h, w = x.shape
    out = np.zeros((c, h // 2, w // 2))
    for ch in range(c):
        for i in range(h // 2):
            for j in range(w // 2):
                out[ch, i, j] = x[ch, 2 * i:2 * i + 2, 2 * j:2 * j + 2].mean()
    return out


def bilinear_up2_reference(x):
    """Direct evaluation of the half-pixel-centers coordinate mapping."""
    c, h, w = x.shape
    out = np.zeros((c, 2 * h, 2 * w))
    for ch in range(c):
        for i in range(2 * h):
            for j in range(2 * w):
                si = min(max((i + 0.5) / 2 - 0.5, 0.0), h - 1.0)
                sj = min(max((j + 0.5) / 2 - 0.5, 0.0), w - 1.0)
                i0, j0 = int(np.floor(si)), int(np.floor(sj))
                i1, j1 = min(i0 + 1, h - 1), min(j0 + 1, w - 1)
                ti, tj = si - i0, sj - j0
                out[ch, i, j] = ((1 - ti) * (1 - tj) * x[ch, i0, j0]
                                 + (1 - ti) * tj * x[ch, i0, j1]
                                 + ti * (1 - tj) * x[ch, i1, j0]
                                 + ti * tj * x[ch, i1, j1])
    return out


def _up2_gather_axis(n):
    """Half-pixel-centers source indices and weights for doubling one axis."""
    src = (np.arange(2 * n) + 0.5) / 2.0 - 0.5
    src = np.clip(src, 0.0, n - 1.0)
    i0 = np.floor(src).astype(np.intp)
    t = src - i0
    i1 = np.minimum(i0 + 1, n - 1)
    return i0, i1, 1.0 - t, t


def bilinear_up2_gather(x):
    """Separable half-pixel-centers upsample as index gathers: rows, then
    columns, each output the weighted sum of its two source samples."""
    _, h, w = x.shape
    r0, r1, wr0, wr1 = _up2_gather_axis(h)
    c0, c1, wc0, wc1 = _up2_gather_axis(w)
    rows = x[:, r0, :] * wr0[None, :, None] + x[:, r1, :] * wr1[None, :, None]
    return rows[:, :, c0] * wc0[None, None, :] + rows[:, :, c1] * wc1[None, None, :]


def gram_reference(feat, mask=None):
    """Explicit diagonal-matrix products: (M F)^T (M F) / tr(M)."""
    c, h, w = feat.shape
    f2 = feat.reshape(c, h * w).T
    if mask is None:
        m = np.eye(h * w)
        denom = h * w
    else:
        m = np.diag(np.asarray(mask, dtype=float))
        denom = float(np.trace(m))
    mf = m @ f2
    return (mf.T @ mf) / denom


def content_loss_reference(x_feats, c_feats, indices):
    acc = 0.0
    for lvl in indices:
        f, c = x_feats[lvl], c_feats[lvl]
        n = f.shape[1] * f.shape[2]
        acc += np.sum((f - c) ** 2) / (n * f.shape[0])
    return acc / len(indices)


def style_loss_reference(x_feats, target_grams, indices, masks=None):
    acc = 0.0
    for i, lvl in enumerate(indices):
        f = x_feats[lvl]
        m = None if masks is None else masks[lvl]
        g = gram_reference(f, m)
        acc += np.sum((g - target_grams[i]) ** 2) / f.shape[0] ** 2
    return acc / len(indices)


def tv_reference(x):
    acc = 0.0
    c, h, w = x.shape
    for ch in range(c):
        for i in range(h):
            for j in range(w):
                if i + 1 < h:
                    acc += (x[ch, i + 1, j] - x[ch, i, j]) ** 2
                if j + 1 < w:
                    acc += (x[ch, i, j + 1] - x[ch, i, j]) ** 2
    return acc


def matting_laplacian_dense(img, eps):
    """Brute-force window accumulation of the matting Laplacian."""
    _, h, w = img.shape
    pix = np.moveaxis(img, 0, 2).reshape(h * w, 3)
    n = h * w
    lap = np.zeros((n, n))
    for top in range(h - 2):
        for left in range(w - 2):
            ids = [(top + a) * w + (left + b) for a in range(3) for b in range(3)]
            win = pix[ids]                       # (9, 3)
            mu = win.mean(axis=0)
            xc = win - mu
            cov = xc.T @ xc / 9.0
            inv = np.linalg.inv(cov + eps / 9.0 * np.eye(3))
            for p, i in enumerate(ids):
                for q, j in enumerate(ids):
                    val = (1.0 if p == q else 0.0) - (1.0 + xc[p] @ inv @ xc[q]) / 9.0
                    lap[i, j] += val
    return lap


def spectral_filter_dense(lap_dense, response_fn, signal):
    """U diag(r(lambda)) U^T x via dense eigendecomposition."""
    sym = (lap_dense + lap_dense.T) / 2.0
    lams, u = np.linalg.eigh(sym)
    return u @ (response_fn(lams) * (u.T @ signal.T).T if signal.ndim > 1
                else response_fn(lams) * (u.T @ signal))


class IdentityHooks:
    """Filter hooks that pass every map through unchanged."""

    def filter_map(self, level, arr):
        return arr


class ExactProjector:
    """Projection onto the span of eigenvectors with eigenvalue <= lambda_star.

    When every eigenvalue passes, the projector is the identity map and is
    applied as such (no matrix product), which keeps trajectories bit-equal
    to the unprojected path.
    """

    def __init__(self, basis, n, k, lambda_star):
        self.basis = basis
        self.n = n
        self.k = k
        self.lambda_star = lambda_star
        self.is_identity = basis is None

    def __call__(self, x):
        if self.is_identity:
            return x
        return self.basis @ (self.basis.T @ x)

    @property
    def matrix(self):
        if self.is_identity:
            return np.eye(self.n)
        return self.basis @ self.basis.T


def exact_projector(lap, lambda_star, max_n=4096):
    """Ideal low-pass of a graph Laplacian from its dense eigendecomposition:
    the small-scale oracle for the Chebyshev filters (n <= 4096)."""
    n = lap.n
    if n > max_n:
        raise ValueError(f"exact projector limited to n <= {max_n}, got {n}")
    dense = lap.mat.toarray()
    lams, u = np.linalg.eigh((dense + dense.T) / 2.0)
    k = int(np.sum(lams <= lambda_star))
    if k >= n:
        return ExactProjector(None, n, n, lambda_star)
    return ExactProjector(np.ascontiguousarray(u[:, :k]), n, k, lambda_star)


def guided_filter_reference(p, guide, radius, eps):
    """Per-window loop implementation of the color-guide filter."""
    cp, h, w = p.shape
    img = np.moveaxis(guide, 0, 2)
    out = np.zeros_like(p)
    a_all = np.zeros((cp, h, w, 3))
    b_all = np.zeros((cp, h, w))
    for ci in range(h):
        for cj in range(w):
            i1, i2 = max(ci - radius, 0), min(ci + radius, h - 1)
            j1, j2 = max(cj - radius, 0), min(cj + radius, w - 1)
            win = img[i1:i2 + 1, j1:j2 + 1].reshape(-1, 3)
            mu = win.mean(axis=0)
            cov = win.T @ win / win.shape[0] - np.outer(mu, mu)
            inv = np.linalg.inv(cov + eps * np.eye(3))
            for c in range(cp):
                pw = p[c, i1:i2 + 1, j1:j2 + 1].reshape(-1)
                cov_ip = (win * pw[:, None]).mean(axis=0) - mu * pw.mean()
                a = inv @ cov_ip
                a_all[c, ci, cj] = a
                b_all[c, ci, cj] = pw.mean() - a @ mu
    for ci in range(h):
        for cj in range(w):
            i1, i2 = max(ci - radius, 0), min(ci + radius, h - 1)
            j1, j2 = max(cj - radius, 0), min(cj + radius, w - 1)
            cnt = (i2 - i1 + 1) * (j2 - j1 + 1)
            for c in range(cp):
                a_bar = a_all[c, i1:i2 + 1, j1:j2 + 1].reshape(-1, 3).sum(axis=0) / cnt
                b_bar = b_all[c, i1:i2 + 1, j1:j2 + 1].sum() / cnt
                out[c, ci, cj] = a_bar @ img[ci, cj] + b_bar
    return out


def rel_err(analytic, numeric, floor=1e-12):
    a = np.asarray(analytic, dtype=float)
    n = np.asarray(numeric, dtype=float)
    denom = max(np.max(np.abs(a)), np.max(np.abs(n)), floor)
    return np.max(np.abs(a - n)) / denom


def numeric_grad(f, arr, h=1e-5, samples=None, rng=None):
    """Central finite differences of a scalar function of a mutable array.

    With `samples`, only that many randomly chosen coordinates are probed;
    returns (indices, gradient values).
    """
    flat = arr.reshape(-1)
    if samples is None:
        idxs = range(flat.size)
    else:
        idxs = rng.choice(flat.size, size=min(samples, flat.size),
                          replace=False)
    grads = np.zeros(len(list(idxs)) if samples else flat.size)
    chosen = list(idxs)
    for k, i in enumerate(chosen):
        old = flat[i]
        flat[i] = old + h
        lp = f()
        flat[i] = old - h
        lm = f()
        flat[i] = old
        grads[k] = (lp - lm) / (2 * h)
    if samples is None:
        return grads.reshape(arr.shape)
    return chosen, grads
