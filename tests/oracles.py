"""Independent reference implementations used as test oracles.

Everything here is deliberately written as plain loop nests, dense linear
algebra or, for the matting Laplacian's sparse structure, COO triplets summed
by scipy, sharing no code path with the library implementations it checks.
The exceptions are stylize_float64, the float64 reference that stylize's
float32 descent direction is held to; descent_iterates, which reads a
descent's iterates off the library's own runs; and the whole-image forms of
the matting-Laplacian assembly and the guided filter, which the banded and
plane-wise library forms must match bit for bit: they share the library's
closed-form 3x3 inverse (inv_sym3), since only the same arithmetic can.
"""

from dataclasses import replace

import numpy as np
import scipy.sparse as sp
from numpy.lib.stride_tricks import sliding_window_view

from gradstyle.network import SIDE_MULTIPLE, InferenceOptions, unroll
from gradstyle.perceptual import content_features
from gradstyle.solver import grad_descent_stylize
from gradstyle.tensor import Tensor, inv_sym3, mirror_pad


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


def conv_vjp_reference(x, kernel, out, g, use_relu):
    """(g_x, g_w, g_b) of a reflection-padded conv by its column matrix.

    The (c*kh*kw, h*w) im2col matrix gives g_w in one GEMM; its adjoint,
    W^T g, is scattered back tap by tap onto the padded grid, and each padded
    entry is added onto the input pixel it mirrors. `out` is the forward
    output, read only for the ReLU mask.
    """
    co, c, kh, kw = kernel.shape
    _, h, w = x.shape
    g2 = g.reshape(co, h * w)
    if use_relu:
        g2 = g2 * (out.reshape(co, h * w) > 0.0)
    ph, pw = kh // 2, kw // 2
    hp, wp = h + 2 * ph, w + 2 * pw
    padded = np.empty((c, hp, wp))
    for i in range(hp):
        for j in range(wp):
            padded[:, i, j] = x[:, reflect_index(i - ph, h),
                                reflect_index(j - pw, w)]
    cols = np.empty((c, kh, kw, h, w))
    for dy in range(kh):
        for dx in range(kw):
            cols[:, dy, dx] = padded[:, dy:dy + h, dx:dx + w]
    cols = cols.reshape(c * kh * kw, h * w)
    g_w = (g2 @ cols.T).reshape(co, c, kh, kw)
    g_cols = (kernel.reshape(co, c * kh * kw).T @ g2).reshape(c, kh, kw, h, w)
    g_padded = np.zeros((c, hp, wp))
    for dy in range(kh):
        for dx in range(kw):
            g_padded[:, dy:dy + h, dx:dx + w] += g_cols[:, dy, dx]
    g_x = np.zeros((c, h, w))
    for i in range(hp):
        for j in range(wp):
            g_x[:, reflect_index(i - ph, h),
                reflect_index(j - pw, w)] += g_padded[:, i, j]
    return g_x, g_w, g2.sum(axis=1)


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


def matting_laplacian_coo(img, eps):
    """Matting Laplacian CSR from COO triplets: the (9, 9) block of every
    window, with its 81 (row, col) pairs, summed by tocsr."""
    _, h, w = img.shape
    n = h * w
    idx = np.arange(n).reshape(h, w)
    win_idx = sliding_window_view(idx, (3, 3)).reshape(-1, 9)
    win_pix = np.moveaxis(img, 0, 2).reshape(n, 3)[win_idx]     # (K, 9, 3)
    xc = win_pix - win_pix.mean(axis=1, keepdims=True)
    cov = np.einsum("kpi,kpj->kij", xc, xc) / 9.0
    inv = np.linalg.inv(cov + (eps / 9.0) * np.eye(3))
    quad = np.einsum("kpi,kij,kqj->kpq", xc, inv, xc)
    vals = np.eye(9)[None, :, :] - (1.0 + quad) / 9.0
    rows = np.broadcast_to(win_idx[:, :, None], vals.shape).ravel()
    cols = np.broadcast_to(win_idx[:, None, :], vals.shape).ravel()
    return sp.coo_matrix((vals.ravel(), (rows, cols)), shape=(n, n)).tocsr()


def matting_diagonals_whole_image(img, eps):
    """(diagonals, offsets) of the matting Laplacian, every window's stacks
    built over the whole image at once: the assembly matting_laplacian ran
    before it went band by band."""
    _, h, w = img.shape
    hk, wk = h - 2, w - 2
    xc = np.stack([img[:, a:a + hk, b:b + wk]
                   for a in range(3) for b in range(3)])
    xc -= xc.mean(axis=0)
    xc = xc.reshape(9, 3, hk * wk)
    cov = np.einsum("pck,pdk->cdk", xc, xc) / 9.0
    cov[[0, 1, 2], [0, 1, 2]] += eps / 9.0
    xi = np.einsum("pdk,dck->pck", xc, inv_sym3(cov))
    uniq, slot = np.unique(np.arange(-2, 3)[:, None] * w + np.arange(-2, 3),
                           return_inverse=True)
    slot = slot.reshape(5, 5)
    diags = np.zeros((len(uniq), h, w))
    for p in range(9):
        pa, pb = divmod(p, 3)
        for q in range(9):
            qa, qb = divmod(q, 3)
            quad = np.einsum("ik,ik->k", xi[p], xc[q]).reshape(hk, wk)
            diags[slot[qa - pa + 2, qb - pb + 2], qa:qa + hk, qb:qb + wk] += (
                float(p == q) - (1.0 + quad) / 9.0)
    return diags.reshape(len(uniq), h * w), uniq


def _box_mean_channels_last(arr, radius):
    """Clamped box mean of every trailing channel of an (h, w, k) array at
    once, by one k-channel integral image and np.take gathers."""
    h, w, k = arr.shape
    integral = np.zeros((h + 1, w + 1, k))
    np.cumsum(arr, axis=0, out=integral[1:, 1:])
    np.cumsum(integral[1:, 1:], axis=1, out=integral[1:, 1:])
    i, j = np.arange(h), np.arange(w)
    i1, i2 = np.maximum(i - radius, 0), np.minimum(i + radius, h - 1) + 1
    j1, j2 = np.maximum(j - radius, 0), np.minimum(j + radius, w - 1) + 1
    below, above = np.take(integral, i2, axis=0), np.take(integral, i1, axis=0)
    sums = (np.take(below, j2, axis=1) - np.take(above, j2, axis=1)
            - np.take(below, j1, axis=1) + np.take(above, j1, axis=1))
    counts = ((i2 - i1)[:, None] * (j2 - j1)[None, :]).astype(np.float64)
    return sums / counts[:, :, None]


def guided_filter_channels_last(p, guide, radius, eps):
    """The color-guide filter with (h, w, k) box means and the full (h, w,
    3, 3) guide outer product: the form guided_filter had before it went
    plane by plane."""
    img = np.moveaxis(guide, 0, 2)
    h, w = img.shape[:2]
    mean_i = _box_mean_channels_last(img, radius)
    outer = img[:, :, :, None] * img[:, :, None, :]
    corr_ii = _box_mean_channels_last(outer.reshape(h, w, 9),
                                      radius).reshape(h, w, 3, 3)
    cov_ii = corr_ii - mean_i[:, :, :, None] * mean_i[:, :, None, :]
    inv = inv_sym3((cov_ii + eps * np.eye(3)).transpose(2, 3, 0, 1))
    out = np.empty_like(p)
    for c in range(p.shape[0]):
        pc = p[c][:, :, None]
        mean_p = _box_mean_channels_last(pc, radius)[:, :, 0]
        cov_ip = (_box_mean_channels_last(img * pc, radius)
                  - mean_i * mean_p[:, :, None])
        a = np.einsum("ijhw,hwj->hwi", inv, cov_ip)
        b = mean_p - np.einsum("hwi,hwi->hw", a, mean_i)
        out[c] = (np.einsum("hwi,hwi->hw", _box_mean_channels_last(a, radius),
                            img)
                  + _box_mean_channels_last(b[:, :, None], radius)[:, :, 0])
    return out


def spectral_filter_dense(lap_dense, response_fn, signal):
    """U diag(r(lambda)) U^T x via dense eigendecomposition."""
    sym = (lap_dense + lap_dense.T) / 2.0
    lams, u = np.linalg.eigh(sym)
    return u @ (response_fn(lams) * (u.T @ signal.T).T if signal.ndim > 1
                else response_fn(lams) * (u.T @ signal))


def cheb_sum_reference(coeffs, op, x):
    """sum_j coeffs[j] * T_j(op) x by the out-of-place three-term
    recurrence, T_{j+1} = 2 op(T_j) - T_{j-1}."""
    y = coeffs[0] * x
    t_prev, t_cur = x, op(x)
    y = y + coeffs[1] * t_cur
    for c in coeffs[2:]:
        t_next = 2.0 * op(t_cur) - t_prev
        y = y + c * t_next
        t_prev, t_cur = t_cur, t_next
    return y


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
        """x projected: a vector of length n, or each channel of a map of n
        pixels, such as a (c, h, w) iterate."""
        if self.is_identity:
            return x
        flat = x.reshape(-1, self.n).T
        return (self.basis @ (self.basis.T @ flat)).T.reshape(x.shape)

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
    """Per-window loop implementation of the color-guide filter, one
    np.linalg.solve per window for all channels of p."""
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
            pw = p[:, i1:i2 + 1, j1:j2 + 1].reshape(cp, -1)       # (cp, n)
            cov_ip = win.T @ pw.T / win.shape[0] - np.outer(mu, pw.mean(axis=1))
            a = np.linalg.solve(cov + eps * np.eye(3), cov_ip).T  # (cp, 3)
            a_all[:, ci, cj] = a
            b_all[:, ci, cj] = pw.mean(axis=1) - a @ mu
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


def stylize_float64(content, model, style_id=0, opts=None):
    """stylize with the whole descent in float64: the same pad, unroll with
    the float64 model, clip and crop. Blend masks and the guided filter are
    not applied."""
    opts = opts or InferenceOptions()
    assert opts.blend_mask is None and opts.guided is None
    _, h, w = content.shape
    x = unroll(Tensor(mirror_pad(content, SIDE_MULTIPLE)), model,
               style_id, opts)
    return np.clip(x.data, 0.0, 1.0)[:, :h, :w]


def descent_iterates(content, target, fe, cfg):
    """Iterates 0..cfg.iters of a fixed-stepsize descent: iterate k is the
    image of the same run stopped after k iterations. A grid search probes
    for as many iterations as the run asks, so cfg.mu must be set for the
    shorter runs to be prefixes of the longer."""
    assert cfg.mu is not None, "descent_iterates needs a fixed cfg.mu"
    return [descend(content, target, fe, replace(cfg, iters=k)).image
            for k in range(cfg.iters + 1)]


def descend(content, target, fe, cfg):
    """grad_descent_stylize from `content`, its features extracted here."""
    return grad_descent_stylize(content, content_features(Tensor(content), fe),
                                target, fe, cfg)


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
