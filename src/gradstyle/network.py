"""The 4-step unrolled descent network and its runtime restructuring hooks.

Each step subtracts a learned descent direction from the running image. The
direction is produced by a forward conv/pool pyramid, a per-level style
correction (an instance-dependent 1x1 convolution built from the difference
between the current feature Gram and a learned style matrix), and a backward
conv/upsample pyramid that mirrors the forward one. The backward pass exposes
injection points where per-channel graph filters and semantic masks can be
applied at inference time without retraining.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .perceptual import MaskPyramid, build_mask_pyramid
from .tensor import (
    ConvLayer,
    GradTape,
    Tensor,
    _active_tape,
    avg_pool2,
    bilinear_up2,
    chan_matmul,
    clip_unit,
    conv2d_reflect,
    lincomb,
    masked_gram,
    relu,
    xavier_init_rng,
)

CHANNELS = (16, 32, 64, 128)
NUM_STEPS = 4


@dataclass
class StyleParams:
    """Learned style matrices: one c x c matrix per level per step.

    h[t][l] has side CHANNELS[l]. The matrices are not constrained symmetric
    or PSD. lam_s is the style weight the set was trained with; target_grams
    keep the style's Gram targets so the objective can be re-evaluated from a
    checkpoint alone.
    """

    h: list[list[Tensor]]
    lam_s: float = 1.0
    target_grams: list[np.ndarray] | None = None


@dataclass
class UnrolledModel:
    """All trainable weights: shared conv stacks plus per-style matrices.

    The forward and backward stacks are stored once and reused by all four
    steps; only the style matrices differ per step.
    """

    fwd: list[ConvLayer]
    bwd: list[ConvLayer]
    styles: list[StyleParams]
    extractor_seed: int = 0

    @property
    def n_styles(self):
        return len(self.styles)

    def param_groups(self, style_id: int | None = None) -> dict[str, list[Tensor]]:
        """Named parameter groups: one per conv layer, one per style matrix."""
        groups: dict[str, list[Tensor]] = {}
        for i, layer in enumerate(self.fwd):
            groups[f"fwd{i}"] = [layer.kernel, layer.bias]
        for i, layer in enumerate(self.bwd):
            groups[f"bwd{i}"] = [layer.kernel, layer.bias]
        styles = range(self.n_styles) if style_id is None else [style_id]
        for s in styles:
            for t in range(NUM_STEPS):
                for l in range(len(CHANNELS)):
                    groups[f"style{s}.h{t}{l}"] = [self.styles[s].h[t][l]]
        return groups

    def parameters(self, style_id: int | None = None) -> list[Tensor]:
        return [p for ps in self.param_groups(style_id).values() for p in ps]


def init_model(seed: int = 0, n_styles: int = 1,
               extractor_seed: int | None = None) -> UnrolledModel:
    """Canonical model: Xavier conv stacks, zero style matrices."""
    rng = np.random.default_rng(seed)
    fwd, bwd = [], []
    in_ch = 3
    for out_ch in CHANNELS:
        fwd.append(ConvLayer(Tensor(xavier_init_rng(rng, (out_ch, in_ch, 3, 3))),
                             Tensor(np.zeros(out_ch)), relu=True))
        in_ch = out_ch
    rev = (3,) + CHANNELS[:-1]
    for i in range(len(CHANNELS) - 1, -1, -1):
        bwd.append(ConvLayer(Tensor(xavier_init_rng(rng, (rev[i], CHANNELS[i], 3, 3))),
                             Tensor(np.zeros(rev[i])), relu=i > 0))
    styles = [
        StyleParams([[Tensor(np.zeros((c, c))) for c in CHANNELS]
                     for _ in range(NUM_STEPS)])
        for _ in range(n_styles)
    ]
    return UnrolledModel(fwd, bwd, styles,
                         extractor_seed=seed if extractor_seed is None else extractor_seed)


def param_count(model: UnrolledModel):
    """(conv stack weights, style weights per step, grand total)."""
    fb = sum(layer.param_count() for layer in model.fwd + model.bwd)
    per_iter = sum(c * c for c in CHANNELS)
    total = fb + model.n_styles * NUM_STEPS * per_iter
    return fb, per_iter, total


@dataclass
class InferenceOptions:
    """Runtime knobs: transfer intensity, masking, graph filtering, blending.

    alpha scales the learned descent direction (0 leaves the input
    untouched). content_mask is a full-resolution binary image restricting
    the style correction to a semantic region. filter_hooks is a pyramid
    object providing filter_map(level, array); levels run full, 1/2, 1/4,
    1/8 resolution. blend_mask softly recombines the result with the input.
    """

    alpha: float = 1.0
    content_mask: np.ndarray | None = None
    filter_hooks: object | None = None
    blend_mask: np.ndarray | None = None
    guided: bool = False
    gf_radius: int = 8
    gf_eps: float = 1e-4

    def __post_init__(self):
        if self.alpha < 0:
            raise ValueError("alpha must be >= 0")
        if self.blend_mask is not None:
            bm = np.asarray(self.blend_mask, dtype=np.float64)
            if bm.min() < 0.0 or bm.max() > 1.0:
                raise ValueError("blend mask values must lie in [0, 1]")
            self.blend_mask = bm


class IdentityHooks:
    """Filter hooks that pass every map through unchanged."""

    def filter_map(self, level, arr):
        return arr


def forward_maps(x: Tensor, model: UnrolledModel) -> list[Tensor]:
    """Features at the four levels: (16,h,w), (32,h/2,w/2), (64,h/4,w/4), (128,h/8,w/8)."""
    if x.height % 8 or x.width % 8:
        raise ValueError(f"spatial dims must be multiples of 8, got "
                         f"{x.height}x{x.width}")
    feats = []
    cur = x
    for i, layer in enumerate(model.fwd):
        cur = conv2d_reflect(cur, layer)
        feats.append(cur)
        if i + 1 < len(model.fwd):
            cur = avg_pool2(cur)
    return feats


def style_correction(feat: Tensor, h_mat: Tensor,
                     content_mask_layer: np.ndarray | None = None) -> Tensor:
    """Apply the instance-dependent 1x1 correction filter to a feature map.

    The filter is Gram(feat) - h_mat, with the Gram optionally restricted to
    a masked pixel set. Only the Gram is masked; masking the left factor too
    creates artefacts at region boundaries, so the full map is corrected and
    region recombination happens on the output image instead.
    """
    g = masked_gram(feat, content_mask_layer)
    return chan_matmul(feat, lincomb(g, h_mat, 1.0, -1.0))


def _apply_hook(hooks, level, t: Tensor) -> Tensor:
    if hooks is None:
        return t
    if _active_tape() is not None:
        raise RuntimeError("filter hooks are inference-only (no tape support)")
    return Tensor(hooks.filter_map(level, t.data))


def backward_map(corrections: list[Tensor], model: UnrolledModel,
                 filter_hooks=None) -> Tensor:
    """Mirror the forward pyramid back to a 3-channel descent direction.

    Deeper signals are upsampled and added to the shallower correction before
    each conv; the final conv has no ReLU so the direction can be negative.
    With hooks active, every correction map and every conv output (before its
    ReLU) is graph-filtered channelwise at the matching scale.
    """
    c1, c2, c3, c4 = corrections
    if filter_hooks is not None:
        c1, c2, c3, c4 = (_apply_hook(filter_hooks, lvl, c)
                          for lvl, c in enumerate((c1, c2, c3, c4)))
    cur = None
    for i, (level, corr) in enumerate(zip((3, 2, 1, 0), (c4, c3, c2, c1))):
        x = corr if cur is None else lincomb(corr, bilinear_up2(cur), 1.0, 1.0)
        layer = model.bwd[i]
        if filter_hooks is None:
            cur = conv2d_reflect(x, layer)
        else:
            z = conv2d_reflect(x, layer, apply_activation=False)
            z = _apply_hook(filter_hooks, level, z)
            cur = relu(z) if layer.relu else z
    return cur


def descent_step(x: Tensor, t: int, model: UnrolledModel, style_id: int = 0,
                 opts: InferenceOptions | None = None,
                 content_masks: MaskPyramid | None = None) -> Tensor:
    """One unrolled update: x - alpha * direction(x)."""
    if not 0 <= t < NUM_STEPS:
        raise ValueError(f"step index {t} out of range")
    if not 0 <= style_id < model.n_styles:
        raise ValueError(f"style id {style_id} out of range")
    opts = opts or InferenceOptions()
    style = model.styles[style_id]
    corrections = []
    # the features are dead once corrected: not holding them through the
    # backward pyramid lowers an untaped step's peak memory
    for l, feat in enumerate(forward_maps(x, model)):
        m = content_masks.masks[l] if content_masks is not None else None
        corrections.append(style_correction(feat, style.h[t][l], m))
    g = backward_map(corrections, model, opts.filter_hooks)
    return lincomb(x, g, 1.0, -opts.alpha)


def mirror_pad(data: np.ndarray, multiple: int) -> np.ndarray:
    """Mirror-pad the bottom/right of a (c, h, w) array up to multiples of
    `multiple`.

    The padding reflects about the last row/column without repeating it, so
    each side needs more pixels than it gains; smaller inputs are rejected.
    """
    c, h, w = data.shape
    nh, nw = -(-h // multiple) * multiple, -(-w // multiple) * multiple
    if (nh, nw) == (h, w):
        return data
    if nh - h > h - 1 or nw - w > w - 1:
        raise ValueError(f"image {h}x{w} too small to mirror-pad to "
                         f"{nh}x{nw}")
    ri = np.concatenate([np.arange(h), 2 * (h - 1) - np.arange(h, nh)])
    ci = np.concatenate([np.arange(w), 2 * (w - 1) - np.arange(w, nw)])
    return data[:, ri[:, None], ci[None, :]]


def stylize(content: Tensor, model: UnrolledModel, style_id: int = 0,
            opts: InferenceOptions | None = None) -> Tensor:
    """Run the four unrolled steps from the content image and clip to [0, 1].

    Odd sizes are mirror-padded to multiples of 8 and cropped back. An
    optional blend mask recombines the stylized result with the input; an
    optional guided filter sharpens the result against the content.
    """
    opts = opts or InferenceOptions()
    data = content.data
    if data.min() < 0.0 or data.max() > 1.0:
        raise ValueError("content pixels must lie in [0, 1]")
    h, w = content.height, content.width
    padded = mirror_pad(data, 8)
    content_masks = None
    if opts.content_mask is not None:
        mask = np.asarray(opts.content_mask, dtype=np.float64)
        if mask.shape != (h, w):
            raise ValueError(f"content mask shape {mask.shape} != image {h}x{w}")
        mask3 = mirror_pad(mask[None], 8)[0]
        content_masks = build_mask_pyramid(mask3, len(CHANNELS))
    x = Tensor(padded)
    for t in range(NUM_STEPS):
        x = descent_step(x, t, model, style_id, opts, content_masks)
    out = clip_unit(x).data[:, :h, :w]
    if opts.blend_mask is not None:
        bm = opts.blend_mask
        if bm.shape != (h, w):
            raise ValueError(f"blend mask shape {bm.shape} != image {h}x{w}")
        out = bm[None] * out + (1.0 - bm[None]) * data
    if opts.guided:
        from .guided import GuidedFilterParams, guided_filter
        params = GuidedFilterParams(radius=opts.gf_radius, eps=opts.gf_eps)
        out = guided_filter(Tensor(out), content, params).data
        out = np.clip(out, 0.0, 1.0)
    return Tensor(out)
