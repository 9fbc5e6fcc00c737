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

from .guided import GuidedFilterParams, guided_filter
from .perceptual import MaskPyramid, build_mask_pyramid, conv_pyramid, conv_stack
from .tensor import (
    ConvLayer,
    NonFiniteError,
    Tensor,
    _active_tape,
    bilinear_up2,
    chan_matmul,
    clip_unit,
    conv2d_reflect,
    fresh_weights,
    lincomb,
    masked_gram,
    mirror_pad,
    relu,
    side_multiple,
)

CHANNELS = (16, 32, 64, 128)
NUM_STEPS = 4
SIDE_MULTIPLE = side_multiple(len(CHANNELS))


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


def layer_stacks(weight, n_styles: int):
    """Forward convs, mirrored backward convs and each style's matrices.

    weight(shape) supplies every array in checkpoint payload order: forward
    convs in depth order (kernel, then bias), backward convs from the deepest
    level up, then per style the matrices in (step, level) order.
    """
    fwd = conv_stack(CHANNELS, weight)
    ins = (3,) + CHANNELS[:-1]
    bwd = [ConvLayer(Tensor(weight((ci, co, 3, 3))), Tensor(weight((ci,))),
                     relu=l > 0)
           for l, ci, co in zip((3, 2, 1, 0), ins[::-1], CHANNELS[::-1])]
    styles = [[[Tensor(weight((c, c))) for c in CHANNELS]
               for _ in range(NUM_STEPS)] for _ in range(n_styles)]
    return fwd, bwd, styles


def init_model(seed: int = 0, n_styles: int = 1,
               extractor_seed: int | None = None) -> UnrolledModel:
    """Canonical model: Xavier conv stacks, zero style matrices."""
    fwd, bwd, styles = layer_stacks(fresh_weights(np.random.default_rng(seed)),
                                    n_styles)
    return UnrolledModel(fwd, bwd, [StyleParams(h) for h in styles],
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
    guided, when set, guided-filters the result against the content.
    """

    alpha: float = 1.0
    content_mask: np.ndarray | None = None
    filter_hooks: object | None = None
    blend_mask: np.ndarray | None = None
    guided: GuidedFilterParams | None = None

    def __post_init__(self):
        if not np.isfinite(self.alpha) or self.alpha < 0:
            raise ValueError("alpha must be finite and >= 0")
        if self.blend_mask is not None:
            bm = np.asarray(self.blend_mask, dtype=np.float64)
            if bm.min() < 0.0 or bm.max() > 1.0:
                raise ValueError("blend mask values must lie in [0, 1]")
            self.blend_mask = bm


def forward_maps(x: Tensor, model: UnrolledModel) -> list[Tensor]:
    """Features at the four levels: (16,h,w), (32,h/2,w/2), (64,h/4,w/4), (128,h/8,w/8)."""
    if x.height % SIDE_MULTIPLE or x.width % SIDE_MULTIPLE:
        raise ValueError(f"spatial dims must be multiples of {SIDE_MULTIPLE}, "
                         f"got {x.height}x{x.width}")
    return conv_pyramid(x, model.fwd)


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


def unroll(x: Tensor, model: UnrolledModel, style_id: int = 0,
           opts: InferenceOptions | None = None,
           content_masks: MaskPyramid | None = None) -> Tensor:
    """The network: all NUM_STEPS descent steps from x, unclipped.

    An overflow or invalid value inside a step raises NonFiniteError naming
    the step, in place of NumPy's warning.
    """
    for t in range(NUM_STEPS):
        try:
            with np.errstate(over="raise", invalid="raise"):
                x = descent_step(x, t, model, style_id, opts, content_masks)
        except FloatingPointError as exc:
            raise NonFiniteError(
                f"descent step {t} produced non-finite values: {exc}") from exc
    return x


def stylize(content: Tensor, model: UnrolledModel, style_id: int = 0,
            opts: InferenceOptions | None = None) -> Tensor:
    """Run the four unrolled steps from the content image and clip to [0, 1].

    The image is mirror-padded to multiples of SIDE_MULTIPLE and cropped
    back, as build_pyramid pads it, so filter hooks match every level. An
    optional blend mask recombines the stylized result with the input; an
    optional guided filter sharpens the result against the content.
    """
    opts = opts or InferenceOptions()
    data = content.data
    if data.min() < 0.0 or data.max() > 1.0:
        raise ValueError("content pixels must lie in [0, 1]")
    h, w = content.height, content.width
    padded = mirror_pad(data, SIDE_MULTIPLE)
    content_masks = None
    if opts.content_mask is not None:
        mask = np.asarray(opts.content_mask, dtype=np.float64)
        if mask.shape != (h, w):
            raise ValueError(f"content mask shape {mask.shape} != image {h}x{w}")
        content_masks = build_mask_pyramid(mirror_pad(mask, SIDE_MULTIPLE),
                                           len(CHANNELS))
    x = unroll(Tensor(padded), model, style_id, opts, content_masks)
    out = clip_unit(x).data[:, :h, :w]
    if opts.blend_mask is not None:
        bm = opts.blend_mask
        if bm.shape != (h, w):
            raise ValueError(f"blend mask shape {bm.shape} != image {h}x{w}")
        out = bm[None] * out + (1.0 - bm[None]) * data
    if opts.guided is not None:
        out = np.clip(guided_filter(Tensor(out), content, opts.guided).data,
                      0.0, 1.0)
    return Tensor(out)
