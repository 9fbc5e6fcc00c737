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

from collections.abc import Iterable
from dataclasses import dataclass, field, replace

import numpy as np

from .guided import GuidedFilterParams, guided_filter
from .perceptual import StyleTarget, build_mask_pyramid, conv_pyramid, conv_stack
from .tensor import (
    ConvLayer,
    NonFiniteError,
    Tensor,
    _active_tape,
    as_float,
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
    or PSD. target is the objective the set was trained against (its Gram
    targets and style weight), so the objective can be re-evaluated from a
    checkpoint alone; an untrained style has no Grams and weight 1.
    """

    h: list[list[Tensor]]
    target: StyleTarget = field(default_factory=lambda: StyleTarget([], 1.0))


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

    def param_groups(self) -> dict[str, list[Tensor]]:
        """Named parameter groups: one per conv layer, one per style matrix."""
        groups: dict[str, list[Tensor]] = {}
        for i, layer in enumerate(self.fwd):
            groups[f"fwd{i}"] = [layer.kernel, layer.bias]
        for i, layer in enumerate(self.bwd):
            groups[f"bwd{i}"] = [layer.kernel, layer.bias]
        for s in range(self.n_styles):
            for t in range(NUM_STEPS):
                for l in range(len(CHANNELS)):
                    groups[f"style{s}.h{t}{l}"] = [self.styles[s].h[t][l]]
        return groups

    def parameters(self) -> list[Tensor]:
        return [p for ps in self.param_groups().values() for p in ps]

    def astype(self, dtype) -> UnrolledModel:
        """A copy with every weight cast to dtype, rebuilt by layer_stacks
        from parameters(), which lists them in its order.

        A weight beyond dtype's range becomes Inf, which Tensor rejects as
        NonFiniteError.
        """
        params = iter(self.parameters())
        with np.errstate(over="ignore"):
            fwd, bwd, hs = layer_stacks(
                lambda shape: next(params).data.astype(dtype).reshape(shape),
                self.n_styles)
        styles = [replace(s, h=h) for s, h in zip(self.styles, hs)]
        return UnrolledModel(fwd, bwd, styles, self.extractor_seed)


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


def init_model(seed: int = 0, n_styles: int = 1) -> UnrolledModel:
    """Canonical model: Xavier conv stacks, zero style matrices; the
    extractor seed is seed."""
    fwd, bwd, styles = layer_stacks(fresh_weights(np.random.default_rng(seed)),
                                    n_styles)
    return UnrolledModel(fwd, bwd, [StyleParams(h) for h in styles], seed)


def param_count(model: UnrolledModel):
    """(conv stack weights, style weights per step, grand total)."""
    total = sum(p.data.size for p in model.parameters())
    per_iter = sum(c * c for c in CHANNELS)
    return total - model.n_styles * NUM_STEPS * per_iter, per_iter, total


@dataclass(eq=False)
class InferenceOptions:
    """Runtime knobs: transfer intensity, masking, graph filtering, blending.

    alpha scales the learned descent direction (0 leaves the input
    untouched). content_mask is a full-resolution binary image restricting
    the style correction to a semantic region; its mask pyramid, padded as
    stylize pads the image, is built here once as content_masks and read by
    every descent_step. filter_hooks is a pyramid object providing
    filter_map(level, array); levels run full, 1/2, 1/4, 1/8 resolution.
    blend_mask softly recombines the result with the input. guided, when
    set, guided-filters the result against the content. Options compare by
    identity, since their masks are arrays.
    """

    alpha: float = 1.0
    content_mask: np.ndarray | None = None
    filter_hooks: object | None = None
    blend_mask: np.ndarray | None = None
    guided: GuidedFilterParams | None = None
    content_masks: list[np.ndarray] | None = field(init=False, repr=False)

    def __post_init__(self):
        if not np.isfinite(self.alpha) or self.alpha < 0:
            raise ValueError("alpha must be finite and >= 0")
        self.content_masks = (None if self.content_mask is None else
                              build_mask_pyramid(self.content_mask,
                                                 len(CHANNELS)))
        if self.blend_mask is not None:
            bm = np.asarray(self.blend_mask, dtype=np.float64)
            if not np.all((bm >= 0.0) & (bm <= 1.0)):
                raise ValueError("blend mask values must lie in [0, 1]")
            self.blend_mask = bm


def forward_maps(x: Tensor, model: UnrolledModel) -> list[Tensor]:
    """Features at the four levels: (16,h,w), (32,h/2,w/2), (64,h/4,w/4), (128,h/8,w/8)."""
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
    """The hook's output, in the map's dtype whatever the hook answers in."""
    if hooks is None:
        return t
    if _active_tape() is not None:
        raise RuntimeError("filter hooks are inference-only (no tape support)")
    return Tensor(np.asarray(hooks.filter_map(level, t.data), dtype=t.data.dtype))


def backward_map(corrections: Iterable[Tensor], model: UnrolledModel,
                 filter_hooks=None) -> Tensor:
    """Mirror the forward pyramid back to a 3-channel descent direction.

    Deeper signals are upsampled and added to the shallower correction before
    each conv; the final conv has no ReLU so the direction can be negative.
    With hooks active, every correction map and every conv output (before its
    ReLU) is graph-filtered channelwise at the matching scale.

    corrections, shallowest first, may be any iterable; it is copied, never
    mutated. The copy drops each map once it is folded into its conv's
    input, and with hooks that input once its conv has run, so maps no
    caller holds (descent_step passes a generator) are freed as it climbs.
    """
    corrections = list(corrections)
    cur = None
    for layer, level in zip(model.bwd, reversed(range(len(corrections)))):
        x = _apply_hook(filter_hooks, level, corrections.pop())
        if cur is not None:
            x = lincomb(x, bilinear_up2(cur), 1.0, 1.0)
        if filter_hooks is None:
            cur = conv2d_reflect(x, layer)
        else:
            z = conv2d_reflect(x, replace(layer, relu=False))
            del x
            z = _apply_hook(filter_hooks, level, z)
            cur = relu(z) if layer.relu else z
    return cur


def _cast(t: Tensor, dtype) -> Tensor:
    """t in dtype; a cast that changes t cuts the tape, so it is untaped only."""
    if t.data.dtype == dtype:
        return t
    if _active_tape() is not None:
        raise RuntimeError("dtype casts are inference-only (no tape support)")
    return Tensor(t.data.astype(dtype))


def descent_step(x: Tensor, t: int, model: UnrolledModel, style_id: int = 0,
                 opts: InferenceOptions | None = None) -> Tensor:
    """One unrolled update: x - alpha * direction(x).

    The direction is computed in the dtype of the model's weights and the
    update in x's dtype. The style Grams are masked by opts.content_masks.
    """
    if not 0 <= t < NUM_STEPS:
        raise ValueError(f"step index {t} out of range")
    if not 0 <= style_id < model.n_styles:
        raise ValueError(f"style id {style_id} out of range")
    opts = opts or InferenceOptions()
    masks = opts.content_masks or [None] * len(CHANNELS)
    # the features are dead once corrected, and each correction once the
    # backward pyramid has folded it in: a generator leaves backward_map the
    # only holder of either, which lowers an untaped step's peak memory
    xd = _cast(x, model.fwd[0].kernel.data.dtype)
    corrections = (style_correction(feat, h_mat, m) for feat, h_mat, m in
                   zip(forward_maps(xd, model), model.styles[style_id].h[t], masks))
    g = backward_map(corrections, model, opts.filter_hooks)
    return lincomb(x, _cast(g, x.data.dtype), 1.0, -opts.alpha)


def unroll(x: Tensor, model: UnrolledModel, style_id: int = 0,
           opts: InferenceOptions | None = None) -> Tensor:
    """The network: all NUM_STEPS descent steps from x under opts, unclipped.

    An overflow or invalid value inside a step raises NonFiniteError naming
    the step, in place of NumPy's warning.
    """
    for t in range(NUM_STEPS):
        try:
            with np.errstate(over="raise", invalid="raise"):
                x = descent_step(x, t, model, style_id, opts)
        except FloatingPointError as exc:
            raise NonFiniteError(
                f"descent step {t} produced non-finite values: {exc}") from exc
    return x


def stylize(content: np.ndarray, model: UnrolledModel, style_id: int = 0,
            opts: InferenceOptions | None = None) -> np.ndarray:
    """Run the four unrolled steps from a (3, h, w) content array and clip
    the result to [0, 1].

    The image is mirror-padded to multiples of SIDE_MULTIPLE and cropped
    back, as build_pyramid pads it, so filter hooks match every level. An
    optional blend mask recombines the stylized result with the input; an
    optional guided filter sharpens the result against the content.

    Each step's descent direction runs in float32, on a float32 copy of the
    weights; the iterate, the clip, the blend and the guided filter stay in
    float64, so alpha = 0 still returns the content exactly.
    """
    opts = opts or InferenceOptions()
    data = as_float(content)
    if not (0.0 <= data.min() and data.max() <= 1.0):     # NaN fails too
        raise ValueError("content pixels must lie in [0, 1]")
    _, h, w = data.shape
    for name, mask in (("content", opts.content_mask), ("blend", opts.blend_mask)):
        if mask is not None and np.shape(mask) != (h, w):
            raise ValueError(f"{name} mask shape {np.shape(mask)} != image {h}x{w}")
    x = unroll(Tensor(mirror_pad(data, SIDE_MULTIPLE)),
               model.astype(np.float32), style_id, opts)
    out = clip_unit(x).data[:, :h, :w]
    if opts.blend_mask is not None:
        out = opts.blend_mask * out + (1.0 - opts.blend_mask) * data
    if opts.guided is not None:
        out = np.clip(guided_filter(out, data, opts.guided), 0.0, 1.0)
    return out
