"""Feature extraction and the style-transfer objective.

The total objective combines a content term, a (optionally masked) Gram-matrix
style term and a squared total-variation term, all evaluated on the clipped
image. Features come from a small seeded 5-level conv+pool pyramid that is
deterministic and dependency-free; checkpoints record its seed, not its
weights.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np

from .tensor import (
    ConvLayer,
    Tensor,
    avg_pool2,
    block_mean2,
    clip_unit,
    conv2d_reflect,
    fresh_weights,
    lincomb,
    masked_gram,
    mirror_pad,
    side_multiple,
    sqsum,
    tv,
)


class DegenerateMaskError(ValueError):
    """A propagated mask has empty support at some pyramid level."""


DEFAULT_CHANNELS = (8, 16, 32, 64, 64)


@dataclass
class FeatureExtractor:
    """Fixed-weight conv/pool pyramid producing one feature map per level.

    Levels are separated by 2x2 average pooling, so level l runs at 1/2^(l)
    of the input resolution (level 0 at full resolution). style_layers and
    content_layers are 0-based level indices.
    """

    layers: list[ConvLayer]
    style_layers: tuple[int, ...]
    content_layers: tuple[int, ...]

    def __post_init__(self):
        if not self.style_layers or not self.content_layers:
            raise ValueError("need at least one style layer and one content layer")

    @property
    def depth(self):
        return len(self.layers)

    @property
    def multiple(self):
        """Sides every input must be a multiple of."""
        return side_multiple(self.depth)


def conv_stack(channels, weight) -> list[ConvLayer]:
    """ReLU 3x3 convs from 3 channels through each entry of `channels`.

    weight(shape) supplies each layer's kernel, then its bias, in depth
    order, which is the order of a checkpoint's payload.
    """
    ins = (3,) + tuple(channels[:-1])
    return [ConvLayer(Tensor(weight((co, ci, 3, 3))), Tensor(weight((co,))))
            for ci, co in zip(ins, channels)]


def conv_pyramid(x: Tensor, layers: list[ConvLayer]) -> list[Tensor]:
    """Every layer's output, with 2x2 average pooling between layers, so
    both sides of x must be multiples of side_multiple(len(layers))."""
    m = side_multiple(len(layers))
    _, h, w = x.shape
    if h % m or w % m:
        raise ValueError(f"spatial dims {h}x{w} must be multiples of {m}")
    feats = [conv2d_reflect(x, layers[0])]
    for layer in layers[1:]:
        feats.append(conv2d_reflect(avg_pool2(feats[-1]), layer))
    return feats


def default_extractor(seed: int = 0) -> FeatureExtractor:
    """5-level extractor with channels (8, 16, 32, 64, 64), seeded Xavier weights.

    Style statistics are read from all five levels, content from the fourth.
    Biases are zero, so the extractor is positively homogeneous.
    """
    layers = conv_stack(DEFAULT_CHANNELS,
                        fresh_weights(np.random.default_rng(seed)))
    return FeatureExtractor(layers, style_layers=(0, 1, 2, 3, 4),
                            content_layers=(3,))


def extract_features(x: Tensor, fe: FeatureExtractor) -> list[Tensor]:
    """One feature map per level; deterministic for fixed weights."""
    if x.shape[0] != 3:
        raise ValueError(f"expected a 3-channel image, got {x.shape[0]}")
    return conv_pyramid(x, fe.layers)


def content_features(x: Tensor, fe: FeatureExtractor) -> dict[int, Tensor]:
    """A content image's maps at fe.content_layers, keyed by level: all that
    content_loss reads of them, so the other levels are freed at once."""
    feats = extract_features(x, fe)
    return {lvl: feats[lvl] for lvl in fe.content_layers}


# ---------------------------------------------------------------------------
# masks


def build_mask_pyramid(mask: np.ndarray, levels: int) -> list[np.ndarray]:
    """Propagate a full-resolution binary mask down a halving pyramid.

    The mask is mirror-padded to multiples of side_multiple(levels) first,
    as images are padded for a pyramid of that depth. Each level is the
    block mean of the padded mask at that resolution, thresholded at 0.5
    with ties mapping to 1, as flat 0/1 pixel weights. Raises if any level
    ends up empty.
    """
    mask = np.asarray(mask, dtype=np.float64)
    if mask.ndim != 2:
        raise ValueError("mask must be a 2-D image")
    if not np.all((mask == 0.0) | (mask == 1.0)):
        raise ValueError("mask entries must be 0 or 1")
    out = []
    cur = mirror_pad(mask, side_multiple(levels))
    for lvl in range(levels):
        if lvl > 0:
            cur = block_mean2(cur)
        binary = (cur >= 0.5).astype(np.float64)
        if binary.sum() <= 0:
            raise DegenerateMaskError(f"mask is empty at pyramid level {lvl}")
        out.append(binary.reshape(-1))
    return out


# ---------------------------------------------------------------------------
# style targets


@dataclass
class StyleTarget:
    """Per-style-layer normalized Gram matrices plus the auto style weight."""

    grams: list[np.ndarray]
    lam_s: float

    def __post_init__(self):
        if not 0 < self.lam_s < np.inf:                # NaN fails too
            raise ValueError(f"style weight {self.lam_s} is not finite and > 0")
        if not all(np.all(np.isfinite(g)) for g in self.grams):
            raise ValueError("a style Gram target has non-finite entries")


def build_style_target(style: np.ndarray, fe: FeatureExtractor,
                       style_mask: np.ndarray | None = None) -> StyleTarget:
    """The style layers' (optionally masked) Grams and the auto style weight.

    The (3, h, w) style array and its mask are mirror-padded to the
    extractor's multiple first. The weight is the reciprocal of the mean
    squared Gram energy, so different styles get a comparable initial pull;
    scaling the style features by s scales it by s^-4.
    """
    masks = (build_mask_pyramid(style_mask, fe.depth)
             if style_mask is not None else [None] * fe.depth)
    feats = extract_features(Tensor(mirror_pad(style, fe.multiple)), fe)
    grams = [masked_gram(feats[lvl], masks[lvl]).data for lvl in fe.style_layers]
    acc = 0.0
    for g in grams:
        c = g.shape[0]
        acc += np.sum(g * g) / (c * c)
    acc /= len(fe.style_layers)
    if acc <= 0.0:
        raise ValueError("style image has all-zero Gram matrices; "
                         "style weight is undefined")
    return StyleTarget(grams, float(1.0 / acc))


# ---------------------------------------------------------------------------
# loss terms


def _mean_sq_diff(pairs, what: str) -> Tensor:
    """Mean over the (level, a, b) pairs of ||a - b||_F^2 / a.size, taped;
    `what` names the loss term in the shape-mismatch error."""
    total = Tensor(np.asarray(0.0))
    for lvl, a, b in pairs:
        if a.shape != b.shape:
            raise ValueError(f"{what} layer {lvl} shape mismatch: "
                             f"{a.shape} vs {b.shape}")
        term = sqsum(lincomb(a, b, 1.0, -1.0))
        total = lincomb(total, term, 1.0, 1.0 / (len(pairs) * a.data.size))
    return total


def content_loss(x_feats: list[Tensor], c_feats: dict[int, Tensor],
                 fe: FeatureExtractor) -> Tensor:
    """Mean over content layers of ||F - C||_F^2 / (pixels * channels);
    c_feats holds the content's maps by level, as content_features returns
    them."""
    return _mean_sq_diff([(lvl, x_feats[lvl], c_feats[lvl])
                          for lvl in fe.content_layers], "content")


def style_loss(x_feats: list[Tensor], target: StyleTarget, fe: FeatureExtractor,
               content_masks: list[np.ndarray] | None = None) -> Tensor:
    """Mean over style layers of ||Gram(F) - G||_F^2 / channels^2.

    content_masks, when given, restrict the Gram of the current features to a
    semantic region; the stored target Grams already carry the style-side
    masking. Every Gram is recorded on the tape before any difference.
    """
    masks = content_masks if content_masks is not None else [None] * fe.depth
    return _mean_sq_diff([(lvl, masked_gram(x_feats[lvl], masks[lvl]),
                           Tensor(target.grams[i]))
                          for i, lvl in enumerate(fe.style_layers)], "style")


@dataclass
class LossParts:
    total: float
    content: float
    style: float
    tv: float


# the objective's content and TV weights; the style weight comes from the
# style target
LAM_C = 0.025
LAM_TV = 0.5


def total_loss(x4: Tensor, c_feats: dict[int, Tensor], target: StyleTarget,
               fe: FeatureExtractor) -> tuple[Tensor, LossParts]:
    """Full training objective evaluated on the clipped image, and its terms.

    LAM_C * content + lam_s * style + LAM_TV * tv, with lam_s taken from the
    style target. The total is differentiable through the tape w.r.t. x4 and
    any upstream weights; pixels outside [0, 1] receive zero gradient from
    the clip. The parts are the total and each unweighted term, as floats.
    """
    y = clip_unit(x4)
    feats = extract_features(y, fe)
    lc = content_loss(feats, c_feats, fe)
    ls = style_loss(feats, target, fe)
    ltv = tv(y)
    total = lincomb(lincomb(lc, ls, LAM_C, target.lam_s), ltv, 1.0, LAM_TV)
    return total, LossParts(total.item(), lc.item(), ls.item(), ltv.item())
