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
    """Every layer's output, with 2x2 average pooling between layers."""
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
    if x.channels != 3:
        raise ValueError(f"expected a 3-channel image, got {x.channels}")
    if x.height % fe.multiple or x.width % fe.multiple:
        raise ValueError(f"spatial dims {x.height}x{x.width} not divisible "
                         f"by {fe.multiple}")
    return conv_pyramid(x, fe.layers)


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
        if self.lam_s <= 0:
            raise ValueError("style weight must be positive")


def build_style_target(style: Tensor, fe: FeatureExtractor,
                       style_mask: np.ndarray | None = None) -> StyleTarget:
    """The style layers' (optionally masked) Grams and the auto style weight.

    The style image and its mask are mirror-padded to the extractor's
    multiple first. The weight is the reciprocal of the mean squared Gram
    energy, so different styles get a comparable initial pull; scaling the
    style features by s scales it by s^-4.
    """
    masks = (build_mask_pyramid(style_mask, fe.depth)
             if style_mask is not None else [None] * fe.depth)
    feats = extract_features(Tensor(mirror_pad(style.data, fe.multiple)), fe)
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


def content_loss(x_feats: list[Tensor], c_feats: list[Tensor],
                 fe: FeatureExtractor) -> Tensor:
    """Mean over content layers of ||F - C||_F^2 / (pixels * channels)."""
    total = Tensor(np.asarray(0.0))
    for lvl in fe.content_layers:
        f, c = x_feats[lvl], c_feats[lvl]
        if f.shape != c.shape:
            raise ValueError(f"content layer {lvl} shape mismatch: "
                             f"{f.shape} vs {c.shape}")
        n = f.height * f.width
        term = sqsum(lincomb(f, c, 1.0, -1.0))
        scale = 1.0 / (len(fe.content_layers) * n * f.channels)
        total = lincomb(total, term, 1.0, scale)
    return total


def style_loss(x_feats: list[Tensor], target: StyleTarget, fe: FeatureExtractor,
               content_masks: list[np.ndarray] | None = None) -> Tensor:
    """Mean over style layers of ||Gram(F) - G||_F^2 / channels^2.

    content_masks, when given, restrict the Gram of the current features to a
    semantic region; the stored target Grams already carry the style-side
    masking.
    """
    total = Tensor(np.asarray(0.0))
    for i, lvl in enumerate(fe.style_layers):
        f = x_feats[lvl]
        m = content_masks[lvl] if content_masks is not None else None
        g = masked_gram(f, m)
        tgt = Tensor(target.grams[i])
        if g.shape != tgt.shape:
            raise ValueError(f"style layer {lvl}: Gram {g.shape} vs "
                             f"target {tgt.shape}")
        term = sqsum(lincomb(g, tgt, 1.0, -1.0))
        scale = 1.0 / (len(fe.style_layers) * f.channels ** 2)
        total = lincomb(total, term, 1.0, scale)
    return total


@dataclass
class LossWeights:
    lam_c: float = 0.025
    lam_tv: float = 0.5


@dataclass
class LossParts:
    total: float
    content: float
    style: float
    tv: float


def total_loss(x4: Tensor, c_feats: list[Tensor], target: StyleTarget,
               fe: FeatureExtractor, weights: LossWeights = LossWeights(),
               return_parts: bool = False):
    """Full training objective evaluated on the clipped image.

    lam_c * content + lam_s * style + lam_tv * tv, with lam_s taken from the
    style target. Differentiable through the tape w.r.t. x4 and any upstream
    weights; pixels outside [0, 1] receive zero gradient from the clip.
    """
    y = clip_unit(x4)
    feats = extract_features(y, fe)
    lc = content_loss(feats, c_feats, fe)
    ls = style_loss(feats, target, fe)
    ltv = tv(y)
    total = lincomb(lincomb(lc, ls, weights.lam_c, target.lam_s),
                    ltv, 1.0, weights.lam_tv)
    if not return_parts:
        return total
    parts = LossParts(total.item(), lc.item(), ls.item(), ltv.item())
    return total, parts
