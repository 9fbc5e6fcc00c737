"""Unsupervised training of the unrolled network, and checkpoint I/O.

Each sample runs the four descent steps from a noise-perturbed content image,
evaluates the full objective against a per-style target, backpropagates to
every weight and takes one Adam step. Styles rotate round-robin across
samples; the conv stacks are shared, the style matrices are per style. A
held-out split provides a per-epoch validation curve.
"""

from __future__ import annotations

import copy
import csv
import struct
import warnings
from dataclasses import astuple, dataclass, field

import numpy as np

from . import imagecodec
from .network import (
    CHANNELS,
    StyleParams,
    UnrolledModel,
    layer_stacks,
    unroll,
)
from .perceptual import (
    DEFAULT_CHANNELS,
    LossParts,
    StyleTarget,
    build_style_target,
    content_features,
    default_extractor,
    total_loss,
)
from .tensor import (
    DivergenceError,
    GradTape,
    NonFiniteError,
    Tensor,
    backward,
    side_multiple,
)

ADAM_LR = 1e-5
ADAM_BETA1 = 0.9
ADAM_BETA2 = 0.999
ADAM_EPS = 1e-8
NOISE_BOUND = 0.1
# training feeds every image to default_extractor, whose pyramid sets the
# side multiple (the network's divides it)
TRAIN_SIDE_MULTIPLE = side_multiple(len(DEFAULT_CHANNELS))


@dataclass
class AdamState:
    """First/second moment accumulators mirroring a parameter list."""

    params: list[Tensor]
    step: int = field(init=False, default=0)
    m: list[np.ndarray] = field(init=False)
    v: list[np.ndarray] = field(init=False)

    def __post_init__(self):
        self.m = [np.zeros_like(p.data) for p in self.params]
        self.v = [np.zeros_like(p.data) for p in self.params]


def adam_step(state: AdamState, grads: list[np.ndarray]):
    """One bias-corrected Adam update at step size ADAM_LR, in place on the
    tracked parameters."""
    for g in grads:
        if not np.all(np.isfinite(g)):
            raise NonFiniteError("non-finite gradient; Adam step aborted")
    state.step += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    c1 = 1.0 - b1 ** state.step
    c2 = 1.0 - b2 ** state.step
    for p, m, v, g in zip(state.params, state.m, state.v, grads):
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * g * g
        p.data -= ADAM_LR * (m / c1) / (np.sqrt(v / c2) + ADAM_EPS)


@dataclass
class TrainConfig:
    """Desk-scale defaults; the full-scale run used 17 epochs at side 320."""

    epochs: int = 2
    side: int = 64
    seed: int = 0

    def __post_init__(self):
        if self.epochs < 0:
            raise ValueError("epochs must be >= 0")
        if self.side <= 0 or self.side % TRAIN_SIDE_MULTIPLE:
            raise ValueError(f"side must be a positive multiple of "
                             f"{TRAIN_SIDE_MULTIPLE}")


def _resize_axis(n_in, n_out):
    src = np.clip((np.arange(n_out) + 0.5) * (n_in / n_out) - 0.5, 0.0, n_in - 1.0)
    i0 = np.floor(src).astype(np.intp)
    t = src - i0
    i1 = np.minimum(i0 + 1, n_in - 1)
    return i0, i1, 1.0 - t, t


def resize_bilinear(data: np.ndarray, out_h: int, out_w: int) -> np.ndarray:
    """Half-pixel-centers bilinear resize of a (c, h, w) array."""
    _, h, w = data.shape
    r0, r1, wr0, wr1 = _resize_axis(h, out_h)
    c0, c1, wc0, wc1 = _resize_axis(w, out_w)
    rows = data[:, r0, :] * wr0[None, :, None] + data[:, r1, :] * wr1[None, :, None]
    return rows[:, :, c0] * wc0[None, None, :] + rows[:, :, c1] * wc1[None, None, :]


def load_content_set(directory, side: int):
    """Decode, center-crop square and resize every image in a directory.

    Files are taken in lexicographic name order; undecodable files are
    skipped with a warning. Returns (images, names), each image a
    (3, side, side) array.
    """
    import os
    names = sorted(os.listdir(directory))
    images, kept = [], []
    for name in names:
        path = os.path.join(directory, name)
        if not os.path.isfile(path):
            continue
        try:
            img = imagecodec.read_image(path)
        except imagecodec.CodecError as exc:
            warnings.warn(f"skipping undecodable image {name}: {exc}")
            continue
        _, h, w = img.shape
        s = min(h, w)
        top, left = (h - s) // 2, (w - s) // 2
        square = img[:, top:top + s, left:left + s]
        images.append(np.clip(resize_bilinear(square, side, side), 0.0, 1.0))
        kept.append(name)
    if not images:
        raise ValueError(f"no decodable images in {directory}")
    return images, kept


def _validation_row(model, val_imgs, val_feats, fe):
    acc = np.zeros(4)
    for i, img in enumerate(val_imgs):
        style_i = i % model.n_styles
        x4 = unroll(img, model, style_i)
        _, parts = total_loss(x4, val_feats[i],
                              model.styles[style_i].target, fe)
        acc += astuple(parts)
    acc /= len(val_imgs)
    return LossParts(*(float(a) for a in acc))


def train(model: UnrolledModel, styles, contents_dir,
          cfg: TrainConfig) -> list[LossParts]:
    """Train in place; returns the validation loss, one row per epoch.

    styles: list of ((3, h, w) image array, optional binary mask) pairs, one
    entry per style slot in the model. Row 0 is the pre-training loss. The run
    is bit-deterministic given (seed, cfg, file set); on divergence the last
    end-of-epoch snapshot is attached to the raised error.
    """
    if not styles:
        raise ValueError("need at least one style")
    if len(styles) != model.n_styles:
        raise ValueError(f"model has {model.n_styles} style slots, "
                         f"got {len(styles)} styles")
    fe = default_extractor(model.extractor_seed)
    for style, (style_img, style_mask) in zip(model.styles, styles):
        style.target = build_style_target(style_img, fe, style_mask)

    images, _ = load_content_set(contents_dir, cfg.side)
    n_val = max(1, len(images) // 10)
    train_imgs, val_imgs = images[:-n_val] or images[-n_val:], images[-n_val:]
    train_feats = [content_features(Tensor(img), fe) for img in train_imgs]
    val_imgs = [Tensor(img) for img in val_imgs]
    val_feats = [content_features(img, fe) for img in val_imgs]

    params = model.parameters()
    adam = AdamState(params)
    ss = np.random.SeedSequence(cfg.seed)
    shuffle_rng, noise_rng = (np.random.default_rng(s) for s in ss.spawn(2))

    rows = [_validation_row(model, val_imgs, val_feats, fe)]
    last_good = copy.deepcopy(model)
    sample_counter = 0
    for epoch in range(1, cfg.epochs + 1):
        order = shuffle_rng.permutation(len(train_imgs))
        try:
            for idx in order:
                img = train_imgs[idx]
                style_i = sample_counter % model.n_styles
                sample_counter += 1
                amp = noise_rng.uniform(0.0, NOISE_BOUND)
                noise = noise_rng.uniform(-amp, amp, size=img.shape)
                with GradTape() as tape:
                    x4 = unroll(Tensor(img + noise), model, style_i)
                    loss, _ = total_loss(x4, train_feats[idx],
                                         model.styles[style_i].target, fe)
                    grads = backward(tape, loss)
                grad_list = [grads.get(p, np.zeros_like(p.data)) for p in params]
                adam_step(adam, grad_list)
            rows.append(_validation_row(model, val_imgs, val_feats, fe))
        except NonFiniteError as exc:
            err = DivergenceError(
                f"training diverged in epoch {epoch}: {exc}")
            err.last_good = last_good
            raise err from exc
        last_good = copy.deepcopy(model)
    return rows


def write_training_log(path, rows: list[LossParts]):
    with open(path, "w", newline="", encoding="ascii") as fh:
        writer = csv.writer(fh)
        writer.writerow(["epoch", "val_total", "val_content", "val_style",
                         "val_tv"])
        for epoch, row in enumerate(rows):
            writer.writerow([epoch, *map(repr, astuple(row))])


# ---------------------------------------------------------------------------
# checkpoint container
#
# Layout (little-endian):
#   magic "UNRL" | u16 version | u16 section | u16 n_levels | u16 reserved
#   u32 channels[n_levels] | u32 n_styles | u64 extractor_seed
#   u32 reserved | u32 reserved                        (written as 0)
#   per style: f64 lam_s
#   per style: u32 n_gram_layers, then per layer u32 side + f64 side^2 entries
#   f32 weight payload in fixed order: forward convs in depth order (kernel
#   then bias), backward convs in depth order, then per style the matrices
#   in (step, level) lexicographic order.

MAGIC = b"UNRL"
VERSION = 1
SECTION_MODEL = 1


class CheckpointError(ValueError):
    """Unreadable, wrong-version or wrong-shape checkpoint file."""


class _Reader:
    def __init__(self, buf):
        self.buf = buf
        self.pos = 0

    def take(self, fmt):
        size = struct.calcsize(fmt)
        if self.pos + size > len(self.buf):
            raise CheckpointError("truncated file")
        vals = struct.unpack_from(fmt, self.buf, self.pos)
        self.pos += size
        return vals

    def take_array(self, count, dtype):
        size = count * np.dtype(dtype).itemsize
        if self.pos + size > len(self.buf):
            raise CheckpointError("truncated file")
        arr = np.frombuffer(self.buf, dtype=dtype, count=count,
                            offset=self.pos)
        self.pos += size
        return arr

    def take_weights(self, shape):
        """The next 32-bit weight array of the payload, as float64."""
        arr = self.take_array(int(np.prod(shape)), "<f4")
        return arr.astype(np.float64).reshape(shape)

    def check_end(self):
        if self.pos != len(self.buf):
            raise CheckpointError(
                f"{len(self.buf) - self.pos} unexpected trailing bytes")


def save_checkpoint(model: UnrolledModel, path):
    """Serialize all weights (32-bit) and per-style metadata."""
    buf = bytearray(MAGIC) + struct.pack(
        f"<HHHH{len(CHANNELS)}IIQII", VERSION, SECTION_MODEL, len(CHANNELS),
        0, *CHANNELS, model.n_styles, model.extractor_seed, 0, 0)
    for style in model.styles:
        buf += struct.pack("<d", style.target.lam_s)
    for style in model.styles:
        buf += struct.pack("<I", len(style.target.grams))
        for g in style.target.grams:
            buf += struct.pack("<I", g.shape[0])
            buf += np.ascontiguousarray(g, dtype="<f8").tobytes()
    for p in model.parameters():        # the payload order of layer_stacks
        buf += p.data.astype("<f4").tobytes()
    with open(path, "wb") as fh:
        fh.write(bytes(buf))


def load_checkpoint(path) -> UnrolledModel:
    with open(path, "rb") as fh:
        reader = _Reader(fh.read())
    magic = bytes(reader.take("<4s")[0])
    if magic != MAGIC:
        raise CheckpointError(f"bad magic {magic!r}")
    version, section, n_levels, _ = reader.take("<HHHH")
    if version != VERSION:
        raise CheckpointError(f"unsupported version {version}")
    if section != SECTION_MODEL:
        raise CheckpointError(f"wrong section tag {section}, "
                              f"expected {SECTION_MODEL}")
    channels = reader.take(f"<{n_levels}I")
    n_styles, extractor_seed, _, _ = reader.take("<IQII")
    if channels != CHANNELS:
        raise CheckpointError(f"unsupported channel schedule {channels}")
    lam_s = [reader.take("<d")[0] for _ in range(n_styles)]
    all_grams = []
    for _ in range(n_styles):
        n_layers = reader.take("<I")[0]
        # an untrained style has no Grams, a trained one the extractor's
        if n_layers not in (0, len(DEFAULT_CHANNELS)):
            raise CheckpointError(f"{n_layers} Gram targets, expected 0 or "
                                  f"{len(DEFAULT_CHANNELS)}")
        grams = []
        for expected in DEFAULT_CHANNELS[:n_layers]:
            side = reader.take("<I")[0]
            if side != expected:
                raise CheckpointError(f"Gram target of side {side}, "
                                      f"expected {expected}")
            grams.append(reader.take_array(side * side, "<f8")
                         .astype(np.float64).reshape(side, side))
        all_grams.append(grams)
    fwd, bwd, hs = layer_stacks(reader.take_weights, n_styles)
    reader.check_end()
    styles = [StyleParams(h, StyleTarget(grams, lam))
              for h, lam, grams in zip(hs, lam_s, all_grams)]
    return UnrolledModel(fwd, bwd, styles, extractor_seed=extractor_seed)
