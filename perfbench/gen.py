"""Seeded benchmark inputs: photo-like images, masks, content sets, checkpoint.

Every array comes from a numpy Generator keyed by (seed, stream, index), so
the same seed gives the same bytes on disk and a different seed changes them.
Images are written as 8-bit binary PPM by this module's own writer, so the
program under test receives only the generated files.
"""

from __future__ import annotations

import re

import numpy as np

# content pools; operations cycle through them, so every image in a short
# run is distinct
ARTISTIC_POOL = 32
PHOTOREAL_POOL = 16
TRAIN_POOL = 8
ARTISTIC_SIDE = (256, 256)
PHOTOREAL_SIDE = (250, 250)      # mirror-padded to 256^2 by the program
TRAIN_CONTENT = (80, 72)         # centre-cropped and resized to 64^2
TRAIN_FILES = 11                 # 10 training images + 1 validation image
TRAIN_STYLE = (77, 59)           # odd size: exercises the style padding path

# Benchmark checkpoint. With Xavier conv weights the descent direction grows
# with the cube of the feature scale, so no choice of style matrices alone
# keeps outputs of ordinary photos off the clip limits; the final (linear)
# backward conv is scaled down instead, and the style matrices are small
# seeded non-zero values.
DIRECTION_SCALE = 0.15
STYLE_SCALE = 1e-3

STREAMS = {"artistic": 1, "photoreal": 2, "train": 3, "model": 5, "warmup": 6}


def rng_for(seed: int, stream: str, index: int = 0) -> np.random.Generator:
    return np.random.default_rng([seed, STREAMS[stream], index])


def checkpoint_model(seed: int):
    """init_model(seed) with a damped last conv and seeded style matrices."""
    from gradstyle.network import CHANNELS, NUM_STEPS, init_model
    from gradstyle.tensor import Tensor

    model = init_model(seed)
    model.bwd[-1].kernel.data *= DIRECTION_SCALE
    rng = rng_for(seed, "model")
    for t in range(NUM_STEPS):
        for l, c in enumerate(CHANNELS):
            model.styles[0].h[t][l] = Tensor(
                STYLE_SCALE * rng.standard_normal((c, c)))
    return model


def photo(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """(3, h, w) image in [0, 1]: smooth gradient, hard-edged shapes, texture."""
    yy, xx = np.mgrid[0:h, 0:w] / float(max(h, w))
    img = np.empty((3, h, w))
    for c in range(3):
        g0, gx, gy = rng.uniform(0.3, 0.6), *rng.uniform(-0.15, 0.15, 2)
        fy, fx = rng.uniform(0.5, 2.0, 2)
        img[c] = (g0 + gx * xx + gy * yy
                  + 0.08 * np.sin(2 * np.pi * (fy * yy + fx * xx)
                                 + rng.uniform(0, 2 * np.pi)))
    for _ in range(rng.integers(4, 9)):
        cy, cx = rng.uniform(0, 1, 2) * (h / max(h, w), w / max(h, w))
        ry, rx = rng.uniform(0.05, 0.25, 2)
        if rng.random() < 0.5:
            inside = (np.abs(yy - cy) < ry) & (np.abs(xx - cx) < rx)
        else:
            inside = ((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 < 1.0
        color = rng.uniform(0.15, 0.8, 3)
        img[:, inside] = color[:, None] * (0.9 + 0.1 * img[:, inside])
    lum_noise = rng.normal(0.0, 0.03, (h, w))
    img += lum_noise[None] + rng.normal(0.0, 0.01, (3, h, w))
    return np.clip(img, 0.0, 1.0)


def binary_mask(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """Ellipse covering roughly a third to two thirds of the image."""
    yy, xx = np.mgrid[0:h, 0:w]
    cy, cx = rng.uniform(0.35, 0.65, 2) * (h, w)
    ry, rx = rng.uniform(0.3, 0.45, 2) * (h, w)
    return (((yy - cy) / ry) ** 2 + ((xx - cx) / rx) ** 2 < 1.0).astype(float)


def soft_mask(rng: np.random.Generator, h: int, w: int) -> np.ndarray:
    """Sigmoid ramp across a random line, values in (0, 1)."""
    yy, xx = np.mgrid[0:h, 0:w]
    theta = rng.uniform(0, 2 * np.pi)
    d = (np.cos(theta) * (xx - w / 2) + np.sin(theta) * (yy - h / 2))
    return 1.0 / (1.0 + np.exp(-d / rng.uniform(8.0, 32.0)))


def to_bytes(img: np.ndarray) -> np.ndarray:
    """Quantize [0, 1] to uint8 (h, w, 3) with round-half-up."""
    gray = img if img.ndim == 3 else np.broadcast_to(img, (3,) + img.shape)
    q = np.floor(np.clip(gray, 0.0, 1.0) * 255.0 + 0.5).astype(np.uint8)
    return np.ascontiguousarray(np.moveaxis(q, 0, 2))


def write_ppm(path: str, img: np.ndarray):
    q = to_bytes(img)
    with open(path, "wb") as fh:
        fh.write(f"P6\n{q.shape[1]} {q.shape[0]}\n255\n".encode("ascii"))
        fh.write(q.tobytes())


def read_ppm(path: str) -> np.ndarray:
    """uint8 (h, w, 3) pixels of a binary PPM with maxval 255 and no comments."""
    with open(path, "rb") as fh:
        buf = fh.read()
    # exactly one whitespace byte ends the header: the first pixel byte may
    # itself be a whitespace value (9-13 or 32)
    header = re.match(rb"P6\s+(\d+)\s+(\d+)\s+255\s", buf)
    if header is None:
        raise ValueError(f"{path}: not an 8-bit binary PPM")
    w, h = int(header[1]), int(header[2])
    payload = buf[header.end():]
    if len(payload) != h * w * 3:
        raise ValueError(f"{path}: {len(payload)} payload bytes, "
                         f"expected {h * w * 3}")
    return np.frombuffer(payload, dtype=np.uint8).reshape(h, w, 3)
