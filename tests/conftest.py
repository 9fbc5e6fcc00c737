import numpy as np
import pytest

from gradstyle.perceptual import FeatureExtractor
from gradstyle.tensor import ConvLayer, Tensor, xavier_init_rng


@pytest.fixture
def rng():
    return np.random.default_rng(1234)


def make_small_extractor(seed=5, channels=(4, 8, 8), style_layers=None,
                         content_layers=(1,)):
    """3-level extractor usable on 8x8 images (full depth needs 16x16)."""
    r = np.random.default_rng(seed)
    layers, in_ch = [], 3
    for out_ch in channels:
        layers.append(ConvLayer(Tensor(xavier_init_rng(r, (out_ch, in_ch, 3, 3))),
                                Tensor(np.zeros(out_ch)), relu=True))
        in_ch = out_ch
    if style_layers is None:
        style_layers = tuple(range(len(channels)))
    return FeatureExtractor(layers, style_layers, content_layers)


def random_image(rng, shape=(3, 8, 8), lo=0.1, hi=0.9):
    return Tensor(rng.uniform(lo, hi, shape))


def smooth_image(rng, side, waves=2):
    """Smooth synthetic RGB image: sums of low-frequency sinusoids in [0,1]."""
    yy, xx = np.meshgrid(np.linspace(0, 1, side), np.linspace(0, 1, side),
                         indexing="ij")
    chans = []
    for _ in range(3):
        a, b = rng.uniform(0.5, waves, 2)
        ph1, ph2 = rng.uniform(0, 2 * np.pi, 2)
        img = 0.5 + 0.25 * np.sin(2 * np.pi * a * yy + ph1) \
            + 0.2 * np.cos(2 * np.pi * b * xx + ph2)
        chans.append(img)
    return Tensor(np.clip(np.stack(chans), 0.0, 1.0))
