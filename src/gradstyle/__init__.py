"""Fast style transfer by a trainable unrolled gradient-descent network.

The artistic path runs four learned descent steps from the content image;
the photorealistic path restructures the same trained network at runtime
with matting-Laplacian graph filters, semantic masks and an intensity knob,
without retraining.
"""

from .graphfilter import build_pyramid
from .network import InferenceOptions, init_model, stylize

__version__ = "0.1.0"
