"""Fast style transfer by a trainable unrolled gradient-descent network.

The artistic path runs four learned descent steps from the content image;
the photorealistic path restructures the same trained network at runtime
with matting-Laplacian graph filters, semantic masks and an intensity knob,
without retraining.
"""

from .graphfilter import (
    ChebFilter,
    LaplacianPyramid,
    SparseLaplacian,
    apply_poly_filter,
    build_pyramid,
    estimate_lambda_max,
    exact_projector,
    jackson_cheb_coeffs,
    matting_laplacian,
)
from .guided import GuidedFilterParams, guided_filter
from .imagecodec import CodecError, read_image, write_image
from .network import (
    CHANNELS,
    NUM_STEPS,
    IdentityHooks,
    InferenceOptions,
    StyleParams,
    UnrolledModel,
    backward_map,
    descent_step,
    forward_maps,
    init_model,
    mirror_pad,
    param_count,
    style_correction,
    stylize,
)
from .perceptual import (
    DegenerateMaskError,
    FeatureExtractor,
    LossWeights,
    MaskPyramid,
    StyleTarget,
    build_mask_pyramid,
    build_style_target,
    content_loss,
    default_extractor,
    extract_features,
    gram,
    propagate_mask,
    style_loss,
    style_weight_auto,
    total_loss,
    tv_loss,
)
from .solver import (
    DescentConfig,
    DescentResult,
    DivergenceError,
    grad_descent_stylize,
    projected_grad_descent,
    write_trajectory_csv,
)
from .tensor import (
    ConvLayer,
    GradTape,
    NonFiniteError,
    TapeError,
    Tensor,
    avg_pool2,
    backward,
    bilinear_up2,
    chan_matmul,
    clamp,
    clip_unit,
    conv2d_reflect,
    lincomb,
    masked_gram,
    relu,
    sqsum,
    tv,
    vsum,
    xavier_init,
)
from .training import (
    AdamState,
    CheckpointError,
    TrainConfig,
    TrainResult,
    adam_step,
    load_checkpoint,
    load_content_set,
    load_extractor,
    save_checkpoint,
    save_extractor,
    train,
    write_training_log,
)

__version__ = "0.1.0"
