"""Command-line surface: train, stylize, compare, inspect.

Every run writes a sidecar manifest (`key=value` lines) with the fully
resolved configuration so it can be reproduced bit-for-bit. Exit codes:
0 success, 2 invalid flags, 3 I/O or file-format failure, 4 numeric
divergence.
"""

from __future__ import annotations

import argparse
import contextlib
import csv
import math
import sys
from dataclasses import astuple

import numpy as np

from .graphfilter import (
    DEFAULT_LAMBDA_FRAC,
    DEFAULT_MATTING_EPS,
    DEFAULT_ORDER,
    build_pyramid,
)
from .guided import GuidedFilterParams
from .imagecodec import read_image, write_image
from .network import (
    NUM_STEPS,
    InferenceOptions,
    init_model,
    param_count,
    stylize,
    unroll,
)
from .perceptual import (
    LAM_C,
    LAM_TV,
    content_features,
    default_extractor,
    total_loss,
)
from .solver import INIT_MODES, DescentConfig, grad_descent_stylize
from .tensor import DivergenceError, NonFiniteError, Tensor, mirror_pad
from .training import (
    ADAM_LR,
    NOISE_BOUND,
    TRAIN_SIDE_MULTIPLE,
    CheckpointError,
    TrainConfig,
    load_checkpoint,
    save_checkpoint,
    train,
    write_training_log,
)

EXIT_OK = 0
EXIT_USAGE = 2
EXIT_IO = 3
EXIT_DIVERGED = 4


def _checked(convert, ok, rule):
    """argparse type: convert the text, then reject values breaking `rule`."""
    def parse(text):
        value = convert(text)
        if not ok(value):
            raise argparse.ArgumentTypeError(f"{text!r} is not {rule}")
        return value
    return parse


_AT_LEAST_ONE = _checked(int, lambda v: v >= 1, ">= 1")
_COUNT = _checked(int, lambda v: v >= 0, ">= 0")
_SIDE = _checked(int, lambda v: v > 0 and v % TRAIN_SIDE_MULTIPLE == 0,
                 f"a positive multiple of {TRAIN_SIDE_MULTIPLE}")
_FRACTION = _checked(float, lambda v: 0 < v <= 1, "in (0, 1]")
_POSITIVE = _checked(float, lambda v: math.isfinite(v) and v > 0,
                     "finite and > 0")
_INTENSITY = _checked(float, lambda v: math.isfinite(v) and v >= 0,
                      "finite and >= 0")
_SEED = _checked(int, lambda v: 0 <= v < 2**64, "in [0, 2**64)")


def _build_parser():
    parser = argparse.ArgumentParser(
        prog="gradstyle",
        description="Fast style transfer via a trainable unrolled descent "
                    "network, with runtime photorealistic restructuring.")
    sub = parser.add_subparsers(dest="command", required=True)

    p = sub.add_parser("train", help="train a model on a content directory")
    p.add_argument("--contents", required=True, help="directory of content images")
    p.add_argument("--style", required=True, action="append",
                   help="style image (repeat for multiple styles)")
    p.add_argument("--style-mask", action="append", default=[],
                   help="binary mask for the matching --style ('none' to skip)")
    p.add_argument("--out", required=True, help="checkpoint output path")
    p.add_argument("--epochs", type=_COUNT, default=TrainConfig.epochs)
    p.add_argument("--size", type=_SIDE, default=TrainConfig.side)
    p.add_argument("--seed", type=_SEED, default=TrainConfig.seed)

    p = sub.add_parser("stylize", help="stylize one image")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--output", required=True)
    p.add_argument("--style-id", type=int, default=0)
    p.add_argument("--alpha", type=_INTENSITY, default=None,
                   help="transfer intensity (default 1.0, or 1.2 with --photoreal)")
    p.add_argument("--photoreal", action="store_true",
                   help="graph-filter the descent directions at runtime")
    p.add_argument("--lambda-star-frac", type=_FRACTION,
                   default=DEFAULT_LAMBDA_FRAC)
    p.add_argument("--cheb-order", type=_AT_LEAST_ONE, default=DEFAULT_ORDER)
    p.add_argument("--matting-eps", type=_POSITIVE, default=DEFAULT_MATTING_EPS)
    p.add_argument("--content-mask", default=None)
    p.add_argument("--blend-mask", default=None)
    p.add_argument("--guided-filter", action="store_true")
    p.add_argument("--gf-radius", type=_AT_LEAST_ONE,
                   default=GuidedFilterParams.radius)
    p.add_argument("--gf-eps", type=_POSITIVE, default=GuidedFilterParams.eps)

    p = sub.add_parser("compare",
                       help="gradient-descent loss trajectory vs the network")
    p.add_argument("--model", required=True)
    p.add_argument("--input", required=True)
    p.add_argument("--style-id", type=int, default=0)
    p.add_argument("--iters", type=_COUNT, required=True)
    p.add_argument("--mu", type=_POSITIVE, default=None)
    p.add_argument("--init", choices=INIT_MODES, default=DescentConfig.init)
    p.add_argument("--seed", type=_SEED, default=DescentConfig.seed)
    p.add_argument("--out", default=None, help="CSV path (default stdout)")

    p = sub.add_parser("inspect", help="print parameter counts of a checkpoint")
    p.add_argument("--model", required=True)
    return parser


def _write_manifest(path, args, **resolved):
    """Every flag's value, overlaid by the values the run resolved, one
    sorted `key=value` line each; None and "" read `none`. Repeated flags
    (list values) are left to the caller, which writes them per index."""
    entries = {k: v for k, v in vars(args).items() if not isinstance(v, list)}
    entries.update(resolved)
    lines = [f"{k}={'none' if entries[k] in (None, '') else entries[k]}"
             for k in sorted(entries)]
    with open(path, "w", encoding="ascii") as fh:
        fh.write("\n".join(lines) + "\n")


def _read_mask(path, soft: bool) -> np.ndarray:
    lum = read_image(path).mean(axis=0)
    return lum if soft else (lum >= 0.5).astype(np.float64)


def _checked_style_id(model, style_id):
    if not 0 <= style_id < model.n_styles:
        raise StyleIdError(f"style id {style_id} out of range "
                           f"(model has {model.n_styles} styles)")
    return style_id


class StyleIdError(ValueError):
    pass


def _cmd_train(args) -> int:
    masks = args.style_mask
    if masks and len(masks) != len(args.style):
        raise StyleIdError("--style-mask count must match --style count")
    styles = []
    for i, style_path in enumerate(args.style):
        mask = None
        if masks and masks[i].lower() != "none":
            mask = _read_mask(masks[i], soft=False)
        styles.append((read_image(style_path), mask))
    cfg = TrainConfig(epochs=args.epochs, side=args.size, seed=args.seed)
    model = init_model(seed=args.seed, n_styles=len(styles))
    try:
        rows = train(model, styles, args.contents, cfg)
    except DivergenceError as err:
        save_checkpoint(err.last_good, args.out)
        print(f"gradstyle: {err} (last good checkpoint saved)", file=sys.stderr)
        return EXIT_DIVERGED
    save_checkpoint(model, args.out)
    write_training_log(f"{args.out}.log.csv", rows)
    per_style = {}
    for i, style_path in enumerate(args.style):
        per_style[f"style{i}"] = style_path
        per_style[f"style{i}.mask"] = masks[i] if masks else None
        per_style[f"style{i}.lam_s"] = repr(model.styles[i].target.lam_s)
    _write_manifest(f"{args.out}.manifest", args, lam_c=LAM_C,
                    lam_tv=LAM_TV, lr=ADAM_LR,
                    noise_bound=NOISE_BOUND,
                    extractor_seed=model.extractor_seed,
                    n_styles=len(styles), **per_style)
    return EXIT_OK


def _cmd_stylize(args) -> int:
    model = load_checkpoint(args.model)
    style_id = _checked_style_id(model, args.style_id)
    content = read_image(args.input)
    # every input file is read before the matting pyramid is built
    content_mask = (_read_mask(args.content_mask, soft=False)
                    if args.content_mask else None)
    blend_mask = (_read_mask(args.blend_mask, soft=True)
                  if args.blend_mask else None)
    alpha = args.alpha if args.alpha is not None else (
        1.2 if args.photoreal else 1.0)
    hooks = None
    lam_info = {}
    if args.photoreal:
        hooks = build_pyramid(content, epsilon=args.matting_eps,
                              order=args.cheb_order,
                              lambda_frac=args.lambda_star_frac)
        for lvl, filt in enumerate(hooks.filters):
            if filt is None:  # level too small for a matting window
                lam_info[f"level{lvl}.filter"] = "identity"
            else:
                lam_info[f"level{lvl}.lambda_max"] = repr(filt.lambda_max)
                lam_info[f"level{lvl}.lambda_star"] = repr(filt.lambda_star)
    opts = InferenceOptions(
        alpha=alpha,
        content_mask=content_mask,
        blend_mask=blend_mask,
        filter_hooks=hooks,
        guided=(GuidedFilterParams(args.gf_radius, args.gf_eps)
                if args.guided_filter else None),
    )
    out = stylize(content, model, style_id, opts)
    write_image(args.output, out)
    _write_manifest(f"{args.output}.manifest", args, alpha=alpha,
                    style_lam_s=repr(model.styles[style_id].target.lam_s),
                    **lam_info)
    return EXIT_OK


def _cmd_compare(args) -> int:
    model = load_checkpoint(args.model)
    style_id = _checked_style_id(model, args.style_id)
    target = model.styles[style_id].target
    if not target.grams:
        raise CheckpointError("checkpoint carries no style Gram targets; "
                              "retrain to enable compare")
    fe = default_extractor(model.extractor_seed)
    # both paths run on the same mirror-padded image so losses are comparable
    padded = mirror_pad(read_image(args.input), fe.multiple)
    cfg = DescentConfig(iters=args.iters, mu=args.mu, init=args.init,
                        seed=args.seed)
    x = Tensor(padded)
    c_feats = content_features(x, fe)
    result = grad_descent_stylize(padded, c_feats, target, fe, cfg)
    _, net_parts = total_loss(unroll(x, model, style_id), c_feats, target, fe)

    rows = [("gd", i, parts) for i, parts in enumerate(result.trajectory)]
    rows.append(("network", NUM_STEPS, net_parts))
    with (open(args.out, "w", newline="", encoding="ascii") if args.out
          else contextlib.nullcontext(sys.stdout)) as out_fh:
        writer = csv.writer(out_fh)
        writer.writerow(["method", "iter", "total", "content", "style", "tv"])
        for method, it, p in rows:
            writer.writerow([method, it, *map(repr, astuple(p))])
    if args.out:
        _write_manifest(f"{args.out}.manifest", args, mu=repr(result.mu),
                        lam_s=repr(target.lam_s))
    return EXIT_OK


def _cmd_inspect(args) -> int:
    model = load_checkpoint(args.model)
    fb, per_iter, total = param_count(model)
    print(f"{fb} / {per_iter} / {total}")
    print(f"forward+backward conv weights: {fb}")
    print(f"style weights per step: {per_iter}")
    print(f"total ({model.n_styles} style(s), {NUM_STEPS} steps): {total}")
    for i, style in enumerate(model.styles):
        sizes = "+".join(str(h.data.shape[0]) + "^2" for h in style.h[0])
        print(f"style {i}: {NUM_STEPS}x{len(style.h[0])} matrices ({sizes}), "
              f"lam_s={style.target.lam_s!r}")
    return EXIT_OK


_COMMANDS = {
    "train": _cmd_train,
    "stylize": _cmd_stylize,
    "compare": _cmd_compare,
    "inspect": _cmd_inspect,
}


def main(argv=None) -> int:
    args = _build_parser().parse_args(argv)
    try:
        return _COMMANDS[args.command](args)
    except StyleIdError as err:
        print(f"gradstyle: {err}", file=sys.stderr)
        return EXIT_USAGE
    # a NonFiniteError (DivergenceError among them) is a ValueError, so it
    # must be caught first
    except NonFiniteError as err:
        print(f"gradstyle: {err}", file=sys.stderr)
        return EXIT_DIVERGED
    # CodecError and CheckpointError are ValueErrors
    except (OSError, ValueError) as err:
        print(f"gradstyle: {err}", file=sys.stderr)
        return EXIT_IO


if __name__ == "__main__":
    sys.exit(main())
