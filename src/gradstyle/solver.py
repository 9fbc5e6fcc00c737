"""Plain and projected gradient descent on the full objective.

This is the slow optimization path the unrolled network approximates: start
from the content image (or noise), repeatedly step against the gradient of
the objective, optionally projecting every iterate onto the bandlimited
subspace of a graph Laplacian. Emits the loss trajectory for comparisons
against the network.
"""

from __future__ import annotations

from dataclasses import dataclass, replace

import numpy as np

from .perceptual import (
    FeatureExtractor,
    LossParts,
    StyleTarget,
    extract_features,
    total_loss,
)
from .tensor import DivergenceError, GradTape, NonFiniteError, Tensor, backward

INIT_MODES = ("content", "noise")
MU_GRID = (1e-2, 1e-1, 1.0, 10.0, 100.0)


@dataclass
class DescentConfig:
    iters: int
    mu: float | None = None          # None: 5-point geometric grid search
    init: str = "content"
    seed: int = 0
    projector: object | None = None  # callable on (c, h, w) arrays

    def __post_init__(self):
        if self.iters < 0:
            raise ValueError("iteration count must be >= 0")
        if self.mu is not None and not 0 < self.mu < np.inf:  # NaN fails too
            raise ValueError(f"stepsize must be finite and > 0, got {self.mu}")
        if self.init not in INIT_MODES:
            raise ValueError(f"init mode must be one of {INIT_MODES}")


@dataclass
class DescentResult:
    image: np.ndarray
    trajectory: list[LossParts]      # indexed by iteration
    mu: float


def _init_image(content: np.ndarray, cfg: DescentConfig) -> np.ndarray:
    if cfg.init == "content":
        return content.copy()
    return np.random.default_rng(cfg.seed).uniform(0.0, 1.0,
                                                   size=content.shape)


def _loss_and_grad(x: Tensor, c_feats, target, fe):
    with GradTape() as tape:
        loss, parts = total_loss(x, c_feats, target, fe)
        grads = backward(tape, loss)
    return parts, grads[x]


def _run(content: np.ndarray, c_feats, target: StyleTarget,
         fe: FeatureExtractor, cfg: DescentConfig) -> DescentResult:
    """Descent from cfg's init image, projected when cfg.projector is set.
    The caller extracts c_feats, content's features, once for all mu probes."""
    project = cfg.projector if cfg.projector is not None else (lambda x: x)
    x = Tensor(project(_init_image(content, cfg)))
    mu = cfg.mu if cfg.mu is not None else _pick_mu(
        content, c_feats, target, fe, cfg)
    trajectory: list[LossParts] = []
    try:
        for _ in range(cfg.iters):
            parts, g = _loss_and_grad(x, c_feats, target, fe)
            trajectory.append(parts)
            x = Tensor(project(x.data - mu * g))
        _, parts = total_loss(x, c_feats, target, fe)
    except NonFiniteError as exc:
        raise DivergenceError(
            f"loss became non-finite at iteration {len(trajectory)} "
            f"(mu={mu:g}, init={cfg.init!r}): {exc}") from exc
    trajectory.append(parts)
    return DescentResult(x.data, trajectory, mu)


def _pick_mu(content, c_feats, target, fe, cfg) -> float:
    """Smallest grid stepsize achieving the best loss after a probe run.

    The probe is the requested run (projected or not) capped at 10
    iterations, so a stepsize that looks good for a couple of steps but then
    oscillates is rejected.
    """
    probe_steps = min(max(cfg.iters, 1), 10)
    best_mu, best_loss = MU_GRID[0], np.inf
    for mu in MU_GRID:
        try:
            probe = _run(content, c_feats, target, fe,
                         replace(cfg, iters=probe_steps, mu=mu))
            loss = probe.trajectory[-1].total
        except DivergenceError:
            loss = np.inf
        if loss < best_loss:
            best_mu, best_loss = mu, loss
    return best_mu


def grad_descent_stylize(content: np.ndarray, target: StyleTarget,
                         fe: FeatureExtractor,
                         cfg: DescentConfig) -> DescentResult:
    """Gradient descent on the objective from a (3, h, w) content array;
    trajectory has one row per iterate. When cfg.projector is set, the init
    and every update pass through it."""
    return _run(content, extract_features(Tensor(content), fe), target, fe, cfg)
