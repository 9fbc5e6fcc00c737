import numpy as np
import pytest

from conftest import make_small_extractor, random_image, smooth_image
from oracles import exact_projector
from gradstyle.graphfilter import matting_laplacian
from gradstyle.perceptual import (
    LossWeights,
    build_style_target,
    extract_features,
    total_loss,
)
from gradstyle.perceptual import StyleTarget
from gradstyle import solver
from gradstyle.solver import (
    MU_GRID,
    DescentConfig,
    DivergenceError,
    grad_descent_stylize,
    projected_grad_descent,
)
from gradstyle.tensor import ConvLayer, Tensor, masked_gram
from gradstyle.perceptual import FeatureExtractor


@pytest.fixture
def fe():
    return make_small_extractor()


@pytest.fixture
def problem(rng, fe):
    content = random_image(rng)
    target = build_style_target(random_image(rng), fe)
    return content, target


class TestPlainDescent:
    def test_zero_iters_returns_init(self, problem, fe):
        content, target = problem
        res = grad_descent_stylize(content, target, fe,
                                   DescentConfig(iters=0, mu=1.0))
        np.testing.assert_array_equal(res.image.data, content.data)
        _, parts = total_loss(content, extract_features(content, fe), target,
                              fe, return_parts=True)
        assert res.trajectory == [parts]

    def test_stationary_at_joint_minimum(self, rng, fe):
        # style target built from the content itself and no TV weight:
        # the init is a global minimum, so iterates never move
        content = random_image(rng)
        feats = extract_features(content, fe)
        target = StyleTarget([masked_gram(feats[l]).data for l in fe.style_layers],
                             lam_s=1.0)
        cfg = DescentConfig(iters=5, mu=1.0, weights=LossWeights(lam_tv=0.0))
        res = grad_descent_stylize(content, target, fe, cfg)
        np.testing.assert_array_equal(res.image.data, content.data)
        assert res.trajectory[-1].total == 0.0

    def test_trajectory_rows_match_reevaluation(self, problem, fe):
        content, target = problem
        cfg = DescentConfig(iters=6, mu=0.5, seed=3)
        res = grad_descent_stylize(content, target, fe, cfg,
                                   keep_iterates=True)
        assert len(res.iterates) == 7
        c_feats = extract_features(content, fe)
        for row, it in zip(res.trajectory, res.iterates):
            _, parts = total_loss(it, c_feats, target, fe, cfg.weights,
                                  return_parts=True)
            assert row.total == pytest.approx(parts.total, rel=1e-10)

    def test_content_features_extracted_once(self, problem, fe, monkeypatch):
        # the mu grid search probes reuse the run's content features
        calls = []

        def spy(x, fe):
            calls.append(x)
            return extract_features(x, fe)

        monkeypatch.setattr(solver, "extract_features", spy)
        content, target = problem
        grad_descent_stylize(content, target, fe, DescentConfig(iters=2))
        assert calls == [content]

    def test_grid_search_picks_from_grid(self, problem, fe):
        content, target = problem
        res = grad_descent_stylize(content, target, fe,
                                   DescentConfig(iters=1))
        assert res.mu in MU_GRID

    @pytest.mark.parametrize("mode", ["content", "noise"])
    def test_init_modes(self, problem, fe, mode):
        content, target = problem
        cfg = DescentConfig(iters=0, mu=1.0, init=mode, seed=7)
        res = grad_descent_stylize(content, target, fe, cfg)
        if mode == "content":
            np.testing.assert_array_equal(res.image.data, content.data)
        else:
            assert not np.array_equal(res.image.data, content.data)

    def test_tuned_mu_trajectories_decrease(self):
        # regression fixture: with a grid-tuned stepsize the loss is
        # non-increasing after the first 5 iterations in >= 90% of trials
        fe = make_small_extractor()
        good = 0
        for seed in range(20):
            rng = np.random.default_rng(seed)
            content = smooth_image(rng, 16)
            target = build_style_target(smooth_image(rng, 16), fe)
            res = grad_descent_stylize(content, target, fe,
                                       DescentConfig(iters=12, seed=seed))
            totals = [row.total for row in res.trajectory]
            ok = all(totals[i + 1] <= totals[i] * (1 + 1e-12)
                     for i in range(5, len(totals) - 1))
            good += ok
        assert good >= 18

    @pytest.mark.filterwarnings("ignore:overflow:RuntimeWarning")
    def test_divergence_aborts_with_diagnostic(self, rng):
        # an extractor with enormous weights overflows the Gram energy
        layers = [ConvLayer(Tensor(np.full((4, 3, 3, 3), 1e200)),
                            Tensor(np.zeros(4)), relu=True)]
        fe_bad = FeatureExtractor(layers, (0,), (0,))
        content = random_image(rng)
        target = StyleTarget([np.eye(4)], lam_s=1.0)
        with pytest.raises(DivergenceError, match="non-finite"):
            grad_descent_stylize(content, target, fe_bad,
                                 DescentConfig(iters=2, mu=1.0))


class TestProjectedDescent:
    def _projector(self, content, frac=0.2):
        lap = matting_laplacian(content.data)
        return lap, exact_projector(lap, frac * lap.lambda_max)

    def test_identity_projector_bit_identical(self, problem, fe):
        content, target = problem
        plain = grad_descent_stylize(content, target, fe,
                                     DescentConfig(iters=4, mu=0.5),
                                     keep_iterates=True)
        cfg = DescentConfig(iters=4, mu=0.5, projector=lambda v: v)
        proj = projected_grad_descent(content, target, fe, cfg,
                                      keep_iterates=True)
        for a, b in zip(plain.iterates, proj.iterates):
            np.testing.assert_array_equal(a.data, b.data)

    def test_threshold_above_lambda_max_bit_identical(self, problem, fe):
        content, target = problem
        lap = matting_laplacian(content.data)
        projector = exact_projector(lap, lap.lambda_max * 1.5)
        assert projector.is_identity
        plain = grad_descent_stylize(content, target, fe,
                                     DescentConfig(iters=3, mu=0.5))
        proj = projected_grad_descent(
            content, target, fe,
            DescentConfig(iters=3, mu=0.5, projector=projector))
        np.testing.assert_array_equal(plain.image.data, proj.image.data)
        for a, b in zip(plain.trajectory, proj.trajectory):
            assert (a.total, a.content, a.style, a.tv) == \
                (b.total, b.content, b.style, b.tv)

    def test_zero_iters_output_is_bandlimited(self, problem, fe):
        content, target = problem
        lap, projector = self._projector(content)
        cfg = DescentConfig(iters=0, mu=1.0, projector=projector)
        res = projected_grad_descent(content, target, fe, cfg)
        for c in range(3):
            v = res.image.data[c].reshape(-1)
            r = v - projector(v)
            assert r @ r <= 1e-20 * max(v @ v, 1e-300)

    def test_every_iterate_bandlimited(self, problem, fe):
        content, target = problem
        lap, projector = self._projector(content)
        cfg = DescentConfig(iters=5, mu=0.5, projector=projector)
        res = projected_grad_descent(content, target, fe, cfg,
                                     keep_iterates=True)
        for it in res.iterates:
            for c in range(3):
                v = it.data[c].reshape(-1)
                r = v - projector(v)
                assert np.linalg.norm(r) <= 1e-10 * np.linalg.norm(v)

    def test_unused_projector_leaves_mu_probe_alone(self, fe):
        # plain descent ignores cfg.projector, and so must its stepsize
        # probe: projecting there once picked 1.0 instead of 0.1 for this case
        rng = np.random.default_rng(0)
        content = smooth_image(rng, 16)
        target = build_style_target(smooth_image(rng, 16), fe)
        lap = matting_laplacian(content.data)
        projector = exact_projector(lap, 0.05 * lap.lambda_max)
        plain = grad_descent_stylize(content, target, fe, DescentConfig(iters=10))
        unused = grad_descent_stylize(
            content, target, fe, DescentConfig(iters=10, projector=projector))
        assert unused.mu == plain.mu

    def test_plain_descent_never_calls_the_projector(self, problem, fe):
        def projector(v):
            raise AssertionError("plain descent called cfg.projector")

        content, target = problem
        res = grad_descent_stylize(content, target, fe,
                                   DescentConfig(iters=2, projector=projector))
        assert res.mu in MU_GRID

    def test_missing_projector_rejected(self, problem, fe):
        content, target = problem
        with pytest.raises(ValueError, match="projector"):
            projected_grad_descent(content, target, fe,
                                   DescentConfig(iters=1, mu=1.0))


class TestConfigValidation:
    def test_bad_values(self):
        with pytest.raises(ValueError):
            DescentConfig(iters=-1)
        with pytest.raises(ValueError):
            DescentConfig(iters=1, mu=0.0)
        with pytest.raises(ValueError):
            DescentConfig(iters=1, init="bogus")
        with pytest.raises(ValueError, match="init mode"):
            DescentConfig(iters=1, init="content+noise")

    @pytest.mark.parametrize("mu", [float("nan"), float("inf"), -1.0])
    def test_non_finite_or_negative_stepsize_rejected(self, mu):
        with pytest.raises(ValueError, match="stepsize"):
            DescentConfig(iters=1, mu=mu)
