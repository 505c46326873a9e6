"""Tests for the loss functions."""

from __future__ import annotations

import numpy as np
import pytest

from repro.nn import losses
from repro.nn.dtype import default_dtype
from repro.nn.tensor import Tensor

from gradcheck import assert_grad_close, numerical_gradient


class TestCrossEntropy:
    def test_matches_manual_computation(self, rng):
        logits = rng.standard_normal((5, 4))
        targets = np.array([0, 1, 2, 3, 1])
        loss = losses.cross_entropy(Tensor(logits), targets)
        shifted = logits - logits.max(axis=1, keepdims=True)
        log_probs = shifted - np.log(np.exp(shifted).sum(axis=1, keepdims=True))
        expected = -log_probs[np.arange(5), targets].mean()
        assert float(loss.data) == pytest.approx(expected)

    def test_perfect_prediction_low_loss(self):
        logits = np.full((3, 3), -20.0)
        logits[np.arange(3), np.arange(3)] = 20.0
        loss = losses.cross_entropy(Tensor(logits), np.arange(3))
        assert float(loss.data) < 1e-8

    def test_gradient_numerical(self, rng):
        logits_data = rng.standard_normal((4, 3))
        targets = np.array([0, 2, 1, 2])
        logits = Tensor(logits_data, requires_grad=True)
        losses.cross_entropy(logits, targets).backward()

        def f(arr):
            return float(losses.cross_entropy(Tensor(arr), targets).data)

        assert_grad_close(logits.grad, numerical_gradient(f, logits_data.copy()))

    def test_label_smoothing_increases_loss_on_confident_predictions(self):
        logits = np.full((2, 4), -10.0)
        logits[:, 0] = 10.0
        targets = np.array([0, 0])
        plain = float(losses.cross_entropy(Tensor(logits), targets).data)
        smoothed = float(losses.cross_entropy(Tensor(logits), targets, label_smoothing=0.1).data)
        assert smoothed > plain

    def test_shape_validation(self):
        with pytest.raises(ValueError):
            losses.cross_entropy(Tensor(np.zeros((2, 3, 4))), np.zeros(2))
        with pytest.raises(ValueError):
            losses.cross_entropy(Tensor(np.zeros((2, 3))), np.zeros(5))


class TestRegressionLosses:
    def test_mse(self):
        pred = Tensor(np.array([1.0, 2.0, 3.0]))
        assert float(losses.mse_loss(pred, np.array([1.0, 2.0, 5.0])).data) == pytest.approx(4.0 / 3)

    def test_l1(self):
        pred = Tensor(np.array([1.0, -2.0]))
        assert float(losses.l1_loss(pred, np.array([0.0, 0.0])).data) == pytest.approx(1.5)

    def test_mse_gradient(self, rng):
        pred_data = rng.standard_normal(6)
        target = rng.standard_normal(6)
        pred = Tensor(pred_data, requires_grad=True)
        losses.mse_loss(pred, target).backward()
        np.testing.assert_allclose(pred.grad, 2 * (pred_data - target) / 6)


class TestBCE:
    def test_matches_reference(self, rng):
        logits = rng.standard_normal((4, 3))
        targets = rng.integers(0, 2, size=(4, 3)).astype(float)
        loss = float(losses.binary_cross_entropy_with_logits(Tensor(logits), targets).data)
        probs = 1 / (1 + np.exp(-logits))
        expected = -(targets * np.log(probs) + (1 - targets) * np.log(1 - probs)).mean()
        assert loss == pytest.approx(expected, rel=1e-6)

    def test_stable_for_extreme_logits(self):
        logits = Tensor(np.array([1000.0, -1000.0]))
        loss = losses.binary_cross_entropy_with_logits(logits, np.array([1.0, 0.0]))
        assert np.isfinite(float(loss.data))
        assert float(loss.data) < 1e-6


class TestVAELoss:
    def test_perfect_reconstruction_leaves_only_kl(self, rng):
        target = rng.integers(0, 2, size=(3, 16)).astype(float)
        recon_logits = np.where(target > 0.5, 50.0, -50.0)
        mu = Tensor(np.zeros((3, 4)), requires_grad=True)
        logvar = Tensor(np.zeros((3, 4)), requires_grad=True)
        loss = losses.vae_loss(Tensor(recon_logits), target, mu, logvar)
        # With mu=0, logvar=0 the KL term is exactly 0 and reconstruction ~ 0.
        assert float(loss.data) == pytest.approx(0.0, abs=1e-6)

    def test_kl_increases_with_mu(self):
        target = np.zeros((2, 8))
        recon = Tensor(np.full((2, 8), -50.0))
        mu_small = Tensor(np.zeros((2, 3)))
        mu_large = Tensor(np.full((2, 3), 2.0))
        logvar = Tensor(np.zeros((2, 3)))
        small = float(losses.vae_loss(recon, target, mu_small, logvar).data)
        large = float(losses.vae_loss(recon, target, mu_large, logvar).data)
        assert large > small
        assert large - small == pytest.approx(0.5 * 3 * 4.0)  # 0.5 * sum(mu^2)

    def test_beta_scales_kl(self):
        target = np.zeros((1, 4))
        recon = Tensor(np.full((1, 4), -50.0))
        mu = Tensor(np.ones((1, 2)))
        logvar = Tensor(np.zeros((1, 2)))
        beta1 = float(losses.vae_loss(recon, target, mu, logvar, beta=1.0).data)
        beta4 = float(losses.vae_loss(recon, target, mu, logvar, beta=4.0).data)
        assert beta4 == pytest.approx(4 * beta1)


class TestDetectionLoss:
    def _targets(self, rng, n=2, g=3, c=3):
        targets = np.zeros((n, g, g, 5 + c))
        targets[0, 1, 1] = [0.5, 0.5, 0.3, 0.3, 1.0] + [0.0] * c
        targets[0, 1, 1, 5] = 1.0
        targets[1, 0, 2] = [0.2, 0.8, 0.4, 0.4, 1.0] + [0.0] * c
        targets[1, 0, 2, 6] = 1.0
        return targets

    def test_perfect_prediction_has_small_loss(self, rng):
        targets = self._targets(rng)
        preds = targets.copy()
        preds[..., 4] = np.where(targets[..., 4] > 0.5, 30.0, -30.0)
        preds[..., 5:] = np.where(targets[..., 5:] > 0.5, 30.0, -30.0)
        loss = losses.detection_loss(Tensor(preds), targets, num_classes=3)
        assert float(loss.data) < 1e-6

    def test_wrong_boxes_increase_loss(self, rng):
        targets = self._targets(rng)
        good = targets.copy()
        good[..., 4] = np.where(targets[..., 4] > 0.5, 30.0, -30.0)
        good[..., 5:] = np.where(targets[..., 5:] > 0.5, 30.0, -30.0)
        bad = good.copy()
        bad[..., 0:4] += 1.0
        loss_good = float(losses.detection_loss(Tensor(good), targets, num_classes=3).data)
        loss_bad = float(losses.detection_loss(Tensor(bad), targets, num_classes=3).data)
        assert loss_bad > loss_good

    def test_gradients_flow(self, rng):
        targets = self._targets(rng)
        preds = Tensor(rng.standard_normal(targets.shape), requires_grad=True)
        losses.detection_loss(preds, targets, num_classes=3).backward()
        assert preds.grad is not None
        assert np.isfinite(preds.grad).all()

    def test_shape_validation(self, rng):
        targets = self._targets(rng)
        with pytest.raises(ValueError):
            losses.detection_loss(Tensor(np.zeros((2, 3, 3))), targets, num_classes=3)
        with pytest.raises(ValueError):
            losses.detection_loss(Tensor(np.zeros((1, 3, 3, 8))), targets, num_classes=3)


def _composite_detection_loss(predictions, targets, box_weight=5.0, noobj_weight=0.5):
    """The detection loss composed from Tensor ops: the reference the one-node
    kernel must match bitwise in its forward value."""
    batched = predictions.seed_dim is not None
    targets = np.asarray(targets, dtype=predictions.data.dtype)
    dtype = predictions.data.dtype
    obj_mask = targets[..., 4:5]
    if batched:
        axes = (1, 2, 3, 4)
        n_cells = float(np.prod(predictions.shape[1:4]))
        n_obj = np.maximum(obj_mask.sum(axis=axes), 1.0)

        def scaled(term, scale):
            return term * Tensor(np.asarray(scale, dtype=np.float64), dtype=dtype)
    else:
        n_cells = float(np.prod(predictions.shape[:3]))
        n_obj = max(float(obj_mask.sum()), 1.0)
    box_diff = (predictions[..., 0:4] - Tensor(targets[..., 0:4])) * Tensor(obj_mask)
    box_sq = box_diff * box_diff
    pred_obj = predictions[..., 4:5]
    bce = pred_obj.relu() - pred_obj * Tensor(obj_mask) + ((-pred_obj.abs()).exp() + 1.0).log()
    weights = np.where(obj_mask > 0.5, 1.0, noobj_weight).astype(targets.dtype)
    weighted_bce = bce * Tensor(weights, dtype=targets.dtype)
    cls_prod = predictions[..., 5:].log_softmax(axis=-1) * Tensor(targets[..., 5:] * obj_mask)
    if batched:
        return (
            scaled(box_sq.sum(axis=axes), box_weight / n_obj)
            + scaled(weighted_bce.sum(axis=axes), 1.0 / n_cells)
            + scaled(-(cls_prod.sum(axis=axes)), 1.0 / n_obj)
        )
    return (
        box_sq.sum() * (box_weight / n_obj)
        + weighted_bce.sum() * (1.0 / n_cells)
        + -(cls_prod.sum()) * (1.0 / n_obj)
    )


def _detection_batch(rng, num_seeds=None, n=4, g=3, c=3):
    """Random predictions and targets with 0, 1 or several objects per image."""
    lead = () if num_seeds is None else (num_seeds,)
    preds = rng.standard_normal(lead + (n, g, g, 5 + c)) * 2.0
    targets = np.zeros(lead + (n, g, g, 5 + c))
    targets[..., 0:4] = rng.random(lead + (n, g, g, 4))
    has_obj = rng.random(lead + (n, g, g)) < 0.3
    targets[..., 4] = has_obj
    cls = rng.integers(0, c, size=lead + (n, g, g))
    np.put_along_axis(targets[..., 5:], cls[..., None], 1.0, axis=-1)
    targets[..., 5:] *= has_obj[..., None]
    return preds, targets


def _stacked(array, **kwargs):
    tensor = Tensor(array, **kwargs)
    tensor.seed_dim = array.shape[0]
    return tensor


class TestDetectionLossNode:
    @pytest.mark.parametrize("stacked", [False, True])
    def test_gradcheck_float64(self, rng, stacked):
        preds, targets = _detection_batch(rng, num_seeds=2 if stacked else None)
        make = _stacked if stacked else Tensor
        seed_grad = np.array([0.7, -1.3]) if stacked else np.array(0.7)

        def value(arr):
            return float((losses.detection_loss(make(arr), targets, 3).data * seed_grad).sum())

        x = make(preds, requires_grad=True)
        losses.detection_loss(x, targets, 3).backward(seed_grad)
        assert_grad_close(x.grad, numerical_gradient(value, preds.copy()))

    @pytest.mark.parametrize("dtype", ["float64", "float32"])
    @pytest.mark.parametrize("stacked", [False, True])
    def test_forward_bitwise_equals_composite(self, rng, dtype, stacked):
        preds, targets = _detection_batch(rng, num_seeds=3 if stacked else None)
        make = _stacked if stacked else Tensor
        with default_dtype(dtype):
            fused = losses.detection_loss(make(preds), targets, 3)
            composite = _composite_detection_loss(make(preds), targets)
        assert fused.shape == composite.shape == ((3,) if stacked else ())
        assert fused.data.dtype == composite.data.dtype
        assert fused.data.tobytes() == composite.data.tobytes()

    @pytest.mark.parametrize("dtype", ["float64", "float32", "bfloat16", "float16"])
    def test_seed_stacked_is_bitwise_serial(self, rng, dtype):
        num_seeds = 3
        preds, targets = _detection_batch(rng, num_seeds=num_seeds)
        seed_grad = rng.standard_normal(num_seeds)
        with default_dtype(dtype):
            x = _stacked(preds, requires_grad=True)
            loss = losses.detection_loss(x, targets, 3)
            loss.backward(seed_grad.astype(loss.data.dtype))
            for s in range(num_seeds):
                xs = Tensor(preds[s], requires_grad=True)
                serial = losses.detection_loss(xs, targets[s], 3)
                serial.backward(np.asarray(seed_grad[s], dtype=serial.data.dtype))
                assert loss.data[s].tobytes() == serial.data.tobytes()
                assert x.grad[s].tobytes() == xs.grad.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    def test_non_finite_loss_raises_seed_divergence(self):
        from repro.data import DataLoader, StackedLoader
        from repro.data.dataset import ArrayDataset
        from repro.models.detector import TinyDetector
        from repro.nn.batched import stack_modules
        from repro.optim import Adam
        from repro.training import BatchedTrainer, DetectionTask, SeedDivergence

        rng = np.random.default_rng(3)
        loaders = []
        for s in range(2):
            images = rng.standard_normal((4, 3, 8, 8))
            if s == 1:
                images[0, 0, 0, 0] = np.nan  # seed 1's loss turns non-finite
            _, targets = _detection_batch(rng, n=4, g=2)
            loaders.append(DataLoader(ArrayDataset(images, targets), batch_size=4))
        model = stack_modules([TinyDetector(image_size=8, grid_size=2, seed=s) for s in range(2)])
        trainer = BatchedTrainer(
            model, Adam(model.parameters(), lr=1e-3), DetectionTask(), StackedLoader(loaders)
        )
        with pytest.raises(SeedDivergence, match="stable regime"):
            trainer.fit(1)
