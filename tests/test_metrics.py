"""Tests for evaluation metrics."""

from __future__ import annotations

import numpy as np
import pytest

from repro.training import metrics as M


class TestClassificationMetrics:
    def test_accuracy_and_error(self):
        preds = np.array([0, 1, 2, 2])
        targets = np.array([0, 1, 1, 2])
        assert M.accuracy(preds, targets) == pytest.approx(0.75)
        assert M.error_rate(preds, targets) == pytest.approx(25.0)

    def test_empty_input_rejected(self):
        with pytest.raises(ValueError):
            M.accuracy(np.array([]), np.array([]))
        with pytest.raises(ValueError):
            M.accuracy(np.array([1]), np.array([1, 2]))


class TestMatthewsAndF1:
    def test_matthews_perfect_and_inverse(self):
        y = np.array([0, 1, 0, 1, 1, 0])
        assert M.matthews_corrcoef(y, y) == pytest.approx(1.0)
        assert M.matthews_corrcoef(1 - y, y) == pytest.approx(-1.0)

    def test_matthews_degenerate_is_zero(self):
        assert M.matthews_corrcoef(np.ones(4), np.array([0, 1, 0, 1])) == 0.0

    def test_f1(self):
        preds = np.array([1, 1, 0, 0])
        targets = np.array([1, 0, 1, 0])
        # precision = 0.5, recall = 0.5 -> F1 = 0.5
        assert M.f1_score(preds, targets) == pytest.approx(0.5)
        assert M.f1_score(np.zeros(4), targets) == 0.0
        assert M.f1_score(targets, targets) == pytest.approx(1.0)


class TestCorrelations:
    def test_pearson_linear_relationship(self):
        x = np.linspace(0, 1, 20)
        assert M.pearson_corr(2 * x + 1, x) == pytest.approx(1.0)
        assert M.pearson_corr(-x, x) == pytest.approx(-1.0)
        assert M.pearson_corr(np.ones(5), x[:5]) == 0.0

    def test_spearman_monotone_nonlinear(self):
        x = np.linspace(0.1, 1, 20)
        y = x**3  # monotone but nonlinear
        assert M.spearman_corr(y, x) == pytest.approx(1.0)

    def test_spearman_handles_ties(self):
        a = np.array([1.0, 1.0, 2.0, 3.0])
        b = np.array([1.0, 2.0, 3.0, 4.0])
        value = M.spearman_corr(a, b)
        assert 0.8 < value <= 1.0

    def test_pearson_spearman_average(self):
        x = np.linspace(0, 1, 15)
        y = x.copy()
        assert M.pearson_spearman(y, x) == pytest.approx(1.0)


class TestGlueDispatch:
    def test_metric_dispatch_and_scaling(self):
        preds = np.array([0, 1, 1, 0])
        targets = np.array([0, 1, 0, 0])
        assert M.glue_metric("accuracy", preds, targets) == pytest.approx(75.0)
        assert M.glue_metric("f1", preds, targets) == pytest.approx(
            100.0 * M.f1_score(preds, targets)
        )
        assert M.glue_metric("matthews", targets, targets) == pytest.approx(100.0)
        x = np.linspace(0, 1, 10)
        assert M.glue_metric("pearson_spearman", x, x) == pytest.approx(100.0)
        with pytest.raises(KeyError):
            M.glue_metric("bleu", preds, targets)


class TestDetectionMetrics:
    def test_box_iou(self):
        box = np.array([0.5, 0.5, 0.2, 0.2])
        assert M.box_iou(box, box) == pytest.approx(1.0)
        disjoint = np.array([0.9, 0.9, 0.1, 0.1])
        assert M.box_iou(box, disjoint) == 0.0
        half = np.array([0.6, 0.5, 0.2, 0.2])  # shifted by half a width
        assert 0.0 < M.box_iou(box, half) < 1.0

    def _grid(self, n=4, g=4, c=3, seed=0):
        rng = np.random.default_rng(seed)
        targets = np.zeros((n, g, g, 5 + c))
        for i in range(n):
            gy, gx = rng.integers(0, g, size=2)
            targets[i, gy, gx, :5] = [0.5, 0.5, 0.3, 0.3, 1.0]
            targets[i, gy, gx, 5 + rng.integers(0, c)] = 1.0
        return targets

    def test_perfect_predictions_score_100(self):
        targets = self._grid()
        preds = targets.copy()
        preds[..., 4] = np.where(targets[..., 4] > 0.5, 20.0, -20.0)
        preds[..., 5:] *= 10
        assert M.detection_average_precision(preds, targets) == pytest.approx(100.0)

    def test_random_predictions_score_low(self):
        targets = self._grid()
        preds = np.random.default_rng(1).standard_normal(targets.shape)
        score = M.detection_average_precision(preds, targets)
        assert 0.0 <= score < 60.0

    def test_wrong_class_kills_matches(self):
        targets = self._grid()
        preds = targets.copy()
        preds[..., 4] = np.where(targets[..., 4] > 0.5, 20.0, -20.0)
        # rotate the one-hot class channels so every class is wrong
        preds[..., 5:] = np.roll(targets[..., 5:], shift=1, axis=-1) * 10
        assert M.detection_average_precision(preds, targets) == pytest.approx(0.0)

    def test_no_objects_returns_zero(self):
        targets = np.zeros((2, 4, 4, 8))
        preds = np.zeros_like(targets)
        assert M.detection_average_precision(preds, targets) == 0.0

    def test_shape_mismatch(self):
        with pytest.raises(ValueError):
            M.detection_average_precision(np.zeros((1, 4, 4, 8)), np.zeros((2, 4, 4, 8)))

    def test_vectorized_iou_is_bitwise_box_iou(self):
        rng = np.random.default_rng(4)
        boxes_a = rng.random((400, 4))
        boxes_b = rng.random((400, 4))
        boxes_b[:50] = boxes_a[:50]  # identical boxes
        boxes_a[50:60, 2:] = 0.0  # zero-area against zero-area: union 0
        boxes_b[50:60, 2:] = 0.0
        boxes_a[60:70, 2] = -boxes_a[60:70, 2]  # negative widths: union <= 0
        boxes_a[70:80, rng.integers(0, 4, size=10)] = np.nan
        boxes_b[80:85, 0] = np.inf
        boxes_b[85:90, 2] = np.inf
        boxes_a[90:95, 3] = -np.inf
        with np.errstate(invalid="ignore", over="ignore"):
            got = M._box_iou_rows(boxes_a, boxes_b)
            want = np.array([M.box_iou(a, b) for a, b in zip(boxes_a, boxes_b)])
        assert got.tobytes() == want.tobytes()

    @pytest.mark.filterwarnings("ignore::RuntimeWarning")
    @pytest.mark.parametrize("seed", range(4))
    def test_average_precision_matches_per_candidate_loop(self, seed):
        rng = np.random.default_rng(seed)
        targets = self._grid(n=12, seed=seed)
        preds = targets + 0.3 * rng.standard_normal(targets.shape)
        preds[..., 5:] += 0.5 * targets[..., 5:]
        if seed == 3:
            preds[0, ..., :4] = np.nan  # non-finite boxes never match
        obj = targets[..., 4] > 0.5
        scores = 1.0 / (1.0 + np.exp(-preds[..., 4]))
        order = np.argsort(-scores.reshape(-1))
        tp = np.zeros(len(order), dtype=bool)
        for rank, (i, gy, gx) in enumerate(np.stack(np.unravel_index(order, scores.shape), axis=1)):
            same_class = preds[i, gy, gx, 5:].argmax() == targets[i, gy, gx, 5:].argmax()
            if obj[i, gy, gx] and same_class:
                tp[rank] = M.box_iou(preds[i, gy, gx, :4], targets[i, gy, gx, :4]) >= 0.3
        recalls = np.cumsum(tp) / obj.sum()
        precisions = np.cumsum(tp) / np.arange(1, len(tp) + 1)
        expected = 100.0 * sum(
            float(precisions[recalls >= r].max()) if (recalls >= r).any() else 0.0
            for r in np.linspace(0.0, 1.0, 11)
        ) / 11.0
        assert M.detection_average_precision(preds, targets, iou_threshold=0.3) == expected
