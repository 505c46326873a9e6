"""Evaluation metrics for every workload in the paper.

Image classification reports top-1 **generalization error** (%), the VAE
reports the negative ELBO ("generalization loss"), detection reports a
mean-average-precision proxy and the GLUE tasks use their per-task metrics
(accuracy, Matthews correlation, F1, Pearson/Spearman).
"""

from __future__ import annotations

import numpy as np

__all__ = [
    "accuracy",
    "error_rate",
    "matthews_corrcoef",
    "f1_score",
    "pearson_corr",
    "spearman_corr",
    "pearson_spearman",
    "glue_metric",
    "detection_average_precision",
    "box_iou",
]


def _check_lengths(a: np.ndarray, b: np.ndarray) -> None:
    if len(a) != len(b):
        raise ValueError(f"length mismatch: {len(a)} vs {len(b)}")
    if len(a) == 0:
        raise ValueError("metrics require at least one sample")


def accuracy(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Fraction of exact matches (expects class indices)."""
    predictions = np.asarray(predictions).reshape(-1)
    targets = np.asarray(targets).reshape(-1)
    _check_lengths(predictions, targets)
    return float((predictions == targets).mean())


def error_rate(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Top-1 error in percent — the metric of the paper's vision tables."""
    return 100.0 * (1.0 - accuracy(predictions, targets))


def matthews_corrcoef(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Matthews correlation coefficient for binary labels (CoLA's metric)."""
    predictions = np.asarray(predictions).reshape(-1).astype(int)
    targets = np.asarray(targets).reshape(-1).astype(int)
    _check_lengths(predictions, targets)
    tp = float(np.sum((predictions == 1) & (targets == 1)))
    tn = float(np.sum((predictions == 0) & (targets == 0)))
    fp = float(np.sum((predictions == 1) & (targets == 0)))
    fn = float(np.sum((predictions == 0) & (targets == 1)))
    denom = np.sqrt((tp + fp) * (tp + fn) * (tn + fp) * (tn + fn))
    if denom == 0:
        return 0.0
    return float((tp * tn - fp * fn) / denom)


def f1_score(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Binary F1 with the positive class = 1 (MRPC/QQP's metric)."""
    predictions = np.asarray(predictions).reshape(-1).astype(int)
    targets = np.asarray(targets).reshape(-1).astype(int)
    _check_lengths(predictions, targets)
    tp = float(np.sum((predictions == 1) & (targets == 1)))
    fp = float(np.sum((predictions == 1) & (targets == 0)))
    fn = float(np.sum((predictions == 0) & (targets == 1)))
    if tp == 0:
        return 0.0
    precision = tp / (tp + fp)
    recall = tp / (tp + fn)
    return float(2 * precision * recall / (precision + recall))


def pearson_corr(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Pearson correlation coefficient."""
    predictions = np.asarray(predictions, dtype=float).reshape(-1)
    targets = np.asarray(targets, dtype=float).reshape(-1)
    _check_lengths(predictions, targets)
    if np.std(predictions) < 1e-12 or np.std(targets) < 1e-12:
        return 0.0
    return float(np.corrcoef(predictions, targets)[0, 1])


def _rankdata(values: np.ndarray) -> np.ndarray:
    """Average-rank transform (ties share the mean of their positional ranks)."""
    values = np.asarray(values, dtype=float).reshape(-1)
    order = np.argsort(values, kind="mergesort")
    ranks = np.empty(len(values), dtype=float)
    ranks[order] = np.arange(1, len(values) + 1, dtype=float)
    # average ties
    unique_vals, inverse, counts = np.unique(values, return_inverse=True, return_counts=True)
    sums = np.zeros(len(unique_vals))
    np.add.at(sums, inverse, ranks)
    return sums[inverse] / counts[inverse]


def spearman_corr(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Spearman rank correlation."""
    return pearson_corr(_rankdata(predictions), _rankdata(targets))


def pearson_spearman(predictions: np.ndarray, targets: np.ndarray) -> float:
    """Average of Pearson and Spearman correlations (STS-B's GLUE metric)."""
    return 0.5 * (pearson_corr(predictions, targets) + spearman_corr(predictions, targets))


def glue_metric(name: str, predictions: np.ndarray, targets: np.ndarray) -> float:
    """Dispatch to the metric a proxy GLUE task reports, scaled to [0, 100]."""
    name = name.lower()
    if name == "accuracy":
        return 100.0 * accuracy(predictions, targets)
    if name == "matthews":
        return 100.0 * matthews_corrcoef(predictions, targets)
    if name == "f1":
        return 100.0 * f1_score(predictions, targets)
    if name == "pearson_spearman":
        return 100.0 * pearson_spearman(predictions, targets)
    raise KeyError(f"unknown GLUE metric {name!r}")


# ---------------------------------------------------------------------------
# detection metrics
# ---------------------------------------------------------------------------

def box_iou(box_a: np.ndarray, box_b: np.ndarray) -> float:
    """IoU of two boxes given as (cx, cy, w, h) in shared units."""
    ax0, ay0 = box_a[0] - box_a[2] / 2, box_a[1] - box_a[3] / 2
    ax1, ay1 = box_a[0] + box_a[2] / 2, box_a[1] + box_a[3] / 2
    bx0, by0 = box_b[0] - box_b[2] / 2, box_b[1] - box_b[3] / 2
    bx1, by1 = box_b[0] + box_b[2] / 2, box_b[1] + box_b[3] / 2
    inter_w = max(0.0, min(ax1, bx1) - max(ax0, bx0))
    inter_h = max(0.0, min(ay1, by1) - max(ay0, by0))
    inter = inter_w * inter_h
    union = box_a[2] * box_a[3] + box_b[2] * box_b[3] - inter
    if union <= 0:
        return 0.0
    return float(inter / union)


def _box_iou_rows(boxes_a: np.ndarray, boxes_b: np.ndarray) -> np.ndarray:
    """:func:`box_iou` of each row pair of two (K, 4) arrays, bitwise: python's
    ``min``/``max`` become selects, as ``max(0.0, nan)`` is 0.0, not nan."""
    a0, a1, a2, a3 = boxes_a.T
    b0, b1, b2, b3 = boxes_b.T
    ax0, ay0 = a0 - a2 / 2, a1 - a3 / 2
    ax1, ay1 = a0 + a2 / 2, a1 + a3 / 2
    bx0, by0 = b0 - b2 / 2, b1 - b3 / 2
    bx1, by1 = b0 + b2 / 2, b1 + b3 / 2
    inter_w = np.where(bx1 < ax1, bx1, ax1) - np.where(bx0 > ax0, bx0, ax0)
    inter_h = np.where(by1 < ay1, by1, ay1) - np.where(by0 > ay0, by0, ay0)
    inter = np.where(inter_w > 0.0, inter_w, 0.0) * np.where(inter_h > 0.0, inter_h, 0.0)
    union = a2 * a3 + b2 * b3 - inter
    return np.divide(inter, union, out=np.zeros_like(union), where=~(union <= 0))


def detection_average_precision(
    predictions: np.ndarray,
    targets: np.ndarray,
    iou_threshold: float = 0.5,
) -> float:
    """mAP proxy for grid detectors, in percent.

    ``predictions`` and ``targets`` are (N, G, G, 5 + C) arrays in the format
    of :func:`repro.data.synthetic.make_detection_scenes`.  Every cell of every
    image is treated as a candidate detection scored by its (sigmoid)
    objectness; a candidate is a true positive if its cell contains an object,
    its predicted class matches, and the predicted box overlaps the target box
    with IoU >= ``iou_threshold``.  The returned value is 100x the area under
    the precision-recall curve (11-point interpolation).
    """
    predictions = np.asarray(predictions, dtype=float)
    targets = np.asarray(targets, dtype=float)
    if predictions.shape != targets.shape:
        raise ValueError(f"shape mismatch: {predictions.shape} vs {targets.shape}")
    n, g, _, channels = predictions.shape
    num_classes = channels - 5
    if num_classes < 1:
        raise ValueError("predictions must have at least one class channel")

    obj_scores = 1.0 / (1.0 + np.exp(-predictions[..., 4]))
    pred_classes = predictions[..., 5:].argmax(axis=-1)
    target_has_obj = targets[..., 4] > 0.5
    target_classes = targets[..., 5:].argmax(axis=-1)
    total_positives = int(target_has_obj.sum())
    if total_positives == 0:
        return 0.0

    order = np.argsort(-obj_scores.reshape(-1))
    candidates = target_has_obj & (pred_classes == target_classes)
    hits = np.zeros(obj_scores.shape, dtype=bool)
    ious = _box_iou_rows(predictions[candidates, :4], targets[candidates, :4])
    hits[candidates] = ious >= iou_threshold
    tp_flags = hits.reshape(-1)[order]

    tp_cum = np.cumsum(tp_flags)
    fp_cum = np.cumsum(~tp_flags)
    recalls = tp_cum / total_positives
    precisions = tp_cum / np.maximum(tp_cum + fp_cum, 1)

    # 11-point interpolated AP (Pascal VOC 2007 style).
    ap = 0.0
    for r in np.linspace(0.0, 1.0, 11):
        mask = recalls >= r
        ap += float(precisions[mask].max()) if mask.any() else 0.0
    return 100.0 * ap / 11.0
