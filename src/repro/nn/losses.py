"""Loss functions used by the paper's workloads.

* cross-entropy — image classification, GLUE classification tasks
* MSE — GLUE regression task (STS-B proxy)
* binary cross-entropy — objectness in the detection proxy
* VAE ELBO (reconstruction + KL) — the VAE-MNIST setting
* detection loss — box regression + objectness + classification, one graph node
"""

from __future__ import annotations

import math

import numpy as np

from repro.nn import plan as _plan
from repro.nn.dtype import active_emulation
from repro.nn.functional import _empty, one_hot
from repro.nn.tensor import Tensor

__all__ = [
    "cross_entropy",
    "mse_loss",
    "binary_cross_entropy_with_logits",
    "vae_loss",
    "detection_loss",
    "l1_loss",
]


def _batch_axes(t: Tensor) -> tuple[int, ...]:
    """All axes except the leading seed axis (for per-seed loss reductions)."""
    return tuple(range(1, t.ndim))


def cross_entropy(logits: Tensor, targets: np.ndarray, label_smoothing: float = 0.0) -> Tensor:
    """Mean cross-entropy between logits (N, C) and integer targets (N,).

    Seed-batched: (S, N, C) logits and (S, N) targets produce an (S,) loss —
    one mean cross-entropy per seed, each bitwise identical to the scalar the
    serial path computes for that seed's slice alone.
    """
    if logits.seed_dim is not None:
        if logits.ndim != 3:
            raise ValueError(
                f"seed-batched cross_entropy expects (S, N, C) logits, got shape {logits.shape}"
            )
        num_seeds, n, num_classes = logits.shape
        targets = np.asarray(targets, dtype=np.int64)
        if targets.shape != (num_seeds, n):
            raise ValueError(
                f"seed-batched targets must have shape {(num_seeds, n)}, got {targets.shape}"
            )
        target_dist = one_hot(targets.reshape(-1), num_classes).reshape(num_seeds, n, num_classes)
        if label_smoothing > 0.0:
            target_dist = (1.0 - label_smoothing) * target_dist + label_smoothing / num_classes
        log_probs = logits.log_softmax(axis=-1)
        nll = -(log_probs * Tensor(target_dist)).sum(axis=-1)
        return nll.mean(axis=-1)
    if logits.ndim != 2:
        raise ValueError(f"cross_entropy expects 2D logits, got shape {logits.shape}")
    n, num_classes = logits.shape
    targets = np.asarray(targets, dtype=np.int64).reshape(-1)
    if targets.shape[0] != n:
        raise ValueError(f"targets length {targets.shape[0]} != batch size {n}")
    target_dist = one_hot(targets, num_classes)
    if label_smoothing > 0.0:
        target_dist = (1.0 - label_smoothing) * target_dist + label_smoothing / num_classes
    log_probs = logits.log_softmax(axis=1)
    nll = -(log_probs * Tensor(target_dist)).sum(axis=1)
    return nll.mean()


def mse_loss(pred: Tensor, target: np.ndarray | Tensor) -> Tensor:
    """Mean squared error (per-seed (S,) vector for seed-batched predictions)."""
    target_t = target if isinstance(target, Tensor) else Tensor(target, dtype=pred.data.dtype)
    diff = pred - target_t
    if pred.seed_dim is not None:
        return (diff * diff).mean(axis=_batch_axes(diff))
    return (diff * diff).mean()


def l1_loss(pred: Tensor, target: np.ndarray | Tensor) -> Tensor:
    """Mean absolute error (per-seed (S,) vector for seed-batched predictions)."""
    target_t = target if isinstance(target, Tensor) else Tensor(target, dtype=pred.data.dtype)
    diff = (pred - target_t).abs()
    if pred.seed_dim is not None:
        return diff.mean(axis=_batch_axes(diff))
    return diff.mean()


def binary_cross_entropy_with_logits(logits: Tensor, targets: np.ndarray | Tensor) -> Tensor:
    """Numerically stable BCE on logits, averaged over all elements.

    Uses the identity ``bce = max(x, 0) - x*t + log(1 + exp(-|x|))``.  For
    seed-batched logits the average is taken per seed, yielding an (S,) loss.
    """
    t = targets.data if isinstance(targets, Tensor) else np.asarray(targets, dtype=logits.data.dtype)
    x = logits
    relu_x = x.relu()
    abs_x = x.abs()
    loss = relu_x - x * Tensor(t) + ((-abs_x).exp() + 1.0).log()
    if logits.seed_dim is not None:
        return loss.mean(axis=_batch_axes(loss))
    return loss.mean()


def vae_loss(
    reconstruction: Tensor,
    target: np.ndarray,
    mu: Tensor,
    logvar: Tensor,
    beta: float = 1.0,
) -> Tensor:
    """Negative ELBO: Bernoulli reconstruction BCE (summed per sample) + beta * KL.

    Matches the standard VAE-on-MNIST objective the paper trains (lower is
    better; the paper's Table 7 reports this generalization loss).  A
    seed-batched (S, N, ...) reconstruction yields an (S,) loss vector.
    """
    if reconstruction.seed_dim is not None:
        num_seeds, n = reconstruction.shape[0], reconstruction.shape[1]
        target_arr = np.asarray(target, dtype=reconstruction.data.dtype).reshape(num_seeds, n, -1)
        recon_flat = reconstruction.reshape(num_seeds, n, -1)
        relu_x = recon_flat.relu()
        abs_x = recon_flat.abs()
        bce = relu_x - recon_flat * Tensor(target_arr) + ((-abs_x).exp() + 1.0).log()
        recon_term = bce.sum(axis=-1).mean(axis=-1)
        kl = (-0.5) * (1.0 + logvar - mu * mu - logvar.exp()).sum(axis=-1).mean(axis=-1)
        return recon_term + beta * kl
    n = reconstruction.shape[0]
    target_arr = np.asarray(target, dtype=reconstruction.data.dtype).reshape(n, -1)
    recon_flat = reconstruction.reshape(n, -1)
    # Stable BCE-with-logits, summed over pixels then averaged over the batch.
    relu_x = recon_flat.relu()
    abs_x = recon_flat.abs()
    bce = relu_x - recon_flat * Tensor(target_arr) + ((-abs_x).exp() + 1.0).log()
    recon_term = bce.sum(axis=1).mean()
    # KL(q(z|x) || N(0, I)) = -0.5 * sum(1 + logvar - mu^2 - exp(logvar))
    kl = (-0.5) * (1.0 + logvar - mu * mu - logvar.exp()).sum(axis=1).mean()
    return recon_term + beta * kl


def detection_loss(
    predictions: Tensor,
    targets: np.ndarray,
    num_classes: int,
    box_weight: float = 5.0,
    noobj_weight: float = 0.5,
) -> Tensor:
    """YOLO-style single-shot detector loss on a grid, as one graph node.

    ``predictions`` (N, G, G, 5+C) holds ``[tx, ty, tw, th, objectness z,
    class logits...]``; ``targets`` has the same shape with a 0/1 objectness
    channel ``m``.  The loss is ``w_box/n_obj·Σ(m·(p_box − t_box))²`` plus the
    objectness BCE ``1/n_cells·Σ w·(max(z, 0) − z·m + log(1 + exp(−|z|)))``
    (``w = noobj_weight`` off objects) plus ``−1/n_obj·Σ log_softmax(p_cls)·t_cls·m``.
    The forward runs the composed ops' ufunc sequence, so its values are theirs;
    the backward is closed form: ``2·w_box/n_obj·g·m·(p_box − t_box)``,
    ``g/n_cells·w·(σ(z) − m)`` and ``g/n_obj·(softmax(p_cls)·Σ(t_cls·m) − t_cls·m)``.
    Seed-batched predictions (S, N, G, G, 5+C) give an (S,) loss whose sums
    and object counts reduce per seed, so each seed's loss is bitwise its
    serial run's.
    """
    batched = predictions.seed_dim is not None
    if predictions.ndim != (5 if batched else 4):
        expected = "(S, N, G, G, 5+C)" if batched else "(N, G, G, 5+C)"
        raise ValueError(f"detection_loss expects {expected}, got {predictions.shape}")
    p, dt = predictions.data, predictions.data.dtype
    t = np.asarray(targets, dtype=dt)
    if t.shape != p.shape:
        raise ValueError(f"target shape {t.shape} does not match predictions {p.shape}")
    emulation = active_emulation()
    if emulation is not None and dt == emulation.storage:
        t = emulation.quantize(t)  # targets enter the loss as leaf data
    axes = (1, 2, 3, 4) if batched else None
    m = t[..., 4:5]
    n_obj = np.maximum(m.sum(axis=axes), 1.0).astype(np.float64)
    box_scale, cls_scale = (box_weight / n_obj).astype(dt), (1.0 / n_obj).astype(dt)
    cells_scale = dt.type(1.0 / math.prod(p.shape[-4:-1]))

    # every workspace the backward reads is checked out before ``out`` registers
    box_diff = np.subtract(p[..., 0:4], t[..., 0:4], out=_empty(p.shape[:-1] + (4,), dt))
    box_diff *= m
    box_sum = np.multiply(box_diff, box_diff, out=_empty(box_diff.shape, dt)).sum(axis=axes)

    z = p[..., 4:5]
    bce, tmp, e, e_plus_1, w_obj = (_empty(z.shape, dt) for _ in range(5))
    np.maximum(z, 0, out=bce)
    bce -= np.multiply(z, m, out=tmp)
    np.exp(np.negative(np.abs(z, out=e), out=e), out=e)
    bce += np.log(np.add(e, 1.0, out=e_plus_1), out=tmp)
    w_obj.fill(noobj_weight)
    np.copyto(w_obj, 1.0, where=m > 0.5)
    obj_sum = np.multiply(bce, w_obj, out=bce).sum(axis=axes)

    logits = p[..., 5:]
    log_probs, tmp, q = (_empty(logits.shape, dt) for _ in range(3))
    np.subtract(logits, logits.max(axis=-1, keepdims=True), out=log_probs)
    log_probs -= np.log(np.sum(np.exp(log_probs, out=tmp), axis=-1, keepdims=True))
    cls_sum = np.multiply(log_probs, np.multiply(t[..., 5:], m, out=q), out=tmp).sum(axis=axes)

    value = box_sum * box_scale + obj_sum * cells_scale + np.negative(cls_sum) * cls_scale
    out = Tensor(np.asarray(value), requires_grad=predictions.requires_grad, _prev=(predictions,))

    def _backward() -> None:
        g = out.grad
        if g is None:
            return
        seed_shape = p.shape[:-4] + (1, 1, 1, 1)
        grad = _empty(p.shape, g.dtype)
        box_grad = np.multiply(box_diff, m, out=grad[..., 0:4])
        box_grad *= (2 * box_scale * g).reshape(seed_shape)
        obj_grad = np.divide(e, e_plus_1, out=grad[..., 4:5])  # σ(−|z|)
        np.subtract(1, obj_grad, out=obj_grad, where=z >= 0)  # σ(z)
        obj_grad -= m
        obj_grad *= w_obj
        obj_grad *= (cells_scale * g).reshape(seed_shape)
        cls_grad = np.exp(log_probs, out=grad[..., 5:])
        cls_grad *= q.sum(axis=-1, keepdims=True)
        cls_grad -= q
        cls_grad *= (cls_scale * g).reshape(seed_shape)
        predictions._accumulate(grad, own=True)

    out._backward = _backward
    _plan.tag(out, "detection_loss")
    return out
