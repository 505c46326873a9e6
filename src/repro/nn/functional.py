"""Functional neural-network operations built on :class:`repro.nn.tensor.Tensor`.

Convolution and pooling use im2col so the heavy lifting stays inside numpy's
BLAS-backed matmul (per the project's "vectorize, don't loop" guideline).

Every workspace here (im2col/col2im buffers, GEMM outputs, dropout masks,
scatter targets) is drawn from the active :class:`~repro.nn.plan.GraphPlan`'s
arena when a trainer has one active, so the steady-state training step reuses
the same memory instead of re-allocating it; with no plan the identical
kernels run with fresh allocations and produce bitwise-identical values.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.nn import plan as _plan
from repro.nn.dtype import active_emulation, get_default_dtype
from repro.nn.tensor import Tensor, is_grad_enabled

__all__ = [
    "linear",
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "embedding",
    "dropout",
    "batch_norm",
    "layer_norm",
    "one_hot",
    "im2col",
    "col2im",
    "softmax",
    "log_softmax",
]


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` with ``weight`` of shape (out, in).

    Seed-batched path: a weight of shape (S, out, in) (``weight.seed_dim = S``)
    maps an (S, ..., in) input with one stacked ``np.matmul`` — per seed the
    BLAS call sees exactly the shapes of the serial path, so each seed's slice
    is bitwise identical to its stand-alone run.
    """
    if weight.seed_dim is not None:
        w = weight.swapaxes(-1, -2)  # (S, in, out)
        if x.ndim > 3:
            # align the seed axis for batched matmul over extra leading dims
            # (e.g. (S, N, T, in) @ (S, 1, in, out))
            w = w.reshape(w.shape[0], *([1] * (x.ndim - 3)), w.shape[-2], w.shape[-1])
        out = x @ w
        if bias is not None:
            # (S, out) -> (S, 1, ..., 1, out) so broadcasting stays per-seed
            shape = (bias.shape[0],) + (1,) * (out.ndim - 2) + (bias.shape[-1],)
            out = out + bias.reshape(*shape)
        return out
    if x.ndim < 2 or x.data.dtype != weight.data.dtype or (
        bias is not None and bias.data.dtype != x.data.dtype
    ) or active_emulation() is not None:
        # rare shapes/dtypes keep the composed ops: matmul handles the rank
        # cases, and a mixed-dtype layer must *promote* (the fused in-place
        # bias add below would silently downcast a wider bias).  Emulated
        # dtypes also take this path: cast-on-store quantizes at every graph
        # node, and the seed-batched branch above is a matmul node *then* an
        # add node — the fused single-node path below would round once where
        # the batched path rounds twice, breaking per-seed bitwise equality.
        out = x @ weight.T
        if bias is not None:
            out = out + bias
        return out
    # Fused serial path: one graph node for ``x @ W.T (+ bias)`` instead of a
    # transpose node + matmul node + add node rebuilt every step.  Each numpy
    # call below is exactly the call the composed ops made (the GEMMs see the
    # same arrays in the same layout), so values — and the per-seed slices of
    # the batched path above, which mirrors the composed chain — stay bitwise
    # identical; only the python/graph dispatch shrinks.
    a, w = x.data, weight.data
    out_data = _gemm(a, w.T, a.shape[:-1] + (w.shape[0],))
    if bias is not None:
        out_data += bias.data
    requires_grad = x.requires_grad or weight.requires_grad or (
        bias is not None and bias.requires_grad
    )
    prev = (x, weight) + ((bias,) if bias is not None else ())
    out = Tensor(out_data, requires_grad=requires_grad, _prev=prev)

    def _backward() -> None:
        if out.grad is None:
            return
        g = out.grad
        if x.requires_grad:
            x._accumulate(_gemm(g, w, g.shape[:-1] + (w.shape[1],)), own=True)
        if weight.requires_grad:
            # (x^T @ g) then transpose, matching the composed chain's GEMM and
            # copy orientation (bitwise-relevant: the batched path reduces the
            # same way per seed)
            at = np.swapaxes(a, -1, -2)
            grad_wt = _gemm(at, g, at.shape[:-1] + (g.shape[-1],))
            weight._accumulate(np.swapaxes(grad_wt, -1, -2))
        if bias is not None and bias.requires_grad:
            bias._accumulate(g)

    out._backward = _backward
    _plan.tag(out, "linear")
    return out


def one_hot(labels: np.ndarray, num_classes: int) -> np.ndarray:
    """Return a float one-hot matrix for integer class labels."""
    labels = np.asarray(labels, dtype=np.int64)
    if labels.ndim != 1:
        labels = labels.reshape(-1)
    if labels.size and (labels.min() < 0 or labels.max() >= num_classes):
        raise ValueError(
            f"labels must lie in [0, {num_classes}); got range "
            f"[{labels.min()}, {labels.max()}]"
        )
    out = _zeros((labels.shape[0], num_classes), get_default_dtype())
    out[np.arange(labels.shape[0]), labels] = 1.0
    return out


def softmax(x: Tensor, axis: int = -1) -> Tensor:
    return x.softmax(axis=axis)


def log_softmax(x: Tensor, axis: int = -1) -> Tensor:
    return x.log_softmax(axis=axis)


# ---------------------------------------------------------------------------
# arena-staged workspace helpers (shared by conv, pooling, embedding, dropout)
# ---------------------------------------------------------------------------

def _empty(shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """``np.empty`` from the arena when a plan is active, fresh otherwise."""
    plan = _plan.ACTIVE
    if plan is not None:
        return plan.checkout(shape, dtype)
    return np.empty(shape, dtype)


def _zeros(shape: tuple[int, ...], dtype: np.dtype) -> np.ndarray:
    """``np.zeros`` from the arena (checked out, then cleared in place)."""
    plan = _plan.ACTIVE
    if plan is not None:
        buf = plan.checkout(shape, dtype)
        buf.fill(0)
        return buf
    return np.zeros(shape, dtype)


def _gemm(a: np.ndarray, b: np.ndarray, shape: tuple[int, ...]) -> np.ndarray:
    """``a @ b`` with a known result ``shape``, staged through the arena."""
    plan = _plan.ACTIVE
    if plan is not None and a.dtype == b.dtype:
        return np.matmul(a, b, out=plan.checkout(shape, a.dtype))
    return np.matmul(a, b)


# ---------------------------------------------------------------------------
# im2col-based convolution
# ---------------------------------------------------------------------------

def _conv_output_size(size: int, kernel: int, stride: int, padding: int) -> int:
    out = (size + 2 * padding - kernel) // stride + 1
    if out <= 0:
        raise ValueError(
            f"convolution output size is non-positive (input={size}, kernel={kernel}, "
            f"stride={stride}, padding={padding})"
        )
    return out


def im2col(
    x: np.ndarray, kernel_h: int, kernel_w: int, stride: int, padding: int
) -> tuple[np.ndarray, int, int]:
    """Unfold an NCHW array into columns of shape (N, C*kh*kw, out_h*out_w)."""
    n, c, h, w = x.shape
    out_h = _conv_output_size(h, kernel_h, stride, padding)
    out_w = _conv_output_size(w, kernel_w, stride, padding)
    plan = _plan.ACTIVE
    if padding > 0:
        if plan is not None:
            padded = _zeros((n, c, h + 2 * padding, w + 2 * padding), x.dtype)
            padded[:, :, padding:-padding, padding:-padding] = x
            x = padded
        else:
            x = np.pad(x, ((0, 0), (0, 0), (padding, padding), (padding, padding)))

    # Strided sliding-window view, then one gathering copy into column layout.
    s0, s1, s2, s3 = x.strides
    windows = np.lib.stride_tricks.as_strided(
        x,
        shape=(n, c, out_h, out_w, kernel_h, kernel_w),
        strides=(s0, s1, s2 * stride, s3 * stride, s2, s3),
        writeable=False,
    )
    src = windows.transpose(0, 1, 4, 5, 2, 3)
    if plan is not None:
        cols = plan.checkout((n, c * kernel_h * kernel_w, out_h * out_w), x.dtype)
        np.copyto(cols.reshape(n, c, kernel_h, kernel_w, out_h, out_w), src)
    else:
        cols = np.ascontiguousarray(
            src.reshape(n, c * kernel_h * kernel_w, out_h * out_w)
        )
    return cols, out_h, out_w


def col2im(
    cols: np.ndarray,
    input_shape: tuple[int, int, int, int],
    kernel_h: int,
    kernel_w: int,
    stride: int,
    padding: int,
) -> np.ndarray:
    """Fold columns back into an NCHW array (adjoint of :func:`im2col`).

    With ``padding > 0`` the returned array is a view into the (possibly
    arena-owned) padded scatter buffer.
    """
    n, c, h, w = input_shape
    out_h = _conv_output_size(h, kernel_h, stride, padding)
    out_w = _conv_output_size(w, kernel_w, stride, padding)
    padded = _zeros((n, c, h + 2 * padding, w + 2 * padding), cols.dtype)
    cols6 = cols.reshape(n, c, kernel_h, kernel_w, out_h, out_w)
    for i in range(kernel_h):
        i_end = i + stride * out_h
        for j in range(kernel_w):
            j_end = j + stride * out_w
            padded[:, :, i:i_end:stride, j:j_end:stride] += cols6[:, :, i, j, :, :]
    if padding > 0:
        return padded[:, :, padding:-padding, padding:-padding]
    return padded


def _conv2d_batched(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None,
    stride: int,
    padding: int,
) -> Tensor:
    """Seed-batched convolution: (S, N, C, H, W) input, (S, O, C, kh, kw) weight.

    One **stacked GEMM** covers all S seeds: the (S·N)-image batch goes
    through a single im2col, and one broadcast ``np.matmul`` of
    ``(S, 1, O, F) @ (S, N, F, P)`` dispatches S·N BLAS GEMMs of exactly the
    serial path's shapes — so each seed's slice stays bitwise identical to
    its stand-alone run while the python/graph dispatch is paid once.  (The
    previous implementation chunked im2col/GEMM/col2im per seed in a python
    loop, which made seed-batching *slower* than serial for conv models.)
    The im2col/col2im workspaces and GEMM outputs are arena-staged, shared
    with the serial path's buffers via :mod:`repro.nn.plan`.
    """
    if x.ndim != 5:
        raise ValueError(f"seed-batched conv2d expects (S, N, C, H, W) input, got {x.shape}")
    s, n, c, h, w = x.shape
    _, out_c, in_c, kh, kw = weight.shape
    if in_c != c:
        raise ValueError(f"input has {c} channels but weight expects {in_c}")

    feat = c * kh * kw
    x_flat = x.data.reshape(s * n, c, h, w)
    cols, out_h, out_w = im2col(x_flat, kh, kw, stride, padding)
    pos = out_h * out_w
    cols4 = cols.reshape(s, n, feat, pos)
    w_mats = weight.data.reshape(s, 1, out_c, feat)
    out_data = _gemm(w_mats, cols4, (s, n, out_c, pos))
    out_data = out_data.reshape(s, n, out_c, out_h, out_w)
    if bias is not None:
        out_data += bias.data.reshape(s, 1, out_c, 1, 1)

    requires_grad = x.requires_grad or weight.requires_grad or (
        bias is not None and bias.requires_grad
    )
    prev = (x, weight) + ((bias,) if bias is not None else ())
    out = Tensor(out_data, requires_grad=requires_grad, _prev=prev)

    def _backward() -> None:
        if out.grad is None:
            return
        grad_out = out.grad.reshape(s, n, out_c, pos)
        if bias is not None and bias.requires_grad:
            # tiny per-seed reduction loop: keeps each seed's summation order
            # exactly the serial path's
            grad_b = np.empty((s, out_c), dtype=grad_out.dtype)
            for i in range(s):
                grad_b[i] = grad_out[i].sum(axis=(0, 2))
            bias._accumulate(grad_b, own=True)
        if weight.requires_grad:
            prod = _gemm(grad_out, cols4.transpose(0, 1, 3, 2), (s, n, out_c, feat))
            grad_w = _empty((s, out_c, feat), prod.dtype)
            for i in range(s):
                np.sum(prod[i], axis=0, out=grad_w[i])
            weight._accumulate(grad_w.reshape(weight.shape), own=True)
        if x.requires_grad:
            w_t = w_mats.transpose(0, 1, 3, 2)
            grad_cols = _gemm(w_t, grad_out, (s, n, feat, pos))
            folded = col2im(
                grad_cols.reshape(s * n, feat, pos), (s * n, c, h, w), kh, kw, stride, padding
            )
            if folded.flags.c_contiguous:
                grad_x = folded.reshape(s, n, c, h, w)
            else:
                grad_x = _empty((s, n, c, h, w), folded.dtype)
                np.copyto(grad_x.reshape(s * n, c, h, w), folded)
            x._accumulate(grad_x, own=True)

    out._backward = _backward
    _plan.tag(out, "conv2d_batched")
    return out


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2D convolution for NCHW input and (out_c, in_c, kh, kw) weights.

    With a seed-stacked weight (``weight.seed_dim = S``) the input carries a
    leading seed axis and the work is dispatched as one stacked GEMM; see
    :func:`_conv2d_batched`.
    """
    if weight.seed_dim is not None:
        return _conv2d_batched(x, weight, bias, stride, padding)
    if x.ndim != 4:
        raise ValueError(f"conv2d expects NCHW input, got shape {x.shape}")
    if weight.ndim != 4:
        raise ValueError(f"conv2d expects 4D weight, got shape {weight.shape}")
    n, c, h, w = x.shape
    out_c, in_c, kh, kw = weight.shape
    if in_c != c:
        raise ValueError(f"input has {c} channels but weight expects {in_c}")

    cols, out_h, out_w = im2col(x.data, kh, kw, stride, padding)
    feat = c * kh * kw
    pos = out_h * out_w
    w_mat = weight.data.reshape(out_c, feat)
    # Batched matmul instead of einsum: (o,f) @ (n,f,p) dispatches to BLAS,
    # which is the difference between C loops and vectorised kernels on the
    # hottest op of every conv model.
    out_data = _gemm(w_mat, cols, (n, out_c, pos))
    out_data = out_data.reshape(n, out_c, out_h, out_w)
    if bias is not None:
        out_data += bias.data.reshape(1, out_c, 1, 1)

    requires_grad = x.requires_grad or weight.requires_grad or (
        bias is not None and bias.requires_grad
    )
    prev = (x, weight) + ((bias,) if bias is not None else ())
    out = Tensor(out_data, requires_grad=requires_grad, _prev=prev)

    def _backward() -> None:
        if out.grad is None:
            return
        grad_out = out.grad.reshape(n, out_c, pos)
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad_out.sum(axis=(0, 2)), own=True)
        if weight.requires_grad:
            # sum_n grad_out[n] @ cols[n].T, again as a BLAS batched matmul
            prod = _gemm(grad_out, cols.transpose(0, 2, 1), (n, out_c, feat))
            plan = _plan.ACTIVE
            if plan is not None:
                grad_w = np.sum(prod, axis=0, out=plan.checkout((out_c, feat), prod.dtype))
            else:
                grad_w = prod.sum(axis=0)
            weight._accumulate(grad_w.reshape(weight.shape), own=True)
        if x.requires_grad:
            grad_cols = _gemm(w_mat.T, grad_out, (n, feat, pos))
            grad_x = col2im(grad_cols, (n, c, h, w), kh, kw, stride, padding)
            x._accumulate(grad_x, own=True)

    out._backward = _backward
    _plan.tag(out, "conv2d")
    return out


# ---------------------------------------------------------------------------
# normalisation
# ---------------------------------------------------------------------------

def _normalize(
    x: Tensor,
    weight: Tensor,
    bias: Tensor,
    axes: tuple[int, ...],
    param_axes: tuple[int, ...],
    eps: float,
    kind: str,
    stats: tuple[np.ndarray, np.ndarray] | None = None,
) -> tuple[Tensor, np.ndarray, np.ndarray]:
    """``(x - mean) / sqrt(var + eps) * weight + bias`` as one graph node.

    Statistics reduce over ``axes``; the affine parameters vary along every
    axis not in ``param_axes`` (they are reshaped to broadcast against
    ``x``).  With ``stats=None`` the mean and biased variance come from
    ``x`` itself and the backward is the closed form through them:

    * ``grad_bias = Σ g`` and ``grad_weight = Σ g·x̂`` over ``param_axes``;
    * ``dx = inv_std · (h − mean(h) − x̂ · mean(h·x̂))`` with ``h = g·weight``
      and means over ``axes``.

    With ``stats=(mean, var)`` (BatchNorm in eval mode: the running buffers,
    shaped like the parameters) the statistics are constants and
    ``dx = g·weight / std``.  Returns the output together with
    the mean and variance used, shaped to broadcast against ``x``.

    Every full-size workspace — ``x̂`` (kept only when a gradient will be
    asked for) and the output — is checked out before the output node is
    registered, so a plan's ``alias`` pass keeps them alive until this
    node's backward has run.  Forward values are those of the composed ops
    (centre, square, mean, ``(var + eps) ** 0.5``, divide, scale, shift).
    Reductions run over the same axes whatever the seed stacking, so each
    seed's slice of a stacked call is bitwise its stand-alone call.
    """
    a = x.data
    dt = np.result_type(a.dtype, weight.data.dtype, bias.data.dtype)
    param_shape = tuple(1 if i in param_axes else n for i, n in enumerate(a.shape))
    w = weight.data.reshape(param_shape)
    b = bias.data.reshape(param_shape)
    count = math.prod(a.shape[i] for i in axes)
    scale = dt.type(1.0 / count)
    requires_grad = x.requires_grad or weight.requires_grad or bias.requires_grad
    tracked = requires_grad and is_grad_enabled()
    x_hat = _empty(a.shape, dt) if tracked else None
    out_data = _empty(a.shape, dt)
    centered = x_hat if x_hat is not None else out_data
    if stats is None:
        mean = a.sum(axis=axes, keepdims=True) * scale
        np.subtract(a, mean, out=centered)
        # the output buffer doubles as the squares' scratch space
        squares = out_data if x_hat is not None else _empty(a.shape, dt)
        np.multiply(centered, centered, out=squares)
        var = squares.sum(axis=axes, keepdims=True) * scale
        std = np.power(var + dt.type(eps), 0.5)
    else:
        mean, var = (stat.reshape(param_shape) for stat in stats)
        std = np.sqrt(var + eps).astype(dt, copy=False)
        np.subtract(a, mean.astype(dt, copy=False), out=centered)
    np.true_divide(centered, std, out=centered)
    np.multiply(centered, w, out=out_data)
    np.add(out_data, b, out=out_data)
    out = Tensor(out_data, requires_grad=requires_grad, _prev=(x, weight, bias))

    def _backward() -> None:
        g = out.grad
        if g is None:
            return
        grad_b = g.sum(axis=param_axes, keepdims=True) if bias.requires_grad else None
        grad_w = None
        if weight.requires_grad or x.requires_grad:
            t = _empty(g.shape, dt)
            np.multiply(g, x_hat, out=t)
            if weight.requires_grad:
                grad_w = t.sum(axis=param_axes, keepdims=True)
            if x.requires_grad:
                if stats is not None:
                    np.multiply(g, w, out=t)
                    t /= std
                elif param_axes == axes:
                    # BatchNorm: the weight is constant over the statistics'
                    # axes, so mean(g·w) = w·mean(g) and the parameter sums
                    # are the means' sums
                    sum_gx = grad_w if grad_w is not None else t.sum(axis=axes, keepdims=True)
                    sum_g = grad_b if grad_b is not None else g.sum(axis=axes, keepdims=True)
                    np.multiply(x_hat, sum_gx * scale, out=t)
                    np.subtract(g, t, out=t)
                    t -= sum_g * scale
                    t *= w / std
                else:
                    # LayerNorm: the weight varies along the normalised axis
                    t *= w
                    sum_hx = t.sum(axis=axes, keepdims=True)
                    h = _empty(g.shape, dt)
                    np.multiply(g, w, out=h)
                    sum_h = h.sum(axis=axes, keepdims=True)
                    np.multiply(x_hat, sum_hx * scale, out=t)
                    np.subtract(h, t, out=t)
                    t -= sum_h * scale
                    t /= std
                x._accumulate(t, own=True)
        # parameter gradients last: adopting them lets a leaf's cast-on-store
        # round them in place, after dx has used them
        if grad_w is not None:
            weight._accumulate(grad_w.reshape(weight.shape), own=True)
        if grad_b is not None:
            bias._accumulate(grad_b.reshape(bias.shape), own=True)

    out._backward = _backward
    _plan.tag(out, kind)
    return out, mean, var


def batch_norm(
    x: Tensor,
    weight: Tensor,
    bias: Tensor,
    running_mean: np.ndarray,
    running_var: np.ndarray,
    axes: tuple[int, ...],
    training: bool,
    momentum: float = 0.1,
    eps: float = 1e-5,
) -> Tensor:
    """Batch normalisation over ``axes`` with per-channel affine parameters.

    In training mode the batch statistics normalise ``x`` and update the
    running buffers in place (``running = (1 - momentum)·running +
    momentum·batch``, biased variance); in eval mode the running buffers
    normalise ``x``.  For a seed-stacked input ``axes`` excludes the seed
    axis, so statistics, parameters and the (S, C) running buffers all stay
    per-seed.  One graph node (see :func:`_normalize`).
    """
    if training:
        out, mean, var = _normalize(x, weight, bias, axes, axes, eps, "batchnorm")
        running_mean *= 1.0 - momentum
        running_mean += momentum * mean.reshape(running_mean.shape)
        running_var *= 1.0 - momentum
        running_var += momentum * var.reshape(running_var.shape)
        return out
    stats = (running_mean, running_var)
    return _normalize(x, weight, bias, axes, axes, eps, "batchnorm", stats)[0]


def layer_norm(x: Tensor, weight: Tensor, bias: Tensor, eps: float = 1e-5) -> Tensor:
    """Layer normalisation over the last axis (one graph node).

    ``weight``/``bias`` are (D,), or (S, D) when seed-stacked against an
    (S, ..., D) input.
    """
    last = x.ndim - 1
    first = 0 if weight.seed_dim is None else 1
    return _normalize(x, weight, bias, (last,), tuple(range(first, last)), eps, "layernorm")[0]


# ---------------------------------------------------------------------------
# pooling
# ---------------------------------------------------------------------------

def _pool_slab(x: Tensor) -> np.ndarray:
    """A (rows, 1, H, W) view of the pooling input.

    Pooling is per-image, per-channel work, so the batch — and, for a
    seed-stacked (S, N, C, H, W) input, all S seeds at once — flattens into
    one slab that a single im2col/scatter pass handles.  Per-seed values are
    bitwise identical to the serial path's because every kernel involved
    operates row-independently.
    """
    if x.seed_dim is not None:
        if x.ndim != 5:
            raise ValueError(f"pooling expects (S, N, C, H, W) input, got shape {x.shape}")
        s, n, c, h, w = x.shape
        return x.data.reshape(s * n * c, 1, h, w)
    if x.ndim != 4:
        raise ValueError(f"pooling expects NCHW input, got shape {x.shape}")
    n, c, h, w = x.shape
    return x.data.reshape(n * c, 1, h, w)


def max_pool2d(x: Tensor, kernel_size: int, stride: int | None = None) -> Tensor:
    """Max pooling over windows of an NCHW (or seed-batched S,N,C,H,W) tensor."""
    stride = stride or kernel_size
    slab = _pool_slab(x)
    cols, out_h, out_w = im2col(slab, kernel_size, kernel_size, stride, 0)
    rows, _, pos = cols.shape
    plan = _plan.ACTIVE
    if plan is not None:
        argmax = np.argmax(cols, axis=1, out=plan.checkout((rows, pos), np.dtype(np.intp)))
        pooled = np.amax(cols, axis=1, out=plan.checkout((rows, pos), cols.dtype))
    else:
        argmax = cols.argmax(axis=1)
        pooled = np.amax(cols, axis=1)
    out_shape = x.shape[:-2] + (out_h, out_w)
    out = Tensor(pooled.reshape(out_shape), requires_grad=x.requires_grad, _prev=(x,))

    def _backward() -> None:
        if out.grad is None or not x.requires_grad:
            return
        grad_cols = _zeros(cols.shape, cols.dtype)
        np.put_along_axis(
            grad_cols, argmax[:, None, :], out.grad.reshape(rows, 1, pos), axis=1
        )
        folded = col2im(grad_cols, slab.shape, kernel_size, kernel_size, stride, 0)
        x._accumulate(folded.reshape(x.shape), own=True)

    out._backward = _backward
    _plan.tag(out, "max_pool2d")
    return out


def avg_pool2d(x: Tensor, kernel_size: int, stride: int | None = None) -> Tensor:
    """Average pooling over windows of an NCHW (or seed-batched) tensor."""
    stride = stride or kernel_size
    slab = _pool_slab(x)
    window = kernel_size * kernel_size
    cols, out_h, out_w = im2col(slab, kernel_size, kernel_size, stride, 0)
    rows, _, pos = cols.shape
    plan = _plan.ACTIVE
    if plan is not None:
        pooled = np.mean(cols, axis=1, out=plan.checkout((rows, pos), cols.dtype))
    else:
        pooled = cols.mean(axis=1)
    out_shape = x.shape[:-2] + (out_h, out_w)
    out = Tensor(pooled.reshape(out_shape), requires_grad=x.requires_grad, _prev=(x,))

    def _backward() -> None:
        if out.grad is None or not x.requires_grad:
            return
        grad_view = out.grad.reshape(rows, 1, pos)
        plan_b = _plan.ACTIVE
        if plan_b is not None:
            scaled = np.true_divide(
                grad_view, window, out=plan_b.checkout((rows, 1, pos), grad_view.dtype)
            )
            grad_cols = plan_b.checkout((rows, window, pos), grad_view.dtype)
            np.copyto(grad_cols, scaled)
        else:
            scaled = grad_view / window
            grad_cols = np.broadcast_to(scaled, (rows, window, pos)).copy()
        folded = col2im(grad_cols, slab.shape, kernel_size, kernel_size, stride, 0)
        x._accumulate(folded.reshape(x.shape), own=True)

    out._backward = _backward
    _plan.tag(out, "avg_pool2d")
    return out


def global_avg_pool2d(x: Tensor) -> Tensor:
    """Average over spatial dimensions, returning (N, C) — or (S, N, C) batched."""
    if x.seed_dim is not None:
        if x.ndim != 5:
            raise ValueError(
                f"seed-batched global_avg_pool2d expects (S, N, C, H, W), got shape {x.shape}"
            )
        return x.mean(axis=(3, 4))
    if x.ndim != 4:
        raise ValueError(f"global_avg_pool2d expects NCHW input, got shape {x.shape}")
    pooled = x.mean(axis=(2, 3))
    return pooled


# ---------------------------------------------------------------------------
# embeddings and dropout
# ---------------------------------------------------------------------------

def embedding(indices: np.ndarray, weight: Tensor) -> Tensor:
    """Look up rows of ``weight`` for integer ``indices`` (any leading shape).

    With a seed-stacked weight (S, vocab, dim), ``indices`` carries a leading
    seed axis (S, ...) and seed *s* gathers from its own table ``weight[s]``.
    """
    indices = np.asarray(indices, dtype=np.int64)
    if weight.seed_dim is not None:
        num_seeds = weight.seed_dim
        vocab, dim = weight.shape[1], weight.shape[2]
        if indices.ndim < 1 or indices.shape[0] != num_seeds:
            raise ValueError(
                f"seed-batched embedding expects (S, ...) indices with S={num_seeds}, "
                f"got shape {indices.shape}"
            )
        if indices.size and (indices.min() < 0 or indices.max() >= vocab):
            raise ValueError(f"token index out of range [0, {vocab})")
        seed_sel = np.arange(num_seeds).reshape((num_seeds,) + (1,) * (indices.ndim - 1))
        out = Tensor(
            weight.data[seed_sel, indices], requires_grad=weight.requires_grad, _prev=(weight,)
        )

        def _backward_batched() -> None:
            if out.grad is None or not weight.requires_grad:
                return
            grad = _zeros(weight.data.shape, weight.data.dtype)
            seeds_flat = np.broadcast_to(seed_sel, indices.shape).reshape(-1)
            np.add.at(grad, (seeds_flat, indices.reshape(-1)), out.grad.reshape(-1, dim))
            weight._accumulate(grad, own=True)

        out._backward = _backward_batched
        _plan.tag(out, "embedding")
        return out

    vocab, dim = weight.shape
    if indices.size and (indices.min() < 0 or indices.max() >= vocab):
        raise ValueError(f"token index out of range [0, {vocab})")
    plan = _plan.ACTIVE
    if plan is not None:
        gathered = np.take(
            weight.data, indices, axis=0, out=plan.checkout(indices.shape + (dim,), weight.dtype)
        )
    else:
        gathered = weight.data[indices]
    out = Tensor(gathered, requires_grad=weight.requires_grad, _prev=(weight,))

    def _backward() -> None:
        if out.grad is None or not weight.requires_grad:
            return
        grad = _zeros(weight.data.shape, weight.data.dtype)
        np.add.at(grad, indices.reshape(-1), out.grad.reshape(-1, dim))
        weight._accumulate(grad, own=True)

    out._backward = _backward
    _plan.tag(out, "embedding")
    return out


def dropout(
    x: Tensor,
    p: float,
    rng: np.random.Generator,
    training: bool = True,
    rngs: Sequence[np.random.Generator] | None = None,
) -> Tensor:
    """Inverted dropout: scales surviving activations by 1/(1-p) at train time.

    ``rngs`` supplies one generator per seed replica for seed-batched inputs:
    seed *s* draws its mask from ``rngs[s]`` over the per-seed shape, so every
    replica consumes exactly the random stream it would consume when trained
    alone.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    plan = _plan.ACTIVE
    if rngs is not None:
        if x.seed_dim is None or x.shape[0] != len(rngs):
            raise ValueError(
                f"per-seed dropout expects a seed-batched input with {len(rngs)} seeds, "
                f"got shape {x.shape}"
            )
        if plan is not None:
            draw = plan.checkout(x.shape[1:], np.dtype(np.float64))
            mask = plan.checkout(x.shape, x.data.dtype)
            for s, r in enumerate(rngs):
                r.random(out=draw)
                np.greater_equal(draw, p, out=mask[s])
        else:
            mask = np.stack([(r.random(x.shape[1:]) >= p) for r in rngs]).astype(x.data.dtype)
    else:
        if plan is not None:
            draw = plan.checkout(x.shape, np.dtype(np.float64))
            rng.random(out=draw)
            mask = np.greater_equal(draw, p, out=plan.checkout(x.shape, x.data.dtype))
        else:
            mask = (rng.random(x.shape) >= p).astype(x.data.dtype)
    mask /= 1.0 - p
    out_data = np.multiply(
        x.data, mask, out=plan.checkout(x.shape, x.data.dtype) if plan is not None else None
    )
    out = Tensor(out_data, requires_grad=x.requires_grad, _prev=(x,))

    def _backward() -> None:
        if out.grad is not None and x.requires_grad:
            g = out.grad
            inner = _plan.ACTIVE
            if inner is not None:
                grad = np.multiply(g, mask, out=inner.checkout(g.shape, g.dtype))
            else:
                grad = g * mask
            x._accumulate(grad, own=True)

    out._backward = _backward
    _plan.tag(out, "dropout")
    return out
