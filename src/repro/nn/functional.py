"""Functional neural-network operations built on :class:`repro.nn.tensor.Tensor`.

Convolution gathers its taps into batch-innermost columns, so each seed's
forward pass and both gradients are one BLAS GEMM each (see :func:`conv2d`);
pooling unfolds windows with :func:`im2col` and folds gradients back with
:func:`col2im` (per the project's "vectorize, don't loop" guideline).

The transformer's layers are single graph nodes too: :func:`linear`,
:func:`gelu`, :func:`attention` (head split to head merge) and
:func:`embedding`, each with a closed-form backward that serves the serial
and the seed-stacked path alike.

Every workspace here (conv columns, im2col/col2im buffers, GEMM outputs,
dropout masks, scatter targets) is drawn from the active
:class:`~repro.nn.plan.GraphPlan`'s arena when a trainer has one active, so
the steady-state training step reuses the same memory instead of
re-allocating it; with no plan the identical kernels run with fresh
allocations and produce bitwise-identical values.
"""

from __future__ import annotations

import math
from typing import Sequence

import numpy as np

from repro.nn import plan as _plan
from repro.nn.dtype import get_default_dtype
from repro.nn.tensor import Tensor, _ew, is_grad_enabled

__all__ = [
    "linear",
    "conv2d",
    "max_pool2d",
    "avg_pool2d",
    "global_avg_pool2d",
    "embedding",
    "dropout",
    "gelu",
    "attention",
    "batch_norm",
    "layer_norm",
    "one_hot",
    "im2col",
    "col2im",
    "softmax",
    "log_softmax",
]


def linear(x: Tensor, weight: Tensor, bias: Tensor | None = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` with ``weight`` of shape (out, in), as one graph node.

    The GEMMs are those of the composed ops: a rank-3+ input multiplies one
    (rows, in) matrix per leading index (batched ``np.matmul``), and the
    weight gradient sums the per-matrix products over the leading axes one
    axis at a time, as broadcasting's reduction did.  Each GEMM stays as
    small as one sequence's — one flattened (N·T, in) GEMM would cross
    OpenBLAS's multithreading threshold and spin a second thread.

    A seed-stacked weight (``weight.seed_dim = S``, shape (S, out, in)) maps
    an (S, ..., in) input in the same single node: every seed's GEMMs and
    reductions see exactly the shapes of its serial call, so each seed's
    slice is bitwise its stand-alone run, cast-on-store rounding included.
    """
    stacked = weight.seed_dim is not None
    lead = x.shape[:1] if stacked else ()
    if x.ndim < len(lead) + 2 or x.data.dtype != weight.data.dtype or (
        bias is not None and bias.data.dtype != x.data.dtype
    ):
        # rare shapes/dtypes keep the composed ops: matmul handles a vector
        # input, and a mixed-dtype layer must *promote*, which the fused
        # in-place bias add below would not (it silently downcasts a wider bias)
        w = weight.swapaxes(-1, -2)
        if stacked:
            w = w.reshape(*lead, *([1] * (x.ndim - 3)), *w.shape[-2:])
        out = x @ w
        if bias is not None:
            if stacked:
                bias = bias.reshape(*lead, *([1] * (out.ndim - 2)), bias.shape[-1])
            out = out + bias
        return out
    a, w = x.data, weight.data
    out_f, in_f = w.shape[-2], w.shape[-1]
    # (S, 1, ..., 1, out, in) so the batched GEMMs pair each seed with its weight
    w_b = w.reshape(lead + (1,) * (a.ndim - 3) + (out_f, in_f)) if stacked else w
    first = len(lead)  # the first axis summed out of the weight and bias gradients
    out_data = _gemm(a, np.swapaxes(w_b, -1, -2), a.shape[:-1] + (out_f,))
    if bias is not None:
        out_data += bias.data.reshape(lead + (1,) * (a.ndim - first - 1) + (out_f,))
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
            x._accumulate(_gemm(g, w_b, g.shape[:-1] + (in_f,)), own=True)
        if weight.requires_grad:
            # (x^T @ g) per matrix, summed over the remaining leading axes,
            # then transposed
            at = np.swapaxes(a, -1, -2)
            grad_wt = _gemm(at, g, at.shape[:-1] + (out_f,))
            grad_wt = _sum_axes(grad_wt, first, grad_wt.ndim - first - 2)
            weight._accumulate(np.swapaxes(grad_wt, -1, -2))
        if bias is not None and bias.requires_grad:
            bias._accumulate(_sum_axes(g, first, g.ndim - first - 1), own=True)

    out._backward = _backward
    _plan.tag(out, "linear")
    return out


def _sum_axes(arr: np.ndarray, axis: int, count: int) -> np.ndarray:
    """Sum out ``count`` axes starting at ``axis``, one axis per reduction.

    One axis at a time is the order broadcasting's gradient reduction
    (:func:`~repro.nn.tensor.unbroadcast`) sums in, so each element
    accumulates its terms in the same sequence on the serial path
    (``axis=0``) and per seed on the stacked path (``axis=1``).
    """
    for _ in range(count):
        shape = arr.shape[:axis] + arr.shape[axis + 1:]
        arr = np.add.reduce(arr, axis=axis, out=_empty(shape, arr.dtype))
    return arr


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
# convolution (batch-innermost GEMM kernel) and the im2col/col2im pooling uses
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


def conv2d(
    x: Tensor,
    weight: Tensor,
    bias: Tensor | None = None,
    stride: int = 1,
    padding: int = 0,
) -> Tensor:
    """2D convolution of NCHW input with (out_c, in_c, kh, kw) weights.

    A seed-stacked weight (``weight.seed_dim = S``, shape (S, O, C, kh, kw))
    convolves an (S, N, C, H, W) input; serial input is the S = 1 case of the
    same batch-innermost kernel.  The input is transposed once into a padded
    (S, C, H+2p, W+2p, N) buffer (only the pad border is zeroed), one strided
    copy gathers the kh·kw taps into (S, C·kh·kw, P·N) columns, and the
    forward pass, the weight gradient (K = P·N) and the data gradient are one
    GEMM per seed each, so every seed runs exactly its serial call's GEMMs and
    reductions.  The data gradient folds back tap by tap into a padded
    batch-innermost buffer, transposed back to NCHW.  The columns are checked
    out before the output registers, so a plan's ``alias`` pass keeps them
    alive until this node's backward.
    """
    if weight.seed_dim is not None:
        if x.ndim != 5:
            raise ValueError(f"seed-batched conv2d expects (S, N, C, H, W) input, got {x.shape}")
        s, n, c, h, w = x.shape
        _, out_c, in_c, kh, kw = weight.shape
    else:
        if x.ndim != 4:
            raise ValueError(f"conv2d expects NCHW input, got shape {x.shape}")
        if weight.ndim != 4:
            raise ValueError(f"conv2d expects 4D weight, got shape {weight.shape}")
        s = 1
        n, c, h, w = x.shape
        out_c, in_c, kh, kw = weight.shape
    if in_c != c:
        raise ValueError(f"input has {c} channels but weight expects {in_c}")
    out_h, out_w = _conv_output_size(h, kh, stride, padding), _conv_output_size(w, kw, stride, padding)
    feat, cols_n = c * kh * kw, out_h * out_w * n
    p, hp, wp = padding, h + 2 * padding, w + 2 * padding

    a = x.data
    padded = _empty((s, c, hp, wp, n), a.dtype)
    if p:
        padded[:, :, :p] = padded[:, :, hp - p:] = padded[:, :, :, :p] = padded[:, :, :, wp - p:] = 0
    padded[:, :, p:p + h, p:p + w] = a.reshape(s, n, c, h, w).transpose(0, 2, 3, 4, 1)
    s0, s1, s2, s3, s4 = padded.strides
    taps = np.lib.stride_tricks.as_strided(padded, (s, c, kh, kw, out_h, out_w, n), (
        s0, s1, s2, s3, s2 * stride, s3 * stride, s4), writeable=False)
    cols = _empty((s, feat, cols_n), a.dtype)
    np.copyto(cols.reshape(taps.shape), taps)
    w_mats = weight.data.reshape(s, out_c, feat)
    prod = _gemm(w_mats, cols, (s, out_c, cols_n))
    out_data = _empty(a.shape[:-3] + (out_c, out_h, out_w), prod.dtype)
    nchw = prod.reshape(s, out_c, out_h, out_w, n).transpose(0, 4, 1, 2, 3)
    out5 = out_data.reshape(s, n, out_c, out_h, out_w)
    if bias is not None:
        np.add(nchw, bias.data.reshape(s, 1, out_c, 1, 1), out=out5)
    else:
        np.copyto(out5, nchw)

    requires_grad = x.requires_grad or weight.requires_grad or (
        bias is not None and bias.requires_grad
    )
    prev = (x, weight) + ((bias,) if bias is not None else ())
    out = Tensor(out_data, requires_grad=requires_grad, _prev=prev)

    def _backward() -> None:
        g = out.grad
        if g is None:
            return
        grad_out = _empty((s, out_c, cols_n), g.dtype)
        g5 = g.reshape(s, n, out_c, out_h, out_w)
        np.copyto(grad_out.reshape(s, out_c, out_h, out_w, n), g5.transpose(0, 2, 3, 4, 1))
        if bias is not None and bias.requires_grad:
            bias._accumulate(grad_out.sum(axis=2).reshape(bias.shape), own=True)
        if weight.requires_grad:
            grad_w = _gemm(grad_out, cols.transpose(0, 2, 1), (s, out_c, feat))
            weight._accumulate(grad_w.reshape(weight.shape), own=True)
        if x.requires_grad:
            grad_cols = _gemm(w_mats.transpose(0, 2, 1), grad_out, (s, feat, cols_n))
            grad_taps = grad_cols.reshape(s, c, kh, kw, out_h, out_w, n)
            folded = _zeros((s, c, hp, wp, n), grad_cols.dtype)
            for i in range(kh):
                i_end = i + stride * out_h
                for j in range(kw):
                    j_end = j + stride * out_w
                    folded[:, :, i:i_end:stride, j:j_end:stride] += grad_taps[:, :, i, j]
            grad_x = _empty(a.shape, folded.dtype)
            interior = folded[:, :, p:p + h, p:p + w]
            np.copyto(grad_x.reshape(s, n, c, h, w), interior.transpose(0, 4, 1, 2, 3))
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
    The backward scatters the gradient rows into the table with one
    ``np.bincount`` over (row, column) keys — offset per seed for a stacked
    table — instead of an ``np.add.at`` loop.  Both add the rows in the order
    they occur; bincount accumulates in float64, so a float64 table gets
    ``np.add.at``'s sums bit for bit and a float32 one rounds once at the end.
    """
    indices = np.asarray(indices, dtype=np.int64)
    stacked = weight.seed_dim is not None
    vocab, dim = weight.shape[-2], weight.shape[-1]
    if stacked and (indices.ndim < 1 or indices.shape[0] != weight.seed_dim):
        raise ValueError(
            f"seed-batched embedding expects (S, ...) indices with S={weight.seed_dim}, "
            f"got shape {indices.shape}"
        )
    if indices.size and (indices.min() < 0 or indices.max() >= vocab):
        raise ValueError(f"token index out of range [0, {vocab})")
    lead = indices.shape[:1] if stacked else ()
    plan = _plan.ACTIVE
    if stacked:
        seed_sel = np.arange(lead[0]).reshape(lead + (1,) * (indices.ndim - 1))
        gathered = weight.data[seed_sel, indices]
    elif plan is not None:
        gathered = np.take(
            weight.data, indices, axis=0, out=plan.checkout(indices.shape + (dim,), weight.dtype)
        )
    else:
        gathered = weight.data[indices]
    out = Tensor(gathered, requires_grad=weight.requires_grad, _prev=(weight,))

    def _backward() -> None:
        if out.grad is None or not weight.requires_grad:
            return
        rows = indices.reshape(lead + (-1,))
        if stacked:
            rows = rows + (np.arange(lead[0]) * vocab)[:, None]
        keys = rows.reshape(-1, 1) * dim + np.arange(dim)
        sums = np.bincount(
            keys.reshape(-1), weights=out.grad.reshape(-1), minlength=weight.data.size
        )
        weight._accumulate(sums.reshape(weight.data.shape), own=True)

    out._backward = _backward
    _plan.tag(out, "embedding")
    return out


def _keep_mask(
    shape: tuple[int, ...],
    dtype: np.dtype,
    p: float,
    rng: np.random.Generator | None,
    rngs: Sequence[np.random.Generator] | None,
) -> np.ndarray:
    """Inverted-dropout mask ``(u >= p) / (1 - p)`` with ``u`` uniform in [0, 1).

    ``rngs`` (one generator per seed replica) draws seed *s*'s slice of a
    seed-stacked ``shape`` from ``rngs[s]`` over the per-seed shape, so every
    replica consumes exactly the random stream it would consume trained
    alone; otherwise ``rng`` draws the whole mask.
    """
    plan = _plan.ACTIVE
    if rngs is not None:
        if plan is not None:
            draw = plan.checkout(shape[1:], np.dtype(np.float64))
            mask = plan.checkout(shape, dtype)
            for s, r in enumerate(rngs):
                r.random(out=draw)
                np.greater_equal(draw, p, out=mask[s])
        else:
            mask = np.stack([(r.random(shape[1:]) >= p) for r in rngs]).astype(dtype)
    elif plan is not None:
        draw = plan.checkout(shape, np.dtype(np.float64))
        rng.random(out=draw)
        mask = np.greater_equal(draw, p, out=plan.checkout(shape, dtype))
    else:
        mask = (rng.random(shape) >= p).astype(dtype)
    mask /= 1.0 - p
    return mask


def _check_rngs(x: Tensor, rngs: Sequence[np.random.Generator] | None) -> None:
    """Per-seed generators need a seed-stacked input with one seed per generator."""
    if rngs is not None and (x.seed_dim is None or x.shape[0] != len(rngs)):
        raise ValueError(
            f"per-seed dropout expects a seed-batched input with {len(rngs)} seeds, "
            f"got shape {x.shape}"
        )


def dropout(
    x: Tensor,
    p: float,
    rng: np.random.Generator,
    training: bool = True,
    rngs: Sequence[np.random.Generator] | None = None,
) -> Tensor:
    """Inverted dropout: scales surviving activations by 1/(1-p) at train time.

    ``rngs`` supplies one generator per seed replica for seed-batched inputs
    (see :func:`_keep_mask`).
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    _check_rngs(x, rngs)
    mask = _keep_mask(x.shape, x.data.dtype, p, rng, rngs)
    plan = _plan.ACTIVE
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


# ---------------------------------------------------------------------------
# transformer nodes: GELU and multi-head attention
# ---------------------------------------------------------------------------

_GELU_A = 0.044715
_GELU_C = 0.7978845608028654  # sqrt(2/pi)


def gelu(x: Tensor) -> Tensor:
    """GELU, tanh approximation (as used by BERT), as one graph node.

    The forward runs the ufuncs of ``x·0.5·(tanh(c·(x + a·x³)) + 1)`` in the
    order the composed ops did (``a = 0.044715``, ``c = √(2/π)``).  With
    ``s = 1 + tanh(·)`` saved, the backward is the closed form
    ``dy/dx = 0.5·(s + (2 − s)·s·x·c·(1 + 3a·x²))``.
    """
    a = x.data
    s = _empty(a.shape, a.dtype)
    np.multiply(a, a, out=s)
    s *= a
    s *= _GELU_A
    np.add(a, s, out=s)
    s *= _GELU_C
    np.tanh(s, out=s)
    s += 1.0
    out_data = _empty(a.shape, a.dtype)
    np.multiply(a, 0.5, out=out_data)
    out_data *= s
    out = Tensor(out_data, requires_grad=x.requires_grad, _prev=(x,))

    def _backward() -> None:
        if out.grad is None or not x.requires_grad:
            return
        d = _empty(a.shape, a.dtype)
        np.multiply(a, a, out=d)
        d *= 3.0 * _GELU_A
        d += 1.0
        d *= _GELU_C
        d *= a
        d *= s
        u = _empty(a.shape, a.dtype)
        np.subtract(2.0, s, out=u)
        d *= u
        d += s
        d *= 0.5
        d *= out.grad
        x._accumulate(d, own=True)

    out._backward = _backward
    _plan.tag(out, "gelu")
    return out


def _per_head(a: np.ndarray, num_heads: int) -> np.ndarray:
    """An (..., T, H·d) array as an (..., H, T, d) view, one matrix per head."""
    *lead, t, dim = a.shape
    return a.reshape(*lead, t, num_heads, dim // num_heads).swapaxes(-2, -3)


def _concat_heads(h: np.ndarray, heads_last: bool = False) -> np.ndarray:
    """Per-head (..., H, T, d) — (..., H, d, T) with ``heads_last`` — copied to (..., T, H·d)."""
    moved = np.moveaxis(h, -1, -3) if heads_last else h.swapaxes(-2, -3)
    out = _empty(moved.shape[:-2] + (moved.shape[-2] * moved.shape[-1],), h.dtype)
    np.copyto(out.reshape(moved.shape), moved)
    return out


def _last_axis_max(a: np.ndarray) -> np.ndarray:
    """``a.max(axis=-1, keepdims=True)`` by folding halves with ``np.maximum``.

    A maximum is exact whatever the order, so the result is ``a.max``'s.
    Over the attention's 16-key rows, log2(16) elementwise passes take about
    50 µs where numpy's max reduction takes about 80 µs.
    """
    while a.shape[-1] > 1:
        half = a.shape[-1] // 2
        folded = np.maximum(a[..., :half], a[..., half:2 * half])
        if a.shape[-1] % 2:
            np.maximum(folded[..., :1], a[..., -1:], out=folded[..., :1])
        a = folded
    return a


def attention(
    q: Tensor,
    k: Tensor,
    v: Tensor,
    num_heads: int,
    attention_mask: np.ndarray | None = None,
    dropout_p: float = 0.0,
    rng: np.random.Generator | None = None,
    training: bool = True,
    rngs: Sequence[np.random.Generator] | None = None,
) -> Tensor:
    """Scaled dot-product multi-head attention, head split to head merge, as one node.

    ``q``, ``k``, ``v`` are the projected (N, T, D) sequences — (S, N, T, D)
    seed-stacked — and the result is the heads' weighted sums merged back to
    (N, T, D).  The node covers the scores ``q·kᵀ/√d``, the padding mask
    (``attention_mask`` is (N, T) — (S, N, T) stacked — with 1 for real
    tokens; padded keys get −1e9), the softmax, attention dropout (its mask
    drawn as :func:`dropout` draws it, from ``rng`` or the per-seed
    ``rngs``) and the weighted sum.  The backward is closed form: with ``P``
    the softmax, ``dP`` its incoming gradient (dropout mask applied),
    ``dS = P ⊙ (dP − rowsum(dP ⊙ P))``.  Every GEMM is batched over the
    leading axes with the per-matrix shapes of the serial call, so each
    seed's slice of a stacked call is bitwise its stand-alone call.
    """
    if not 0.0 <= dropout_p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {dropout_p}")
    qa, ka, va = q.data, k.data, v.data
    dt = qa.dtype
    qh, kh, vh = (_per_head(arr, num_heads) for arr in (qa, ka, va))
    head_dim = qh.shape[-1]
    scale = 1.0 / np.sqrt(head_dim)
    probs = _gemm(qh, kh.swapaxes(-1, -2), qh.shape[:-1] + (kh.shape[-2],))  # (..., H, T, T)
    probs *= dt.type(scale)
    if attention_mask is not None:
        mask = np.asarray(attention_mask, dtype=dt)
        if mask.shape != qa.shape[:-1]:
            raise ValueError(
                f"attention_mask shape {mask.shape} does not match {qa.shape[:-1]}"
            )
        probs += (1.0 - mask)[..., None, None, :] * -1e9
    # softmax over the keys, staged in place like Tensor.softmax
    probs -= _last_axis_max(probs)
    np.exp(probs, out=probs)
    probs /= probs.sum(axis=-1, keepdims=True)
    keep = None
    weights = probs
    if training and dropout_p > 0.0:
        _check_rngs(q, rngs)
        keep = _keep_mask(probs.shape, dt, dropout_p, rng, rngs)
        weights = _empty(probs.shape, dt)
        np.multiply(probs, keep, out=weights)
    attended = _gemm(weights, vh, weights.shape[:-1] + (vh.shape[-1],))
    out_data = _concat_heads(attended)
    requires_grad = q.requires_grad or k.requires_grad or v.requires_grad
    out = Tensor(out_data, requires_grad=requires_grad, _prev=(q, k, v))

    def _backward() -> None:
        if out.grad is None:
            return
        gh = _per_head(out.grad, num_heads)
        if v.requires_grad:
            grad_vh = _gemm(weights.swapaxes(-1, -2), gh, vh.shape)
            v._accumulate(_concat_heads(grad_vh), own=True)
        if not (q.requires_grad or k.requires_grad):
            return
        grad_s = _gemm(gh, vh.swapaxes(-1, -2), probs.shape)
        if keep is not None:
            grad_s *= keep
        # softmax backward, dS = P ⊙ (dP − rowsum(dP ⊙ P)), then the scale
        grad_s *= probs
        grad_s -= _ew(np.multiply, probs, grad_s.sum(axis=-1, keepdims=True))
        grad_s *= dt.type(scale)
        if q.requires_grad:
            q._accumulate(_concat_heads(_gemm(grad_s, kh, qh.shape)), own=True)
        if k.requires_grad:
            grad_kt = _gemm(qh.swapaxes(-1, -2), grad_s, qh.shape[:-2] + (head_dim, kh.shape[-2]))
            k._accumulate(_concat_heads(grad_kt, heads_last=True), own=True)

    out._backward = _backward
    _plan.tag(out, "attention")
    return out
