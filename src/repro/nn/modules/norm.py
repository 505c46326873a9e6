"""Normalisation layers: BatchNorm (1d/2d) and LayerNorm."""

from __future__ import annotations

import numpy as np

from repro.nn import functional as F
from repro.nn.modules.base import Module, Parameter
from repro.nn.tensor import Tensor

__all__ = ["BatchNorm1d", "BatchNorm2d", "LayerNorm"]


class _BatchNorm(Module):
    """Shared implementation for 1d and 2d batch normalisation."""

    def __init__(self, num_features: int, eps: float = 1e-5, momentum: float = 0.1) -> None:
        super().__init__()
        if num_features <= 0:
            raise ValueError("num_features must be positive")
        self.num_features = num_features
        self.eps = eps
        self.momentum = momentum
        self.weight = Parameter(np.ones(num_features), name="weight")
        self.bias = Parameter(np.zeros(num_features), name="bias")
        self.register_buffer("running_mean", np.zeros(num_features))
        self.register_buffer("running_var", np.ones(num_features))

    def _check_channels(self, x: Tensor, channel_axis: int) -> None:
        if x.shape[channel_axis] != self.num_features:
            raise ValueError(
                f"expected {self.num_features} channels on axis {channel_axis}, "
                f"got input shape {x.shape}"
            )

    def _normalise(self, x: Tensor, axes: tuple[int, ...]) -> Tensor:
        # ``axes`` never includes the seed axis when the module is stacked, so
        # statistics (and the running buffers, which are then (S, C)) stay
        # strictly per-seed.
        return F.batch_norm(
            x,
            self.weight,
            self.bias,
            self._buffers["running_mean"],
            self._buffers["running_var"],
            axes,
            self.training,
            self.momentum,
            self.eps,
        )


class BatchNorm1d(_BatchNorm):
    """Batch normalisation for (N, C) activations (seed-batched: (S, N, C))."""

    def forward(self, x: Tensor) -> Tensor:
        if self.seed_dim is not None:
            if x.ndim != 3:
                raise ValueError(
                    f"seed-batched BatchNorm1d expects (S, N, C) input, got shape {x.shape}"
                )
            self._check_channels(x, 2)
            return self._normalise(x, axes=(1,))
        if x.ndim != 2:
            raise ValueError(f"BatchNorm1d expects (N, C) input, got shape {x.shape}")
        self._check_channels(x, 1)
        return self._normalise(x, axes=(0,))


class BatchNorm2d(_BatchNorm):
    """Batch normalisation for NCHW activations (seed-batched: (S, N, C, H, W))."""

    def forward(self, x: Tensor) -> Tensor:
        if self.seed_dim is not None:
            if x.ndim != 5:
                raise ValueError(
                    f"seed-batched BatchNorm2d expects (S, N, C, H, W) input, got shape {x.shape}"
                )
            self._check_channels(x, 2)
            return self._normalise(x, axes=(1, 3, 4))
        if x.ndim != 4:
            raise ValueError(f"BatchNorm2d expects NCHW input, got shape {x.shape}")
        self._check_channels(x, 1)
        return self._normalise(x, axes=(0, 2, 3))


class LayerNorm(Module):
    """Layer normalisation over the last dimension (transformer-style)."""

    def __init__(self, normalized_shape: int, eps: float = 1e-5) -> None:
        super().__init__()
        if normalized_shape <= 0:
            raise ValueError("normalized_shape must be positive")
        self.normalized_shape = normalized_shape
        self.eps = eps
        self.weight = Parameter(np.ones(normalized_shape), name="weight")
        self.bias = Parameter(np.zeros(normalized_shape), name="bias")

    def forward(self, x: Tensor) -> Tensor:
        if x.shape[-1] != self.normalized_shape:
            raise ValueError(
                f"LayerNorm expected last dim {self.normalized_shape}, got shape {x.shape}"
            )
        return F.layer_norm(x, self.weight, self.bias, self.eps)
