"""Activation modules (thin wrappers around Tensor methods and functional ops)."""

from __future__ import annotations

from repro.nn import functional as F
from repro.nn.modules.base import Module
from repro.nn.tensor import Tensor

__all__ = ["ReLU", "LeakyReLU", "Tanh", "Sigmoid", "GELU", "Softmax"]


class ReLU(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.relu()


class LeakyReLU(Module):
    def __init__(self, negative_slope: float = 0.01) -> None:
        super().__init__()
        self.negative_slope = negative_slope

    def forward(self, x: Tensor) -> Tensor:
        return x.leaky_relu(self.negative_slope)


class Tanh(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.tanh()


class Sigmoid(Module):
    def forward(self, x: Tensor) -> Tensor:
        return x.sigmoid()


class GELU(Module):
    """Gaussian error linear unit (tanh approximation, as used by BERT)."""

    def forward(self, x: Tensor) -> Tensor:
        return F.gelu(x)


class Softmax(Module):
    def __init__(self, axis: int = -1) -> None:
        super().__init__()
        self.axis = axis

    def forward(self, x: Tensor) -> Tensor:
        return x.softmax(axis=self.axis)
