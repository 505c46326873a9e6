"""RMSprop and AdaGrad — adaptive baselines referenced in the related-work section."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.nn.modules.base import Parameter
from repro.optim.optimizer import Optimizer, ParamGroup, _Run, decayed_grad_, ema_sq_update_

__all__ = ["RMSprop", "AdaGrad"]


class RMSprop(Optimizer):
    """RMSprop (Hinton et al.) with optional momentum."""

    def __init__(
        self,
        params: Iterable[Parameter] | Sequence[ParamGroup],
        lr: float = 1e-2,
        alpha: float = 0.99,
        eps: float = 1e-8,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
    ) -> None:
        if lr < 0:
            raise ValueError(f"learning rate must be non-negative, got {lr}")
        if not 0.0 <= alpha < 1.0:
            raise ValueError(f"alpha must be in [0, 1), got {alpha}")
        defaults = {
            "lr": lr,
            "alpha": alpha,
            "eps": eps,
            "momentum": momentum,
            "weight_decay": weight_decay,
        }
        super().__init__(params, defaults)

    def _update(self, group: ParamGroup, run: _Run) -> None:
        """Fused in-place update: square-average and momentum buffers are mutated."""
        lr, alpha, eps = group["lr"], group["alpha"], group["eps"]
        momentum = group["momentum"]
        scratch = run.scratch("step")
        grad = decayed_grad_(run.grad, run.data, group["weight_decay"], run.scratch("grad"))
        sq = run.state("square_avg")
        ema_sq_update_(sq, grad, alpha, 1.0 - alpha, scratch)
        # step = grad / (sqrt(sq) + eps), staged in scratch
        np.sqrt(sq, out=scratch)
        scratch += eps
        np.divide(grad, scratch, out=scratch)
        if momentum:
            fresh = run.is_fresh("momentum_buffer")
            buf = run.state("momentum_buffer")
            if fresh:
                np.copyto(buf, scratch)
            else:
                buf *= momentum
                buf += scratch
            np.multiply(buf, lr, out=scratch)
        else:
            scratch *= lr
        run.data -= scratch


class AdaGrad(Optimizer):
    """AdaGrad (Duchi et al., 2011)."""

    def __init__(
        self,
        params: Iterable[Parameter] | Sequence[ParamGroup],
        lr: float = 1e-2,
        eps: float = 1e-10,
        weight_decay: float = 0.0,
    ) -> None:
        if lr < 0:
            raise ValueError(f"learning rate must be non-negative, got {lr}")
        defaults = {"lr": lr, "eps": eps, "weight_decay": weight_decay}
        super().__init__(params, defaults)

    def _update(self, group: ParamGroup, run: _Run) -> None:
        """Fused in-place update: the squared-gradient accumulator is mutated."""
        lr, eps = group["lr"], group["eps"]
        scratch = run.scratch("step")
        grad = decayed_grad_(run.grad, run.data, group["weight_decay"], run.scratch("grad"))
        acc = run.state("sum_sq")
        np.multiply(grad, grad, out=scratch)
        acc += scratch
        # update = lr * grad / (sqrt(acc) + eps), staged in scratch
        np.sqrt(acc, out=scratch)
        scratch += eps
        np.divide(grad, scratch, out=scratch)
        scratch *= lr
        run.data -= scratch
