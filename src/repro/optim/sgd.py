"""SGD with momentum (the paper's "SGDM" optimizer)."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.nn.modules.base import Parameter
from repro.optim.optimizer import Optimizer, ParamGroup, _Run, decayed_grad_, ema_update_

__all__ = ["SGD"]


class SGD(Optimizer):
    """Stochastic gradient descent with (optionally Nesterov) momentum.

    Update rule (classic momentum, as in PyTorch):

        v <- momentum * v + grad
        p <- p - lr * v        (or p - lr * (grad + momentum * v) with Nesterov)
    """

    def __init__(
        self,
        params: Iterable[Parameter] | Sequence[ParamGroup],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        nesterov: bool = False,
        dampening: float = 0.0,
    ) -> None:
        if lr < 0:
            raise ValueError(f"learning rate must be non-negative, got {lr}")
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0:
            raise ValueError(f"weight_decay must be non-negative, got {weight_decay}")
        if nesterov and (momentum <= 0 or dampening != 0):
            raise ValueError("Nesterov momentum requires momentum > 0 and zero dampening")
        defaults = {
            "lr": lr,
            "momentum": momentum,
            "weight_decay": weight_decay,
            "nesterov": nesterov,
            "dampening": dampening,
        }
        super().__init__(params, defaults)

    def _update(self, group: ParamGroup, run: _Run) -> None:
        """Fused in-place update: the momentum buffer is mutated, never rebound.

        All intermediates are staged through scratch buffers, so the
        steady-state step allocates nothing.
        """
        lr = group["lr"]
        momentum = group["momentum"]
        step_buf = run.scratch("step")
        grad = decayed_grad_(run.grad, run.data, group["weight_decay"], run.scratch("grad"))
        if momentum:
            fresh = run.is_fresh("momentum_buffer")
            buf = run.state("momentum_buffer")
            if fresh:
                np.copyto(buf, grad)
            else:
                ema_update_(buf, grad, momentum, 1.0 - group["dampening"], step_buf)
            if group["nesterov"]:
                # update = grad + momentum * buf
                np.multiply(buf, momentum, out=step_buf)
                step_buf += grad
                step_buf *= lr
            else:
                np.multiply(buf, lr, out=step_buf)
        else:
            np.multiply(grad, lr, out=step_buf)
        run.data -= step_buf
