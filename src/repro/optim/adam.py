"""Adam and AdamW optimizers."""

from __future__ import annotations

from typing import Iterable, Sequence

import numpy as np

from repro.nn.modules.base import Parameter
from repro.optim.optimizer import (
    Optimizer,
    ParamGroup,
    _Run,
    decayed_grad_,
    ema_sq_update_,
    ema_update_,
)

__all__ = ["Adam", "AdamW"]


class Adam(Optimizer):
    """Adam (Kingma & Ba, 2014) with bias correction.

    ``weight_decay`` is the classic L2 penalty folded into the gradient; use
    :class:`AdamW` for decoupled weight decay.
    """

    def __init__(
        self,
        params: Iterable[Parameter] | Sequence[ParamGroup],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        if lr < 0:
            raise ValueError(f"learning rate must be non-negative, got {lr}")
        if not 0.0 <= betas[0] < 1.0 or not 0.0 <= betas[1] < 1.0:
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        if eps <= 0:
            raise ValueError(f"eps must be positive, got {eps}")
        defaults = {"lr": lr, "betas": tuple(betas), "eps": eps, "weight_decay": weight_decay}
        super().__init__(params, defaults)

    #: decoupled weight decay (AdamW) instead of the L2 penalty
    decoupled = False

    def _update(self, group: ParamGroup, run: _Run) -> None:
        """Fused in-place Adam step over one run of parameters.

        The moment buffers are mutated in place and all intermediates are
        staged through one scratch array, so the steady-state step allocates
        nothing.  Mathematically identical to the textbook update
        ``p -= lr * m_hat / (sqrt(v_hat) + eps)``; the bias corrections are
        folded into the step size and the denominator.
        """
        lr = group["lr"]
        beta1, beta2 = group["betas"]
        eps = group["eps"]
        weight_decay = group["weight_decay"]
        param, grad = run.data, run.grad
        scratch = run.scratch("step")

        if self.decoupled and weight_decay:
            # decoupled decay: p <- p - lr * wd * p, independent of the moments
            np.multiply(param, lr * weight_decay, out=scratch)
            param -= scratch
        elif not self.decoupled:
            grad = decayed_grad_(grad, param, weight_decay, run.scratch("grad"))

        # the run shares one step count (see Optimizer.step)
        t = run.entries[0].get("step", 0) + 1
        for entry in run.entries:
            entry["step"] = t
        exp_avg = run.state("exp_avg")
        exp_avg_sq = run.state("exp_avg_sq")
        ema_update_(exp_avg, grad, beta1, 1.0 - beta1, scratch)
        ema_sq_update_(exp_avg_sq, grad, beta2, 1.0 - beta2, scratch)

        bias_correction1 = 1.0 - beta1**t
        bias_correction2 = 1.0 - beta2**t
        # denom = sqrt(exp_avg_sq / bc2) + eps, staged in scratch
        np.divide(exp_avg_sq, bias_correction2, out=scratch)
        np.sqrt(scratch, out=scratch)
        scratch += eps
        # update = (lr / bc1) * exp_avg / denom
        np.divide(exp_avg, scratch, out=scratch)
        scratch *= lr / bias_correction1
        param -= scratch


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter, 2017).

    This is the optimizer HuggingFace uses for BERT fine-tuning, which the
    paper's GLUE setting follows.
    """

    decoupled = True

    def __init__(
        self,
        params: Iterable[Parameter] | Sequence[ParamGroup],
        lr: float = 1e-3,
        betas: tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.01,
    ) -> None:
        super().__init__(params, lr=lr, betas=betas, eps=eps, weight_decay=weight_decay)
