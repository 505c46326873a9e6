"""``repro.nn`` — a from-scratch numpy autograd and neural-network toolkit.

This is the substrate that replaces PyTorch for the REX reproduction: the
learning-rate schedules (the paper's contribution) sit on top of
``repro.optim`` optimizers which update parameters of ``repro.nn`` modules.
"""

from repro.nn.dtype import (
    EmulatedDtype,
    active_emulation,
    compute_dtype,
    default_dtype,
    dtype_name,
    get_default_dtype,
    is_emulated,
    resolve_dtype,
    set_default_dtype,
    storage_dtype,
)
from repro.nn.lowprec import LossScaler, LowPrecisionState, MasterWeights
from repro.nn.plan import GraphPlan, plan_enabled_default
from repro.nn.tensor import Tensor, no_grad, is_grad_enabled, concatenate, stack, where
from repro.nn import functional
from repro.nn import init
from repro.nn import losses
from repro.nn import plan
from repro.nn.batched import seed_slice_state, seed_stacked, stack_modules
from repro.nn.modules import (
    Module,
    Parameter,
    Linear,
    Conv2d,
    BatchNorm1d,
    BatchNorm2d,
    LayerNorm,
    ReLU,
    LeakyReLU,
    Tanh,
    Sigmoid,
    GELU,
    Softmax,
    Dropout,
    MaxPool2d,
    AvgPool2d,
    GlobalAvgPool2d,
    Flatten,
    Sequential,
    ModuleList,
    Embedding,
    MultiHeadSelfAttention,
    TransformerEncoderLayer,
)

__all__ = [
    "EmulatedDtype",
    "active_emulation",
    "compute_dtype",
    "default_dtype",
    "dtype_name",
    "get_default_dtype",
    "is_emulated",
    "resolve_dtype",
    "set_default_dtype",
    "storage_dtype",
    "LossScaler",
    "LowPrecisionState",
    "MasterWeights",
    "GraphPlan",
    "plan",
    "plan_enabled_default",
    "Tensor",
    "no_grad",
    "is_grad_enabled",
    "concatenate",
    "stack",
    "where",
    "seed_slice_state",
    "seed_stacked",
    "stack_modules",
    "functional",
    "init",
    "losses",
    "Module",
    "Parameter",
    "Linear",
    "Conv2d",
    "BatchNorm1d",
    "BatchNorm2d",
    "LayerNorm",
    "ReLU",
    "LeakyReLU",
    "Tanh",
    "Sigmoid",
    "GELU",
    "Softmax",
    "Dropout",
    "MaxPool2d",
    "AvgPool2d",
    "GlobalAvgPool2d",
    "Flatten",
    "Sequential",
    "ModuleList",
    "Embedding",
    "MultiHeadSelfAttention",
    "TransformerEncoderLayer",
]
