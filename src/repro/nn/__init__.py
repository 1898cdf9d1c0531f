"""From-scratch neural-network substrate (autograd, layers, optimizers).

Replaces PyTorch for this reproduction: reverse-mode autograd on NumPy
(:mod:`repro.nn.tensor`), a module system with state dicts and freezing
(:mod:`repro.nn.module`), the layers, losses, optimizers, and LR schedules the
Bellamy architecture requires, and a generic training loop
(:mod:`repro.nn.trainer`).
"""

from repro.nn import functional
from repro.nn.batched import (
    BatchedAdam,
    BatchedAdamW,
    BatchedFeedForward,
    BatchedModelBank,
    GroupProgress,
    ParamSnapshots,
    alpha_dropout_batched,
    arch_signature,
    fit_groups,
    group_mean,
    group_sum,
    huber_loss_batched,
    linear_act_batched,
    mse_loss_batched,
)
from repro.nn.gradcheck import gradcheck, numerical_gradient
from repro.nn.init import (
    get_initializer,
    he_normal,
    he_uniform,
    lecun_normal,
    xavier_uniform,
)
from repro.nn.layers import (
    Activation,
    AlphaDropout,
    Dropout,
    FeedForward,
    Identity,
    Linear,
    SELU,
    Tanh,
    mlp,
)
from repro.nn.losses import HuberLoss, JointLoss, MAELoss, MSELoss
from repro.nn.module import Module, Parameter, Sequential
from repro.nn.optim import SGD, Adam, AdamW, Optimizer
from repro.nn.schedulers import (
    ConstantLR,
    CosineAnnealingLR,
    CyclicLR,
    LRScheduler,
    StepLR,
)
from repro.nn.tape import CompiledLoss, GraphCompiler, Tape, tape_enabled
from repro.nn.tensor import (
    Tensor,
    active_tape,
    cat,
    is_grad_enabled,
    maximum,
    no_grad,
    ones,
    recording,
    stack,
    tensor,
    where,
    zeros,
)
from repro.nn.trainer import (
    BatchLossFn,
    TrainResult,
    Trainer,
    TrainerConfig,
    unfreeze_after,
)

__all__ = [
    "Activation",
    "Adam",
    "AdamW",
    "AlphaDropout",
    "BatchLossFn",
    "BatchedAdam",
    "BatchedAdamW",
    "BatchedFeedForward",
    "BatchedModelBank",
    "CompiledLoss",
    "ConstantLR",
    "CosineAnnealingLR",
    "CyclicLR",
    "Dropout",
    "FeedForward",
    "GraphCompiler",
    "GroupProgress",
    "HuberLoss",
    "Identity",
    "JointLoss",
    "LRScheduler",
    "Linear",
    "MAELoss",
    "MSELoss",
    "Module",
    "Optimizer",
    "ParamSnapshots",
    "Parameter",
    "SELU",
    "SGD",
    "Sequential",
    "StepLR",
    "Tanh",
    "Tape",
    "Tensor",
    "TrainResult",
    "Trainer",
    "TrainerConfig",
    "active_tape",
    "alpha_dropout_batched",
    "arch_signature",
    "cat",
    "fit_groups",
    "functional",
    "group_mean",
    "group_sum",
    "get_initializer",
    "gradcheck",
    "he_normal",
    "he_uniform",
    "huber_loss_batched",
    "is_grad_enabled",
    "lecun_normal",
    "linear_act_batched",
    "maximum",
    "mlp",
    "mse_loss_batched",
    "no_grad",
    "numerical_gradient",
    "ones",
    "recording",
    "stack",
    "tape_enabled",
    "tensor",
    "unfreeze_after",
    "where",
    "xavier_uniform",
    "zeros",
]
