"""Batched multi-group training: stack N same-architecture models into one
set of ``(group, ...)`` tensors and train them in a single fused tape pass.

The workload of this project is inherently multi-context: many recurring-job
groups, each with its own small fine-tuned model. Serially, refreshing N
groups costs N independent tape replays whose Python overhead dwarfs the
arithmetic (the widest layer has 40 units). This module removes that factor
of N: the weights of N models are stacked along a leading *group* axis,
every fused kernel of :mod:`repro.nn.functional` gets a batched variant over
``(group, batch, features)``, and one :class:`~repro.nn.tape.GraphCompiler`
records the joint graph once and replays it per step.

Correctness contract
--------------------
The batched step is **bit-identical** to running the per-group loop, per
group slot. That holds because:

* stacked ``np.matmul`` over ``(G, B, I) @ (G, I, O)`` produces bitwise the
  same values as the per-slice 2-D products (verified on this substrate for
  forward, dW, and dx contractions — including zero-padded rows);
* every elementwise op sees exactly the serial operand values per slot;
* reductions over the *batch* axis are the only association-sensitive ops:
  summing a zero-padded row changes NumPy's pairwise-summation order, so
  ragged groups use per-group truncated sums (``arr[g, :n]``), whose shapes
  — and therefore summation order — match the serial loop exactly.

Ragged groups (different per-group sample counts) are expressed as
padding + a ``counts`` vector: padded rows are zeroed by the caller, carry
exactly-zero gradients through every kernel, and are excluded from loss and
bias reductions.

One lockstep loop, :func:`fit_groups` (the group-axis twin of
:meth:`repro.nn.trainer.Trainer.fit`), trains every bank. Its two callers
supply only what differs: ``repro.core.finetuning.finetune_batch`` (Huber
loss, f+z trainable, per-group cyclic LR, staged f-unfreeze) and
``repro.core.pretraining.pretrain_batch`` (joint Huber + reconstruction
objective, every parameter trainable, constant LR, validation monitoring).
"""

from __future__ import annotations

import math
from typing import Callable, Dict, List, Optional, Sequence, Tuple, Union

import numpy as np

from repro.nn import functional as F
from repro.nn.functional import SELU_ALPHA, SELU_SCALE, _activate_into, _register_mask_refresh
from repro.nn.layers import AlphaDropout, FeedForward
from repro.nn.module import Parameter
from repro.nn.tape import GraphCompiler
from repro.nn.tensor import Tensor, cat, no_grad
from repro.nn.trainer import TrainResult

__all__ = [
    "BatchedAdam",
    "BatchedAdamW",
    "BatchedFeedForward",
    "BatchedModelBank",
    "GroupProgress",
    "ParamSnapshots",
    "alpha_dropout_batched",
    "arch_signature",
    "fit_groups",
    "group_mean",
    "group_sum",
    "huber_loss_batched",
    "linear_act_batched",
    "mse_loss_batched",
]


# ---------------------------------------------------------------------- #
# Masked reductions (the association-sensitive part of batching)
# ---------------------------------------------------------------------- #


def _counts_data(counts: Optional[Union[Tensor, np.ndarray]]) -> Optional[np.ndarray]:
    if counts is None:
        return None
    return counts.data if isinstance(counts, Tensor) else np.asarray(counts, dtype=np.float64)


def _group_batch_sum(values: np.ndarray, counts: Optional[Union[Tensor, np.ndarray]]) -> np.ndarray:
    """Per-group sum over the batch axis of ``(G, B, O)`` values.

    When every group is full-width the vectorized axis sum is bitwise equal
    to the serial per-group 2-D sum. With padding, the vectorized sum would
    associate differently (NumPy's pairwise reduction depends on the axis
    length), so ragged groups fall back to truncated per-group sums whose
    shapes match the serial loop exactly.
    """
    c = _counts_data(counts)
    width = values.shape[1]
    if c is None or (c >= width).all():
        return values.sum(axis=1)
    out = np.empty((values.shape[0], values.shape[2]), dtype=np.float64)
    for g in range(values.shape[0]):
        n = int(c[g])
        if n <= 0:
            out[g] = 0.0
        elif n >= width:
            out[g] = values[g].sum(axis=0)
        else:
            out[g] = values[g, :n].sum(axis=0)
    return out


def _zero_padded_rows(values: np.ndarray, counts: Optional[Union[Tensor, np.ndarray]]) -> None:
    """Zero the padding slots ``values[g, counts[g]:]`` in place."""
    c = _counts_data(counts)
    if c is None:
        return
    width = values.shape[1]
    if (c >= width).all():
        return
    for g in range(values.shape[0]):
        n = int(c[g])
        if n < width:
            values[g, max(n, 0):] = 0.0


# ---------------------------------------------------------------------- #
# Batched fused kernels
# ---------------------------------------------------------------------- #


def linear_act_batched(
    x: Union[Tensor, np.ndarray],
    weight: Tensor,
    bias: Optional[Tensor] = None,
    activation: str = "selu",
    counts: Optional[Tensor] = None,
) -> Tensor:
    """Fused ``activation(x @ weight.T + bias)`` over ``(group, batch, features)``.

    The batched analogue of :func:`repro.nn.functional.linear_act`: input
    ``(G, B, I)``, weight ``(G, O, I)``, optional bias ``(G, O)``. The op
    sequence per group slot mirrors the serial kernel exactly, so values and
    gradients are bitwise identical to N independent 2-D calls.

    ``counts`` (a ``(G,)`` tensor of valid row counts, read live on every
    replay) drives ragged handling. Uniform batches (every count equal to
    the padded width) run fully stacked — verified bitwise equal to the
    per-slice 2-D calls. Genuinely ragged batches cannot: BLAS accumulation
    can depend on the row count M (e.g. the GEMV path of an ``(M, K) @
    (K, 1)`` product), so a padded width would not reproduce each group's
    own serial result. Those batches fall back to per-group truncated
    matmuls — exactly the serial shapes — while keeping the elementwise
    activation math fused. The path is chosen per replay, so one compiled
    tape serves uniform and ragged batches alike.

    Stacked layers apply N per-group weight matrices in one call::

        out = linear_act_batched(x, weight, bias, activation="selu")
        # out[g] == F.linear_act(x[g], weight[g], bias[g], "selu"), bitwise
    """
    if activation not in F.FUSABLE_ACTIVATIONS:
        raise ValueError(
            f"cannot fuse activation {activation!r}; fusable: {F.FUSABLE_ACTIVATIONS}"
        )
    x_t = x if isinstance(x, Tensor) else Tensor(x)
    if x_t.ndim != 3 or weight.ndim != 3:
        raise ValueError(
            f"linear_act_batched expects 3-D input and weight, got "
            f"{x_t.ndim}-D and {weight.ndim}-D"
        )
    n_groups, width, _ = x_t.shape

    def ragged_counts() -> Optional[np.ndarray]:
        c = _counts_data(counts)
        if c is None or (c >= width).all():
            return None
        return c

    def matmul_into(pre: np.ndarray) -> None:
        c = ragged_counts()
        if c is None:
            np.matmul(x_t.data, np.swapaxes(weight.data, 1, 2), out=pre)
            if bias is not None:
                np.add(pre, bias.data[:, None, :], out=pre)
            return
        for g in range(n_groups):
            n = int(c[g])
            if n > 0:
                np.matmul(x_t.data[g, :n], weight.data[g].T, out=pre[g, :n])
                if bias is not None:
                    pre[g, :n] += bias.data[g]
            if n < width:
                pre[g, max(n, 0):] = 0.0

    pre = np.empty(
        (n_groups, width, weight.shape[1]), dtype=np.float64
    )
    matmul_into(pre)
    scratch = np.empty_like(pre) if activation == "selu" else None
    out_data = np.empty_like(pre)
    _activate_into(pre, out_data, activation, scratch)

    d_buf = np.empty_like(pre) if activation != "identity" else None
    grad_tmp: Dict[str, np.ndarray] = {}

    def accumulate_matmul(param: Tensor, a: np.ndarray, b: np.ndarray) -> None:
        if param.grad is None:
            buf = param._grad_buf
            if buf is not None and buf.shape == (a.shape[0], a.shape[1], b.shape[2]):
                np.matmul(a, b, out=buf)
                param.grad = buf
                return
            param.grad = np.matmul(a, b)
        else:
            param.grad += np.matmul(a, b)

    def accumulate_array(param: Tensor, contrib: np.ndarray) -> None:
        if param.grad is None:
            buf = param._grad_buf
            if buf is not None and buf.shape == contrib.shape:
                np.copyto(buf, contrib)
                param.grad = buf
                return
            param.grad = contrib.copy()
        else:
            param.grad += contrib

    def ragged_contrib(key: str, shape: tuple) -> np.ndarray:
        tmp = grad_tmp.get(key)
        if tmp is None or tmp.shape != shape:
            tmp = np.zeros(shape, dtype=np.float64)
            grad_tmp[key] = tmp
        return tmp

    def backward_fn(grad: np.ndarray) -> None:
        if activation == "selu":
            np.multiply(grad, SELU_SCALE, out=d_buf)
            np.exp(pre, out=scratch)
            np.multiply(scratch, SELU_ALPHA, out=scratch)
            np.multiply(scratch, d_buf, out=scratch)
            np.copyto(d_buf, scratch, where=pre <= 0.0)
            d_pre = d_buf
        elif activation == "tanh":
            np.multiply(out_data, out_data, out=d_buf)
            np.subtract(1.0, d_buf, out=d_buf)
            np.multiply(d_buf, grad, out=d_buf)
            d_pre = d_buf
        else:
            d_pre = grad
        c = ragged_counts()
        if c is None:
            if x_t.requires_grad:
                accumulate_matmul(x_t, d_pre, weight.data)
            if weight.requires_grad:
                accumulate_matmul(weight, np.swapaxes(d_pre, 1, 2), x_t.data)
        else:
            # Per-group truncated contractions: the exact serial shapes, so
            # the M/K-dependent BLAS accumulation order matches per group.
            if x_t.requires_grad:
                tmp = ragged_contrib("x", x_t.shape)
                for g in range(n_groups):
                    n = int(c[g])
                    if n > 0:
                        np.matmul(d_pre[g, :n], weight.data[g], out=tmp[g, :n])
                    if n < width:
                        tmp[g, max(n, 0):] = 0.0
                accumulate_array(x_t, tmp)
            if weight.requires_grad:
                tmp = ragged_contrib("w", weight.shape)
                for g in range(n_groups):
                    n = int(c[g])
                    if n > 0:
                        np.matmul(d_pre[g, :n].T, x_t.data[g, :n], out=tmp[g])
                    else:
                        tmp[g] = 0.0
                accumulate_array(weight, tmp)
        if bias is not None and bias.requires_grad:
            bias._accumulate(_group_batch_sum(d_pre, counts))

    def forward_fn(out: Tensor) -> None:
        matmul_into(pre)
        _activate_into(pre, out.data, activation, scratch)

    parents = (x_t, weight) if bias is None else (x_t, weight, bias)
    return Tensor._make(out_data, parents, backward_fn, forward_fn, op="linear_act_batched")


def huber_loss_batched(
    prediction: Tensor,
    target: Tensor,
    delta: Union[float, np.ndarray] = 1.0,
    counts: Optional[Tensor] = None,
) -> Tensor:
    """Per-group Huber loss over ``(group, batch)``, returning a ``(G,)`` head.

    Each slot of the result equals :func:`repro.nn.functional.huber_loss` on
    that group's (truncated) row, bit for bit. Seeding the backward with
    ones — exactly what :meth:`repro.nn.tape.Tape.backward` does for a
    ``(G,)`` head — therefore reproduces N independent scalar backwards.

    ``delta`` may be a scalar or a ``(G,)`` array (per-group configs);
    ``counts`` marks per-group valid widths for ragged batches. Rows at or
    beyond a group's count must have been zeroed by the caller; they receive
    exactly-zero gradients.

    >>> import numpy as np
    >>> from repro.nn.batched import huber_loss_batched
    >>> from repro.nn.tensor import Tensor
    >>> pred = Tensor(np.array([[0.5, 0.0], [3.0, 3.0]]))
    >>> huber_loss_batched(pred, Tensor(np.zeros((2, 2))), delta=1.0).data
    array([0.0625, 2.5   ])
    """
    delta_arr = np.asarray(delta, dtype=np.float64)
    if (delta_arr <= 0).any():
        raise ValueError(f"delta must be > 0, got {delta}")
    p_t = prediction if isinstance(prediction, Tensor) else Tensor(prediction)
    t_t = target if isinstance(target, Tensor) else Tensor(target)
    if p_t.ndim != 2 or p_t.shape != t_t.shape:
        raise ValueError(
            f"huber_loss_batched expects matching (G, B) shapes, got "
            f"{p_t.shape} and {t_t.shape}"
        )
    n_groups, width = p_t.shape
    delta_col = delta_arr.reshape(-1, 1) if delta_arr.ndim == 1 else delta_arr
    delta_vec = (
        delta_arr if delta_arr.ndim == 1 else np.full(n_groups, float(delta_arr))
    )

    residual = np.empty(p_t.shape, dtype=np.float64)
    abs_residual = np.empty_like(residual)
    branch = np.empty_like(residual)

    def loss_into(out: np.ndarray) -> None:
        np.subtract(p_t.data, t_t.data, out=residual)
        np.abs(residual, out=abs_residual)
        np.multiply(residual, residual, out=branch)
        np.multiply(branch, 0.5, out=branch)
        np.copyto(
            branch,
            abs_residual * delta_col - 0.5 * delta_col * delta_col,
            where=abs_residual > delta_col,
        )
        c = _counts_data(counts)
        if c is None or (c >= width).all():
            branch.sum(axis=1, out=out)
            if c is None:
                out *= 1.0 / width
            else:
                out *= np.divide(1.0, c, out=np.ones_like(c), where=c > 0)
        else:
            for g in range(n_groups):
                n = int(c[g])
                out[g] = branch[g, :n].sum() * (1.0 / n) if n > 0 else 0.0

    out_data = np.empty(n_groups, dtype=np.float64)
    loss_into(out_data)
    d_residual = np.empty_like(residual)

    def backward_fn(grad: np.ndarray) -> None:
        c = _counts_data(counts)
        if c is None:
            inv = np.full(n_groups, 1.0 / width)
        else:
            inv = np.divide(1.0, c, out=np.zeros_like(c), where=c > 0)
        scaled = grad * inv
        np.multiply(residual, scaled[:, None], out=d_residual)
        np.sign(residual, out=branch)
        np.multiply(branch, (scaled * delta_vec)[:, None], out=branch)
        np.copyto(d_residual, branch, where=abs_residual > delta_col)
        _zero_padded_rows(d_residual, counts)
        if p_t.requires_grad:
            p_t._accumulate(d_residual)
        if t_t.requires_grad:
            t_t._accumulate(-d_residual)

    def forward_fn(out: Tensor) -> None:
        loss_into(out.data)

    return Tensor._make(out_data, (p_t, t_t), backward_fn, forward_fn, op="huber_batched")


def group_sum(
    x: Union[Tensor, np.ndarray],
    counts: Optional[Union[Tensor, np.ndarray]] = None,
) -> Tensor:
    """Reduce a ``(group, ...)`` tensor to per-group totals ``(G,)``.

    Each group's block is contiguous, so the row-wise pairwise summation is
    bitwise equal to the full reduction the serial ``Tensor.sum()`` performs
    on that block alone. With ``counts`` (valid rows along axis 1, read live
    on every replay), ragged groups sum only their first ``counts[g]`` rows —
    the exact contiguous block the serial loop reduces — because summing
    zero padding would move the pairwise-summation split points.

    >>> import numpy as np
    >>> from repro.nn.batched import group_sum
    >>> group_sum(np.ones((2, 3))).data
    array([3., 3.])
    """
    x_t = x if isinstance(x, Tensor) else Tensor(x)
    n_groups = x_t.shape[0]
    if counts is not None and x_t.ndim < 2:
        raise ValueError("counts requires a (group, rows, ...) operand")
    width = x_t.shape[1] if x_t.ndim > 1 else 1

    def sum_into(out: np.ndarray) -> None:
        c = _counts_data(counts)
        if c is None or (c >= width).all():
            np.sum(x_t.data.reshape(n_groups, -1), axis=1, out=out)
        else:
            data = x_t.data
            for g in range(n_groups):
                n = int(c[g])
                out[g] = data[g, :n].sum() if n > 0 else 0.0

    out_data = np.empty(n_groups, dtype=np.float64)
    sum_into(out_data)
    buffers: dict = {}

    def backward_fn(grad: np.ndarray) -> None:
        if not x_t.requires_grad:
            return
        c = _counts_data(counts)
        if c is None or (c >= width).all():
            shape = (n_groups,) + (1,) * (x_t.ndim - 1)
            x_t._accumulate(np.broadcast_to(grad.reshape(shape), x_t.shape).copy())
            return
        buf = buffers.get("grad")
        if buf is None:
            buf = buffers["grad"] = np.empty_like(x_t.data)
        for g in range(n_groups):
            n = max(int(c[g]), 0)
            buf[g, :n] = grad[g]
            buf[g, n:] = 0.0
        # _accumulate copies (copyto into the stashed buffer or np.array),
        # so handing it the persistent scratch is safe.
        x_t._accumulate(buf)

    def forward_fn(out: Tensor) -> None:
        sum_into(out.data)

    return Tensor._make(out_data, (x_t,), backward_fn, forward_fn, op="group_sum")


def group_mean(
    x: Union[Tensor, np.ndarray],
    counts: Optional[Union[Tensor, np.ndarray]] = None,
) -> Tensor:
    """Per-group arithmetic mean of a ``(group, ...)`` tensor, as ``(G,)``.

    Matches the serial ``Tensor.mean()`` decomposition (sum, then multiply
    by the reciprocal) per group slot. ``counts`` marks valid rows along
    axis 1 for ragged groups: group ``g`` averages over
    ``counts[g] * prod(shape[2:])`` elements, exactly the element count of
    the serial block, with counts read live on every replay.

    >>> import numpy as np
    >>> from repro.nn.batched import group_mean
    >>> group_mean(np.arange(8.0).reshape(2, 4)).data
    array([1.5, 5.5])
    """
    x_t = x if isinstance(x, Tensor) else Tensor(x)
    n_groups = x_t.shape[0]
    if counts is not None and x_t.ndim < 2:
        raise ValueError("counts requires a (group, rows, ...) operand")
    width = x_t.shape[1] if x_t.ndim > 1 else 1
    row_elems = int(np.prod(x_t.shape[2:])) if x_t.ndim > 2 else 1
    full = width * row_elems

    def mean_into(out: np.ndarray) -> None:
        c = _counts_data(counts)
        if c is None or (c >= width).all():
            np.sum(x_t.data.reshape(n_groups, -1), axis=1, out=out)
            out *= 1.0 / full
        else:
            data = x_t.data
            for g in range(n_groups):
                n = int(c[g])
                out[g] = data[g, :n].sum() * (1.0 / (n * row_elems)) if n > 0 else 0.0

    out_data = np.empty(n_groups, dtype=np.float64)
    mean_into(out_data)
    buffers: dict = {}

    def backward_fn(grad: np.ndarray) -> None:
        if not x_t.requires_grad:
            return
        c = _counts_data(counts)
        bshape = (n_groups,) + (1,) * (x_t.ndim - 1)
        if c is None or (c >= width).all():
            scaled = grad * (1.0 / full)
            x_t._accumulate(np.broadcast_to(scaled.reshape(bshape), x_t.shape).copy())
            return
        buf = buffers.get("grad")
        if buf is None:
            buf = buffers["grad"] = np.empty_like(x_t.data)
        for g in range(n_groups):
            n = max(int(c[g]), 0)
            if n > 0:
                buf[g, :n] = grad[g] * (1.0 / (n * row_elems))
            buf[g, n:] = 0.0
        x_t._accumulate(buf)

    def forward_fn(out: Tensor) -> None:
        mean_into(out.data)

    return Tensor._make(out_data, (x_t,), backward_fn, forward_fn, op="group_mean")


def mse_loss_batched(
    prediction: Tensor,
    target: Tensor,
    counts: Optional[Union[Tensor, np.ndarray]] = None,
) -> Tensor:
    """Per-group mean squared error over ``(group, ...)`` operands.

    Composed from the same primitive sequence as the serial
    :func:`repro.nn.functional.mse_loss` (sub, mul, sum, scale), so each
    group slot matches the serial scalar loss bitwise. ``counts`` marks
    valid rows along axis 1 for ragged groups (padding must be zero on
    both operands so the squared-difference padding contributes no
    gradient).

    >>> import numpy as np
    >>> from repro.nn.batched import mse_loss_batched
    >>> from repro.nn.tensor import Tensor
    >>> mse_loss_batched(Tensor(np.ones((2, 2))), Tensor(np.zeros((2, 2)))).data
    array([1., 1.])
    """
    diff = prediction - target
    return group_mean(diff * diff, counts)


def alpha_dropout_batched(
    x: Tensor,
    ps: Sequence[float],
    rngs: Sequence[Optional[np.random.Generator]],
    training: bool = True,
    counts: Optional[Union[Tensor, np.ndarray]] = None,
) -> Tensor:
    """Alpha dropout over ``(group, ...)`` with one RNG stream per group.

    Group ``g`` draws its mask from ``rngs[g]`` with probability ``ps[g]`` —
    the same shape and the same single draw per step as the serial layer, so
    each group's RNG stream advances exactly as it would in its own loop
    (the tape refresh redraws all groups in group order). Groups with
    ``p == 0`` draw nothing and pass through bitwise unchanged.

    ``counts`` (valid rows along axis 1, read live per replay) keeps ragged
    groups' RNG streams aligned with their serial loops: group ``g`` draws a
    ``(counts[g],) + shape[2:]`` mask — the exact serial draw shape — and
    padding rows keep mask 1.0. A group with ``counts[g] == 0`` draws
    nothing, matching a serial group that sat the step out.

    One generator per group keeps every mask stream serial-identical::

        rngs = [np.random.default_rng(seed + g) for g in range(n_groups)]
        out = alpha_dropout_batched(x, ps=[0.1] * n_groups, rngs=rngs)
    """
    ps = [float(p) for p in ps]
    for p in ps:
        if not 0.0 <= p < 1.0:
            raise ValueError(f"alpha dropout probability must be in [0, 1), got {p}")
    if not training or all(p == 0.0 for p in ps):
        return x
    n_groups = x.shape[0]
    if len(ps) != n_groups or len(rngs) != n_groups:
        raise ValueError(
            f"need one p and one rng per group: {len(ps)}/{len(rngs)} for {n_groups} groups"
        )
    alpha_prime = -SELU_SCALE * SELU_ALPHA
    keeps = [1.0 - p for p in ps]
    a_vals = [(keep + alpha_prime**2 * keep * (1.0 - keep)) ** -0.5 for keep in keeps]
    b_vals = [-a * (1.0 - keep) * alpha_prime for a, keep in zip(a_vals, keeps)]
    per_group_shape = x.shape[1:]
    width = x.shape[1] if x.ndim > 1 else 1
    tail_shape = x.shape[2:] if x.ndim > 2 else ()
    if counts is not None and x.ndim < 2:
        raise ValueError("counts requires a (group, rows, ...) operand")

    def draw(mask_buf: np.ndarray) -> None:
        c = _counts_data(counts)
        for g in range(n_groups):
            if ps[g] <= 0.0:
                mask_buf[g] = 1.0
                continue
            if c is None or c[g] >= width:
                np.copyto(
                    mask_buf[g],
                    (rngs[g].random(per_group_shape) < keeps[g]).astype(np.float64),
                )
                continue
            n = max(int(c[g]), 0)
            if n > 0:
                np.copyto(
                    mask_buf[g, :n],
                    (rngs[g].random((n,) + tail_shape) < keeps[g]).astype(np.float64),
                )
            mask_buf[g, n:] = 1.0

    mask_data = np.empty(x.shape, dtype=np.float64)
    draw(mask_data)
    mask_t = Tensor(mask_data)
    _register_mask_refresh(mask_t, lambda out: draw(out.data))

    bshape = (n_groups,) + (1,) * (x.ndim - 1)
    a_arr = np.array(a_vals, dtype=np.float64).reshape(bshape)
    b_arr = np.array(b_vals, dtype=np.float64).reshape(bshape)
    dropped = x * mask_t + (1.0 - mask_t) * alpha_prime
    return dropped * a_arr + b_arr


# ---------------------------------------------------------------------- #
# Per-group optimizer
# ---------------------------------------------------------------------- #


class BatchedAdam:
    """Adam with coupled L2 decay over stacked ``(group, ...)`` parameters.

    The per-group twin of :class:`repro.nn.optim.Adam`: every group slot
    sees exactly the serial ufunc sequence (decay, first/second moment,
    Python-float bias corrections, apply), with per-group learning rates,
    weight decays, and step counters. A boolean *mask* per parameter selects
    which groups commit the step — masked-out groups keep data, moments, and
    step count bitwise untouched, which is how per-group early stopping and
    staged unfreezing are expressed in lockstep training.

    Per-group hyperparameters are ``(G,)`` arrays::

        opt = BatchedAdam(params, n_groups=3, lr=np.array([1e-3, 5e-3, 1e-2]))
        opt.step(masks=[np.array([True, False, True])] * len(params))
    """

    decoupled = False

    def __init__(
        self,
        params: Sequence[Parameter],
        n_groups: int,
        lr: Union[float, np.ndarray] = 1e-3,
        betas: Tuple[float, float] = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: Union[float, np.ndarray] = 0.0,
    ) -> None:
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        beta1, beta2 = betas
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        if eps <= 0:
            raise ValueError(f"eps must be > 0, got {eps}")
        self.n_groups = int(n_groups)
        for p in self.params:
            if p.data.shape[0] != self.n_groups:
                raise ValueError(
                    f"parameter leading axis {p.data.shape[0]} != n_groups {self.n_groups}"
                )
        self.lr = self._per_group(lr, "lr", positive=True)
        self.weight_decay = self._per_group(weight_decay, "weight_decay")
        self.beta1, self.beta2 = beta1, beta2
        self.eps = float(eps)
        self._m = [np.zeros_like(p.data) for p in self.params]
        self._v = [np.zeros_like(p.data) for p in self.params]
        self._t = [np.zeros(self.n_groups, dtype=np.int64) for _ in self.params]
        self._corr_cache: Dict[Tuple[float, int], float] = {}

    def _per_group(self, value, label: str, positive: bool = False) -> np.ndarray:
        arr = np.asarray(value, dtype=np.float64)
        if arr.ndim == 0:
            arr = np.full(self.n_groups, float(arr))
        if arr.shape != (self.n_groups,):
            raise ValueError(f"{label} must be a scalar or ({self.n_groups},) array")
        if positive and (arr <= 0).any():
            raise ValueError(f"{label} must be > 0, got {value}")
        if not positive and (arr < 0).any():
            raise ValueError(f"{label} must be >= 0, got {value}")
        return arr.copy()

    def zero_grad(self) -> None:
        """Clear gradients on all managed parameters."""
        for param in self.params:
            param.zero_grad()

    def set_lr(self, lr: Union[float, np.ndarray]) -> None:
        """Update per-group learning rates (scheduler hook)."""
        self.lr[:] = lr

    def step_count(self, param_index: int) -> np.ndarray:
        """Per-group step counters of one parameter (read-only copy)."""
        return self._t[param_index].copy()

    def _corrections(self, beta: float, t_arr: np.ndarray) -> np.ndarray:
        """``1 - beta**t`` per group, as exact Python-float scalars.

        The serial optimizer computes the bias correction with Python
        ``float`` power; vectorized ``np.power`` is not guaranteed to round
        identically, so the values are built scalar-by-scalar (memoized —
        at most a handful of distinct ``t`` exist per fit). ``t == 0``
        (a group that has never stepped) maps to 1.0; those lanes are
        discarded by the commit mask anyway.
        """
        cache = self._corr_cache
        out = np.empty(t_arr.shape, dtype=np.float64)
        for i, t in enumerate(t_arr):
            t_int = int(t)
            key = (beta, t_int)
            val = cache.get(key)
            if val is None:
                val = 1.0 - beta**t_int if t_int > 0 else 1.0
                cache[key] = val
            out[i] = val
        return out

    def step(self, masks: Optional[Sequence[Optional[np.ndarray]]] = None) -> None:
        """Apply one update; ``masks[i]`` selects the groups that commit.

        ``masks`` aligns with ``params``; ``None`` (for the sequence or an
        entry) means every group commits. Parameters without a gradient are
        skipped, mirroring the serial optimizer's active-parameter filter.
        """
        for i, param in enumerate(self.params):
            if not param.requires_grad or param.grad is None:
                continue
            mask = masks[i] if masks is not None else None
            if mask is not None and not mask.any():
                continue
            self._step_param(i, param, mask)

    def _step_param(self, i: int, param: Parameter, mask: Optional[np.ndarray]) -> None:
        grad = param.grad
        data = param.data
        bshape = (self.n_groups,) + (1,) * (data.ndim - 1)
        lr_b = self.lr.reshape(bshape)
        wd = self.weight_decay
        t_new = self._t[i] + (1 if mask is None else mask.astype(np.int64))

        if self.decoupled or not wd.any():
            g_eff = grad
        else:
            g_eff = grad + data * wd.reshape(bshape)
            if (wd == 0).any():
                # A zero-decay group must see its gradient untouched (the
                # serial path skips the decay op entirely for wd == 0).
                np.copyto(g_eff, grad, where=(wd == 0).reshape(bshape))

        m_new = self._m[i] * self.beta1
        m_new += g_eff * (1.0 - self.beta1)
        s2 = g_eff * g_eff
        s2 *= 1.0 - self.beta2
        v_new = self._v[i] * self.beta2
        v_new += s2

        m_hat = m_new / self._corrections(self.beta1, t_new).reshape(bshape)
        v_hat = v_new / self._corrections(self.beta2, t_new).reshape(bshape)

        if self.decoupled and wd.any():
            data_base = data - (self.lr * wd).reshape(bshape) * data
            if (wd == 0).any():
                # Zero-decay groups skip the decay op serially; re-applying
                # ``x - 0.0`` here would flip -0.0 weights to +0.0.
                np.copyto(data_base, data, where=(wd == 0).reshape(bshape))
        else:
            data_base = data
        np.multiply(m_hat, lr_b, out=m_hat)
        np.sqrt(v_hat, out=v_hat)
        v_hat += self.eps
        np.divide(m_hat, v_hat, out=m_hat)
        new_data = data_base - m_hat

        if mask is None:
            np.copyto(data, new_data)
            np.copyto(self._m[i], m_new)
            np.copyto(self._v[i], v_new)
            self._t[i] = t_new
        else:
            bmask = mask.reshape(bshape)
            np.copyto(data, new_data, where=bmask)
            np.copyto(self._m[i], m_new, where=bmask)
            np.copyto(self._v[i], v_new, where=bmask)
            np.copyto(self._t[i], t_new, where=mask)


class BatchedAdamW(BatchedAdam):
    """Per-group Adam with decoupled weight decay (AdamW).

    Drop-in for :class:`BatchedAdam` wherever the serial loop uses
    :class:`repro.nn.optim.AdamW`::

        opt = BatchedAdamW(params, n_groups, lr=lrs, weight_decay=decays)
    """

    decoupled = True


# ---------------------------------------------------------------------- #
# Stacked model bank
# ---------------------------------------------------------------------- #


class BatchedFeedForward:
    """N same-shape :class:`~repro.nn.layers.FeedForward` nets as stacked tensors.

    Weights (and biases) of the two linear layers are stacked along a new
    leading group axis; the forward composes the batched fused kernel with
    per-group alpha dropout. Construction validates that every component has
    identical widths, bias-ness, and activations.

    ::

        stacked = BatchedFeedForward([model.f for model in models])
        out = stacked.forward(x, rngs=rngs, training=True)   # (G, B, O)
    """

    def __init__(self, components: Sequence[FeedForward]) -> None:
        if not components:
            raise ValueError("BatchedFeedForward needs at least one component")
        first = components[0]
        signature = self._signature(first)
        for idx, comp in enumerate(components[1:], start=1):
            if self._signature(comp) != signature:
                raise ValueError(
                    f"component {idx} architecture {self._signature(comp)} != "
                    f"component 0 {signature}"
                )
        self.components = list(components)
        self.activation1 = first.activation1.name
        self.activation2 = first.activation2.name
        self.weight1 = Parameter(np.stack([c.layer1.weight.data for c in components]))
        self.weight2 = Parameter(np.stack([c.layer2.weight.data for c in components]))
        self.bias1 = (
            Parameter(np.stack([c.layer1.bias.data for c in components]))
            if first.layer1.bias is not None
            else None
        )
        self.bias2 = (
            Parameter(np.stack([c.layer2.bias.data for c in components]))
            if first.layer2.bias is not None
            else None
        )
        self.ps = [c.drop.p if isinstance(c.drop, AlphaDropout) else 0.0 for c in components]
        self.rngs = [c.drop._rng if isinstance(c.drop, AlphaDropout) else None for c in components]
        self._sync_requires_grad()

    @staticmethod
    def _signature(comp: FeedForward) -> tuple:
        return (
            comp.layer1.in_features,
            comp.layer1.out_features,
            comp.layer2.in_features,
            comp.layer2.out_features,
            comp.layer1.bias is not None,
            comp.layer2.bias is not None,
            comp.activation1.name,
            comp.activation2.name,
            type(comp.drop).__name__,
        )

    def _sync_requires_grad(self) -> None:
        """Stacked flags = any component trainable (masking handles the rest)."""
        for stacked, pick in self._stacked_pairs():
            stacked.requires_grad = any(pick(c).requires_grad for c in self.components)

    def _stacked_pairs(self):
        pairs = [
            (self.weight1, lambda c: c.layer1.weight),
            (self.weight2, lambda c: c.layer2.weight),
        ]
        if self.bias1 is not None:
            pairs.append((self.bias1, lambda c: c.layer1.bias))
        if self.bias2 is not None:
            pairs.append((self.bias2, lambda c: c.layer2.bias))
        return pairs

    def params(self) -> List[Parameter]:
        """The stacked parameters (weight1, weight2, then biases if any)."""
        out = [self.weight1, self.weight2]
        if self.bias1 is not None:
            out.append(self.bias1)
        if self.bias2 is not None:
            out.append(self.bias2)
        return out

    def set_trainable(self, trainable: bool = True) -> None:
        """Flip ``requires_grad`` on every stacked parameter (re-records tapes)."""
        for param in self.params():
            param.requires_grad = bool(trainable)

    def forward(self, x: Tensor, counts: Optional[Tensor] = None, training: bool = True) -> Tensor:
        """Batched two-layer forward over ``(G, B, in_features)``."""
        hidden = linear_act_batched(x, self.weight1, self.bias1, self.activation1, counts)
        if any(p > 0.0 for p in self.ps):
            hidden = alpha_dropout_batched(
                hidden, self.ps, self.rngs, training=training, counts=counts
            )
        return linear_act_batched(hidden, self.weight2, self.bias2, self.activation2, counts)

    def write_back(self) -> None:
        """Copy each group's slice back into its component's parameters."""
        for g, comp in enumerate(self.components):
            np.copyto(comp.layer1.weight.data, self.weight1.data[g])
            np.copyto(comp.layer2.weight.data, self.weight2.data[g])
            if self.bias1 is not None:
                np.copyto(comp.layer1.bias.data, self.bias1.data[g])
            if self.bias2 is not None:
                np.copyto(comp.layer2.bias.data, self.bias2.data[g])


def arch_signature(model, properties: Optional[np.ndarray] = None) -> tuple:
    """Key under which models stack into one :class:`BatchedModelBank`.

    Parameter names and shapes plus the config fields that shape the
    forward. With a ``(rows, P, N)`` property matrix the key also carries
    ``(P, N)``, since groups stack only when their matrices do::

        key = arch_signature(model, properties)
        batches.setdefault(key, []).append(index)
    """
    config = model.config
    key = (
        tuple((name, p.data.shape) for name, p in model.named_parameters()),
        config.n_essential,
        config.encoding_dim,
        config.use_optional,
        config.property_vector_size,
    )
    return key if properties is None else key + (properties.shape[1:],)


class BatchedModelBank:
    """Stacks N same-architecture Bellamy models for one fused training pass.

    The bank mirrors ``BellamyModel.forward`` over a leading group axis:
    scale-out features ``(G, B, 3)`` and property matrices ``(G, B, P, N)``
    in, ``(prediction, reconstruction, flat)`` out — each group slot bitwise
    equal to that model's own forward on its slice. Train the stacked
    parameters (see :meth:`parameters`), then :meth:`write_back` to push the
    per-group slices into the original models.

    ::

        bank = BatchedModelBank(models)          # N same-architecture models
        pred, recon, flat = bank.forward(essential, props, training=True)
        ...                                      # fused training steps
        bank.write_back()                        # unstack into the originals
    """

    def __init__(self, models: Sequence) -> None:
        if not models:
            raise ValueError("BatchedModelBank needs at least one model")
        signature = arch_signature(models[0])
        for idx, model in enumerate(models[1:], start=1):
            if arch_signature(model) != signature:
                raise ValueError(
                    f"model {idx} architecture differs from model 0; "
                    "batching requires identical architectures"
                )
        first = models[0].config
        self.models = list(models)
        self.n_groups = len(self.models)
        self.n_essential = first.n_essential
        self.encoding_dim = first.encoding_dim
        self.use_optional = first.use_optional
        self.f = BatchedFeedForward([m.f for m in models])
        self.encoder = BatchedFeedForward([m.autoencoder.encoder for m in models])
        self.decoder = BatchedFeedForward([m.autoencoder.decoder for m in models])
        self.z = BatchedFeedForward([m.z for m in models])
        self.training = True

    def parameters(self) -> List[Parameter]:
        """All stacked parameters (f, encoder, decoder, z)."""
        return (
            self.f.params() + self.encoder.params() + self.decoder.params() + self.z.params()
        )

    def train(self, mode: bool = True) -> "BatchedModelBank":
        """Set training mode (affects dropout in the batched forward)."""
        self.training = bool(mode)
        return self

    def eval(self) -> "BatchedModelBank":
        """Set evaluation mode."""
        return self.train(False)

    def forward(
        self,
        scaleout: Tensor,
        properties: Tensor,
        counts: Optional[Tensor] = None,
    ) -> Tuple[Tensor, Tensor, Tensor]:
        """Batched Bellamy forward over ``(G, B, ...)`` inputs.

        The op sequence per group mirrors ``BellamyModel.forward`` exactly:
        embedding via f, auto-encoder codes over the flattened property
        rows, essential-slice + optional-mean assembly, and the z head.
        """
        n_groups, batch, n_props, vec = properties.shape
        m, enc = self.n_essential, self.encoding_dim
        embedding = self.f.forward(scaleout, counts, self.training)
        flat = properties.reshape(n_groups, batch * n_props, vec)
        # Each sample contributes n_props flattened property rows, so the
        # auto-encoder's valid-row counts are counts * n_props. Computing it
        # as a tensor op keeps the product live across tape replays.
        counts_flat = None if counts is None else counts * float(n_props)
        codes = self.encoder.forward(flat, counts_flat, self.training)
        reconstruction = self.decoder.forward(codes, counts_flat, self.training)
        codes4 = codes.reshape(n_groups, batch, n_props, enc)
        essential = codes4[:, :, :m, :].reshape(n_groups, batch, m * enc)
        parts = [embedding, essential]
        if self.use_optional:
            if n_props <= m:
                raise ValueError(
                    f"use_optional requires more than {m} property vectors, got {n_props}"
                )
            parts.append(codes4[:, :, m:, :].mean(axis=2))
        combined = cat(parts, axis=2)
        prediction = self.z.forward(combined, counts, self.training).reshape(n_groups, batch)
        return prediction, reconstruction, flat

    def write_back(self) -> None:
        """Push trained group slices back into the original models."""
        self.f.write_back()
        self.encoder.write_back()
        self.decoder.write_back()
        self.z.write_back()


# ---------------------------------------------------------------------- #
# Lockstep training (per-group Trainer.fit semantics)
# ---------------------------------------------------------------------- #


class GroupProgress:
    """Per-group early-stopping bookkeeping for a lockstep training loop.

    Replicates :meth:`repro.nn.trainer.Trainer.fit` per group: history,
    best-metric tracking with ``min_delta``, and the serial stop order
    (target, then patience, then the epoch budget). The loop calls
    :meth:`record` after computing a group's epoch metrics (snapshotting on
    improvement), then :meth:`check_stop` after any epoch-end callbacks.

    :func:`fit_groups` drives it once per lockstep epoch::

        progress = GroupProgress(n_groups, monitor="val_mae",
                                 patiences=[20] * n_groups, max_epochs=250)
        for g in active_groups:               # after one lockstep epoch
            progress.record(g, epoch, metrics[g])
            progress.check_stop(g, epoch, metrics[g])
    """

    def __init__(
        self,
        n_groups: int,
        monitor: Union[str, Sequence[str]] = "mae",
        targets: Optional[Sequence[Optional[float]]] = None,
        patiences: Optional[Sequence[Optional[int]]] = None,
        min_delta: float = 0.0,
        max_epochs: Union[int, Sequence[int]] = 1,
    ) -> None:
        self.n_groups = int(n_groups)
        # One monitored metric per group (a pretraining batch may mix
        # "val_mae" groups with validation-less "mae" groups).
        self.monitors = (
            [monitor] * n_groups if isinstance(monitor, str) else list(monitor)
        )
        self.targets = list(targets) if targets is not None else [None] * n_groups
        self.patiences = list(patiences) if patiences is not None else [None] * n_groups
        self.min_delta = float(min_delta)
        if isinstance(max_epochs, int):
            self.max_epochs = [max_epochs] * n_groups
        else:
            self.max_epochs = [int(e) for e in max_epochs]
        self.active = [True] * n_groups
        self.best_metric = [float("inf")] * n_groups
        self.best_epoch = [-1] * n_groups
        self.stop_reason = ["max_epochs"] * n_groups
        self.history: List[List[Dict[str, float]]] = [[] for _ in range(n_groups)]
        self.epochs_run = [0] * n_groups

    @property
    def any_active(self) -> bool:
        """Whether any group still trains."""
        return any(self.active)

    def record(self, g: int, epoch: int, metrics: Dict[str, float]) -> bool:
        """Append one epoch's metrics; return True when the monitor improved."""
        self.history[g].append(metrics)
        self.epochs_run[g] = epoch + 1
        monitored = metrics.get(self.monitors[g])
        if monitored is not None and monitored < self.best_metric[g] - self.min_delta:
            self.best_metric[g] = monitored
            self.best_epoch[g] = epoch
            return True
        return False

    def check_stop(self, g: int, epoch: int, metrics: Dict[str, float]) -> None:
        """Serial stop order: target, patience, then the epoch budget."""
        monitored = metrics.get(self.monitors[g])
        target = self.targets[g]
        if target is not None and monitored is not None and monitored <= target:
            self.active[g] = False
            self.stop_reason[g] = "target"
            return
        patience = self.patiences[g]
        if patience is not None and epoch - self.best_epoch[g] >= patience:
            self.active[g] = False
            self.stop_reason[g] = "patience"
            return
        if epoch + 1 >= self.max_epochs[g]:
            self.active[g] = False  # stop_reason stays "max_epochs"

    def result(self, g: int) -> TrainResult:
        """Assemble the group's :class:`~repro.nn.trainer.TrainResult`."""
        return TrainResult(
            epochs_trained=self.epochs_run[g],
            best_epoch=self.best_epoch[g],
            best_metric=self.best_metric[g],
            stop_reason=self.stop_reason[g],
            history=self.history[g],
        )


class ParamSnapshots:
    """Per-group best-state buffers over stacked parameters (restore-best).

    The batched analogue of the serial trainer's best-state snapshot::

        snapshots = ParamSnapshots(bank.parameters())
        snapshots.save(g)      # group g improved its monitored metric
        snapshots.restore(g)   # group g stopped: rewind to its best epoch
    """

    def __init__(self, params: Sequence[Parameter]) -> None:
        self.params = list(params)
        self.bufs = [np.empty_like(p.data) for p in self.params]
        self.saved = [False] * (self.params[0].data.shape[0] if self.params else 0)

    def save(self, g: int) -> None:
        """Snapshot group ``g``'s current parameter slices."""
        for param, buf in zip(self.params, self.bufs):
            np.copyto(buf[g], param.data[g])
        self.saved[g] = True

    def restore(self, g: int) -> None:
        """Restore group ``g``'s best snapshot (no-op when never saved)."""
        if not self.saved[g]:
            return
        for param, buf in zip(self.params, self.bufs):
            np.copyto(param.data[g], buf[g])


def _validation_mae(
    bank: BatchedModelBank,
    data: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    val_rows: Sequence[np.ndarray],
) -> Callable[[], Dict[int, float]]:
    """Per-epoch validation MAE (seconds) of every group with validation rows.

    One gradient-free full-batch replay in eval mode (no dropout draws)
    serves all groups; each group's MAE reads only its own valid rows.
    """
    n_groups = bank.n_groups
    sizes = [int(rows.size) for rows in val_rows]
    n_props, vec_size = data[0][1].shape[1:]
    feats = np.zeros((n_groups, max(sizes), 3), dtype=np.float64)
    props = np.zeros((n_groups, max(sizes), n_props, vec_size), dtype=np.float64)
    counts = np.array(sizes, dtype=np.float64)
    targets = [data[g][2][val_rows[g]] for g in range(n_groups)]
    for g, rows in enumerate(val_rows):
        feats[g, : rows.size] = data[g][0][rows]
        props[g, : rows.size] = data[g][1][rows]

    def build(features_t: Tensor, properties_t: Tensor, counts_t: Tensor):
        prediction, _, _ = bank.forward(features_t, properties_t, counts=counts_t)
        return (prediction,)

    compiler = GraphCompiler(build, params=bank.parameters)

    def evaluate() -> Dict[int, float]:
        was_training = bank.training
        bank.eval()
        try:
            with no_grad():
                (prediction,) = compiler.run(feats, props, counts)
        finally:
            bank.train(was_training)
        out: Dict[int, float] = {}
        for g in range(n_groups):
            if sizes[g]:
                residual = bank.models[g].denormalize_runtimes(
                    prediction.data[g, : sizes[g]] - targets[g]
                )
                out[g] = float(np.abs(residual).mean())
        return out

    return evaluate


def fit_groups(
    bank: BatchedModelBank,
    build: Callable[..., Sequence[Tensor]],
    optimizer: BatchedAdam,
    data: Sequence[Tuple[np.ndarray, np.ndarray, np.ndarray]],
    rows: Sequence[np.ndarray],
    rngs: Sequence[np.random.Generator],
    batch_sizes: Sequence[int],
    max_epochs: Sequence[int],
    targets: Optional[Sequence[Optional[float]]] = None,
    patiences: Optional[Sequence[Optional[int]]] = None,
    gates: Optional[Sequence[Optional[np.ndarray]]] = None,
    lr_schedules: Optional[Sequence[Callable[[int], float]]] = None,
    terms: Sequence[str] = (),
    val_rows: Optional[Sequence[np.ndarray]] = None,
    on_epoch_end: Optional[Callable[[int, List[int]], None]] = None,
) -> List[TrainResult]:
    """Train every group of ``bank`` in lockstep, each as its own ``Trainer.fit``.

    The group-axis twin of :meth:`repro.nn.trainer.Trainer.fit`, bit for
    bit per group: group ``g`` shuffles ``rows[g]`` (indices into its
    ``data[g] = (scaled_features, properties, scaled_targets)``) with
    ``rngs[g]`` once per epoch it is active, and its mini-batches of
    ``batch_sizes[g]`` rows are packed into zero-padded ``(G, width, ...)``
    buffers with per-group valid ``counts``. Each step replays one compiled
    ``build(features, properties, targets, counts)`` -- returning
    ``(loss, prediction, *terms)`` with ``(G,)`` loss and term heads -- and
    commits a masked ``optimizer`` step for the groups with a batch. Groups
    run out of batches, stop, and restore their best state independently.

    Parameters
    ----------
    gates:
        Aligned with ``optimizer.params``: ``None`` or a live ``(G,)`` bool
        array of the groups allowed to update that parameter (the caller
        may flip entries, e.g. from ``on_epoch_end``).
    lr_schedules:
        Per-group ``epoch -> lr``, applied at the start of each epoch; the
        optimizer's learning rates stay fixed when omitted.
    terms:
        Names of the extra loss terms ``build`` returns after the
        prediction; they are reported as sample-weighted epoch metrics.
    val_rows:
        Per-group validation rows. A group with any is monitored on its
        full-batch ``val_mae`` after each epoch, others on training ``mae``.
    on_epoch_end:
        ``(epoch, active_groups)`` callback, run after the best-state
        snapshots and before the stop checks (the serial callback slot).

    ``targets``, ``patiences`` and ``max_epochs`` are the per-group stop
    rules of :class:`GroupProgress`. On return every group holds its best
    state and the bank is written back into its models.

    >>> import numpy as np
    >>> from repro.core.config import BellamyConfig
    >>> from repro.core.model import BellamyModel
    >>> from repro.data.schema import JobContext
    >>> from repro.nn.batched import BatchedAdam, BatchedModelBank
    >>> from repro.nn.batched import fit_groups, huber_loss_batched
    >>> context = JobContext("sgd", "m4.xlarge", 10_000.0, "dense", ())
    >>> machines, runtimes = np.array([2.0, 4.0, 6.0]), np.array([400.0, 250.0, 200.0])
    >>> models, data = [BellamyModel(BellamyConfig(seed=s)) for s in (0, 1)], []
    >>> for model in models:
    ...     raw, props = model.featurizer.build_context_arrays(context, machines)
    ...     model.fit_scaler(raw)
    ...     model.set_runtime_scale(runtimes)
    ...     data.append((model.scaler.transform(raw), props, model.normalize_runtimes(runtimes)))
    >>> bank = BatchedModelBank(models)
    >>> def build(features, properties, targets, counts):
    ...     prediction, _, _ = bank.forward(features, properties, counts=counts)
    ...     return huber_loss_batched(prediction, targets, counts=counts), prediction
    >>> results = fit_groups(
    ...     bank, build, BatchedAdam(bank.parameters(), n_groups=2), data,
    ...     rows=[np.arange(3)] * 2, rngs=[np.random.default_rng(g) for g in (0, 1)],
    ...     batch_sizes=[2, 2], max_epochs=[3, 5])
    >>> [r.epochs_trained for r in results]
    [3, 5]
    """
    n_groups = bank.n_groups
    models = bank.models
    params = optimizer.params
    gates = list(gates) if gates is not None else [None] * len(params)
    ns = [int(r.size) for r in rows]
    width = max(min(bs, n) for bs, n in zip(batch_sizes, ns))
    n_props, vec_size = data[0][1].shape[1:]

    feats_buf = np.zeros((n_groups, width, 3), dtype=np.float64)
    props_buf = np.zeros((n_groups, width, n_props, vec_size), dtype=np.float64)
    targ_buf = np.zeros((n_groups, width), dtype=np.float64)
    counts = np.zeros(n_groups, dtype=np.float64)
    dirty = [False] * n_groups
    step_mask = np.zeros(n_groups, dtype=bool)
    compiler = GraphCompiler(build, params=bank.parameters)

    has_val = [val_rows is not None and val_rows[g].size > 0 for g in range(n_groups)]
    evaluate = _validation_mae(bank, data, val_rows) if any(has_val) else None
    progress = GroupProgress(
        n_groups,
        monitor=["val_mae" if v else "mae" for v in has_val],
        targets=targets,
        patiences=patiences,
        max_epochs=list(max_epochs),
    )
    snapshots = ParamSnapshots(params)
    keys = ("loss", "mae") + tuple(terms)
    bank.train()

    epoch = 0
    while progress.any_active:
        active = [g for g in range(n_groups) if progress.active[g]]
        if lr_schedules is not None:
            for g in active:
                optimizer.lr[g] = lr_schedules[g](epoch)
        orders = {g: rngs[g].permutation(rows[g]) for g in active}
        n_batches = {g: math.ceil(ns[g] / batch_sizes[g]) for g in active}
        totals = [[0.0] * len(keys) for _ in range(n_groups)]
        seen = [0] * n_groups

        for b in range(max(n_batches.values())):
            step_mask[:] = False
            for g in range(n_groups):
                if g in n_batches and b < n_batches[g]:
                    bs = batch_sizes[g]
                    idx = orders[g][b * bs : b * bs + bs]
                    c = idx.size
                    feats_buf[g, :c] = data[g][0][idx]
                    props_buf[g, :c] = data[g][1][idx]
                    targ_buf[g, :c] = data[g][2][idx]
                    if c < width:
                        feats_buf[g, c:] = 0.0
                        props_buf[g, c:] = 0.0
                        targ_buf[g, c:] = 0.0
                    counts[g] = float(c)
                    step_mask[g] = True
                    dirty[g] = True
                else:
                    counts[g] = 0.0
                    if dirty[g]:
                        feats_buf[g] = 0.0
                        props_buf[g] = 0.0
                        targ_buf[g] = 0.0
                        dirty[g] = False

            optimizer.zero_grad()
            loss_t, prediction, *term_ts = compiler.run(feats_buf, props_buf, targ_buf, counts)
            if loss_t.requires_grad:
                compiler.backward()
                optimizer.step([step_mask if gate is None else step_mask & gate for gate in gates])

            for g in range(n_groups):
                if not step_mask[g]:
                    continue
                c = int(counts[g])
                residual = models[g].denormalize_runtimes(
                    prediction.data[g, :c] - targ_buf[g, :c]
                )
                values = [float(loss_t.data[g]), float(np.abs(residual).mean())]
                values += [float(t.data[g]) for t in term_ts]
                for k, value in enumerate(values):
                    totals[g][k] += value * c
                seen[g] += c

        eval_out = evaluate() if evaluate is not None else {}
        metrics_map = {}
        for g in active:
            epoch_metrics = {key: total / seen[g] for key, total in zip(keys, totals[g])}
            if g in eval_out:
                epoch_metrics["val_mae"] = eval_out[g]
            epoch_metrics["lr"] = float(optimizer.lr[g])
            metrics_map[g] = epoch_metrics
            if progress.record(g, epoch, epoch_metrics):
                snapshots.save(g)
        if on_epoch_end is not None:
            on_epoch_end(epoch, active)
        for g in active:
            progress.check_stop(g, epoch, metrics_map[g])
        epoch += 1

    for g in range(n_groups):
        snapshots.restore(g)
    bank.write_back()
    return [progress.result(g) for g in range(n_groups)]
