"""Composite differentiable functions built from tensor primitives.

Most functions here compose the primitives of :mod:`repro.nn.tensor`, so no
hand-written gradients are needed — correctness reduces to the gradcheck of
the primitives.

The exceptions are the *fused kernels* on the training hot path:
:func:`selu`, :func:`linear_act` (affine + activation in one op), and
:func:`huber_loss`. Each is a single primitive with a hand-written backward
that recomputes its masks from live buffers, which makes them both faster
(one graph node instead of up to ten) and safe for compiled-tape replay —
the composed equivalents go through :func:`repro.nn.tensor.where`, whose
trace-time condition cannot be replayed. Reference compositions are kept as
``*_reference`` for the gradcheck suite. :func:`affine_act` is
:func:`linear_act`'s arithmetic on plain arrays, which graph-free
inference runs too.
"""

from __future__ import annotations

from typing import Optional

import numpy as np

from repro.nn.tensor import Tensor, _unbroadcast, active_tape, maximum, where

# Constants of the SELU activation (Klambauer et al., 2017). These values make
# activations converge to zero mean / unit variance for standard-normal inputs.
SELU_ALPHA: float = 1.6732632423543772848170429916717
SELU_SCALE: float = 1.0507009873554804934193349852946


def relu(x: Tensor) -> Tensor:
    """Rectified linear unit."""
    return maximum(x, 0.0)


def leaky_relu(x: Tensor, negative_slope: float = 0.01) -> Tensor:
    """Leaky ReLU with configurable negative slope."""
    return where(x.data > 0.0, x, x * negative_slope)


def elu(x: Tensor, alpha: float = 1.0) -> Tensor:
    """Exponential linear unit."""
    return where(x.data > 0.0, x, (x.exp() - 1.0) * alpha)


def _selu_into(x: np.ndarray, out: np.ndarray, scratch: Optional[np.ndarray] = None) -> None:
    """Write ``selu(x)`` into ``out``, which may be ``x`` itself (used by
    forward, tape replay and in-place inference)."""
    e = scratch if scratch is not None else np.empty_like(x)
    np.exp(x, out=e)
    e -= 1.0
    e *= SELU_ALPHA
    if out is not x:
        np.copyto(out, x)
    np.copyto(out, e, where=x <= 0.0)
    out *= SELU_SCALE


def _selu_backward(grad: np.ndarray, x: np.ndarray) -> np.ndarray:
    """Gradient of SELU w.r.t. ``x``, recomputed from the live input."""
    scaled = grad * SELU_SCALE
    return np.where(x > 0.0, scaled, (scaled * SELU_ALPHA) * np.exp(x))


def selu(x: Tensor) -> Tensor:
    """Self-normalizing exponential linear unit (SELU), as one fused op.

    ``selu(x) = scale * (x if x > 0 else alpha * (exp(x) - 1))``

    The backward recomputes its mask from the input's live buffer, so the
    op replays correctly on a compiled tape (unlike the ``where``-based
    composition, kept as :func:`selu_reference` for the gradcheck suite).
    """
    x_t = x if isinstance(x, Tensor) else Tensor(x)
    out_data = np.empty_like(x_t.data)
    _selu_into(x_t.data, out_data)

    def backward_fn(grad: np.ndarray) -> None:
        if x_t.requires_grad:
            x_t._accumulate(_selu_backward(grad, x_t.data))

    def forward_fn(out: Tensor) -> None:
        _selu_into(x_t.data, out.data)

    return Tensor._make(out_data, (x_t,), backward_fn, forward_fn, op="selu")


def selu_reference(x: Tensor) -> Tensor:
    """SELU composed from primitives (the pre-fusion implementation)."""
    return elu(x, alpha=SELU_ALPHA) * SELU_SCALE


def tanh(x: Tensor) -> Tensor:
    """Hyperbolic tangent."""
    return x.tanh()


def sigmoid(x: Tensor) -> Tensor:
    """Logistic sigmoid."""
    return x.sigmoid()


def identity(x: Tensor) -> Tensor:
    """No-op activation."""
    return x


def softplus(x: Tensor) -> Tensor:
    """Numerically-stable softplus ``log(1 + exp(x))``."""
    # max(x, 0) + log(1 + exp(-|x|)) avoids overflow for large |x|.
    return relu(x) + ((-x.abs()).exp() + 1.0).log()


def dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Standard (inverted) dropout.

    During training, zeroes each element with probability ``p`` and rescales
    the survivors by ``1 / (1 - p)`` so the expectation is unchanged.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    keep = 1.0 - p
    mask_t = Tensor((rng.random(x.shape) < keep).astype(np.float64) / keep)
    _register_mask_refresh(
        mask_t,
        lambda out: np.copyto(
            out.data, (rng.random(out.data.shape) < keep).astype(np.float64) / keep
        ),
    )
    return x * mask_t


def alpha_dropout(x: Tensor, p: float, rng: np.random.Generator, training: bool = True) -> Tensor:
    """Alpha dropout (Klambauer et al., 2017) for SELU networks.

    Instead of zeroing units, dropped units are set to the SELU saturation
    value ``alpha' = -scale * alpha``; an affine correction then restores zero
    mean and unit variance. This keeps the self-normalizing property intact,
    which plain dropout would destroy.
    """
    if not 0.0 <= p < 1.0:
        raise ValueError(f"alpha dropout probability must be in [0, 1), got {p}")
    if not training or p == 0.0:
        return x
    alpha_prime = -SELU_SCALE * SELU_ALPHA
    keep = 1.0 - p
    # Affine correction (a, b) chosen so E[out] = 0 and Var[out] = 1 for
    # standard-normal inputs; see the self-normalizing networks paper, eq. 4.
    a = (keep + alpha_prime**2 * keep * (1.0 - keep)) ** -0.5
    b = -a * (1.0 - keep) * alpha_prime
    mask_t = Tensor((rng.random(x.shape) < keep).astype(np.float64))
    _register_mask_refresh(
        mask_t,
        lambda out: np.copyto(out.data, (rng.random(out.data.shape) < keep).astype(np.float64)),
    )
    dropped = x * mask_t + (1.0 - mask_t) * alpha_prime
    return dropped * a + b


def _register_mask_refresh(mask_t: Tensor, refresh) -> None:
    """Make a freshly drawn dropout mask replayable on the active tape.

    The refresh thunk draws the *next* mask from the same generator into
    the recorded buffer, so a compiled replay consumes the RNG stream
    exactly like the eager loop it replaced (one draw per step) — training
    stays bit-identical with and without the tape.
    """
    tape = active_tape()
    if tape is not None:
        tape.add(mask_t, refresh, safe=True, op="dropout-mask")


def mse_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean squared error."""
    diff = prediction - target
    return (diff * diff).mean()


def mae_loss(prediction: Tensor, target: Tensor) -> Tensor:
    """Mean absolute error."""
    return (prediction - target).abs().mean()


def huber_loss(prediction: Tensor, target: Tensor, delta: float = 1.0) -> Tensor:
    """Huber loss: quadratic within ``delta`` of the target, linear outside.

    Matches ``torch.nn.HuberLoss``: for residual ``r``,
    ``0.5 * r**2`` when ``|r| <= delta`` else ``delta * (|r| - 0.5 * delta)``.

    Implemented as one fused primitive (residual, branch, and mean in a
    single graph node). The backward recomputes the branch mask from the
    live prediction/target buffers, so the op replays on a compiled tape;
    the ~10-node composition it replaces is kept as
    :func:`huber_loss_reference`.
    """
    if delta <= 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    p_t = prediction if isinstance(prediction, Tensor) else Tensor(prediction)
    t_t = target if isinstance(target, Tensor) else Tensor(target)
    # Persistent scratch: residual and branch buffers are reused across
    # tape replays instead of reallocated every step.
    residual = np.empty(np.broadcast_shapes(p_t.shape, t_t.shape), dtype=np.float64)
    abs_residual = np.empty_like(residual)
    branch = np.empty_like(residual)

    def loss_value() -> float:
        np.subtract(p_t.data, t_t.data, out=residual)
        np.abs(residual, out=abs_residual)
        np.multiply(residual, residual, out=branch)
        np.multiply(branch, 0.5, out=branch)  # quadratic branch in place
        np.copyto(branch, abs_residual * delta - 0.5 * delta * delta, where=abs_residual > delta)
        return branch.sum() * (1.0 / branch.size)

    out_data = np.asarray(loss_value(), dtype=np.float64)
    inv_n = 1.0 / max(residual.size, 1)
    d_residual = np.empty_like(residual)

    def backward_fn(grad: np.ndarray) -> None:
        # residual/abs_residual are fresh: forward ran earlier this step.
        scaled = grad * inv_n
        np.multiply(residual, scaled, out=d_residual)  # quadratic region
        np.sign(residual, out=branch)
        np.multiply(branch, scaled * delta, out=branch)  # linear region
        np.copyto(d_residual, branch, where=abs_residual > delta)
        if p_t.requires_grad:
            p_t._accumulate(_unbroadcast(d_residual, p_t.shape))
        if t_t.requires_grad:
            t_t._accumulate(_unbroadcast(-d_residual, t_t.shape))

    def forward_fn(out: Tensor) -> None:
        np.copyto(out.data, loss_value())

    return Tensor._make(out_data, (p_t, t_t), backward_fn, forward_fn, op="huber")


def huber_loss_reference(prediction: Tensor, target: Tensor, delta: float = 1.0) -> Tensor:
    """Huber loss composed from primitives (the pre-fusion implementation)."""
    if delta <= 0:
        raise ValueError(f"delta must be > 0, got {delta}")
    residual = prediction - target
    abs_residual = residual.abs()
    quadratic = residual * residual * 0.5
    linear = abs_residual * delta - 0.5 * delta * delta
    return where(abs_residual.data <= delta, quadratic, linear).mean()


def linear(x: Tensor, weight: Tensor, bias: Optional[Tensor] = None) -> Tensor:
    """Affine map ``x @ weight.T + bias`` (PyTorch weight layout)."""
    out = x @ weight.T
    if bias is not None:
        out = out + bias
    return out


#: Activations :func:`linear_act` can fuse with the affine map. The backward
#: of each needs only the live pre-activation (refreshed in place on tape
#: replay), so the fused op stays replay-safe.
FUSABLE_ACTIVATIONS = ("selu", "tanh", "identity")


def _activate_into(
    pre: np.ndarray, out: np.ndarray, activation: str, scratch: Optional[np.ndarray] = None
) -> None:
    """Write ``activation(pre)`` into ``out`` (which may be ``pre``) for
    one of :data:`FUSABLE_ACTIVATIONS` — the activation half of
    :func:`affine_act`, shared with the group-axis kernel
    :func:`repro.nn.batched.linear_act_batched`."""
    if activation == "selu":
        _selu_into(pre, out, scratch)
    elif activation == "tanh":
        np.tanh(pre, out=out)
    elif out is not pre:  # identity
        np.copyto(out, pre)


def affine_act(
    x: np.ndarray,
    weight: np.ndarray,
    bias: Optional[np.ndarray],
    activation: str,
    pre: Optional[np.ndarray] = None,
    out: Optional[np.ndarray] = None,
    scratch: Optional[np.ndarray] = None,
) -> np.ndarray:
    """Plain-array ``activation(x @ weight.T + bias)``; returns ``out``.

    The one definition of the fused arithmetic: :func:`linear_act`'s eager
    forward, its tape replay and the graph-free inference path
    (:meth:`repro.nn.layers.FeedForward.forward_array`) all run it, so the
    three agree bit for bit. ``pre`` receives the pre-activation (allocated
    when ``None``) and ``out`` the result; ``out`` defaults to ``pre``
    itself, in place, for callers that need no pre-activation.
    ``weight`` is multiplied through its transposed *view*: a contiguous
    copy would change the BLAS call and round differently. ``activation``
    must be one of :data:`FUSABLE_ACTIVATIONS`.
    """
    pre = np.matmul(x, weight.T, out=pre)
    if bias is not None:
        np.add(pre, bias, out=pre)
    if out is None:
        out = pre
    _activate_into(pre, out, activation, scratch)
    return out


def linear_act(
    x: Tensor,
    weight: Tensor,
    bias: Optional[Tensor] = None,
    activation: str = "selu",
) -> Tensor:
    """Fused ``activation(x @ weight.T + bias)`` as a single graph node.

    This is the hot op of every training step: the eager composition costs
    a transpose node, a matmul node, a broadcast add, and up to seven nodes
    of SELU — the fusion collapses them into one node with one hand-written
    backward. Gradients match the composition to machine precision (the
    gradcheck suite verifies against both finite differences and the
    unfused reference).
    """
    if activation not in FUSABLE_ACTIVATIONS:
        raise ValueError(
            f"cannot fuse activation {activation!r}; fusable: {FUSABLE_ACTIVATIONS}"
        )
    x_t = x if isinstance(x, Tensor) else Tensor(x)
    if x_t.ndim != 2 or weight.ndim != 2:
        raise ValueError(
            f"linear_act expects 2-D input and weight, got {x_t.ndim}-D and {weight.ndim}-D"
        )

    # The pre-activation buffer persists with the op: the backward derives
    # its masks from it, and tape replays refresh it in place.
    pre = np.empty((x_t.shape[0], weight.shape[0]))
    scratch = np.empty_like(pre) if activation == "selu" else None
    out_data = np.empty_like(pre)
    bias_data = None if bias is None else bias.data
    affine_act(x_t.data, weight.data, bias_data, activation, pre, out_data, scratch)

    d_buf = np.empty_like(pre) if activation != "identity" else None

    def accumulate_matmul(param: Tensor, a: np.ndarray, b: np.ndarray) -> None:
        """``param.grad += a @ b``, straight into the reusable gradient
        buffer for the (common) first contribution of the step."""
        if param.grad is None:
            buf = param._grad_buf
            if buf is not None and buf.shape == (a.shape[0], b.shape[1]):
                np.matmul(a, b, out=buf)
                param.grad = buf
                return
            param.grad = a @ b
        else:
            param.grad += a @ b

    def backward_fn(grad: np.ndarray) -> None:
        if activation == "selu":
            # dselu = where(pre > 0, scale, scale*alpha*exp(pre)), applied to
            # grad — all in the persistent scratch buffers.
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
        if x_t.requires_grad:
            accumulate_matmul(x_t, d_pre, weight.data)
        if weight.requires_grad:
            accumulate_matmul(weight, d_pre.T, x_t.data)
        if bias is not None and bias.requires_grad:
            bias._accumulate(d_pre.sum(axis=0))

    def forward_fn(out: Tensor) -> None:
        bias_data = None if bias is None else bias.data
        affine_act(x_t.data, weight.data, bias_data, activation, pre, out.data, scratch)

    parents = (x_t, weight) if bias is None else (x_t, weight, bias)
    return Tensor._make(out_data, parents, backward_fn, forward_fn, op="linear_act")


def normalize_unit_sphere(x: Tensor, eps: float = 1e-12) -> Tensor:
    """Project row vectors onto the Euclidean unit sphere."""
    squared = (x * x).sum(axis=-1, keepdims=True)
    return x / (squared + eps).sqrt()
