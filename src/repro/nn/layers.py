"""Concrete layers: Linear, activations, dropout variants, MLP helper."""

from __future__ import annotations

from typing import Callable, Optional, Sequence

import numpy as np

from repro.nn import functional as F
from repro.nn.init import get_initializer
from repro.nn.module import Module, Parameter
from repro.nn.tensor import Tensor, no_grad
from repro.utils.rng import SeedLike, new_rng


class Linear(Module):
    """Affine layer ``y = x @ W.T + b`` with PyTorch weight layout.

    Parameters
    ----------
    in_features, out_features:
        Input/output widths.
    bias:
        Whether to learn an additive bias. The Bellamy auto-encoder waives
        biases; the other components keep them.
    init:
        Name of the weight initializer (see :mod:`repro.nn.init`).
    seed:
        Seed for deterministic initialization.
    """

    def __init__(
        self,
        in_features: int,
        out_features: int,
        *,
        bias: bool = True,
        init: str = "he_normal",
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        if in_features <= 0 or out_features <= 0:
            raise ValueError(
                f"feature sizes must be positive, got {in_features} -> {out_features}"
            )
        self.in_features = in_features
        self.out_features = out_features
        self.init_name = init
        initializer = get_initializer(init)
        self.weight = Parameter(initializer((out_features, in_features), seed), name="weight")
        if bias:
            self.bias: Optional[Parameter] = Parameter(np.zeros(out_features), name="bias")
        else:
            self.bias = None

    def forward(self, x: Tensor) -> Tensor:  # noqa: D102
        return F.linear(x, self.weight, self.bias)

    def reset_parameters(self, seed: SeedLike = None) -> None:
        """Re-initialize in place (used by the *reset* fine-tuning variants)."""
        initializer = get_initializer(self.init_name)
        self.weight.data = initializer((self.out_features, self.in_features), seed)
        self.weight.grad = None
        if self.bias is not None:
            self.bias.data = np.zeros(self.out_features)
            self.bias.grad = None

    def __repr__(self) -> str:
        return (
            f"Linear(in={self.in_features}, out={self.out_features}, "
            f"bias={self.bias is not None})"
        )


class Activation(Module):
    """Wraps an activation function as a module."""

    _FUNCTIONS: dict = {
        "selu": F.selu,
        "relu": F.relu,
        "tanh": F.tanh,
        "sigmoid": F.sigmoid,
        "elu": F.elu,
        "leaky_relu": F.leaky_relu,
        "softplus": F.softplus,
        "identity": F.identity,
    }

    def __init__(self, name: str) -> None:
        super().__init__()
        if name not in self._FUNCTIONS:
            raise ValueError(f"unknown activation {name!r}; available: {sorted(self._FUNCTIONS)}")
        self.name = name
        self._fn: Callable[[Tensor], Tensor] = self._FUNCTIONS[name]

    def forward(self, x: Tensor) -> Tensor:  # noqa: D102
        return self._fn(x)

    def __repr__(self) -> str:
        return f"Activation({self.name!r})"


class SELU(Activation):
    """SELU activation module."""

    def __init__(self) -> None:
        super().__init__("selu")


class Tanh(Activation):
    """Tanh activation module."""

    def __init__(self) -> None:
        super().__init__("tanh")


class Identity(Module):
    """Pass-through module."""

    def forward(self, x: Tensor) -> Tensor:  # noqa: D102
        return x


class Dropout(Module):
    """Standard inverted dropout (active only in training mode)."""

    def __init__(self, p: float, seed: SeedLike = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = new_rng(seed)

    def forward(self, x: Tensor) -> Tensor:  # noqa: D102
        return F.dropout(x, self.p, self._rng, training=self.training)

    def __repr__(self) -> str:
        return f"Dropout(p={self.p})"


class AlphaDropout(Module):
    """Alpha dropout for SELU networks (active only in training mode)."""

    def __init__(self, p: float, seed: SeedLike = None) -> None:
        super().__init__()
        if not 0.0 <= p < 1.0:
            raise ValueError(f"alpha dropout probability must be in [0, 1), got {p}")
        self.p = p
        self._rng = new_rng(seed)

    def forward(self, x: Tensor) -> Tensor:  # noqa: D102
        return F.alpha_dropout(x, self.p, self._rng, training=self.training)

    def __repr__(self) -> str:
        return f"AlphaDropout(p={self.p})"


class FeedForward(Module):
    """Two-layer feed-forward network as defined in the paper (Eq. 2).

    ``h = sigma(W2 @ phi(W1 @ x + b1) + b2)`` — the basic building block of
    all four Bellamy components (f, g, h, z). Optional alpha-dropout between
    the layers mirrors the auto-encoder configuration.
    """

    def __init__(
        self,
        in_features: int,
        hidden_features: int,
        out_features: int,
        *,
        hidden_activation: str = "selu",
        output_activation: str = "selu",
        bias: bool = True,
        dropout: float = 0.0,
        init: str = "he_normal",
        seed: SeedLike = None,
    ) -> None:
        super().__init__()
        rng = new_rng(seed)
        seed1 = int(rng.integers(0, 2**31 - 1))
        seed2 = int(rng.integers(0, 2**31 - 1))
        seed3 = int(rng.integers(0, 2**31 - 1))
        self.layer1 = Linear(in_features, hidden_features, bias=bias, init=init, seed=seed1)
        self.activation1 = Activation(hidden_activation)
        self.drop = AlphaDropout(dropout, seed=seed3) if dropout > 0 else Identity()
        self.layer2 = Linear(hidden_features, out_features, bias=bias, init=init, seed=seed2)
        self.activation2 = Activation(output_activation)

    def forward(self, x: Tensor) -> Tensor:  # noqa: D102
        hidden = self._fused_layer(self.layer1, self.activation1, x)
        hidden = self.drop(hidden)
        return self._fused_layer(self.layer2, self.activation2, hidden)

    def _fused_layer(self, layer: Linear, activation: Activation, x: Tensor) -> Tensor:
        """Affine + activation — as one fused kernel whenever possible."""
        if activation.name in F.FUSABLE_ACTIVATIONS and x.ndim == 2:
            return F.linear_act(x, layer.weight, layer.bias, activation.name)
        return activation(layer(x))

    def forward_array(self, x: np.ndarray) -> np.ndarray:
        """Inference forward on a plain array, bit-identical to
        :meth:`forward` in eval mode.

        Fusable layers run :func:`repro.nn.functional.affine_act` on the
        live parameter arrays and build no graph; dropout is skipped, as it
        is the identity in eval mode.
        """
        hidden = self._array_layer(self.layer1, self.activation1, x)
        return self._array_layer(self.layer2, self.activation2, hidden)

    @staticmethod
    def _array_layer(layer: Linear, activation: Activation, x: np.ndarray) -> np.ndarray:
        if activation.name in F.FUSABLE_ACTIVATIONS and x.ndim == 2:
            bias = None if layer.bias is None else layer.bias.data
            return F.affine_act(x, layer.weight.data, bias, activation.name)
        with no_grad():
            return activation(layer(Tensor(x))).data

    def reset_parameters(self, seed: SeedLike = None) -> None:
        """Re-initialize both linear layers."""
        rng = new_rng(seed)
        self.layer1.reset_parameters(int(rng.integers(0, 2**31 - 1)))
        self.layer2.reset_parameters(int(rng.integers(0, 2**31 - 1)))

    def set_dropout(self, p: float) -> None:
        """Change the dropout probability (0 disables, used for fine-tuning)."""
        if isinstance(self.drop, (AlphaDropout, Dropout)):
            if p == 0.0:
                self.drop = Identity()
            else:
                self.drop.p = p
        elif p > 0.0:
            self.drop = AlphaDropout(p)


def mlp(
    sizes: Sequence[int],
    *,
    hidden_activation: str = "selu",
    output_activation: str = "identity",
    bias: bool = True,
    init: str = "he_normal",
    seed: SeedLike = None,
):
    """Build a multi-layer perceptron as a :class:`Sequential` of layers."""
    from repro.nn.module import Sequential

    if len(sizes) < 2:
        raise ValueError("mlp() needs at least an input and an output size")
    rng = new_rng(seed)
    modules = []
    for idx in range(len(sizes) - 1):
        layer_seed = int(rng.integers(0, 2**31 - 1))
        modules.append(Linear(sizes[idx], sizes[idx + 1], bias=bias, init=init, seed=layer_seed))
        is_last = idx == len(sizes) - 2
        modules.append(Activation(output_activation if is_last else hidden_activation))
    return Sequential(*modules)
