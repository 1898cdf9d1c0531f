"""Loss modules: Huber, MSE, MAE, and the joint Bellamy objective."""

from __future__ import annotations

from typing import Dict, Sequence, Tuple

from repro.nn import functional as F
from repro.nn.module import Module
from repro.nn.tensor import Tensor


class MSELoss(Module):
    """Mean squared error."""

    def forward(self, prediction: Tensor, target: Tensor) -> Tensor:  # noqa: D102
        return F.mse_loss(prediction, target)


class MAELoss(Module):
    """Mean absolute error (L1)."""

    def forward(self, prediction: Tensor, target: Tensor) -> Tensor:  # noqa: D102
        return F.mae_loss(prediction, target)


class HuberLoss(Module):
    """Huber loss with configurable transition point ``delta``."""

    def __init__(self, delta: float = 1.0) -> None:
        super().__init__()
        if delta <= 0:
            raise ValueError(f"delta must be > 0, got {delta}")
        self.delta = delta

    def forward(self, prediction: Tensor, target: Tensor) -> Tensor:  # noqa: D102
        return F.huber_loss(prediction, target, delta=self.delta)

    def __repr__(self) -> str:
        return f"HuberLoss(delta={self.delta})"


class JointLoss(Module):
    """Weighted sum of named loss terms.

    Bellamy's pre-training objective is
    ``Huber(runtime) + MSE(reconstruction)``; this module generalizes that to
    any weighted combination and reports the individual terms so training
    curves can be monitored per component.
    """

    def __init__(self, terms: Sequence[Tuple[str, Module, float]]) -> None:
        super().__init__()
        if not terms:
            raise ValueError("JointLoss requires at least one term")
        self.term_names = []
        self.term_weights: Dict[str, float] = {}
        for name, module, weight in terms:
            if weight < 0:
                raise ValueError(f"loss weight for {name!r} must be >= 0, got {weight}")
            setattr(self, f"term_{name}", module)
            self.term_names.append(name)
            self.term_weights[name] = float(weight)

    def forward(self, pairs: Dict[str, Tuple[Tensor, Tensor]]) -> Tuple[Tensor, Dict[str, float]]:
        """Evaluate all terms.

        Parameters
        ----------
        pairs:
            Mapping from term name to ``(prediction, target)``.

        Returns
        -------
        (total, parts):
            ``total`` is the weighted scalar loss tensor; ``parts`` maps each
            term name to its detached float value.
        """
        total: Tensor = None  # type: ignore[assignment]
        parts: Dict[str, float] = {}
        for name in self.term_names:
            if name not in pairs:
                raise KeyError(f"missing predictions for loss term {name!r}")
            module = getattr(self, f"term_{name}")
            prediction, target = pairs[name]
            value = module(prediction, target)
            parts[name] = value.item()
            weighted = value * self.term_weights[name]
            total = weighted if total is None else total + weighted
        return total, parts
