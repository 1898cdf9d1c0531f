"""Gradient-based optimizers: SGD (with momentum), Adam, AdamW.

The paper trains every Bellamy variant with Adam plus L2 weight decay (the
coupled variant PyTorch's ``torch.optim.Adam(weight_decay=...)`` implements).
AdamW (decoupled decay) is provided for ablations.
"""

from __future__ import annotations

from typing import Dict, Iterable, List, Optional

import numpy as np

from repro.nn.module import Parameter


class Optimizer:
    """Base optimizer holding a list of parameters and a learning rate."""

    def __init__(self, params: Iterable[Parameter], lr: float) -> None:
        self.params: List[Parameter] = list(params)
        if not self.params:
            raise ValueError("optimizer received no parameters")
        if lr <= 0:
            raise ValueError(f"learning rate must be > 0, got {lr}")
        self.lr = float(lr)
        self.state: Dict[int, Dict[str, np.ndarray]] = {}

    def zero_grad(self) -> None:
        """Clear gradients on all managed parameters."""
        for param in self.params:
            param.zero_grad()

    def step(self) -> None:
        """Apply one update. Subclasses implement :meth:`_update`."""
        for param in self.params:
            if not param.requires_grad or param.grad is None:
                continue
            self._update(param)

    def _update(self, param: Parameter) -> None:
        raise NotImplementedError

    def _state_for(self, param: Parameter) -> Dict[str, np.ndarray]:
        return self.state.setdefault(id(param), {})


class SGD(Optimizer):
    """Stochastic gradient descent with optional (Nesterov) momentum."""

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float,
        momentum: float = 0.0,
        weight_decay: float = 0.0,
        nesterov: bool = False,
    ) -> None:
        super().__init__(params, lr)
        if not 0.0 <= momentum < 1.0:
            raise ValueError(f"momentum must be in [0, 1), got {momentum}")
        if weight_decay < 0:
            raise ValueError(f"weight decay must be >= 0, got {weight_decay}")
        if nesterov and momentum == 0.0:
            raise ValueError("nesterov momentum requires momentum > 0")
        self.momentum = momentum
        self.weight_decay = weight_decay
        self.nesterov = nesterov

    def _update(self, param: Parameter) -> None:
        grad = param.grad
        if self.weight_decay:
            grad = grad + self.weight_decay * param.data
        if self.momentum:
            state = self._state_for(param)
            velocity = state.get("velocity")
            if velocity is None:
                velocity = np.zeros_like(param.data)
            velocity = self.momentum * velocity + grad
            state["velocity"] = velocity
            grad = grad + self.momentum * velocity if self.nesterov else velocity
        param.data -= self.lr * grad


class _AdamPartition:
    """Flat state of parameters sharing one Adam step count.

    Every Adam operation is elementwise, so parameters can be packed into
    one contiguous buffer and updated with ~13 ufunc calls per *partition*
    instead of ~12 per *parameter* — on the tiny layers of this project the
    per-call overhead dominates, so this is the difference between the
    optimizer being a third of the training step and a rounding error.
    Updates are bitwise-identical to the per-parameter form.

    Parameters are grouped by their step count ``t`` (the bias correction
    differs per ``t``): with staged unfreezing (``unfreeze_after``) newly
    activated parameters start their own partition, and partitions advance
    in lockstep afterwards.
    """

    __slots__ = ("params", "t", "m", "v", "g", "s1", "s2", "g_views", "s1_views")

    def __init__(self, members, t: int) -> None:
        self.params = tuple(p for p, _, _ in members)
        self.t = t
        total = sum(p.data.size for p in self.params)
        self.m = np.concatenate([m for _, m, _ in members]) if members else np.zeros(0)
        self.v = np.concatenate([v for _, _, v in members]) if members else np.zeros(0)
        self.g = np.zeros(total)
        self.s1 = np.empty(total)
        self.s2 = np.empty(total)
        self.g_views, self.s1_views = [], []
        offset = 0
        for param in self.params:
            size = param.data.size
            shape = param.data.shape
            self.g_views.append(self.g[offset : offset + size].reshape(shape))
            # Per-param windows into the s1 scratch: _flat_decay gathers
            # param data through them, and _flat_apply later reads the
            # computed step through the very same views — the aliasing on
            # s1 is deliberate and time-disjoint.
            self.s1_views.append(self.s1[offset : offset + size].reshape(shape))
            offset += size


class Adam(Optimizer):
    """Adam with coupled (L2) weight decay, matching ``torch.optim.Adam``.

    The implementation packs same-age parameters into flat buffers (see
    :class:`_AdamPartition`); the public ``state`` dict keeps the usual
    per-parameter view (``state[id(p)]["m"/"v"/"t"]``) as aliases into them.
    """

    def __init__(
        self,
        params: Iterable[Parameter],
        lr: float = 1e-3,
        betas: tuple = (0.9, 0.999),
        eps: float = 1e-8,
        weight_decay: float = 0.0,
    ) -> None:
        super().__init__(params, lr)
        beta1, beta2 = betas
        if not 0.0 <= beta1 < 1.0 or not 0.0 <= beta2 < 1.0:
            raise ValueError(f"betas must be in [0, 1), got {betas}")
        if eps <= 0:
            raise ValueError(f"eps must be > 0, got {eps}")
        if weight_decay < 0:
            raise ValueError(f"weight decay must be >= 0, got {weight_decay}")
        self.beta1, self.beta2 = beta1, beta2
        self.eps = eps
        self.weight_decay = weight_decay
        self._partitions: List[_AdamPartition] = []
        self._active_key: Optional[tuple] = None

    def step(self) -> None:
        """Apply one update to every parameter that received a gradient."""
        active = [p for p in self.params if p.requires_grad and p.grad is not None]
        if not active:
            return
        key = tuple(id(p) for p in active)
        if key != self._active_key:
            self._rebuild(active, key)
        for part in self._partitions:
            self._step_partition(part)

    def _rebuild(self, active: List[Parameter], key: tuple) -> None:
        """Repartition after the trainable set changed (freeze/unfreeze)."""
        members = []
        for param in active:
            state = self.state.get(id(param))
            if state is None:
                m = np.zeros(param.data.size)
                v = np.zeros(param.data.size)
                t = 0
            else:  # copy out of the old partition's buffers before they die
                m = np.asarray(state["m"], dtype=np.float64).reshape(-1).copy()
                v = np.asarray(state["v"], dtype=np.float64).reshape(-1).copy()
                t = int(state["t"])
            members.append((t, param, m, v))
        self._partitions = []
        for t in sorted({t for t, _, _, _ in members}):
            group = [(p, m, v) for mt, p, m, v in members if mt == t]
            part = _AdamPartition(group, t)
            self._partitions.append(part)
            offset = 0
            for index, param in enumerate(part.params):
                size = param.data.size
                shape = param.data.shape
                self.state[id(param)] = {
                    "m": part.m[offset : offset + size].reshape(shape),
                    "v": part.v[offset : offset + size].reshape(shape),
                    "t": t,
                }
                # Steer gradient accumulation straight into the flat buffer:
                # the next zero_grad/backward cycle reuses this view, making
                # the gather in _step_partition a no-op.
                param._grad_buf = part.g_views[index]
                offset += size
        self._active_key = key

    def _step_partition(self, part: _AdamPartition) -> None:
        for param, view in zip(part.params, part.g_views):
            if param.grad is not view:
                np.copyto(view, param.grad)
                # Adopt the flat window as the parameter's gradient so the
                # next zero_grad stashes *it* for reuse — from the second
                # step on, backward accumulates directly into the flat
                # buffer and this gather is an identity check.
                param.grad = view
        part.t += 1
        t = part.t
        g_eff = self._flat_decay(part)
        m, v, s2 = part.m, part.v, part.s2
        np.multiply(g_eff, 1.0 - self.beta1, out=s2)
        np.multiply(m, self.beta1, out=m)
        np.add(m, s2, out=m)
        np.multiply(g_eff, g_eff, out=s2)  # grad**2
        np.multiply(s2, 1.0 - self.beta2, out=s2)
        np.multiply(v, self.beta2, out=v)
        np.add(v, s2, out=v)
        np.divide(m, 1.0 - self.beta1**t, out=part.s1)  # m_hat
        np.divide(v, 1.0 - self.beta2**t, out=s2)  # v_hat
        self._flat_apply(part, part.s1, s2)
        for param in part.params:
            self.state[id(param)]["t"] = t

    def _flat_decay(self, part: _AdamPartition) -> np.ndarray:
        """Effective flat gradient (coupled L2 decay); may use ``part.s1``."""
        if not self.weight_decay:
            return part.g
        for param, view in zip(part.params, part.s1_views):
            np.copyto(view, param.data)
        np.multiply(part.s1, self.weight_decay, out=part.s1)
        np.add(part.g, part.s1, out=part.s1)
        return part.s1

    def _flat_apply(self, part: _AdamPartition, m_hat: np.ndarray, v_hat: np.ndarray) -> None:
        """Write ``lr * m_hat / (sqrt(v_hat) + eps)``; clobbers both scratches."""
        np.multiply(m_hat, self.lr, out=m_hat)
        np.sqrt(v_hat, out=v_hat)
        np.add(v_hat, self.eps, out=v_hat)
        np.divide(m_hat, v_hat, out=m_hat)
        for param, view in zip(part.params, part.s1_views):
            np.subtract(param.data, view, out=param.data)


class AdamW(Adam):
    """Adam with decoupled weight decay (Loshchilov & Hutter, 2019)."""

    def _flat_decay(self, part: _AdamPartition) -> np.ndarray:
        return part.g  # decay applied directly to the weights in _flat_apply

    def _flat_apply(self, part: _AdamPartition, m_hat: np.ndarray, v_hat: np.ndarray) -> None:
        if self.weight_decay:
            for param in part.params:
                param.data -= self.lr * self.weight_decay * param.data
        super()._flat_apply(part, m_hat, v_hat)
