"""Compiled computation tapes: record a graph once, replay it every step.

The training loops in this project rebuild a *structurally identical*
autograd graph for every mini-batch: same ops, same shapes, only the input
values change. Eagerly, each step pays for Tensor allocation, one backward
closure per op, and a topological sort — pure Python overhead that dwarfs
the arithmetic on networks this small (the widest layer has 40 units).

A :class:`Tape` removes that overhead. During one eager *recording* pass
(see :func:`repro.nn.tensor.recording`) every primitive registers a forward
thunk that recomputes its output **in place** from its parents' current
``.data`` buffers. Replaying a step is then:

1. copy the new input values into the recorded input tensors' buffers,
2. run the forward thunks in recording order (no graph rebuild),
3. for backward: clear stale intermediate gradients, seed the output, and
   walk the topological order captured at record time.

Because every buffer is refreshed in place, the backward closures captured
at record time keep reading correct values — the replayed step is
*bit-identical* to the eager step it replaced (a property the tests assert
by comparing trained weights).

:class:`GraphCompiler` is the user-facing entry point: it memoizes tapes
per input-shape/parameter signature, transparently re-records when a
parameter is frozen, unfrozen, or its buffer replaced (``load_state_dict``),
and silently falls back to eager execution when the recorded graph contains
an op that cannot be replayed (``where`` with a data-dependent condition,
stochastic masks without a refresh hook). Set ``REPRO_NO_TAPE=1`` to force
eager execution everywhere — the before/after benchmark harness uses this.
"""

from __future__ import annotations

import os
from typing import Callable, Iterable, List, Optional, Sequence, Tuple

import numpy as np

from repro.nn.tensor import Tensor, recording

#: Environment variable disabling compiled tapes (for benchmarking/debugging).
NO_TAPE_ENV = "REPRO_NO_TAPE"

#: Cache sentinel for signatures whose graph cannot be replayed.
_EAGER = object()


def tape_enabled() -> bool:
    """Whether compiled tapes are enabled (default: yes)."""
    return os.environ.get(NO_TAPE_ENV, "").strip().lower() not in ("1", "true", "yes")


class Tape:
    """One recorded computation: forward thunks plus the backward schedule."""

    __slots__ = (
        "steps",
        "unsafe",
        "inputs",
        "outputs",
        "_clear_nodes",
        "_backward_nodes",
        "_seed",
    )

    def __init__(self) -> None:
        self.steps: List[Tuple[Tensor, Callable[[Tensor], None]]] = []
        self.unsafe: List[str] = []
        self.inputs: Tuple[Tensor, ...] = ()
        self.outputs: Tuple[Tensor, ...] = ()
        self._clear_nodes: Tuple[Tensor, ...] = ()
        self._backward_nodes: Tuple[Tensor, ...] = ()
        self._seed: Optional[np.ndarray] = None

    # ------------------------------------------------------------------ #
    # Recording (called by the primitives in repro.nn.tensor)
    # ------------------------------------------------------------------ #

    def add(
        self,
        out: Tensor,
        forward_fn: Optional[Callable[[Tensor], None]],
        safe: bool = True,
        op: str = "op",
    ) -> None:
        """Register one op's output and its in-place forward thunk."""
        if forward_fn is None or not safe:
            self.unsafe.append(op)
        elif not self.unsafe:  # once poisoned, stop collecting
            self.steps.append((out, forward_fn))

    def finalize(self, inputs: Sequence[Tensor], outputs: Sequence[Tensor]) -> None:
        """Freeze the tape after recording: capture the backward schedule."""
        self.inputs = tuple(inputs)
        self.outputs = tuple(outputs)
        head = self.outputs[0]
        if head.requires_grad:
            order = head._topological_order()
            with_backward = tuple(n for n in order if n._backward_fn is not None)
            self._clear_nodes = with_backward
            self._backward_nodes = tuple(reversed(with_backward))
            self._seed = np.ones_like(head.data)

    # ------------------------------------------------------------------ #
    # Replay
    # ------------------------------------------------------------------ #

    def replay(self, arrays: Sequence[np.ndarray]) -> Tuple[Tensor, ...]:
        """Recompute every recorded buffer for new input values."""
        for holder, array in zip(self.inputs, arrays):
            np.copyto(holder.data, array)
        for out, forward_fn in self.steps:
            forward_fn(out)
        return self.outputs

    def backward(self) -> None:
        """Backward pass over the recorded schedule (no topological sort).

        Only interior nodes (those carrying a backward closure) have their
        stale gradients cleared, so leaf parameters keep the accumulation
        semantics of eager mode — the optimizer's ``zero_grad`` owns them.
        """
        head = self.outputs[0]
        if not head.requires_grad:
            raise RuntimeError("backward() on a tape recorded without gradients")
        for node in self._clear_nodes:
            if node.grad is not None:
                node._grad_buf = node.grad
                node.grad = None
        head._accumulate(self._seed)
        for node in self._backward_nodes:
            if node.grad is not None:
                node._backward_fn(node.grad)


class CompiledLoss:
    """Duck-typed stand-in for the scalar loss tensor a trainer consumes.

    Exposes exactly the surface :class:`repro.nn.trainer.Trainer` touches
    (``requires_grad``, ``backward()``, ``item()``, ``data``) and routes
    ``backward()`` through the owning compiler — the tape's precomputed
    schedule when compiled, the tensor's own backward when eager.
    """

    __slots__ = ("_compiler",)

    def __init__(self, compiler: "GraphCompiler") -> None:
        self._compiler = compiler

    @property
    def _loss(self) -> Tensor:
        loss = self._compiler._last_loss
        if loss is None:
            raise RuntimeError("CompiledLoss used before the compiler ran")
        return loss

    @property
    def requires_grad(self) -> bool:
        return self._loss.requires_grad

    @property
    def data(self) -> np.ndarray:
        return self._loss.data

    def item(self) -> float:
        return float(self._loss.data.reshape(-1)[0])

    def backward(self) -> None:
        self._compiler.backward()


class GraphCompiler:
    """Memoizes compiled tapes of one graph-building function.

    Parameters
    ----------
    build:
        ``build(*input_tensors) -> (output, *aux)`` — constructs the graph
        eagerly from input tensors and returns the output tensor first
        (the one ``backward()`` seeds), plus any auxiliary tensors the
        caller wants to read after each step (e.g. predictions for
        metrics). Returning a bare tensor is treated as a 1-tuple.
    params:
        Optional zero-arg callable returning the parameters the graph
        depends on (typically ``model.parameters``). Their identity,
        ``requires_grad`` flags, and data-buffer identities enter the cache
        signature, so freezing/unfreezing or ``load_state_dict`` triggers
        re-recording instead of replaying a stale schedule.
    enabled:
        Force-enable/disable compilation; defaults to :func:`tape_enabled`.

    The caller must keep a compiler to a single mode of its model
    (train/eval) — the mode is baked into the recorded graph.
    """

    def __init__(
        self,
        build: Callable[..., object],
        params: Optional[Callable[[], Iterable[Tensor]]] = None,
        enabled: Optional[bool] = None,
    ) -> None:
        self._build = build
        self._params = params
        self._param_list: Optional[Tuple[Tensor, ...]] = None
        self._tapes: dict = {}
        self._enabled = tape_enabled() if enabled is None else bool(enabled)
        self._last_loss: Optional[Tensor] = None
        self._last_tape: Optional[Tape] = None
        self.loss_handle = CompiledLoss(self)

    # ------------------------------------------------------------------ #

    def _signature(self, arrays: Sequence[np.ndarray]) -> tuple:
        shapes = tuple(a.shape for a in arrays)
        if self._params is None:
            return shapes
        if self._param_list is None:
            # The parameter *objects* of a model are stable; only their
            # requires_grad flags and data buffers change. Materialize the
            # (recursive) walk once instead of per step.
            self._param_list = tuple(self._params())
        param_sig = tuple((p.requires_grad, id(p.data)) for p in self._param_list)
        return (shapes, param_sig)

    def _eager(self, arrays: Sequence[np.ndarray]) -> Tuple[Tensor, ...]:
        outputs = self._build(*[Tensor(a) for a in arrays])
        return outputs if isinstance(outputs, tuple) else (outputs,)

    def run(self, *arrays: np.ndarray) -> Tuple[Tensor, ...]:
        """Build (first call per signature) or replay the graph.

        Returns the same tuple structure ``build`` produced; on replays the
        *same tensor objects* are returned with freshly recomputed buffers.
        """
        if not self._enabled:
            outputs = self._eager(arrays)
            self._last_loss, self._last_tape = outputs[0], None
            return outputs

        sig = self._signature(arrays)
        cached = self._tapes.get(sig)
        if cached is _EAGER:
            outputs = self._eager(arrays)
            self._last_loss, self._last_tape = outputs[0], None
            return outputs
        if cached is not None:
            outputs = cached.replay(arrays)
            self._last_loss, self._last_tape = outputs[0], cached
            return outputs

        tape = Tape()
        with recording(tape):
            inputs = [Tensor(a) for a in arrays]
            outputs = self._build(*inputs)
        if not isinstance(outputs, tuple):
            outputs = (outputs,)
        if tape.unsafe:
            self._tapes[sig] = _EAGER
        else:
            tape.finalize(inputs, outputs)
            self._tapes[sig] = tape
        # The recording pass *is* a valid eager pass; its backward (if the
        # tape survived) already uses the precomputed schedule.
        self._last_loss = outputs[0]
        self._last_tape = tape if not tape.unsafe else None
        return outputs

    __call__ = run

    def backward(self) -> None:
        """Backward for the most recent :meth:`run`.

        Non-scalar heads (e.g. a per-group ``(G,)`` loss vector from a
        batched pass) are seeded with ones in the eager fallback, matching
        the seed a compiled tape captures at finalize time.
        """
        if self._last_tape is not None:
            self._last_tape.backward()
        elif self._last_loss is not None:
            loss = self._last_loss
            if loss.data.size == 1:
                loss.backward()
            else:
                loss.backward(np.ones_like(loss.data))
        else:
            raise RuntimeError("GraphCompiler.backward() before run()")

    @property
    def compiled(self) -> bool:
        """Whether the most recent run used a compiled tape."""
        return self._last_tape is not None

    @property
    def n_tapes(self) -> int:
        """Number of distinct compiled tapes (excluding eager fallbacks)."""
        return sum(1 for value in self._tapes.values() if value is not _EAGER)
