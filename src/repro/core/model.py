"""The assembled Bellamy model (paper Fig. 3).

Combines the scale-out network ``f``, the property auto-encoder ``g``/``h``,
and the runtime predictor ``z``. The forward pass implements paper Eq. 5:

    r = e  ⊕  (c^(1) ‖ ... ‖ c^(m))  ⊕  mean(c^(m+1..m+n))
    runtime = z(r)

together with the reconstructions needed for the joint training objective.

Two pieces of *inference state* accompany the network weights and are
persisted with them:

* the min-max boundaries of the scale-out features ("determined during
  training and used throughout inference", paper §IV-A), and
* a runtime normalization constant. The network predicts runtimes in units
  of this constant (set to a high percentile of the training runtimes), which
  keeps the optimization well-conditioned across algorithms whose absolute
  runtimes differ by orders of magnitude; predictions are always reported in
  seconds.
"""

from __future__ import annotations

from typing import Dict, List, Optional, Sequence, Tuple

import numpy as np

from repro.core.components import (
    AutoEncoder,
    RuntimePredictorNetwork,
    ScaleOutNetwork,
)
from repro.core.config import BellamyConfig
from repro.core.features import BellamyFeaturizer
from repro.data.schema import JobContext
from repro.encoding.scaling import MinMaxScaler
from repro.nn.module import Module
from repro.nn.tensor import Tensor, cat, no_grad


class BellamyModel(Module):
    """Neural runtime predictor reusable across execution contexts."""

    def __init__(self, config: Optional[BellamyConfig] = None) -> None:
        super().__init__()
        self.config = config or BellamyConfig()
        self.f = ScaleOutNetwork(self.config)
        self.autoencoder = AutoEncoder(self.config)
        self.z = RuntimePredictorNetwork(self.config)
        self.featurizer = BellamyFeaturizer(self.config)
        self.scaler = MinMaxScaler()
        self.runtime_scale: float = 1.0

    # ------------------------------------------------------------------ #
    # Inference-state management
    # ------------------------------------------------------------------ #

    def fit_scaler(self, scaleout_raw: np.ndarray) -> None:
        """Fit the scale-out min-max boundaries on training features."""
        self.scaler.fit(scaleout_raw)

    def set_runtime_scale(self, runtimes: np.ndarray, percentile: float = 95.0) -> None:
        """Set the runtime normalization constant from training runtimes."""
        runtimes = np.asarray(runtimes, dtype=np.float64)
        if runtimes.size == 0:
            raise ValueError("cannot derive a runtime scale from no runtimes")
        scale = float(np.percentile(runtimes, percentile))
        self.runtime_scale = max(scale, 1e-6)

    def normalize_runtimes(self, runtimes: np.ndarray) -> np.ndarray:
        """Seconds -> model units."""
        return np.asarray(runtimes, dtype=np.float64) / self.runtime_scale

    def denormalize_runtimes(self, scaled: np.ndarray) -> np.ndarray:
        """Model units -> seconds."""
        return np.asarray(scaled, dtype=np.float64) * self.runtime_scale

    # ------------------------------------------------------------------ #
    # Forward
    # ------------------------------------------------------------------ #

    def forward(
        self, scaleout_scaled: Tensor, properties: Tensor
    ) -> Tuple[Tensor, Tensor, Tensor]:
        """Full forward pass.

        Parameters
        ----------
        scaleout_scaled:
            ``(B, 3)`` min-max-scaled scale-out features.
        properties:
            ``(B, P, N)`` encoded property matrices.

        Returns
        -------
        (prediction, reconstruction, flat_properties):
            ``(B,)`` normalized runtime predictions, ``(B*P, N)``
            auto-encoder reconstructions, and the matching ``(B*P, N)``
            property targets (for the reconstruction loss).
        """
        batch, n_props, vec_size = properties.shape
        m = self.config.n_essential
        embedding = self.f(scaleout_scaled)  # (B, F)

        flat = properties.reshape(batch * n_props, vec_size)
        codes = self.autoencoder.encode(flat)  # (B*P, M)
        reconstruction = self.autoencoder.decoder(codes)
        codes3 = codes.reshape(batch, n_props, self.config.encoding_dim)

        essential = codes3[:, :m, :].reshape(batch, m * self.config.encoding_dim)
        parts = [embedding, essential]
        if self.config.use_optional:
            if n_props <= m:
                raise ValueError(
                    f"config expects optional properties but got only {n_props} vectors"
                )
            parts.append(codes3[:, m:, :].mean(axis=1))  # mean code, Eq. 6
        combined = cat(parts, axis=1)  # (B, F + (m+1)*M)
        prediction = self.z(combined).reshape(batch)
        return prediction, reconstruction, flat

    # ------------------------------------------------------------------ #
    # High-level prediction API
    # ------------------------------------------------------------------ #

    def predict(self, context: JobContext, machines: Sequence[float]) -> np.ndarray:
        """Predict runtimes (seconds) of ``context`` at the given scale-outs."""
        scaleout_raw, properties = self.featurizer.build_context_arrays(context, machines)
        return self._predict_arrays(scaleout_raw, properties)

    def _predict_arrays(
        self, scaleout_raw: np.ndarray, properties: np.ndarray
    ) -> np.ndarray:
        if not self.scaler.is_fit:
            raise RuntimeError(
                "model has no fitted scale-out scaler; train or load it first"
            )
        scaled = self.scaler.transform(scaleout_raw)
        if type(self).forward is BellamyModel.forward:
            prediction = self._forward_arrays(scaled, np.asarray(properties, dtype=np.float64))
        else:
            # Subclasses with their own forward (the GNN variant) keep it.
            was_training = self.training
            self.eval()
            try:
                with no_grad():
                    prediction = self.forward(Tensor(scaled), Tensor(properties))[0].data
            finally:
                self.train(was_training)
        # Runtimes are non-negative; aggressive few-shot fine-tuning can push
        # the unconstrained network output below zero far from the training
        # scale-outs, so predictions are clamped at inference.
        return np.maximum(self.denormalize_runtimes(prediction), 0.0)

    def _forward_arrays(self, scaleout_scaled: np.ndarray, properties: np.ndarray) -> np.ndarray:
        """:meth:`forward`'s prediction in eval mode, on plain arrays.

        The same ops in the same order as the Tensor path, so the result is
        bit-identical — but no graph, no mode switch and no decoder (the
        reconstruction only feeds the training loss). Parameters are read
        live on every call, so loaded or fine-tuned weights need no
        invalidation.
        """
        batch, n_props, vec_size = properties.shape
        m = self.config.n_essential
        dim = self.config.encoding_dim
        embedding = self.f.forward_array(scaleout_scaled)
        flat = properties.reshape(batch * n_props, vec_size)
        codes3 = self.autoencoder.encoder.forward_array(flat).reshape(batch, n_props, dim)
        parts = [embedding, codes3[:, :m, :].reshape(batch, m * dim)]
        if self.config.use_optional:
            if n_props <= m:
                raise ValueError(
                    f"config expects optional properties but got only {n_props} vectors"
                )
            # Tensor.mean's arithmetic: sum, then times the reciprocal count.
            parts.append(codes3[:, m:, :].sum(axis=1) * (1.0 / (n_props - m)))
        return self.z.forward_array(np.concatenate(parts, axis=1)).reshape(batch)

    def predict_one(self, context: JobContext, machines: float) -> float:
        """Scalar convenience wrapper around :meth:`predict`."""
        return float(self.predict(context, [machines])[0])

    def predict_batch(
        self, items: Sequence[Tuple[JobContext, Sequence[float]]]
    ) -> List[np.ndarray]:
        """Predict runtimes for many ``(context, machines)`` requests at once.

        All requests are stacked into a single batched forward pass — one
        matmul sweep instead of one Python-level forward per request — and
        the flat prediction vector is split back per request. The serving
        layer (:meth:`repro.api.session.Session.predict_batch`) uses this to
        answer grouped zero-shot traffic.
        """
        if not items:
            return []
        raw_blocks: List[np.ndarray] = []
        property_blocks: List[np.ndarray] = []
        lengths: List[int] = []
        for context, machines in items:
            machines = np.asarray(machines, dtype=np.float64).reshape(-1)
            raw, properties = self.featurizer.build_context_arrays(context, machines)
            raw_blocks.append(raw)
            property_blocks.append(properties)
            lengths.append(machines.size)
        predictions = self._predict_arrays(
            np.concatenate(raw_blocks, axis=0), np.concatenate(property_blocks, axis=0)
        )
        out: List[np.ndarray] = []
        offset = 0
        for length in lengths:
            out.append(predictions[offset : offset + length])
            offset += length
        return out

    def property_codes(self, context: JobContext) -> np.ndarray:
        """The auto-encoder codes of a context's properties (paper Fig. 4)."""
        matrix = np.asarray(self.featurizer.encode_context(context), dtype=np.float64)
        return self.autoencoder.encoder.forward_array(matrix)

    # ------------------------------------------------------------------ #
    # Extended persistence (weights + inference state)
    # ------------------------------------------------------------------ #

    def full_state_dict(self) -> Dict[str, np.ndarray]:
        """Network weights plus scaler boundaries and runtime scale."""
        state = self.state_dict()
        for key, value in self.scaler.state_dict().items():
            state[f"__scaler__.{key}"] = value
        state["__runtime_scale__"] = np.asarray([self.runtime_scale])
        return state

    def load_full_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Inverse of :meth:`full_state_dict`."""
        scaler_state = {
            key.split(".", 1)[1]: value
            for key, value in state.items()
            if key.startswith("__scaler__.")
        }
        self.scaler.load_state_dict(scaler_state)
        if "__runtime_scale__" in state:
            self.runtime_scale = float(np.asarray(state["__runtime_scale__"]).reshape(-1)[0])
        weights = {
            key: value for key, value in state.items() if not key.startswith("__")
        }
        self.load_state_dict(weights)
