"""Feature-wise min-max scaling to (0, 1).

The paper normalizes the input of the scale-out network ``f`` feature-wise to
the range (0, 1), "where the boundaries are determined during training and
used throughout inference" — i.e. the scaler is fit once on training data and
then frozen, so extrapolation test points may legitimately map outside (0, 1).
"""

from __future__ import annotations

from typing import Dict, Optional

import numpy as np


class MinMaxScaler:
    """Per-feature affine map of training range onto [0, 1]."""

    def __init__(self) -> None:
        self.min_: Optional[np.ndarray] = None
        self.max_: Optional[np.ndarray] = None

    @property
    def is_fit(self) -> bool:
        """Whether :meth:`fit` has been called."""
        return self.min_ is not None

    def fit(self, features: np.ndarray) -> "MinMaxScaler":
        """Learn per-column minima and maxima from a 2-D array."""
        features = np.asarray(features, dtype=np.float64)
        if features.ndim != 2 or features.shape[0] == 0:
            raise ValueError(f"fit expects a non-empty 2-D array, got shape {features.shape}")
        self.min_ = features.min(axis=0)
        self.max_ = features.max(axis=0)
        return self

    def transform(self, features: np.ndarray) -> np.ndarray:
        """Map features into the unit box; constant columns map to 0.5."""
        if not self.is_fit:
            raise RuntimeError("MinMaxScaler.transform called before fit")
        features = np.asarray(features, dtype=np.float64)
        span = self.max_ - self.min_
        constant = span == 0
        # Whole-array arithmetic (this runs on every prediction); constant
        # columns divide by 1 and are overwritten below.
        scaled = (features - self.min_) / np.where(constant, 1.0, span)
        # A feature the training data never varied carries no information;
        # mapping it to the box centre keeps inference well-defined.
        scaled[..., constant] = 0.5
        return scaled

    def fit_transform(self, features: np.ndarray) -> np.ndarray:
        """Fit, then transform the same array."""
        return self.fit(features).transform(features)

    def state_dict(self) -> Dict[str, np.ndarray]:
        """Serializable state (empty when unfit)."""
        if not self.is_fit:
            return {}
        return {"min": self.min_.copy(), "max": self.max_.copy()}

    def load_state_dict(self, state: Dict[str, np.ndarray]) -> None:
        """Restore state produced by :meth:`state_dict`."""
        if state:
            self.min_ = np.asarray(state["min"], dtype=np.float64).copy()
            self.max_ = np.asarray(state["max"], dtype=np.float64).copy()
        else:
            self.min_ = None
            self.max_ = None
