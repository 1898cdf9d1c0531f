"""Tests of min-max scaling and the scale-out feature maps."""

from __future__ import annotations

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st
from hypothesis.extra import numpy as hnp

from repro.encoding.scaleout import bellamy_features, ernest_features
from repro.encoding.scaling import MinMaxScaler


class TestMinMaxScaler:
    def test_fit_transform_unit_box(self):
        data = np.array([[0.0, 10.0], [5.0, 20.0], [10.0, 30.0]])
        out = MinMaxScaler().fit_transform(data)
        np.testing.assert_allclose(out.min(axis=0), [0.0, 0.0])
        np.testing.assert_allclose(out.max(axis=0), [1.0, 1.0])

    def test_transform_before_fit_raises(self):
        with pytest.raises(RuntimeError):
            MinMaxScaler().transform(np.ones((2, 2)))

    def test_boundaries_frozen_after_fit(self):
        scaler = MinMaxScaler().fit(np.array([[0.0], [10.0]]))
        out = scaler.transform(np.array([[20.0]]))
        assert out[0, 0] == pytest.approx(2.0)  # outside the box, by design

    def test_constant_column_maps_to_half(self):
        scaler = MinMaxScaler().fit(np.array([[3.0, 1.0], [3.0, 2.0]]))
        out = scaler.transform(np.array([[3.0, 1.5]]))
        assert out[0, 0] == pytest.approx(0.5)

    def test_fit_validation(self):
        with pytest.raises(ValueError):
            MinMaxScaler().fit(np.ones(3))
        with pytest.raises(ValueError):
            MinMaxScaler().fit(np.ones((0, 2)))

    def test_state_roundtrip(self):
        scaler = MinMaxScaler().fit(np.array([[0.0, 1.0], [2.0, 5.0]]))
        other = MinMaxScaler()
        other.load_state_dict(scaler.state_dict())
        data = np.array([[1.0, 3.0]])
        np.testing.assert_allclose(scaler.transform(data), other.transform(data))

    def test_empty_state_means_unfit(self):
        scaler = MinMaxScaler()
        assert scaler.state_dict() == {}
        scaler.load_state_dict({})
        assert not scaler.is_fit

    @given(
        hnp.arrays(
            np.float64, (5, 3), elements=st.floats(-100, 100, allow_nan=False)
        )
    )
    @settings(max_examples=30, deadline=None)
    def test_training_data_always_in_unit_box(self, data):
        out = MinMaxScaler().fit_transform(data)
        assert (out >= -1e-9).all() and (out <= 1.0 + 1e-9).all()

    @given(
        hnp.arrays(np.float64, (4, 3), elements=st.floats(-100, 100, allow_nan=False)),
        hnp.arrays(np.float64, (6, 3), elements=st.floats(-1e3, 1e3, allow_nan=False)),
    )
    @settings(max_examples=40, deadline=None)
    def test_transform_matches_masked_reference(self, fit_data, data):
        """Byte-equal to the per-column masked formula, constant columns
        included (the first column of the fit data is forced constant)."""
        fit_data[:, 0] = fit_data[0, 0]
        scaler = MinMaxScaler().fit(fit_data)
        span = scaler.max_ - scaler.min_
        varying = span != 0
        reference = np.full_like(data, 0.5)
        reference[:, varying] = (data[:, varying] - scaler.min_[varying]) / span[varying]
        assert scaler.transform(data).tobytes() == reference.tobytes()


class TestScaleoutFeatures:
    def test_bellamy_columns(self):
        out = bellamy_features([2, 4])
        np.testing.assert_allclose(out[:, 0], [0.5, 0.25])
        np.testing.assert_allclose(out[:, 1], np.log([2.0, 4.0]))
        np.testing.assert_allclose(out[:, 2], [2.0, 4.0])

    def test_ernest_has_intercept(self):
        out = ernest_features([3, 6])
        np.testing.assert_allclose(out[:, 0], [1.0, 1.0])
        assert out.shape == (2, 4)

    def test_positive_scaleouts_required(self):
        with pytest.raises(ValueError):
            bellamy_features([0])
        with pytest.raises(ValueError):
            ernest_features([-1])

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            bellamy_features([])

    def test_scalar_input(self):
        assert bellamy_features(4).shape == (1, 3)
