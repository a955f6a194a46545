"""Evaluation metrics against hand-computed and two-pass reference values."""
import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from surplusminer.errors import ValidationError
from surplusminer.metrics import evaluate, mae, mse, r2

paired = st.lists(
    st.tuples(
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
        st.floats(min_value=-1e6, max_value=1e6, allow_nan=False),
    ),
    min_size=2,
    max_size=50,
)


class TestKnownValues:
    def test_mse_hand_computed(self):
        # errors 1, -2, 3 -> (1 + 4 + 9) / 3
        actual = [10.0, 20.0, 30.0]
        pred = [9.0, 22.0, 27.0]
        assert mse(actual, pred) == pytest.approx(14.0 / 3.0, rel=1e-12)

    def test_mae_hand_computed(self):
        actual = [10.0, 20.0, 30.0]
        pred = [9.0, 22.0, 27.0]
        assert mae(actual, pred) == pytest.approx(2.0, rel=1e-12)

    def test_r2_perfect_and_mean(self):
        actual = [1.0, 2.0, 3.0, 4.0]
        assert r2(actual, actual) == pytest.approx(1.0, abs=1e-12)
        mean_pred = [2.5] * 4
        assert r2(actual, mean_pred) == pytest.approx(0.0, abs=1e-12)

    def test_r2_worse_than_mean_is_negative(self):
        actual = [1.0, 2.0, 3.0]
        assert r2(actual, [30.0, -10.0, 7.0]) < 0.0


class TestReferenceFormulas:
    def test_two_pass_oracle(self):
        rng = np.random.default_rng(11)
        actual = rng.normal(100.0, 10.0, size=500)
        pred = actual + rng.normal(0.0, 3.0, size=500)

        n = len(actual)
        want_mse = sum((float(a) - float(p)) ** 2 for a, p in zip(actual, pred)) / n
        want_mae = sum(abs(float(a) - float(p)) for a, p in zip(actual, pred)) / n
        mean = sum(float(a) for a in actual) / n
        ss_res = sum((float(a) - float(p)) ** 2 for a, p in zip(actual, pred))
        ss_tot = sum((float(a) - mean) ** 2 for a in actual)
        want_r2 = 1.0 - ss_res / ss_tot

        assert mse(actual, pred) == pytest.approx(want_mse, rel=1e-12)
        assert mae(actual, pred) == pytest.approx(want_mae, rel=1e-12)
        assert r2(actual, pred) == pytest.approx(want_r2, rel=1e-12)


class TestProperties:
    @given(paired)
    @settings(max_examples=60, deadline=None)
    def test_mae_squared_at_most_mse(self, pairs):
        actual = [a for a, _ in pairs]
        pred = [p for _, p in pairs]
        assert mae(actual, pred) ** 2 <= mse(actual, pred) * (1.0 + 1e-9) + 1e-9

    @given(paired)
    @settings(max_examples=60, deadline=None)
    def test_permutation_invariance(self, pairs):
        actual = [a for a, _ in pairs]
        pred = [p for _, p in pairs]
        rev_a = list(reversed(actual))
        rev_p = list(reversed(pred))
        assert mse(actual, pred) == pytest.approx(mse(rev_a, rev_p), rel=1e-9, abs=1e-9)
        assert mae(actual, pred) == pytest.approx(mae(rev_a, rev_p), rel=1e-9, abs=1e-9)

    def test_shift_invariance_of_mse(self):
        actual = [1.0, 2.0, 3.0]
        pred = [1.5, 2.5, 2.0]
        shifted_a = [a + 100.0 for a in actual]
        shifted_p = [p + 100.0 for p in pred]
        assert mse(actual, pred) == pytest.approx(mse(shifted_a, shifted_p), rel=1e-9)


class TestValidation:
    def test_r2_constant_actual_rejected(self):
        with pytest.raises(ValidationError, match="constant"):
            r2([5.0, 5.0, 5.0], [1.0, 2.0, 3.0])


class TestEvaluate:
    def test_report_fields(self):
        rep = evaluate("forest", "test", [1.0, 2.0, 3.0], [1.0, 2.0, 4.0])
        assert rep.model == "forest"
        assert rep.split == "test"
        assert rep.n == 3
        assert rep.mse == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert rep.mae == pytest.approx(1.0 / 3.0, rel=1e-12)
        assert rep.r2 == pytest.approx(1.0 - (1.0 / 3.0) / (2.0 / 3.0), rel=1e-12)
