import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

import chain_oracle as chain
from kgmlsm import autodiff as ad
from kgmlsm import losses
from kgmlsm.errors import ShapeError
from kgmlsm.losses import LossConfig, drought_weight, sm_loss, total_loss, yield_loss


class TestSmLoss:
    def test_perfect_prediction(self):
        s = np.random.default_rng(0).uniform(0, 1, (4, 13, 2))
        assert float(sm_loss(s, s).data) == 0.0

    def test_hand_value(self):
        assert float(sm_loss(np.array([1.0, 0.0]), np.array([0.0, 0.0])).data) \
            == pytest.approx(0.5)

    def test_symmetry(self):
        rng = np.random.default_rng(1)
        a, b = rng.normal(size=(3, 5)), rng.normal(size=(3, 5))
        assert float(sm_loss(a, b).data) == pytest.approx(float(sm_loss(b, a).data), abs=1e-15)

    def test_shape_mismatch(self):
        with pytest.raises(ShapeError):
            sm_loss(np.zeros((2, 3)), np.zeros((3, 2)))


class TestDroughtWeight:
    def test_worked_values(self):
        assert drought_weight(0.0, 1.0) == pytest.approx(1.0)
        assert drought_weight(1.0, 1.0) == pytest.approx(0.5)

    def test_strictly_decreasing(self):
        grid = np.linspace(0, 1, 50)
        w = drought_weight(grid, 1.0)
        assert np.all(np.diff(w) < 0)

    def test_negative_sbar_rejected(self):
        with pytest.raises(ValueError):
            drought_weight(-0.1, 1.0)

    def test_zero_epsilon_rejected(self):
        with pytest.raises(ValueError):
            drought_weight(0.5, 0.0)


class TestYieldLoss:
    def test_underestimate_worked_value(self):
        # d = 1 via sbar = 0, eps = 1
        out = yield_loss(np.array([10.0]), np.array([8.0]), np.array([0.0]),
                         LossConfig(lam=2.0))
        assert float(out.data) == pytest.approx(4.0)

    def test_overestimate_worked_value(self):
        out = yield_loss(np.array([8.0]), np.array([10.0]), np.array([0.0]),
                         LossConfig(lam=2.0))
        assert float(out.data) == pytest.approx(12.0)

    def test_over_under_ratio_is_one_plus_lambda(self):
        for lam in (0.0, 1.0, 2.0, 5.0, 10.0):
            cfg = LossConfig(lam=lam)
            over = float(yield_loss(np.array([8.0]), np.array([10.0]), np.array([0.0]), cfg).data)
            under = float(yield_loss(np.array([10.0]), np.array([8.0]), np.array([0.0]), cfg).data)
            assert over / under == pytest.approx(1.0 + lam, rel=1e-12)

    def test_zero_residual(self):
        y = np.array([4.0, 9.0, 11.0])
        out = yield_loss(y, y.copy(), np.full(3, 0.3), LossConfig())
        assert float(out.data) == 0.0

    @settings(max_examples=60, deadline=None)
    @given(st.floats(1e-6, 50.0), st.floats(0.01, 10.0))
    def test_asymmetry_for_positive_lambda(self, e, lam):
        cfg = LossConfig(lam=lam)
        y = np.array([5.0])
        sbar = np.array([0.25])
        over = float(yield_loss(y, y + e, sbar, cfg).data)
        under = float(yield_loss(y, y - e, sbar, cfg).data)
        assert over > under

    def test_symmetric_when_lambda_zero(self):
        cfg = LossConfig(lam=0.0)
        y = np.array([5.0])
        sbar = np.array([0.25])
        over = float(yield_loss(y, y + 1.5, sbar, cfg).data)
        under = float(yield_loss(y, y - 1.5, sbar, cfg).data)
        assert over == pytest.approx(under, rel=1e-14)

    def test_drier_sample_contributes_more(self):
        cfg = LossConfig()
        y, y_hat = np.array([8.0]), np.array([9.0])
        dry = float(yield_loss(y, y_hat, np.array([0.1]), cfg).data)
        wet = float(yield_loss(y, y_hat, np.array([0.5]), cfg).data)
        assert dry > wet

    def test_reduces_to_scaled_mse(self):
        rng = np.random.default_rng(2)
        y = rng.uniform(4, 12, 20)
        y_hat = rng.uniform(4, 12, 20)
        sbar = np.full(20, 0.3)
        cfg = LossConfig(lam=0.0)
        out = float(yield_loss(y, y_hat, sbar, cfg).data)
        mse = ((y - y_hat) ** 2).mean()
        assert out == pytest.approx(mse / 1.3, rel=1e-12)

    def test_length_mismatch(self):
        with pytest.raises(ShapeError):
            yield_loss(np.zeros(3), np.zeros(2), np.zeros(3), LossConfig())

    def test_empty_batch_refused(self):
        with pytest.raises(ShapeError, match="empty batch"):
            yield_loss(np.zeros(0), np.zeros(0), np.zeros(0), LossConfig())

    def test_gradient_continuous_at_equality(self):
        cfg = LossConfig(lam=2.0)
        y = np.array([7.0])
        sbar = np.array([0.2])
        grads = []
        for delta in (1e-8, -1e-8):
            store = ad.ParamStore([("y_hat", y + delta)])
            out = yield_loss(y, store["y_hat"], sbar, cfg)
            grads.append(ad.gradients(out, store)[0])
        # the max(0,.)^2 term is C1: both one-sided gradients vanish together
        assert abs(grads[0] - grads[1]) < 1e-6

    def test_no_gradient_through_sbar(self):
        # sbar enters as a constant; only y_hat receives gradient
        store = ad.ParamStore([("y_hat", np.array([9.0]))])
        out = yield_loss(np.array([8.0]), store["y_hat"], np.array([0.3]), LossConfig())
        grads = ad.gradients(out, store)
        assert grads.shape == (1,)
        assert grads[0] != 0.0


class TestTotalLoss:
    def test_zero_plus_zero(self):
        assert float(total_loss(0.0, 0.0).data) == 0.0

    def test_addition(self):
        assert float(total_loss(0.5, 12.0).data) == pytest.approx(12.5)

    def test_gradient_additivity(self):
        rng = np.random.default_rng(3)

        def build():
            store = ad.ParamStore([("theta", rng.normal(size=(13, 2)))])
            theta = store["theta"]
            s = np.zeros((13, 2))
            smt = sm_loss(s, theta)
            y_hat = chain.reshape(ad.scale(ad.mean(theta), 3.0), (1,))
            yt = yield_loss(np.array([5.0]), y_hat, np.array([0.2]), LossConfig())
            return store, smt, yt

        rng = np.random.default_rng(3)
        store, smt, yt = build()
        g_total = ad.gradients(total_loss(smt, yt), store)
        rng = np.random.default_rng(3)
        store, smt, yt = build()
        g_sm = ad.gradients(smt, store)
        rng = np.random.default_rng(3)
        store, smt, yt = build()
        g_y = ad.gradients(yt, store)
        np.testing.assert_allclose(g_total, g_sm + g_y, rtol=1e-12, atol=1e-14)


class TestLossConfig:
    def test_negative_lambda_rejected(self):
        with pytest.raises(ValueError):
            LossConfig(lam=-1.0)

    def test_nonpositive_epsilon_rejected(self):
        with pytest.raises(ValueError):
            LossConfig(epsilon=0.0)
