import numpy as np
import pytest

from kgmlsm.autodiff import ParamStore
from kgmlsm.errors import ShapeError
from kgmlsm.optim import PlateauScheduler, adam_init, adam_step


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        store = ParamStore()
        store.add("a", np.array([1.0, -2.0]))
        store.add("b", np.array(0.5))
        state = adam_init(store, lr=0.001)
        before = store.to_arrays()
        adam_step(store, {"a": np.zeros(2), "b": np.zeros(())}, state)
        assert state.t == 1
        for name, arr in before.items():
            np.testing.assert_array_equal(store[name].data, arr)

    def test_single_step_matches_hand_evaluation(self):
        store = ParamStore()
        store.add("theta", np.array(0.0))
        state = adam_init(store, lr=0.001)
        adam_step(store, {"theta": np.array(1.0)}, state)
        # bias-corrected first step: m_hat = v_hat = 1
        expected = -0.001 * (1.0 / (np.sqrt(1.0) + 1e-8))
        assert float(store["theta"].data) == pytest.approx(expected, abs=1e-15)
        assert float(store["theta"].data) == pytest.approx(-0.00099999999, abs=1e-12)

    def test_identical_gradients_give_identical_updates(self):
        store = ParamStore()
        store.add("p1", np.array([0.3, -0.7]))
        store.add("p2", np.array([0.3, -0.7]))
        state = adam_init(store, lr=0.01)
        g = np.array([0.5, -1.5])
        adam_step(store, {"p1": g.copy(), "p2": g.copy()}, state)
        np.testing.assert_array_equal(store["p1"].data, store["p2"].data)

    def test_shape_mismatch_rejected(self):
        store = ParamStore()
        store.add("w", np.zeros((2, 2)))
        state = adam_init(store, lr=0.001)
        with pytest.raises(ShapeError):
            adam_step(store, {"w": np.zeros(3)}, state)

    def test_bad_lr_rejected(self):
        store = ParamStore()
        store.add("w", np.zeros(1))
        with pytest.raises(ValueError):
            adam_init(store, lr=0.0)


class TestPlateauScheduler:
    def test_monotonic_improvement_keeps_lr(self):
        sched = PlateauScheduler(lr=0.001)
        for v in np.linspace(1.0, 0.1, 20):
            assert sched.step(v) == 0.001

    def test_five_stalls_halve_lr(self):
        sched = PlateauScheduler(lr=0.001)
        sched.step(1.0)
        for _ in range(4):
            assert sched.step(1.0) == 0.001
        assert sched.step(1.0) == pytest.approx(0.0005)

    def test_improvement_resets_counter(self):
        sched = PlateauScheduler(lr=0.001)
        sched.step(1.0)
        for _ in range(4):
            sched.step(1.0)  # four stalls
        assert sched.step(0.9) == 0.001  # improvement at the brink
        for _ in range(4):
            assert sched.step(0.9) == 0.001
        assert sched.step(0.9) == pytest.approx(0.0005)

    def test_min_lr_floor(self):
        sched = PlateauScheduler(lr=2e-6, min_lr=1e-6)
        sched.step(1.0)
        for _ in range(5):
            sched.step(1.0)
        assert sched.lr == pytest.approx(1e-6)
        for _ in range(6):
            sched.step(1.0)
        assert sched.lr == pytest.approx(1e-6)
