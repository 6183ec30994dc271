import numpy as np
import pytest

from kgmlsm.autodiff import ParamStore
from kgmlsm.errors import ShapeError
from kgmlsm.optim import PlateauScheduler, adam_init, adam_step


class TestAdam:
    def test_zero_gradient_leaves_params_unchanged(self):
        store = ParamStore([("a", np.array([1.0, -2.0])), ("b", np.array(0.5))])
        state = adam_init(store.vector, lr=0.001)
        before = {name: t.data.copy() for name, t in store.items()}
        adam_step(store.vector, np.zeros(3), state)
        assert state.t == 1
        for name, arr in before.items():
            np.testing.assert_array_equal(store[name].data, arr)

    def test_single_step_matches_hand_evaluation(self):
        store = ParamStore([("theta", np.array(0.0))])
        state = adam_init(store.vector, lr=0.001)
        adam_step(store.vector, np.array([1.0]), state)
        # bias-corrected first step: m_hat = v_hat = 1
        expected = -0.001 * (1.0 / (np.sqrt(1.0) + 1e-8))
        assert float(store["theta"].data) == pytest.approx(expected, abs=1e-15)
        assert float(store["theta"].data) == pytest.approx(-0.00099999999, abs=1e-12)

    def test_identical_gradients_give_identical_updates(self):
        store = ParamStore([("p1", np.array([0.3, -0.7])), ("p2", np.array([0.3, -0.7]))])
        state = adam_init(store.vector, lr=0.01)
        g = np.array([0.5, -1.5])
        adam_step(store.vector, np.concatenate([g, g]), state)
        np.testing.assert_array_equal(store["p1"].data, store["p2"].data)

    def test_shape_mismatch_rejected(self):
        store = ParamStore([("w", np.zeros((2, 2)))])
        state = adam_init(store.vector, lr=0.001)
        for g in (np.zeros(3), np.zeros(5), np.zeros((2, 2))):
            with pytest.raises(ShapeError):
                adam_step(store.vector, g, state)
        assert state.t == 0 and not store.vector.any()

    def test_flat_update_matches_per_parameter_adam_bitwise(self):
        def per_parameter_step(store, grads, state):  # the update applied one parameter at a time
            state["t"] += 1
            bias1, bias2 = 1.0 - 0.9 ** state["t"], 1.0 - 0.999 ** state["t"]
            for name, p in store.items():
                g, m, v = grads[name], state["m"][name], state["v"][name]
                m *= 0.9
                m += (1.0 - 0.9) * g
                v *= 0.999
                v += (1.0 - 0.999) * (g * g)
                p.data = p.data - 0.01 * (m / bias1) / (np.sqrt(v / bias2) + 1e-8)

        shapes = {"w": (3, 4), "b": (4,), "s": (), "e": (2, 1, 3)}
        stores = [ParamStore((name, np.random.default_rng(i).normal(size=shape))
                             for i, (name, shape) in enumerate(shapes.items())) for _ in range(2)]
        flat = adam_init(stores[0].vector, lr=0.01)
        ref = {"t": 0, "m": {n: np.zeros(s) for n, s in shapes.items()},
               "v": {n: np.zeros(s) for n, s in shapes.items()}}
        rng = np.random.default_rng(9)
        for step in range(60):
            grads = {n: rng.normal(size=s) * (step % 5 != 0) for n, s in shapes.items()}
            grads["b"][0] = -0.0
            adam_step(stores[0].vector, np.concatenate([g.ravel() for g in grads.values()]), flat)
            per_parameter_step(stores[1], grads, ref)
        for name in shapes:
            assert stores[0][name].data.tobytes() == stores[1][name].data.tobytes()
            assert stores[0][name].data.shape == shapes[name]

    def test_bad_lr_rejected(self):
        store = ParamStore([("w", np.zeros(1))])
        with pytest.raises(ValueError):
            adam_init(store.vector, lr=0.0)


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
        sched = PlateauScheduler(lr=2e-6)  # the floor, MIN_LR, is 1e-6
        sched.step(1.0)
        for _ in range(5):
            sched.step(1.0)
        assert sched.lr == pytest.approx(1e-6)
        for _ in range(6):
            sched.step(1.0)
        assert sched.lr == pytest.approx(1e-6)
