import numpy as np
import pytest

import chain_oracle as chain
from gradcheck import check_param_gradients, relative_error
from kgmlsm import autodiff as ad
from kgmlsm.errors import GraphError, NonFiniteError, ShapeError


class TestPrimitives:
    def test_matmul_identity(self):
        rng = np.random.default_rng(0)
        a = rng.normal(size=(3, 3))
        out = chain.matmul(ad.Tensor(np.eye(3)), ad.Tensor(a))
        np.testing.assert_array_equal(out.data, a)

    def test_softmax_symmetry(self):
        out = chain.softmax_last(ad.Tensor([0.0, 0.0, 0.0, 0.0]))
        np.testing.assert_allclose(out.data, [0.25, 0.25, 0.25, 0.25], atol=1e-15)

    def test_relu_definition(self):
        out = chain.relu(ad.Tensor([-1.0, 2.0]))
        np.testing.assert_array_equal(out.data, [0.0, 2.0])

    def test_softmax_rows_sum_to_one_and_positive(self):
        rng = np.random.default_rng(1)
        for _ in range(20):
            z = rng.normal(scale=5.0, size=(4, 7))
            y = chain.softmax_last(ad.Tensor(z)).data
            np.testing.assert_allclose(y.sum(axis=-1), 1.0, atol=1e-12)
            assert (y > 0).all()

    def test_softmax_shift_invariance(self):
        rng = np.random.default_rng(2)
        z = rng.normal(size=(3, 5))
        base = chain.softmax_last(ad.Tensor(z)).data
        shifted = chain.softmax_last(ad.Tensor(z + 7.3)).data
        np.testing.assert_allclose(base, shifted, atol=1e-14)

    def test_pool_and_upsample_are_inverse_in_shape(self):
        rng = np.random.default_rng(3)
        x = ad.Tensor(rng.normal(size=(2, 8, 3)))
        down = chain.pool_mean2(x)
        assert down.shape == (2, 4, 3)
        up = chain.upsample_repeat2(down)
        assert up.shape == (2, 8, 3)
        np.testing.assert_allclose(up.data[:, 0::2], down.data)

    def test_concat_and_slice_round_trip(self):
        rng = np.random.default_rng(4)
        a, b = rng.normal(size=(2, 3)), rng.normal(size=(2, 5))
        cat = chain.concat([ad.Tensor(a), ad.Tensor(b)], axis=1)
        np.testing.assert_array_equal(cat.data[:, :3], a)
        np.testing.assert_array_equal(cat.data[:, 3:], b)


class TestSliceBackward:
    # the slice shapes of the op-by-op W2S and token chain (chain_oracle):
    # conv windows and time padding, per-channel token columns, and the
    # crop back to 13 steps
    @pytest.mark.parametrize("shape,idx", [
        ((4, 18, 6), (slice(None), slice(0, 16), slice(None))),
        ((4, 13, 4), (slice(None), slice(None), 2)),
        ((4, 13, 4), (slice(None), slice(12, 13), slice(None))),
        ((4, 16, 2), (slice(None), slice(None, 13), slice(None))),
    ])
    def test_matches_add_at_bitwise(self, shape, idx):
        rng = np.random.default_rng(7)
        a = ad.Tensor(rng.normal(size=shape), requires_grad=True)
        go = rng.normal(size=a.data[idx].shape)
        go.flat[0] = -0.0  # a signed zero must come out as add.at leaves it
        chain.getitem(a, idx)._backward(go)
        expect = np.zeros(shape)
        np.add.at(expect, idx, go)
        assert a.grad.tobytes() == expect.tobytes()

    @pytest.mark.parametrize("idx", [np.array([0, 0, 1]), (slice(None), [1, 2]),
                                     np.array([True, False, True]), True, None, Ellipsis])
    def test_non_basic_index_rejected(self, idx):
        with pytest.raises(ShapeError):
            chain.getitem(ad.Tensor(np.zeros((3, 3))), idx)


def _conv3_chain(x, w, b):
    """The conv as the zeros/concat/slice/matmul/add chain conv1d_k3 replaced."""
    batch, length, chans = x.shape
    zpad = ad.Tensor(np.zeros((batch, 1, chans)))
    xp = chain.concat([zpad, x, zpad], axis=1)
    win = chain.concat([chain.getitem(xp, np.s_[:, k:length + k, :]) for k in range(3)], axis=2)
    return chain.matmul(win, w) + b


class TestConv1dK3:
    # the four W2S convolutions at the default widths: enc1, enc2, dec2, dec1
    @pytest.mark.parametrize("length,chans,width", [(16, 4, 16), (8, 16, 32), (8, 64, 16),
                                                    (16, 32, 16)])
    def test_matches_the_chain_bitwise(self, length, chans, width):
        rng = np.random.default_rng(length * chans + width)
        arrays = (rng.normal(size=(5, length, chans)), rng.normal(size=(3 * chans, width)),
                  rng.normal(size=width))
        go = rng.normal(size=(5, length, width))
        go[0, 0, :] = -0.0  # signed zeros must sum as the chain sums them
        go.flat[-1] = -0.0
        results = []
        for conv in (chain.conv1d_k3, _conv3_chain):
            x, w, b = (ad.Tensor(a.copy(), requires_grad=True) for a in arrays)
            out = conv(x, w, b)
            ad.backward(ad.mean(chain.mul(out, ad.Tensor(go))))
            results.append([t.tobytes() for t in (out.data, x.grad, w.grad, b.grad)])
        assert results[0] == results[1]

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(12)
        store = ad.ParamStore([("x", rng.normal(size=(2, 6, 3))), ("w", rng.normal(size=(9, 4))),
                               ("b", rng.normal(size=4))])
        x, w, b = store["x"], store["w"], store["b"]
        weight = ad.Tensor(rng.normal(size=(2, 6, 4)))

        def loss():
            return ad.mean(chain.mul(ad.square(chain.conv1d_k3(x, w, b)), weight))

        worst = check_param_gradients(lambda: loss().data, store, ad.gradients(loss(), store))
        assert worst < 1e-6

    @pytest.mark.parametrize("x_shape,w_shape,b_shape", [
        ((6, 3), (9, 4), (4,)),        # x not (B, L, C)
        ((2, 6, 3), (6, 4), (4,)),     # w rows != 3C
        ((2, 6, 3), (9,), (4,)),       # w not 2-D
        ((2, 6, 3), (9, 4), (3,)),     # bias width != F
        ((2, 6, 3), (9, 4), (1, 4)),   # bias not 1-D
    ])
    def test_bad_shapes_rejected(self, x_shape, w_shape, b_shape):
        with pytest.raises(ShapeError):
            chain.conv1d_k3(*(ad.Tensor(np.zeros(s)) for s in (x_shape, w_shape, b_shape)))


class TestPadEdge:
    def test_repeats_the_last_step(self):
        a = np.arange(2 * 4 * 3, dtype=float).reshape(2, 4, 3)
        out = chain.pad_edge(ad.Tensor(a), 3).data
        assert out.shape == (2, 7, 3)
        np.testing.assert_array_equal(out[:, :4], a)
        for k in range(4, 7):
            np.testing.assert_array_equal(out[:, k], a[:, 3])

    def test_matches_finite_differences(self):
        rng = np.random.default_rng(13)
        store = ad.ParamStore([("a", rng.normal(size=(2, 5, 3)))])
        a = store["a"]
        weight = ad.Tensor(rng.normal(size=(2, 8, 3)))

        def loss():
            return ad.mean(chain.mul(ad.square(chain.pad_edge(a, 3)), weight))

        worst = check_param_gradients(lambda: loss().data, store, ad.gradients(loss(), store))
        assert worst < 1e-6

    @pytest.mark.parametrize("shape,n", [((5,), 3), ((2, 0, 3), 3), ((2, 5, 3), 0)])
    def test_bad_shapes_rejected(self, shape, n):
        with pytest.raises(ShapeError):
            chain.pad_edge(ad.Tensor(np.zeros(shape)), n)


class TestGraphFree:
    def test_ops_on_constants_record_no_graph(self):
        store = ad.ParamStore([("w", np.ones((3, 2)))])
        w = store.constants()["w"]
        out = chain.relu(chain.matmul(ad.Tensor(np.ones((4, 3))), w))
        assert not w.requires_grad and not out.requires_grad
        assert out._parents == () and out._backward is None

    def test_constants_share_values_not_grads(self):
        store = ad.ParamStore([("w", np.arange(6.0).reshape(2, 3))])
        p = store["w"]
        c = store.constants()["w"]
        assert c.data is p.data and c.name == "w"
        ad.backward(ad.mean(chain.matmul(ad.Tensor(np.ones((1, 2))), c)))
        assert p.grad is None

    def test_a_graph_still_records_through_constants(self):
        store = ad.ParamStore([("p", np.ones(3))])
        p = store["p"]
        c = ad.ParamStore([("c", np.full(3, 2.0))])
        out = chain.mul(p, c.constants()["c"])
        assert out._parents[0] is p
        assert ad.gradients(ad.mean(out), store).tolist() == [2.0 / 3] * 3


class TestErrors:
    def test_matmul_shape_mismatch(self):
        with pytest.raises(ShapeError):
            chain.matmul(ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((4, 2))))

    def test_concat_shape_mismatch(self):
        with pytest.raises(ShapeError):
            chain.concat([ad.Tensor(np.zeros((2, 3))), ad.Tensor(np.zeros((3, 3)))], axis=1)

    @pytest.mark.filterwarnings("ignore:overflow")
    def test_non_finite_rejected(self):
        big = ad.Tensor(np.full(3, 1e308))
        with pytest.raises(NonFiniteError):
            ad.square(big)

    def test_backward_requires_scalar(self):
        t = ad.Tensor(np.zeros(3), requires_grad=True)
        with pytest.raises(GraphError):
            ad.backward(chain.relu(t))

    def test_mean_empty(self):
        with pytest.raises(ShapeError):
            ad.mean(ad.Tensor(np.zeros((0,))))


class TestBackward:
    def test_square_at_three(self):
        store = ad.ParamStore([("x", 3.0)])
        loss = ad.square(store["x"])
        grads = ad.gradients(loss, store)
        assert grads.tolist() == [pytest.approx(6.0)]

    def test_mse_gradient(self):
        store = ad.ParamStore([("y_hat", [0.0])])
        loss = ad.mean(ad.square(ad.Tensor([1.0]) - store["y_hat"]))
        grads = ad.gradients(loss, store)
        assert grads[0] == pytest.approx(-2.0)

    def test_untouched_parameter_gets_zero_gradient(self):
        store = ad.ParamStore([("x", 2.0), ("unused", np.ones(4))])
        grads = ad.gradients(ad.square(store["x"]), store)
        np.testing.assert_array_equal(grads, [4.0, 0.0, 0.0, 0.0, 0.0])

    def test_shared_subgraph_accumulates(self):
        store = ad.ParamStore([("x", 2.0)])
        x = store["x"]
        loss = chain.mul(x, x + 1.0)  # x^2 + x -> 2x + 1 = 5
        grads = ad.gradients(loss, store)
        assert grads.tolist() == [pytest.approx(5.0)]

    def test_linearity_of_backward(self):
        rng = np.random.default_rng(5)
        store = ad.ParamStore([("w", rng.normal(size=(3, 2)))])
        w = store["w"]
        x = ad.Tensor(rng.normal(size=(4, 3)))

        def build(scale_a, scale_b):
            h = chain.matmul(x, w)
            l1 = ad.scale(ad.mean(ad.square(h)), scale_a)
            l2 = ad.scale(ad.mean(chain.relu(h)), scale_b)
            return l1, l2

        l1, l2 = build(1.0, 1.0)
        g1 = ad.gradients(l1, store)
        l1, l2 = build(1.0, 1.0)
        g2 = ad.gradients(l2, store)
        l1, l2 = build(1.0, 1.0)
        g_sum = ad.gradients(l1 + l2, store)
        np.testing.assert_allclose(g_sum, g1 + g2, rtol=1e-12, atol=1e-12)

    def test_determinism(self):
        def run():
            rng = np.random.default_rng(6)
            store = ad.ParamStore([("w", rng.normal(size=(5, 4)))])
            x = ad.Tensor(rng.normal(size=(7, 5)))
            loss = ad.mean(ad.square(chain.relu(chain.matmul(x, store["w"]))))
            return loss.data.copy(), ad.gradients(loss, store)

        l1, g1 = run()
        l2, g2 = run()
        assert l1 == l2
        np.testing.assert_array_equal(g1, g2)


def _random_three_layer(seed):
    """3-layer graph with exactly 20 parameter values."""
    rng = np.random.default_rng(seed)
    store = ad.ParamStore([
        ("w1", rng.normal(size=(2, 2))),  # 4
        ("b1", rng.normal(size=(2,))),  # 2
        ("w2", rng.normal(size=(2, 3))),  # 6
        ("b2", rng.normal(size=(3,))),  # 3
        ("w3", rng.normal(size=(3, 1))),  # 3
        ("b3", rng.normal(size=(1,))),  # 1
        ("gain", rng.normal(size=(1,)))])  # 1 -> total 20
    w1, b1, w2, b2, w3, b3, gain = (t for _, t in store.items())
    x = rng.normal(size=(5, 2))
    y = rng.normal(size=(5, 1))

    def loss_tensor():
        h1 = chain.relu(chain.matmul(ad.Tensor(x), w1) + b1)
        h2 = chain.relu(chain.matmul(h1, w2) + b2)
        out = chain.mul(chain.matmul(h2, w3) + b3, gain)
        return ad.mean(ad.square(out - ad.Tensor(y)))

    assert store.vector.size == 20
    return store, loss_tensor


class TestFiniteDifferenceOracle:
    def test_random_three_layer_graphs(self):
        for seed in range(10):
            store, loss_tensor = _random_three_layer(seed)
            analytic = ad.gradients(loss_tensor(), store)
            worst = check_param_gradients(lambda: loss_tensor().data, store, analytic, h=1e-5)
            assert worst < 1e-4, f"seed {seed}: worst rel err {worst}"

    def test_relative_error_floor(self):
        assert relative_error(1e-9, 2e-9) < 1e-8  # tiny grads compare absolutely
        assert relative_error(2.0, 1.0) == pytest.approx(0.5)


class TestParamStore:
    def test_duplicate_rejected(self):
        with pytest.raises(ValueError, match="duplicate parameter 'w'"):
            ad.ParamStore([("w", 1.0), ("b", 0.0), ("w", 2.0)])

    def test_laid_out_once_in_declared_order(self):
        store = ad.ParamStore([("a", [[1.0, 2.0], [3.0, 4.0]]), ("s", 5.0), ("b", [6.0])])
        assert store.vector.tolist() == [1.0, 2.0, 3.0, 4.0, 5.0, 6.0]
        assert [(n, t.data.shape) for n, t in store.items()] == [("a", (2, 2)), ("s", ()),
                                                                  ("b", (1,))]
        store.vector[:] = -store.vector
        assert store["a"].data.tolist() == [[-1.0, -2.0], [-3.0, -4.0]] and store["s"].data == -5.0

    def test_gradients_follow_the_layout(self):
        store = ad.ParamStore([("a", np.ones((2, 2))), ("unused", np.ones(3)), ("b", [2.0])])
        grads = ad.gradients(ad.mean(ad.square(store["a"])) + ad.mean(ad.square(store["b"])), store)
        assert grads.dtype == np.float64 and grads.shape == store.vector.shape
        assert grads.tolist() == [0.5, 0.5, 0.5, 0.5, 0.0, 0.0, 0.0, 4.0]

    def test_gradients_refuse_a_gradient_of_another_shape(self):
        store = ad.ParamStore([("w", np.ones((2, 2))), ("b", np.ones(4))])
        bad = ad.node(np.array(1.0), [store["w"], store["b"]],
                      lambda go: (np.ones((2, 2)), np.ones((2, 2))), "bad")
        with pytest.raises(ShapeError, match=r"\(2, 2\) != param shape \(4,\) for b"):
            ad.gradients(bad, store)
