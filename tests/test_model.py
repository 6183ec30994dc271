import itertools
import tracemalloc

import numpy as np
import pytest

import chain_oracle as chain
from gradcheck import check_param_gradients
from kgmlsm import autodiff as ad
from kgmlsm import cropsim, ingest, losses, metrics, model, training
from kgmlsm.errors import CheckpointMismatch, NonFiniteError, ShapeError

SMALL = dict(d_model=8, d_k=8, enc_width1=4, enc_width2=8, dec_width=4)


def _stats(dataset):
    return model.Normalization.from_arrays(ingest.stack_dataset(dataset))


def _std_batch(dataset, stats=None, config=None):
    stats = stats or _stats(dataset)
    return model.standardize(model.stack_dataset(dataset), stats), stats


class TestTokenArithmetic:
    def test_full_schema_gives_134_tokens(self):
        assert model.ModelConfig().n_tokens == 10 * 13 + 4 == 134

    def test_without_sm_gives_108_tokens(self):
        cfg = model.ModelConfig(use_sm_tokens=False, use_w2s=False)
        assert cfg.n_tokens == 8 * 13 + 4 == 108

    def test_token_labels_cover_channels_then_aux(self):
        labels = model.token_labels(model.ModelConfig())
        assert len(labels) == 134
        assert labels[0] == ("radn", 0)
        assert labels[13] == ("tmax", 0)
        assert labels[-4:] == [("year", -1), ("lat", -1), ("lon", -1), ("hist_avg_yield", -1)]


class TestW2SForward:
    def test_output_shape(self, tiny_field):
        batch, _ = _std_batch(tiny_field)
        params = model.init_params(model.ModelConfig(), 0)
        out = model.w2s_forward(ad.Tensor(batch["w"]), params)
        assert out.shape == (len(tiny_field), 13, 2)

    def test_wrong_width_rejected(self):
        params = model.init_params(model.ModelConfig(), 0)
        with pytest.raises(ShapeError):
            model.w2s_forward(ad.Tensor(np.zeros((2, 13, 3))), params)

    def test_deterministic(self, tiny_field):
        batch, _ = _std_batch(tiny_field)
        params = model.init_params(model.ModelConfig(), 3)
        a = model.w2s_forward(ad.Tensor(batch["w"]), params).data
        b = model.w2s_forward(ad.Tensor(batch["w"]), params).data
        np.testing.assert_array_equal(a, b)

    def test_weather_perturbation_moves_sm(self, tiny_field):
        batch, _ = _std_batch(tiny_field)
        params = model.init_params(model.ModelConfig(), 1)
        base = model.w2s_forward(ad.Tensor(batch["w"]), params).data
        bumped = batch["w"].copy()
        bumped[0, 6, 3] += 1e-3
        moved = model.w2s_forward(ad.Tensor(bumped), params).data
        assert np.abs(moved[0] - base[0]).max() > 0


class TestAttention:
    def test_alpha_sums_to_one(self, tiny_field):
        cfg = model.ModelConfig()
        params = model.init_params(cfg, 2)
        batch, _ = _std_batch(tiny_field)
        _, _, alpha = model.forward_graph(batch, params, cfg)
        np.testing.assert_allclose(alpha.data.sum(axis=1), 1.0, atol=1e-9)
        assert (alpha.data > 0).all()

    def test_identical_tokens_give_uniform_alpha(self):
        cfg = model.ModelConfig(**SMALL)
        params = model.init_params(cfg, 0)
        # tie every token's embedding parameters and feed equal values
        params["att.embed.value"].data[:] = params["att.embed.value"].data[:1]
        params["att.embed.bias"].data[:] = params["att.embed.bias"].data[:1]
        x = ad.Tensor(np.full((3, cfg.n_tokens), 0.37))
        _, alpha = model.attention_forward(x, params, cfg)
        np.testing.assert_allclose(alpha.data, 1.0 / cfg.n_tokens, atol=1e-12)

    def test_score_shift_leaves_alpha_unchanged(self):
        cfg = model.ModelConfig(**SMALL)
        params = model.init_params(cfg, 4)
        rng = np.random.default_rng(0)
        x_val = rng.normal(size=(2, cfg.n_tokens))
        _, alpha = model.attention_forward(ad.Tensor(x_val), params, cfg)
        # recompute scores by hand, shift them, and softmax again
        e = x_val[:, :, None] * params["att.embed.value"].data + params["att.embed.bias"].data
        k = e @ params["att.wk"].data
        scores = (k @ params["att.q"].data)[:, :, 0] / np.sqrt(cfg.d_k)
        shifted = chain.softmax_last(ad.Tensor(scores + 11.5)).data
        np.testing.assert_allclose(alpha.data, shifted, atol=1e-12)

    def test_embedding_injective_at_init_for_equal_values(self):
        cfg = model.ModelConfig()
        params = model.init_params(cfg, 5)
        x = np.full((1, cfg.n_tokens), 0.7)
        e = x[:, :, None] * params["att.embed.value"].data + params["att.embed.bias"].data
        rows = e[0]
        dists = np.linalg.norm(rows[:, None, :] - rows[None, :, :], axis=2)
        np.fill_diagonal(dists, np.inf)
        assert dists.min() > 0

    def test_token_count_mismatch_rejected(self):
        cfg = model.ModelConfig()
        params = model.init_params(cfg, 0)
        with pytest.raises(ShapeError):
            model.attention_forward(ad.Tensor(np.zeros((2, 100))), params, cfg)


def _unfolded_head(x, p, d_k):
    """Plain-numpy oracle of the head before the fold: embed every token
    into d_model, project keys and values, softmax, pooled readout."""
    e = x[:, :, None] * p["att.embed.value"] + p["att.embed.bias"]
    k, v = e @ p["att.wk"], e @ p["att.wv"]
    scores = (k @ p["att.q"])[:, :, 0] / np.sqrt(d_k)
    alpha = np.exp(scores - scores.max(axis=1, keepdims=True))
    alpha /= alpha.sum(axis=1, keepdims=True)
    pooled = np.einsum("bn,bnd->bd", alpha, v)
    return (pooled @ p["att.out.w"])[:, 0] + p["att.out.b"], alpha


def _random_head(cfg, seed):
    """Every parameter (out.b included) and the token values drawn at random."""
    rng = np.random.default_rng(seed)
    params = model.init_params(cfg, seed)
    for _, t in params.items():
        t.data[...] = rng.normal(scale=0.5, size=t.data.shape)
    return params, rng.normal(size=(6, cfg.n_tokens))


class TestFoldedHead:
    @pytest.mark.parametrize("use_sm_tokens,n_tokens", [(True, 134), (False, 108)])
    def test_matches_unfolded_oracle(self, use_sm_tokens, n_tokens):
        cfg = model.ModelConfig(use_sm_tokens=use_sm_tokens, use_w2s=False)
        assert cfg.n_tokens == n_tokens
        for seed in range(3):
            params, x = _random_head(cfg, seed)
            y, alpha = model.attention_forward(ad.Tensor(x), params, cfg)
            y_ref, alpha_ref = _unfolded_head(x, {n: t.data for n, t in params.items()}, cfg.d_k)
            np.testing.assert_allclose(y.data, y_ref, rtol=0, atol=1e-12)
            np.testing.assert_allclose(alpha.data, alpha_ref, rtol=0, atol=1e-12)

    @pytest.mark.parametrize("use_sm_tokens", [True, False])
    def test_every_head_parameter_matches_finite_differences(self, use_sm_tokens):
        cfg = model.ModelConfig(**SMALL, use_sm_tokens=use_sm_tokens, use_w2s=False)
        params, x = _random_head(cfg, 1)
        assert len(params.items()) == 7  # all att.*: the variant has no W2S
        target = np.random.default_rng(2).normal(size=x.shape[0])

        def build():
            y, _ = model.attention_forward(ad.Tensor(x), params, cfg)
            return ad.mean(ad.square(y - ad.Tensor(target)))

        analytic = ad.gradients(build(), params)
        worst = check_param_gradients(lambda: build().data, params, analytic, h=1e-5,
                                      max_coords_per_param=40, rng=np.random.default_rng(0))
        assert worst < 1e-6


class TestPredict:
    def test_composition_consistency(self, tiny_field):
        cfg = model.ModelConfig()
        params = model.init_params(cfg, 6)
        stats = _stats(tiny_field)
        bundle = model.ModelBundle(config=cfg, params=params, stats=stats)
        pred = bundle.predict(tiny_field)

        batch = model.standardize(model.stack_dataset(tiny_field), stats)
        w = ad.Tensor(batch["w"])
        sm_hat = model.w2s_forward(w, params)
        x = model.assemble_input(w, ad.Tensor(batch["aux"]), ad.Tensor(batch["v"]),
                                 sm_hat, cfg)
        y_direct, alpha_direct = model.attention_forward(x, params, cfg)
        np.testing.assert_array_equal(pred["alpha"], alpha_direct.data)
        np.testing.assert_allclose(pred["y_hat"],
                                   y_direct.data * stats.y_sd + stats.y_mu, atol=1e-12)

    def test_field_vi_tokens_are_zero(self, tiny_field):
        cfg = model.ModelConfig()
        stats = _stats(tiny_field)
        batch = model.standardize(model.stack_dataset(tiny_field), stats)
        assert np.all(batch["v"] == 0.0)
        params = model.init_params(cfg, 0)
        x = model.assemble_input(ad.Tensor(batch["w"]), ad.Tensor(batch["aux"]),
                                 ad.Tensor(batch["v"]),
                                 ad.Tensor(batch["s"]), model.ModelConfig(use_w2s=False))
        vi_block = x.data[:, 4 * 13: 8 * 13]
        assert np.all(vi_block == 0.0)

    def test_raw_sm_passthrough_variant(self, tiny_field):
        cfg = model.ModelConfig(use_w2s=False)
        params = model.init_params(cfg, 7)
        batch, stats = _std_batch(tiny_field)
        y, sm_hat, alpha = model.forward_graph(batch, params, cfg)
        assert sm_hat is None
        assert y.shape == (len(tiny_field),)


class TestGraphFreePredict:
    @pytest.mark.parametrize("use_w2s, use_sm_tokens, blocks", [
        pytest.param(True, True, False, id="True"),
        pytest.param(False, True, False, id="False"),
        pytest.param(False, False, False, id="no_sm_tokens"),
        pytest.param(True, True, True, id="True-blocks"),
        pytest.param(False, True, True, id="False-blocks"),
        pytest.param(False, False, True, id="no_sm_tokens-blocks")])
    def test_equals_the_graph_forward_bitwise(self, tiny_field, monkeypatch, use_w2s,
                                              use_sm_tokens, blocks):
        """blocks: 22 samples in blocks of 8, the last one partial. The
        attention readout's (B, n) @ (n, 1) product sums a row one way when
        it falls in one of BLAS's groups of four rows and another way when
        it is left over, so a block of 7 would change low bits of y."""
        dataset = tiny_field
        if blocks:
            monkeypatch.setattr(model, "INFER_ROWS", 8)
            dataset = tiny_field.subset(range(22))
        cfg = model.ModelConfig(**SMALL, use_w2s=use_w2s, use_sm_tokens=use_sm_tokens)
        params = model.init_params(cfg, 4)
        batch, stats = _std_batch(dataset)
        bundle = model.ModelBundle(config=cfg, params=params, stats=stats)
        pred = bundle.predict(dataset)
        y, sm_hat, alpha = model.forward_graph(batch, params, cfg)
        assert y.requires_grad  # the reference is the training graph
        assert pred["y_hat"].tobytes() == (y.data * stats.y_sd + stats.y_mu).tobytes()
        assert pred["alpha"].tobytes() == alpha.data.tobytes()
        if use_w2s:
            assert pred["sm_hat"].tobytes() == (sm_hat.data * stats.sm_sd + stats.sm_mu).tobytes()
        else:
            assert pred["sm_hat"] is None and sm_hat is None

    def test_builds_no_graph_and_leaves_grads_alone(self, tiny_field, monkeypatch):
        cfg = model.ModelConfig(**SMALL)
        params = model.init_params(cfg, 5)
        sentinel = {name: np.full(t.data.shape, 7.0) for name, t in params.items()}
        for name, t in params.items():
            t.grad = sentinel[name]
        outputs = []
        graph = model.forward_graph

        def recording(*args):
            result = graph(*args)
            outputs.extend(result)
            return result

        monkeypatch.setattr(model, "forward_graph", recording)
        bundle = model.ModelBundle(config=cfg, params=params,
                                   stats=_stats(tiny_field))
        bundle.predict(tiny_field)
        assert len(outputs) == 3
        for t in outputs:
            assert not t.requires_grad and t._parents == () and t._backward is None
        for name, t in params.items():
            assert t.requires_grad and t.grad is sentinel[name]
            assert np.all(t.grad == 7.0)

    def test_peak_above_input_and_output_does_not_follow_n(self, monkeypatch):
        """predict holds the standardized input and its outputs, both
        proportional to N; in blocks of 16 rows, what lies above them moves
        from 64 to 256 samples by about 1.02x. In one batch it grew 3.9x."""
        monkeypatch.setattr(model, "INFER_ROWS", 16)
        dataset = cropsim.build_field_dataset(16, list(range(2008, 2024)), {"normal": 1.0}, seed=7)
        cfg = model.ModelConfig()
        bundle = model.ModelBundle(config=cfg, params=model.init_params(cfg, 0),
                                   stats=_stats(dataset))
        above = {}
        for n in (64, 256):
            part = dataset.subset(range(n))
            held = sum(a.nbytes for a in _std_batch(part, bundle.stats)[0].values())
            tracemalloc.start()
            try:
                pred = bundle.predict(part)
                peak = tracemalloc.get_traced_memory()[1]
            finally:
                tracemalloc.stop()
            above[n] = peak - held - sum(a.nbytes for a in pred.values())
        assert len(dataset) == 256 and above[256] < 1.25 * above[64], above


def _step_loss(batch, params, cfg):
    """The loss a kgml_sm training step differentiates."""
    y_hat, sm_hat, _ = model.forward_graph(batch, params, cfg)
    y_term = losses.yield_loss(batch["y_std"], y_hat, batch["sbar"], losses.LossConfig(lam=2.0))
    return losses.total_loss(losses.sm_loss(batch["s"], sm_hat), y_term), sm_hat


def _graph(t):
    """Every node reachable from t through _parents, t included."""
    seen, stack = {}, [t]
    while stack:
        node = stack.pop()
        if id(node) not in seen:
            seen[id(node)] = node
            stack.extend(node._parents)
    return list(seen.values())


@pytest.fixture(scope="module")
def step_field():
    """72 simulated station-years: one batch of 64 and more."""
    return cropsim.build_field_dataset(12, list(range(2018, 2024)),
                                       {"normal": 0.7, "drought": 0.2, "anomalous": 0.1}, seed=5)


def _mlp_params(d, seed):
    rng = np.random.default_rng(seed)
    return ad.ParamStore((name, rng.normal(scale=0.5, size=shape)) for name, shape in
                         (("h.w", (d, 64)), ("h.b", (64,)), ("o.w", (64, 1)), ("o.b", (1,))))


class TestFusedNodes:
    """w2s_forward, assemble_input, attention_forward, yield_loss and the
    MLP baseline's forward are one node each, and equal the op-by-op chain
    they replaced (tests/chain_oracle.py) bit for bit."""

    @pytest.mark.parametrize("widths", [{}, SMALL], ids=["demo", "small"])
    @pytest.mark.parametrize("batch", [1, 16, 64])
    def test_w2s_matches_the_chain_bitwise(self, widths, batch):
        cfg = model.ModelConfig(**widths)
        rng = np.random.default_rng(batch)
        weather = rng.normal(size=(batch, 13, 4))
        go = rng.normal(size=(batch, 13, 2))
        go[0, 0, 0] = go[-1, -1, -1] = -0.0  # signed zeros must sum as the chain sums them
        results = []
        for w2s in (model.w2s_forward, chain.w2s_chain):
            params = model.init_params(cfg, batch)
            out = w2s(ad.Tensor(weather.copy()), params)
            ad.backward(ad.mean(chain.mul(out, ad.Tensor(go))))
            results.append([out.data.tobytes()]
                           + [params[name].grad.tobytes() for name in model.W2S_PARAMS])
        assert results[0] == results[1]

    def test_training_step_matches_the_chain_bitwise(self, step_field, monkeypatch):
        arrays, _ = _std_batch(step_field)
        # 13: a last partial batch, whose mean does not divide by a power of two
        for variant, lam, batch in itertools.product(training.VARIANTS, (0.0, 2.0),
                                                     (1, 13, 16, 64)):
            spec = training.get_variant(variant)
            cfg = training.model_config_for(spec)
            rows = np.random.default_rng(batch).permutation(len(step_field))[:batch]
            batch_arrays = {k: v[rows] for k, v in arrays.items()}
            results = []
            for fused in (True, False):
                with monkeypatch.context() as m:
                    if not fused:
                        m.setattr(model, "w2s_forward", chain.w2s_chain)
                        m.setattr(model, "assemble_input", chain.assemble_chain)
                        m.setattr(model, "attention_forward", chain.head_chain)
                        m.setattr(losses, "yield_loss", chain.yield_loss_chain)
                    params = model.init_params(cfg, 8)
                    loss = training._compute_loss(batch_arrays, params, cfg, spec,
                                                  losses.LossConfig(lam=lam))
                    grads = ad.gradients(loss, params)
                assert grads.shape == params.vector.shape, (variant, lam, batch)
                results.append([loss.data.tobytes(), grads.tobytes()])
            assert results[0] == results[1], (variant, lam, batch)

    @pytest.mark.parametrize("batch", [1, 16, 64])
    def test_mlp_matches_the_chain_bitwise(self, batch):
        rng = np.random.default_rng(batch)
        x, y = rng.normal(size=(batch, 30)), rng.normal(size=batch)
        results = []
        for forward in (metrics.mlp_forward, chain.mlp_chain):
            params = _mlp_params(30, batch)
            out = forward(x, params)
            ad.backward(ad.mean(ad.square(out - ad.Tensor(y))))
            results.append([out.data.tobytes()] + [params[n].grad.tobytes()
                                                   for n in ("h.w", "h.b", "o.w", "o.b")])
        assert len(results[0]) == 5 and results[0] == results[1]

    def test_training_step_graph_is_small(self, tiny_field):
        # 89 op nodes when each W2S op and each token column was a node of
        # its own, and 35 when each op of the head and the yield loss was
        cfg = training.model_config_for(training.get_variant("kgml_sm"))
        batch, _ = _std_batch(tiny_field)
        loss, sm_hat = _step_loss(batch, model.init_params(cfg, 0), cfg)
        assert sorted(t.name for t in _graph(loss) if t._parents) == [
            "add", "add", "head", "mean", "scale", "square", "tokens", "w2s", "yield_loss"]
        assert [t.name for t in _graph(sm_hat) if t._parents] == ["w2s"]

    def test_w2s_refuses_a_non_finite_convolution_output(self):
        # every pre-activation of the first convolution is -inf, which its
        # relu alone would turn into 0
        params = model.init_params(model.ModelConfig(), 0)
        params["w2s.enc1.w"].data[:] = -1e300
        with pytest.raises(NonFiniteError, match="w2s.enc1"), np.errstate(over="ignore"):
            model.w2s_forward(ad.Tensor(np.full((2, 13, 4), 1e10)), params)

    def test_head_refuses_non_finite_scores(self):
        # one token's score is -inf: its softmax weight would be a finite 0
        cfg = model.ModelConfig(**SMALL, use_w2s=False)
        params, x = _random_head(cfg, 0)
        x[:, 0] = 1e308 * -np.sign(params["att.embed.value"].data[0] @ params["att.wk"].data
                                   @ params["att.q"].data)
        params["att.embed.value"].data[0] *= 1e10
        with pytest.raises(NonFiniteError, match="attention scores"), np.errstate(over="ignore"):
            model.attention_forward(ad.Tensor(x), params, cfg)

    def test_mlp_refuses_a_non_finite_pre_activation(self):
        # every hidden pre-activation is -inf, which the relu would turn into 0
        params = _mlp_params(3, 0)
        params["h.w"].data[:] = -1e300
        with pytest.raises(NonFiniteError, match="mlp"), np.errstate(over="ignore"):
            metrics.mlp_forward(np.full((2, 3), 1e10), params)


class TestGradients:
    def _loss_builder(self, batch, params, cfg):
        def build():
            y_hat, sm_hat, _ = model.forward_graph(batch, params, cfg)
            y_term = losses.yield_loss(batch["y_std"], y_hat, batch["sbar"],
                                       losses.LossConfig())
            if sm_hat is not None:
                return losses.total_loss(losses.sm_loss(batch["s"], sm_hat), y_term)
            return y_term
        return build

    def test_full_model_matches_finite_differences(self, tiny_field):
        cfg = model.ModelConfig(**SMALL)
        sub = ingest.Dataset(level="field", samples=tiny_field.samples[:3])
        batch, _ = _std_batch(sub)
        for seed in range(3):
            params = model.init_params(cfg, seed)
            build = self._loss_builder(batch, params, cfg)
            analytic = ad.gradients(build(), params)
            worst = check_param_gradients(lambda: build().data, params, analytic,
                                          h=1e-5, max_coords_per_param=40,
                                          rng=np.random.default_rng(seed))
            assert worst < 1e-4, f"seed {seed}: worst {worst}"

    def test_attention_only_matches_finite_differences(self, tiny_field):
        cfg = model.ModelConfig(**SMALL, use_w2s=False)
        sub = ingest.Dataset(level="field", samples=tiny_field.samples[:3])
        batch, _ = _std_batch(sub)
        params = model.init_params(cfg, 11)
        build = self._loss_builder(batch, params, cfg)
        analytic = ad.gradients(build(), params)
        worst = check_param_gradients(lambda: build().data, params, analytic,
                                      h=1e-5, max_coords_per_param=40,
                                      rng=np.random.default_rng(0))
        assert worst < 1e-4


class TestNormalization:
    def test_round_trip_through_dict(self, tiny_field):
        stats = _stats(tiny_field)
        back = model.Normalization.from_dict(stats.to_dict())
        np.testing.assert_array_equal(stats.vi_mu, back.vi_mu)
        np.testing.assert_array_equal(stats.vi_const, back.vi_const)
        assert back.vi_const.all()  # field VIs are constant zero

    @pytest.mark.parametrize("edit", [
        lambda d: d.pop("vi_const"), lambda d: d.update(vi_mu=[0.0]),
        lambda d: d.update(sm_const=[0, 1]), lambda d: d.update(y_sd=[1.0]),
        lambda d: d.update(extra=1), lambda d: d.update(y_sd=float("nan")),
        lambda d: d.update(y_sd=-1.0), lambda d: d.update(y_mu=float("inf")),
        lambda d: d["weather_sd"].__setitem__(2, -0.5), lambda d: d["sm_sd"].__setitem__(0, 0),
        lambda d: d["aux_mu"].__setitem__(1, float("nan"))],
        ids=["no_vi_const", "short_vi_mu", "int_flags", "list_y_sd", "unknown_key", "nan_y_sd",
             "negative_y_sd", "infinite_y_mu", "negative_weather_sd", "zero_sm_sd", "nan_aux_mu"])
    def test_from_dict_takes_only_what_to_dict_writes(self, edit, tiny_field):
        d = _stats(tiny_field).to_dict()
        edit(d)
        with pytest.raises(ValueError, match="normalization"):
            model.Normalization.from_dict(d)

    def test_refresh_replaces_only_constant_channels(self, tiny_field, tiny_county):
        field_stats = _stats(tiny_field)
        refreshed = field_stats.refreshed_from(ingest.stack_dataset(tiny_county.subset(range(20))))
        np.testing.assert_array_equal(refreshed.weather_mu, field_stats.weather_mu)
        assert not np.array_equal(refreshed.vi_mu, field_stats.vi_mu)
        assert not refreshed.vi_const.any()


class TestCheckpoints:
    @pytest.mark.parametrize("key,value", [("d_k", 32.0), ("d_model", True), ("enc_width1", 0),
                                           ("dec_width", "16"), ("use_w2s", 1),
                                           ("use_sm_tokens", None)])
    def test_config_from_dict_takes_int_sizes_and_bool_flags(self, key, value):
        d = model.ModelConfig().to_dict()
        assert model.ModelConfig.from_dict(dict(d)) == model.ModelConfig()
        d[key] = value
        with pytest.raises(ValueError, match=f"config {key} must be "):
            model.ModelConfig.from_dict(d)

    def test_round_trip(self, tiny_field, tmp_path):
        cfg = model.ModelConfig(**SMALL)
        params = model.init_params(cfg, 9)
        stats = _stats(tiny_field)
        bundle = model.ModelBundle(config=cfg, params=params, stats=stats,
                                   meta={"stage": "pretrain", "seed": 9})
        stem = tmp_path / "model"
        model.save_checkpoint(stem, bundle)
        back = model.load_checkpoint(stem)
        assert back.config.to_dict() == cfg.to_dict()
        assert back.meta["seed"] == 9
        for name, t in params.items():
            np.testing.assert_array_equal(back.params[name].data, t.data)
        pred_a = bundle.predict(tiny_field)["y_hat"]
        pred_b = back.predict(tiny_field)["y_hat"]
        np.testing.assert_array_equal(pred_a, pred_b)

    def test_truncated_blob_rejected(self, tiny_field, tmp_path):
        cfg = model.ModelConfig(**SMALL)
        bundle = model.ModelBundle(config=cfg, params=model.init_params(cfg, 0),
                                   stats=_stats(tiny_field))
        stem = tmp_path / "model"
        _, bin_path = model.save_checkpoint(stem, bundle)
        blob = open(bin_path, "rb").read()
        with open(bin_path, "wb") as f:
            f.write(blob[:-16])
        with pytest.raises(CheckpointMismatch):
            model.load_checkpoint(stem)

    def test_non_finite_blob_rejected(self, tiny_field, tmp_path):
        """A blob whose sha256 the manifest records may still hold a NaN."""
        cfg = model.ModelConfig(**SMALL)
        params = model.init_params(cfg, 0)
        params.vector[3] = np.nan
        stem = tmp_path / "model"
        model.save_checkpoint(stem, model.ModelBundle(config=cfg, params=params,
                                                      stats=_stats(tiny_field)))
        with pytest.raises(CheckpointMismatch, match="model.bin holds a non-finite value"):
            model.load_checkpoint(stem)
