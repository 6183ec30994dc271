import json

import numpy as np
import pytest

from conftest import key_set, make_dataset
from kgmlsm import ingest, losses, model, training
from kgmlsm.errors import CheckpointMismatch, ConfigError
from kgmlsm.optim import adam_init, adam_step
from kgmlsm.training import (SplitSpec, StageConfig, VARIANTS, get_variant, pretrain,
                             finetune, run_experiment, temporal_split)

SMALL = dict(d_model=8, d_k=8, enc_width1=4, enc_width2=8, dec_width=4)
LCFG = losses.LossConfig()


def fast_pre(max_epochs=6, rmse_stop=None):
    return StageConfig(batch_size=16, lr=0.001, max_epochs=max_epochs,
                       scheduler_patience=5, rmse_stop=rmse_stop)


def fast_fine(max_epochs=5, patience=10):
    return StageConfig(batch_size=8, lr=0.001, max_epochs=max_epochs,
                       scheduler_patience=5, early_stop_patience=patience)


def _eval_loss(arrays, params, mconfig, variant, loss_cfg):
    """The loss through the training graph: the oracle for the graph-free
    validation loss that finetune records."""
    return float(training._compute_loss(arrays, params, mconfig, variant, loss_cfg).data)


class TestTemporalSplit:
    def test_test_set_holds_only_target_year(self):
        rng = np.random.default_rng(0)
        ds = make_dataset(rng, n=50, years=(2019, 2020, 2021, 2022, 2023))
        split = temporal_split(ds, SplitSpec(target_year=2023))
        assert all(s.year == 2023 for s in split.test.samples)
        assert all(s.year < 2023 for part in (split.train, split.val) for s in part.samples)

    def test_eighty_twenty(self):
        rng = np.random.default_rng(1)
        ds = make_dataset(rng, n=125, years=(2020, 2021, 2022, 2023, 2024))
        # 100 samples precede 2024
        split = temporal_split(ds, SplitSpec(target_year=2024))
        assert len(split.train) == 80
        assert len(split.val) == 20

    def test_same_seed_same_split(self):
        rng = np.random.default_rng(2)
        ds = make_dataset(rng, n=40, years=(2020, 2021, 2022))
        a = temporal_split(ds, SplitSpec(target_year=2022, shuffle_seed=5))
        b = temporal_split(ds, SplitSpec(target_year=2022, shuffle_seed=5))
        assert key_set(a.train) == key_set(b.train)
        assert key_set(a.val) == key_set(b.val)

    def test_partition_exhaustive_and_disjoint(self):
        rng = np.random.default_rng(3)
        ds = make_dataset(rng, n=33, years=(2020, 2021, 2022))
        split = temporal_split(ds, SplitSpec(target_year=2022))
        keys = key_set(split.train) | key_set(split.val) | key_set(split.test)
        assert keys == key_set(ds)
        assert len(split.train) + len(split.val) + len(split.test) == len(ds)

    def test_missing_target_year_rejected(self):
        rng = np.random.default_rng(4)
        ds = make_dataset(rng, n=10, years=(2020, 2021))
        with pytest.raises(ValueError):
            temporal_split(ds, SplitSpec(target_year=2030))

    def test_later_years_never_leak(self):
        rng = np.random.default_rng(5)
        ds = make_dataset(rng, n=40, years=(2020, 2021, 2022, 2023))
        split = temporal_split(ds, SplitSpec(target_year=2022))
        for part in (split.train, split.val):
            assert all(s.year < 2022 for s in part.samples)
        assert not any(s.year == 2023 for s in split.test.samples)

    @pytest.mark.parametrize("fraction", [0.0, 1.0, 1.5, -0.2])
    def test_fraction_outside_the_open_unit_interval_rejected(self, fraction):
        with pytest.raises(ConfigError, match=r"train_fraction must be in \(0, 1\)"):
            SplitSpec(target_year=2021, train_fraction=fraction)

    def test_empty_train_part_rejected(self):
        rng = np.random.default_rng(6)
        ds = make_dataset(rng, n=10, years=(2020, 2021))
        with pytest.raises(ConfigError, match="leaves 0 to train on and 5 to validate on"):
            temporal_split(ds, SplitSpec(target_year=2021, train_fraction=0.1))


def test_stage_config_needs_an_epoch():
    with pytest.raises(ConfigError, match="max_epochs must be >= 1"):
        StageConfig(batch_size=8, max_epochs=0)


def test_stage_config_refuses_scheduler_patience_0():
    # a patience below 1 would act as 1
    with pytest.raises(ConfigError, match="scheduler_patience must be >= 1"):
        StageConfig(batch_size=8, scheduler_patience=0)


class TestVariants:
    def test_all_six_rows_exist(self):
        assert set(VARIANTS) == {"att_wo_sm", "att", "att_sim", "att_sim_w2s",
                                 "att_sim_w2s_smw", "kgml_sm"}

    def test_component_matrix(self):
        v = get_variant("kgml_sm")
        assert v.use_sm_tokens and v.use_pretrain and v.use_w2s and v.use_smw and v.use_oe
        v = get_variant("att_wo_sm")
        assert not any([v.use_sm_tokens, v.use_pretrain, v.use_w2s, v.use_smw, v.use_oe])

    def test_token_counts(self):
        assert training.model_config_for(get_variant("att_wo_sm")).n_tokens == 108
        assert training.model_config_for(get_variant("kgml_sm")).n_tokens == 134

    def test_smw_variant_equals_kgml_at_lambda_zero(self, tiny_field):
        cfg = training.model_config_for(get_variant("kgml_sm"), SMALL)
        params = model.init_params(cfg, 0)
        stats = model.Normalization.from_arrays(ingest.stack_dataset(tiny_field))
        batch = model.standardize(model.stack_dataset(tiny_field), stats)
        smw_loss = training._compute_loss(batch, params, cfg, get_variant("att_sim_w2s_smw"),
                                          losses.LossConfig(lam=2.0))
        kgml_loss = training._compute_loss(batch, params, cfg, get_variant("kgml_sm"),
                                           losses.LossConfig(lam=0.0))
        assert float(smw_loss.data) == pytest.approx(float(kgml_loss.data), abs=1e-15)

    def test_unknown_variant_rejected(self):
        with pytest.raises(ValueError):
            get_variant("att_with_everything")


class TestPretrain:
    def test_deterministic_for_equal_seed(self, tiny_field):
        a, _ = pretrain(tiny_field, fast_pre(), LCFG, get_variant("kgml_sm"), SMALL, seed=3)
        b, _ = pretrain(tiny_field, fast_pre(), LCFG, get_variant("kgml_sm"), SMALL, seed=3)
        np.testing.assert_array_equal(a.params.vector, b.params.vector)
        assert a.meta == b.meta

    def test_stop_flag_consistent_with_final_rmse(self, tiny_field):
        bundle, rows = pretrain(tiny_field, fast_pre(max_epochs=30, rmse_stop=1.0), LCFG,
                                get_variant("kgml_sm"), SMALL, seed=0)
        met = bundle.meta["rmse_target_met"]
        assert met == (rows[-1]["rmse"] < 1.0)
        if met:
            assert bundle.meta["stop_reason"] == "train_rmse_below_target"

    def test_loss_trends_down_over_five_epoch_windows(self):
        # 32-sample toy set: loss should never rise across a 5-epoch gap
        from kgmlsm import cropsim

        toy = cropsim.build_field_dataset(4, list(range(2016, 2024)),
                                          {"normal": 0.7, "drought": 0.3}, seed=23)
        assert len(toy) == 32
        for seed in range(5):
            _, rows = pretrain(toy, fast_pre(max_epochs=15), LCFG,
                               get_variant("kgml_sm"), SMALL, seed=seed)
            losses_seq = [r["train_loss"] for r in rows]
            for i in range(len(losses_seq) - 5):
                assert losses_seq[i + 5] <= losses_seq[i] + 1e-9

    def test_variant_without_pretraining_rejected(self, tiny_field):
        with pytest.raises(ValueError):
            pretrain(tiny_field, fast_pre(), LCFG, get_variant("att"), SMALL, seed=0)


class TestFinetune:
    def test_best_epoch_val_restored(self, tiny_county, monkeypatch):
        monkeypatch.setattr(model, "INFER_ROWS", 4)  # the 8 validation samples in two blocks
        bundle, rows, split = _bouncing_finetune(tiny_county, 8, 3)
        best_val = bundle.meta["best_val_loss"]
        assert len(split.val) == 8 and bundle.meta["best_epoch"] < len(rows) - 1
        assert best_val == min(r["val_loss"] for r in rows) <= rows[-1]["val_loss"]
        # the restored parameters, through the one-batch training graph,
        # reproduce the best validation loss recorded in blocks
        cfg = training.model_config_for(get_variant("att"), SMALL)
        arrays = model.standardize(model.stack_dataset(split.val), bundle.stats)
        recomputed = _eval_loss(arrays, bundle.params, cfg, get_variant("att"), LCFG)
        assert recomputed == pytest.approx(best_val, abs=1e-12)

    def test_no_early_stop_when_patience_exceeds_epochs(self, tiny_county):
        bundle, rows = _finetune(None, tiny_county, SplitSpec(target_year=2023),
                                 fast_fine(max_epochs=4, patience=10), LCFG,
                                 get_variant("att"), SMALL, seed=2)
        assert bundle.meta["stop_reason"] == "max_epochs"
        assert len(rows) == 4

    def test_checkpoint_architecture_mismatch_rejected(self, tiny_field, tiny_county):
        ckpt, _ = pretrain(tiny_field, fast_pre(), LCFG, get_variant("kgml_sm"), SMALL, seed=0)
        with pytest.raises(CheckpointMismatch):
            _finetune(ckpt, tiny_county, SplitSpec(target_year=2023), fast_fine(), LCFG,
                      get_variant("kgml_sm"), dict(SMALL, d_model=16), seed=0)

    def test_seed_changes_init_not_test_membership(self, tiny_county):
        # the split is made once, from the spec: a seed only draws the init
        spec = SplitSpec(target_year=2023)
        split = temporal_split(tiny_county, spec)
        a, _ = finetune(None, split.train, split.val, spec, fast_fine(max_epochs=2), LCFG,
                        get_variant("att"), SMALL, seed=0)
        b, _ = finetune(None, split.train, split.val, spec, fast_fine(max_epochs=2), LCFG,
                        get_variant("att"), SMALL, seed=9)
        assert not np.array_equal(a.params.vector, b.params.vector)
        assert key_set(temporal_split(tiny_county, spec).test) == key_set(split.test)
        assert {k: a.meta[k] for k in spec.to_meta()} == spec.to_meta()
        assert {k: b.meta[k] for k in spec.to_meta()} == spec.to_meta()

    def test_pretrained_start_reaches_scratch_val_target_no_slower(self, medium_pair):
        # paired runs per seed: epochs for the pretrained model to reach the
        # from-scratch best validation loss, vs the scratch best epoch
        field, county = medium_pair
        spec = SplitSpec(target_year=2023)
        pre_cfg = StageConfig(batch_size=32, lr=0.001, max_epochs=25,
                              scheduler_patience=5, rmse_stop=1.0)
        fine_cfg = StageConfig(batch_size=16, lr=0.001, max_epochs=15,
                               scheduler_patience=5, early_stop_patience=10)
        split = temporal_split(county, spec)
        epochs_pre, epochs_scratch = [], []
        for seed in range(5):
            ckpt, _ = pretrain(field, pre_cfg, LCFG, get_variant("att_sim"), SMALL, seed=seed)
            scratch, _ = finetune(None, split.train, split.val, spec, fine_cfg, LCFG,
                                  get_variant("att_sim"), SMALL, seed=seed)
            target = scratch.meta["best_val_loss"]
            _, rows_p = finetune(ckpt, split.train, split.val, spec, fine_cfg, LCFG,
                                 get_variant("att_sim"), SMALL, seed=seed)
            reached = [r["epoch"] for r in rows_p if r["val_loss"] <= target]
            epochs_pre.append(reached[0] if reached else len(rows_p))
            epochs_scratch.append(scratch.meta["best_epoch"])
        assert np.median(epochs_pre) <= np.median(epochs_scratch)


class TestLeakage:
    def test_no_target_year_samples_in_any_batch(self, tiny_county):
        spec = SplitSpec(target_year=2023)
        split = temporal_split(tiny_county, spec)
        train_keys = key_set(split.train) | key_set(split.val)
        assert all(year < 2023 for _, year in train_keys)
        batch_arrays = model.stack_dataset(split.train)
        years = batch_arrays["aux"][:, 0]
        assert (years < 2023).all()


class TestRunners:
    def test_reported_mean_is_arithmetic_mean(self, tiny_county):
        res = run_experiment(None, tiny_county, "att", [0, 1], SplitSpec(target_year=2023),
                             fast_pre(), fast_fine(max_epochs=3), LCFG, SMALL)
        assert res.summary["rmse_mean"] == pytest.approx(np.mean(res.per_seed["rmse"]))
        assert len(res.per_seed["rmse"]) == 2

    def test_rerun_reproduces_report(self, tiny_county):
        kw = dict(seeds=[0], split_spec=SplitSpec(target_year=2023),
                  pre_cfg=fast_pre(), fine_cfg=fast_fine(max_epochs=3),
                  loss_cfg=LCFG, sizes=SMALL)
        a = run_experiment(None, tiny_county, "att", **kw)
        b = run_experiment(None, tiny_county, "att", **kw)
        assert json.dumps(a.per_seed, sort_keys=True) == json.dumps(b.per_seed, sort_keys=True)

    def test_ablation_reports_token_count(self, tiny_county):
        res = run_experiment(None, tiny_county, "att_wo_sm", [0], SplitSpec(target_year=2023),
                             fast_pre(), fast_fine(max_epochs=2), LCFG, SMALL)
        assert res.summary["token_count"] == 108
        assert res.summary["components"]["soil_moisture_tokens"] is False


def _finetune(checkpoint, county, spec, *args, **kwargs):
    """finetune on the train and val parts of county's split under spec."""
    split = temporal_split(county, spec)
    return finetune(checkpoint, split.train, split.val, spec, *args, **kwargs)


def _bouncing_finetune(county, max_epochs, patience):
    """At lr 0.03, seed 1's validation loss is lowest at epoch 2 and then
    rises. Returns (bundle, rows, the split it trained on)."""
    stage_cfg = StageConfig(batch_size=8, lr=0.03, max_epochs=max_epochs,
                            early_stop_patience=patience)
    spec = SplitSpec(target_year=2023)
    split = temporal_split(county, spec)
    bundle, rows = finetune(None, split.train, split.val, spec, stage_cfg, LCFG,
                            get_variant("att"), SMALL, seed=1)
    return bundle, rows, split


class TestEarlyStoppingRestore:
    def test_restored_params_are_those_of_a_run_ending_at_the_best_epoch(self, tiny_county):
        bundle, rows, _ = _bouncing_finetune(tiny_county, 8, 3)
        best = bundle.meta["best_epoch"]
        assert bundle.meta["stop_reason"] == "early_stopping" and best < len(rows) - 1
        capped, capped_rows, _ = _bouncing_finetune(tiny_county, best + 1, None)
        assert len(capped_rows) == best + 1 and capped.meta["best_epoch"] == best
        np.testing.assert_array_equal(bundle.params.vector, capped.params.vector)


def _views_of_vector(params):
    return all(np.shares_memory(t.data, params.vector) for _, t in params.items())


def test_parameters_stay_views_of_the_store_vector(tiny_county, tmp_path):
    """init_params, load_checkpoint, an Adam step and fit's restore each leave
    every parameter's data a view of ParamStore.vector."""
    cfg = training.model_config_for(get_variant("att"), SMALL)
    params = model.init_params(cfg, 0)
    assert _views_of_vector(params)
    stats = model.Normalization.from_arrays(ingest.stack_dataset(tiny_county))
    model.save_checkpoint(tmp_path / "m", model.ModelBundle(config=cfg, params=params,
                                                            stats=stats))
    loaded = model.load_checkpoint(tmp_path / "m").params
    assert _views_of_vector(loaded)
    np.testing.assert_array_equal(loaded.vector, params.vector)
    adam_step(params.vector, np.ones(params.vector.size), adam_init(params.vector, 0.01))
    assert _views_of_vector(params) and not (params.vector == loaded.vector).any()
    bundle, rows, _ = _bouncing_finetune(tiny_county, 8, 3)
    assert bundle.meta["best_epoch"] < len(rows) - 1 and _views_of_vector(bundle.params)
