import hashlib
import itertools
import json
import os
import re
import shutil

import numpy as np
import pytest

from kgmlsm import cli, ingest, training
from kgmlsm.errors import ConfigError

MICRO = {
    "cropsim": {
        "n_stations": 5,
        "n_counties": 6,
        "years": {"first": 2019, "last": 2022},
        "field_years": {"first": 2016, "last": 2022},
        "scenario_mix": {"normal": 0.7, "drought": 0.2, "anomalous": 0.1},
        "county_scenario_mix": {"normal": 0.8, "drought": 0.2},
        "data_seed": 3,
    },
    "filter": {"threshold": 0.015},
    "model": {"d_model": 8, "d_k": 8, "enc_width1": 4, "enc_width2": 8, "dec_width": 4},
    "train": {
        "pretrain": {"batch_size": 16, "lr": 0.001, "max_epochs": 6,
                     "scheduler_patience": 5, "rmse_stop": 1.0},
        "finetune": {"batch_size": 8, "lr": 0.001, "max_epochs": 5,
                     "scheduler_patience": 5, "early_stop_patience": 10},
    },
    "target_year": 2022,
    "seeds": [0],
}


def micro_config(tmp_path, run_name="run", **extra):
    cfg = json.loads(json.dumps(MICRO))
    cfg["paths"] = {"run_dir": str(tmp_path / run_name)}
    for key, val in extra.items():
        cfg[key] = val
    path = tmp_path / f"{run_name}.json"
    path.write_text(json.dumps(cfg))
    return str(path)


class TestConfig:
    def test_demo_config_loads(self):
        cfg = cli.load_config("demo")
        assert cfg["target_year"] == 2023
        assert cfg["seeds"] == [0, 1, 2, 3, 4]
        assert cfg["cropsim"]["n_stations"] == 40
        assert cfg["cropsim"]["n_counties"] == 60

    def test_unknown_key_rejected_with_path(self, tmp_path):
        path = tmp_path / "bad.json"
        path.write_text(json.dumps({"cropsim": {"n_station": 4}}))
        with pytest.raises(ConfigError, match="cropsim.n_station"):
            cli.load_config(str(path))

    def test_missing_file_rejected(self):
        with pytest.raises(ConfigError):
            cli.load_config("/nonexistent/config.json")

    def test_defaults_carry_headline_values(self):
        cfg = cli._merge(cli.DEFAULTS, {})
        assert cfg["loss"]["lambda"] == 2.0
        assert cfg["loss"]["epsilon"] == 1.0
        assert cfg["filter"]["threshold"] == 0.5
        assert cfg["train"]["pretrain"]["batch_size"] == 64
        assert cfg["train"]["finetune"]["batch_size"] == 16
        assert cfg["train"]["pretrain"]["lr"] == 0.001
        assert cfg["train"]["finetune"]["early_stop_patience"] == 10

    def test_an_int_is_accepted_as_a_float(self):
        cfg = cli._merge(cli.DEFAULTS, {"loss": {"lambda": 2}})
        assert cfg["loss"]["lambda"] == 2.0 and isinstance(cfg["loss"]["lambda"], float)

    def test_flag_overrides(self, tmp_path):
        path = micro_config(tmp_path)
        parser = cli.build_parser()
        args = parser.parse_args(["evaluate", "--config", path, "--seed", "7",
                                  "--lambda", "5.0", "--target-year", "2021"])
        cfg = cli._apply_overrides(cli.load_config(path), args)
        assert cfg["seeds"] == [7]
        assert cfg["loss"]["lambda"] == 5.0
        assert cfg["target_year"] == 2021


class TestPrerequisites:
    def test_filter_without_simulate_names_producer(self, tmp_path, capsys):
        path = micro_config(tmp_path, run_name="empty")
        rc = cli.main(["filter", "--config", path])
        assert rc == 1
        err = capsys.readouterr().err
        assert "simulate" in err

    def test_finetune_without_ingest_names_producer(self, tmp_path, capsys):
        path = micro_config(tmp_path, run_name="empty2")
        rc = cli.main(["finetune", "--config", path])
        assert rc == 1
        assert "ingest" in capsys.readouterr().err

    def test_ablate_needs_field_data_only_when_the_variant_pretrains(self, micro_run, tmp_path,
                                                                     capsys):
        _, paths, cfg_path, _ = micro_run
        run_dir = tmp_path / "run"
        shutil.copytree(paths.data, run_dir / "data")
        os.remove(run_dir / "data" / "field_samples.csv")
        argv = ["ablate", "--config", cfg_path, "--run-dir", str(run_dir), "--variant"]
        assert cli.main(argv + ["att"]) == 0
        assert (run_dir / "ablate" / "att" / "report.json").exists()
        assert cli.main(argv + ["att_sim"]) == 1
        err = capsys.readouterr().err
        assert "field_filtered.csv" in err and "`filter`" in err


@pytest.fixture(scope="module")
def micro_run(tmp_path_factory):
    """One micro end-to-end `all` run shared by the pipeline tests."""
    tmp = tmp_path_factory.mktemp("cli")
    path = micro_config(tmp, run_name="full")
    rc = cli.main(["all", "--config", path])
    cfg = cli.load_config(path)
    return rc, cli.RunPaths(cfg["paths"]["run_dir"]), path, tmp


class TestEndToEnd:
    def test_exit_zero(self, micro_run):
        rc, _, _, _ = micro_run
        assert rc == 0

    def test_artifacts_exist(self, micro_run):
        _, paths, _, _ = micro_run
        for p in (paths.field_samples, paths.pixels, paths.daily, paths.truth,
                  paths.county_samples, paths.filter_report, paths.field_filtered,
                  paths.metrics, paths.errors, paths.attn_raw, paths.attn_category,
                  paths.attn_box, paths.attn_svg):
            assert os.path.exists(p), p
        assert os.path.exists(os.path.join(paths.run_dir, "config_snapshot.json"))
        assert os.path.exists(paths.checkpoint_stem("pretrain", 0) + ".json")
        assert os.path.exists(paths.checkpoint_stem("finetune", 0) + ".bin")

    def test_metrics_schema(self, micro_run):
        _, paths, _, _ = micro_run
        payload = json.loads(open(paths.metrics).read())
        assert set(payload["per_seed"]) >= {"rmse", "r2"}
        assert payload["rmse_mean"] >= 0
        assert set(payload["baselines"]) == {"lr", "ridge", "mlp"}
        assert payload["n_test"] == 6

    def test_epochs_csv_schema(self, micro_run):
        _, paths, _, _ = micro_run
        lines = open(paths.epochs_csv("finetune", 0)).read().splitlines()
        assert lines[0] == "epoch,train_loss,val_loss,lr,rmse"
        assert len(lines) > 1

    def test_ablate_reports_token_count(self, micro_run, tmp_path):
        _, paths, cfg_path, _ = micro_run
        rc = cli.main(["ablate", "--config", cfg_path, "--variant", "att_wo_sm"])
        assert rc == 0
        report = json.loads(open(os.path.join(paths.ablate, "att_wo_sm", "report.json")).read())
        assert report["summary"]["token_count"] == 108

    def test_rerun_is_byte_identical(self, micro_run, tmp_path_factory):
        _, paths_a, _, tmp = micro_run
        path_b = micro_config(tmp, run_name="full_b")
        rc = cli.main(["all", "--config", path_b])
        assert rc == 0
        paths_b = cli.RunPaths(json.loads(open(path_b).read())["paths"]["run_dir"])

        def digest(p):
            return hashlib.sha256(open(p, "rb").read()).hexdigest()

        assert digest(paths_a.metrics) == digest(paths_b.metrics)
        for stage in ("pretrain", "finetune"):
            for ext in (".json", ".bin"):
                assert digest(paths_a.checkpoint_stem(stage, 0) + ext) \
                    == digest(paths_b.checkpoint_stem(stage, 0) + ext)


# sha256 of the micro run's data files. Any change to the CSV writer's bytes,
# to a reduction's summation order or to the simulator's draws shows here.
MICRO_DATA_SHA256 = {
    "county_samples.csv": "7f4824506a9c93687a529e82d14752ef7072913f3385dbbfe0cdf33a6d3c0451",
    "county_truth.csv": "4abb44697f4819bdb63846a2739f36db8a23eafafeda855896847f40d1023975",
    "daily.csv": "eea487919d62be9f8c3ead1ed66e1408ee42b76ee298950bc6d7063b27e8d1dd",
    "field_samples.csv": "bf35b78ff12cd64b2e806331e60464ed3d848a05a5471f034c43f916697c409b",
    "pixels.csv": "e3f1c145e7a864ae84c902397fc2d3feca45ccb0d65af945c94a80fd70cf02f0",
}


def test_micro_data_files_are_pinned(micro_run):
    _, paths, _, _ = micro_run
    found = {name: hashlib.sha256(open(os.path.join(paths.data, name), "rb").read()).hexdigest()
             for name in MICRO_DATA_SHA256}
    assert found == MICRO_DATA_SHA256


def _tiny_train():
    return {
        "pretrain": {"batch_size": 16, "lr": 0.001, "max_epochs": 1,
                     "scheduler_patience": 5, "rmse_stop": 1.0},
        "finetune": {"batch_size": 8, "lr": 0.001, "max_epochs": 2,
                     "scheduler_patience": 5, "early_stop_patience": 10},
    }


class TestRefusals:
    def test_single_county_refused_with_year_and_counts(self, tmp_path, capsys):
        cropsim = dict(MICRO["cropsim"], n_counties=1)
        path = micro_config(tmp_path, run_name="one_county", cropsim=cropsim,
                            train=_tiny_train())
        assert cli.main(["all", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: target year 2022 has 1 county sample(s)")
        # a lone county per year is never drought-flagged
        assert cli.main(["attn-report", "--config", path]) == 1
        err = capsys.readouterr().err
        assert err.startswith("error: year 2019 has 0 drought-flagged and 1 other county samples")

    def test_evaluate_refuses_a_split_the_checkpoint_was_not_trained_on(self, micro_run, capsys):
        _, paths, cfg_path, _ = micro_run
        snapshot = os.path.join(paths.run_dir, "config_snapshot.json")
        before = [open(p, "rb").read() for p in (paths.metrics, snapshot)]
        rc = cli.main(["evaluate", "--config", cfg_path, "--target-year", "2021"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "'target_year': 2022" in err and "'target_year': 2021" in err
        # a refused command leaves the snapshot describing the config that wrote the run
        assert [open(p, "rb").read() for p in (paths.metrics, snapshot)] == before

    def test_evaluate_refuses_a_checkpoint_without_its_split(self, micro_run, tmp_path, capsys):
        _, paths, cfg_path, _ = micro_run
        run_dir = tmp_path / "no_split"
        shutil.copytree(paths.data, run_dir / "data")
        shutil.copytree(paths.finetune, run_dir / "finetune")
        manifest_path = run_dir / "finetune" / "seed0" / "model.json"
        manifest = json.loads(manifest_path.read_text())
        for key in ("target_year", "split_seed", "train_fraction"):
            del manifest["meta"][key]
        manifest_path.write_text(json.dumps(manifest))
        rc = cli.main(["evaluate", "--config", cfg_path, "--run-dir", str(run_dir)])
        assert rc == 1
        assert "'target_year': None" in capsys.readouterr().err


    def test_finetune_refuses_before_writing_any_seed(self, micro_run, tmp_path, capsys):
        """A later seed's pretrain checkpoint of another variant stops the
        stage before the first seed's finetune checkpoint is replaced."""
        _, paths, _, _ = micro_run
        run_dir = _copy_run(paths, tmp_path / "run")
        shutil.copytree(os.path.join(run_dir, "pretrain", "seed0"),
                        os.path.join(run_dir, "pretrain", "seed1"))
        _edit_json(lambda m: m["meta"].update(variant="att_sim_w2s_smw"))(
            tmp_path / "run" / "pretrain" / "seed1" / "model.json")
        finetuned = [os.path.join(run_dir, "finetune", "seed0", name)
                     for name in ("model.json", "model.bin", "epochs.csv")]
        before = [open(p, "rb").read() for p in finetuned]
        cfg_path = micro_config(tmp_path, run_name="two_seeds", seeds=[0, 1])
        assert cli.main(["finetune", "--config", cfg_path, "--run-dir", run_dir]) == 1
        err = capsys.readouterr().err
        assert "seed1" in err and "'variant': 'att_sim_w2s_smw'" in err and "`pretrain`" in err
        assert [open(p, "rb").read() for p in finetuned] == before
        assert not os.path.exists(os.path.join(run_dir, "finetune", "seed1"))


def _copy_run(paths, run_dir):
    """Copy a finished run's data and checkpoints, so a test can corrupt
    them or fail a command on them without touching the shared run."""
    for stage in ("data", "pretrain", "finetune"):
        shutil.copytree(getattr(paths, stage), run_dir / stage)
    return str(run_dir)


BAD_INPUTS = {
    "variant": (["finetune", "--variant", "bogus"], {}, "unknown variant 'bogus'"),
    "target_year_absent": (["finetune", "--target-year", "2030"], {},
                           "target year 2030 absent"),
    "target_year_first": (["evaluate", "--target-year", "2019"], {},
                          "no samples precede the target year 2019"),
    "batch_size": (["finetune"], {"train": {"finetune": {"batch_size": 0}}},
                   "batch_size must be >= 1"),
    "lambda": (["finetune", "--lambda", "-1"], {}, "lambda must be >= 0"),
    "finetune_other_variant": (["finetune", "--variant", "att_sim_w2s_smw"], {},
                               "'variant': 'kgml_sm'"),
    "evaluate_other_variant": (["evaluate", "--variant", "att_wo_sm"], {},
                               "'variant': 'kgml_sm'"),
    "attn_report_other_variant": (["attn-report", "--variant", "att_wo_sm"], {},
                                  "'variant': 'kgml_sm'"),
    "threshold_string": (["filter"], {"filter": {"threshold": "abc"}},
                         "config key filter.threshold must be int or float, not 'abc'"),
    "enabled_int": (["filter"], {"filter": {"enabled": 1}},
                    "config key filter.enabled must be bool, not 1"),
    "batch_size_float": (["finetune"], {"train": {"finetune": {"batch_size": 8.0}}},
                         "config key train.finetune.batch_size must be int, not 8.0"),
    "seeds_empty": (["evaluate"], {"seeds": []}, "config key seeds must be a non-empty list"),
    "seeds_string": (["finetune"], {"seeds": "ab"}, "config key seeds must be a non-empty list"),
    "seeds_repeated": (["finetune"], {"seeds": [0, 0]},
                       "config key seeds must be a non-empty list of distinct ints"),
    **{f"train_fraction_{f}": (["finetune", "--variant", "att"], {"train": {"train_fraction": f}},
                               "train.train_fraction must be in (0, 1)")
       for f in (0.0, 1.0, 1.5, -0.2)},
    # 0.05 of the 18 samples before 2022 is no whole sample
    "train_fraction_empty_train": (["finetune", "--variant", "att"],
                                   {"train": {"train_fraction": 0.05}},
                                   "leaves 0 to train on and 18 to validate on"),
    "pretrain_max_epochs": (["pretrain"], {"train": {"pretrain": {"max_epochs": 0}}},
                            "max_epochs must be >= 1"),
    "finetune_max_epochs": (["finetune"], {"train": {"finetune": {"max_epochs": 0}}},
                            "max_epochs must be >= 1"),
    # numpy's seed sequences take no negative int
    "seed_flag_negative": (["ablate", "--variant", "att", "--seed", "-1"], {},
                           "config key seeds has the negative seed -1"),
    "seeds_negative_entry": (["finetune", "--variant", "att"], {"seeds": [0, -1]},
                             "config key seeds has the negative seed -1"),
    "data_seed_negative": (["simulate"], {"cropsim": dict(MICRO["cropsim"], data_seed=-3)},
                           "config key cropsim.data_seed has the negative seed -3"),
    "split_seed_negative": (["finetune", "--variant", "att"], {"train": {"split_seed": -2}},
                            "config key train.split_seed has the negative seed -2"),
    # simulator and model settings outside their domain
    **{f"{key}_0": (["simulate"], {"cropsim": dict(MICRO["cropsim"], **{key: 0})},
                    f"config key cropsim.{key} must be >= 1, not 0")
       for key in ("n_counties", "n_stations")},
    "scenario_unknown": (["simulate"], {"cropsim": dict(MICRO["cropsim"],
                                                        scenario_mix={"wet": 1.0})},
                         "config key cropsim.scenario_mix must map scenarios of "
                         "['anomalous', 'drought', 'normal'] to weights"),
    "scenario_override_not_a_year": (["simulate"], {"cropsim": dict(
        MICRO["cropsim"], county_scenario_overrides={"later": {"normal": 1.0}})},
        "config key cropsim.county_scenario_overrides has the key 'later', which is not a year"),
    "scenario_weights_sum_0": (["simulate"], {"cropsim": dict(
        MICRO["cropsim"], county_scenario_mix={"normal": 0.0, "drought": 0.0})},
        "config key cropsim.county_scenario_mix must hold non-negative weights with a positive "
        "sum"),
    "scenario_weight_negative": (["simulate"], {"cropsim": dict(
        MICRO["cropsim"], scenario_mix={"normal": 1.5, "drought": -0.5})},
        "config key cropsim.scenario_mix must hold non-negative weights"),
    "d_model_0": (["finetune", "--variant", "att"], {"model": dict(MICRO["model"], d_model=0)},
                  "config key model.d_model must be >= 1, not 0"),
    # a float key takes no NaN or infinity, from the config or from its flag
    "lambda_nan": (["ablate", "--variant", "att"], {"loss": {"lambda": float("nan")}},
                   "config key loss.lambda must be a finite number, not nan"),
    "lambda_flag_inf": (["ablate", "--variant", "att", "--lambda", "inf"], {},
                        "config key loss.lambda must be a finite number, not inf"),
}


@pytest.mark.parametrize("case", sorted(BAD_INPUTS))
def test_bad_input_exits_1_with_error_line(case, micro_run, tmp_path, capsys):
    argv, extra, message = BAD_INPUTS[case]
    _, paths, _, _ = micro_run
    run_dir = _copy_run(paths, tmp_path / "run")
    cfg_path = micro_config(tmp_path, run_name="bad", **extra)
    assert cli.main(argv + ["--config", cfg_path, "--run-dir", run_dir]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def test_zero_epochs_leave_the_trained_checkpoints_alone(micro_run, tmp_path, capsys):
    _, paths, _, _ = micro_run
    run_dir = _copy_run(paths, tmp_path / "run")
    trained = [os.path.join(run_dir, stage, "seed0", name) for stage in ("pretrain", "finetune")
               for name in ("model.json", "model.bin")]
    before = [open(p, "rb").read() for p in trained]
    for stage in ("pretrain", "finetune"):
        train = json.loads(json.dumps(MICRO["train"]))
        train[stage]["max_epochs"] = 0
        cfg_path = micro_config(tmp_path, run_name=f"zero_{stage}", train=train)
        assert cli.main([stage, "--config", cfg_path, "--run-dir", run_dir]) == 1
        assert capsys.readouterr().err.startswith("error: max_epochs must be >= 1")
    assert [open(p, "rb").read() for p in trained] == before


def test_filter_that_keeps_nothing_writes_nothing(micro_run, tmp_path, capsys):
    _, paths, _, _ = micro_run
    run_dir = _copy_run(paths, tmp_path / "run")
    cfg_path = micro_config(tmp_path, run_name="keep_none", filter={"threshold": -1})
    assert cli.main(["filter", "--config", cfg_path, "--run-dir", run_dir]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: filter.threshold -1.0 keeps none of the ")
    assert not os.path.exists(os.path.join(run_dir, "filter"))


@pytest.mark.parametrize("command,stage", [("finetune", "pretrain"), ("evaluate", "finetune"),
                                           ("attn-report", "finetune")])
def test_missing_checkpoint_blob_names_its_producer(command, stage, micro_run, tmp_path, capsys):
    _, paths, cfg_path, _ = micro_run
    run_dir = _copy_run(paths, tmp_path / "run")
    os.remove(os.path.join(run_dir, stage, "seed0", "model.bin"))
    assert cli.main([command, "--config", cfg_path, "--run-dir", run_dir]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: missing ") and "model.bin" in err and f"`{stage}`" in err


def test_empty_drought_group_scores_none(micro_run, tmp_path):
    """A test set without drought-flagged samples: both scorers report None."""
    _, paths, cfg_path, _ = micro_run
    run_dir = tmp_path / "no_drought"
    shutil.copytree(paths.finetune, run_dir / "finetune")
    county = ingest.read_samples_csv(paths.county_samples)
    for s in county.samples:
        if s.year == 2022:
            s.drought_flag = False
    os.makedirs(run_dir / "data")
    ingest.write_samples_csv(county, run_dir / "data" / "county_samples.csv")

    assert cli.main(["evaluate", "--config", cfg_path, "--run-dir", str(run_dir)]) == 0
    payload = json.loads((run_dir / "evaluate" / "metrics.json").read_text())
    assert payload["per_seed"]["mean_signed_error_drought"] == [None]
    assert payload["per_seed"]["mean_signed_error_non_drought"][0] is not None

    cfg = cli.load_config(cfg_path)
    pre_cfg, fine_cfg = cli.stage_configs(cfg)
    fine_cfg.max_epochs = 1
    res = training.run_experiment(None, county, "att", [0], cli.split_spec(cfg), pre_cfg,
                                  fine_cfg, cli.loss_config(cfg), sizes=cfg["model"])
    assert res.per_seed["mean_signed_error_drought"] == [None]
    assert res.summary["mean_signed_error_drought_median"] is None


def test_singular_lr_baseline_is_skipped(micro_run, tmp_path):
    """With 2021 the only year before the target, fewer samples train than
    the 135 design columns and their year feature is constant: the `lr`
    fit is singular. `evaluate` records it as skipped and scores the model
    and the other baselines."""
    _, paths, cfg_path, _ = micro_run
    run_dir = tmp_path / "one_train_year"
    shutil.copytree(paths.finetune, run_dir / "finetune")
    county = ingest.read_samples_csv(paths.county_samples)
    years = ingest.stack_dataset(county)["years"]
    os.makedirs(run_dir / "data")
    ingest.write_samples_csv(county.subset(np.flatnonzero(years >= 2021)),
                             run_dir / "data" / "county_samples.csv")

    assert cli.main(["evaluate", "--config", cfg_path, "--run-dir", str(run_dir)]) == 0
    payload = json.loads((run_dir / "evaluate" / "metrics.json").read_text())
    assert payload["baselines"]["lr"] == {
        "skipped": "singular normal equations: 4 samples, 135 design columns; "
                   "use the ridge baseline"}
    assert set(payload["baselines"]["ridge"]) == {"rmse", "r2"}
    assert len(payload["baselines"]["mlp"]["per_seed_rmse"]) == 1
    assert payload["n_test"] == 6 and len(payload["per_seed"]["rmse"]) == 1


def test_ablate_scores_as_evaluate_does(micro_run, tmp_path):
    """`ablate` of the run's own variant and seeds reproduces `evaluate`'s
    per-seed scores and means: both go through one scorer."""
    _, paths, cfg_path, _ = micro_run
    run_dir = _copy_run(paths, tmp_path / "run")
    shutil.copytree(paths.filter, os.path.join(run_dir, "filter"))
    argv = ["ablate", "--config", cfg_path, "--run-dir", run_dir, "--variant", "kgml_sm"]
    assert cli.main(argv) == 0
    with open(os.path.join(run_dir, "ablate", "kgml_sm", "report.json")) as f:
        report = json.load(f)
    with open(paths.metrics) as f:
        evaluated = json.load(f)
    assert report["per_seed"] == evaluated["per_seed"]
    assert report["summary"]["rmse_mean"] == evaluated["rmse_mean"]
    assert report["summary"]["r2_mean"] == evaluated["r2_mean"]


def _set_cell(path, line, column, value):
    """Overwrite one cell of a CSV, or drop it when value is None."""
    lines = path.read_text().splitlines()
    cells = lines[line - 1].split(",")
    at = lines[0].split(",").index(column)
    cells[at: at + 1] = [] if value is None else [value]
    lines[line - 1] = ",".join(cells)
    path.write_text("\n".join(lines) + "\n")


def _set_cells(line, columns, value):
    """A corruption that sets several cells of one CSV row to one value."""
    def corrupt(path):
        for column in columns:
            _set_cell(path, line, column, value)
    return corrupt


def _edit_json(edit):
    """A corruption that loads a JSON file, applies edit to it, and saves it."""
    def corrupt(path):
        payload = json.loads(path.read_text())
        edit(payload)
        path.write_text(json.dumps(payload))
    return corrupt


def _duplicate_line(line):
    def corrupt(path):
        lines = path.read_text().splitlines()
        lines.insert(line, lines[line - 1])
        path.write_text("\n".join(lines) + "\n")
    return corrupt


def _drop_rows(county, date):
    """A corruption that deletes every row of one county on one date."""
    def corrupt(path):
        lines = path.read_text().splitlines()
        path.write_text("\n".join(x for x in lines if not x.startswith(f"{county},{date},")) + "\n")
    return corrupt


def _append_copy(line, column, value):
    """A corruption that appends a copy of one CSV row with one cell changed."""
    def corrupt(path):
        lines = path.read_text().splitlines()
        lines.append(lines[line - 1])
        path.write_text("\n".join(lines) + "\n")
        _set_cell(path, len(lines), column, value)
    return corrupt


def _move_date(county, date, to):
    """A corruption that moves one county's daily and pixel rows to another
    date, so the two files still agree with each other."""
    def corrupt(path):
        for name in ("daily.csv", "pixels.csv"):
            other = path.parent / name
            other.write_text(other.read_text().replace(f"\n{county},{date},", f"\n{county},{to},"))
    return corrupt


def _set_year(year, column, value):
    """A corruption that sets one column of every row of one year."""
    def corrupt(path):
        lines = path.read_text().splitlines()
        at = lines[0].split(",").index("year")
        for line, row in enumerate(lines[1:], start=2):
            if row.split(",")[at] == str(year):
                _set_cell(path, line, column, value)
    return corrupt


def _cut_bytes(n):
    def corrupt(path):
        path.write_bytes(path.read_bytes()[:-n])
    return corrupt


MANIFEST = os.path.join("data", "county_samples_manifest.json")
CHECKPOINT = os.path.join("finetune", "seed0", "model")
BAD_FILES = {
    "manifest_without_level": ("filter", MANIFEST, _edit_json(lambda m: m.pop("level")),
                               "county_samples_manifest.json does not match"),
    "manifest_truncated": ("filter", MANIFEST, lambda p: p.write_text("{"),
                           "county_samples_manifest.json is not valid JSON"),
    "checkpoint_truncated": ("evaluate", CHECKPOINT + ".json",
                             lambda p: p.write_text("{"), "model.json is not valid JSON"),
    "checkpoint_without_config": ("evaluate", CHECKPOINT + ".json",
                                  _edit_json(lambda m: m.pop("config")),
                                  "model.json is not a checkpoint manifest"),
    "checkpoint_without_normalization": ("evaluate", CHECKPOINT + ".json",
                                         _edit_json(lambda m: m.pop("normalization")),
                                         "model.json is not a checkpoint manifest"),
    "checkpoint_without_params": ("evaluate", CHECKPOINT + ".json",
                                  _edit_json(lambda m: m.pop("params")),
                                  "model.json is not a checkpoint manifest"),
    "checkpoint_unknown_config_key": ("evaluate", CHECKPOINT + ".json",
                                      _edit_json(lambda m: m["config"].update(d_ff=64)),
                                      "model.json is not a checkpoint manifest"),
    "checkpoint_config_without_d_k": ("evaluate", CHECKPOINT + ".json",
                                      _edit_json(lambda m: m["config"].pop("d_k")),
                                      "model.json is not a checkpoint manifest"),
    "checkpoint_without_vi_const": ("evaluate", CHECKPOINT + ".json",
                                    _edit_json(lambda m: m["normalization"].pop("vi_const")),
                                    "model.json is not a checkpoint manifest"),
    "checkpoint_vi_mu_of_one_channel": ("evaluate", CHECKPOINT + ".json",
                                        _edit_json(lambda m: m["normalization"].update(
                                            vi_mu=[0.0])),
                                        "normalization vi_mu must be 4 numbers"),
    "checkpoint_params_reversed": ("evaluate", CHECKPOINT + ".json",
                                   _edit_json(lambda m: m["params"].reverse()),
                                   "model.json: parameter 0 is ('att.out.b', (1,)), where its "
                                   "config makes ('w2s.enc1.w', (12, 4))"),
    "checkpoint_meta_list": ("evaluate", CHECKPOINT + ".json",
                             _edit_json(lambda m: m.update(meta=[])),
                             "model.json: meta must be an object, not []"),
    "checkpoint_blob_cut_3_bytes": ("evaluate", CHECKPOINT + ".bin", _cut_bytes(3),
                                    "model.bin holds"),
    "daily_bad_date": ("ingest", os.path.join("data", "daily.csv"),
                       lambda p: _set_cell(p, 3, "date", "x"),
                       "daily.csv: column 'date'"),
    "daily_short_row": ("ingest", os.path.join("data", "daily.csv"),
                        lambda p: _set_cell(p, 3, "sm_rootzone", None),
                        "daily.csv line 3: 7 cells under a 8-column header"),
    "daily_duplicate_row": ("ingest", os.path.join("data", "daily.csv"), _duplicate_line(3),
                            "daily.csv: county c000/2019 does not have one row on each of 214 "
                            "distinct dates"),
    "daily_date_outside_season": ("ingest", os.path.join("data", "daily.csv"),
                                  _move_date("c000", "2019-04-01", "2019-11-01"),
                                  "daily.csv: county c000/2019 has dates outside the season"),
    "pixels_missing_date": ("ingest", os.path.join("data", "pixels.csv"),
                            _drop_rows("c000", "2019-07-01"),
                            "pixels.csv: county c000/2019: pixel dates differ from the daily "
                            "dates"),
    "truth_bad_yield": ("ingest", os.path.join("data", "county_truth.csv"),
                        lambda p: _set_cell(p, 2, "yield", "abc"),
                        "county_truth.csv: column 'yield'"),
    "truth_repeated_key": ("ingest", os.path.join("data", "county_truth.csv"),
                           _append_copy(2, "yield", "99.0"),
                           "county_truth.csv: county c000/2019 has more than one row"),
    "samples_bad_cell": ("evaluate", os.path.join("data", "county_samples.csv"),
                         lambda p: _set_cell(p, 4, "w_5", "abc"),
                         "county_samples.csv: column 'w_5'"),
    "samples_nan_yield": ("evaluate", os.path.join("data", "county_samples.csv"),
                          lambda p: _set_cell(p, 4, "yield", "nan"),
                          "county_samples.csv: column 'yield' has a cell that is not a finite"),
    "samples_inf_weather": ("evaluate", os.path.join("data", "county_samples.csv"),
                            lambda p: _set_cell(p, 4, "w_5", "inf"),
                            "county_samples.csv: column 'w_5' has a cell that is not a finite"),
    "samples_negative_sm": ("filter", os.path.join("data", "field_samples.csv"),
                            _set_cells(2, ["sbar"] + [f"s_{i + 1}" for i in range(26)], "-0.5"),
                            "field_samples.csv: column 's_1' has a negative soil moisture"),
    "samples_constant_target_yield": ("evaluate", os.path.join("data", "county_samples.csv"),
                                      _set_year(2022, "yield", "9.0"),
                                      "target year 2022 has 6 county samples whose yields all "
                                      "equal 9.0"),
    "samples_flag_2": ("evaluate", os.path.join("data", "county_samples.csv"),
                       lambda p: _set_cell(p, 4, "drought_flag", "2"),
                       "county_samples.csv: column 'drought_flag' has a cell that is not 0 or 1"),
    "pixels_mask_2": ("ingest", os.path.join("data", "pixels.csv"),
                      lambda p: _set_cell(p, 4, "corn_mask", "2"),
                      "pixels.csv: column 'corn_mask' has a cell that is not 0 or 1"),
}


@pytest.mark.parametrize("case", sorted(BAD_FILES))
def test_malformed_artifact_exits_1_naming_the_file(case, micro_run, tmp_path, capsys):
    command, name, corrupt, message = BAD_FILES[case]
    _, paths, cfg_path, _ = micro_run
    run_dir = _copy_run(paths, tmp_path / "run")
    corrupt(tmp_path / "run" / name)
    assert cli.main([command, "--config", cfg_path, "--run-dir", run_dir]) == 1
    err = capsys.readouterr().err
    assert err.startswith("error: ") and message in err


def _declared(cfg, paths, names):
    return {f for name in names for f in cli.STAGES[name].writes(cfg, paths)}


def test_run_dir_holds_exactly_the_declared_writes(micro_run):
    _, paths, cfg_path, _ = micro_run
    assert cli.main(["ablate", "--config", cfg_path, "--variant", "att_wo_sm"]) == 0
    cfg = cli.load_config(cfg_path)
    ablate_cfg = dict(cfg, variant="att_wo_sm")
    declared = (_declared(cfg, paths, cli.chain(cfg)) | _declared(ablate_cfg, paths, ["ablate"])
                | {os.path.join(paths.run_dir, "config_snapshot.json")})
    found = {os.path.join(base, name) for base, _, names in os.walk(paths.run_dir)
             for name in names}
    assert found == declared


@pytest.mark.parametrize("variant,enabled", itertools.product(sorted(training.VARIANTS),
                                                              [True, False]))
def test_every_read_is_written_by_an_earlier_stage_of_all(variant, enabled):
    cfg = cli.load_config("demo")
    cfg["variant"], cfg["filter"]["enabled"] = variant, enabled
    paths = cli.RunPaths("run")
    written = set()
    for name in cli.chain(cfg) + ["ablate"]:
        missing = set(cli.STAGES[name].reads(cfg, paths)) - written
        assert not missing, (name, missing)
        written |= set(cli.STAGES[name].writes(cfg, paths))


def _files_cell(files, cfg, run_dir):
    """Files relative to the run directory, as the README stage table
    lists them: `seed*` stands for a path that every seed has."""
    rel = [os.path.relpath(f, run_dir) for f in files]
    tpl = [re.sub(r"seed\d+", "seed*", r) for r in rel]
    return list(dict.fromkeys(t if tpl.count(t) == len(cfg["seeds"]) else r
                              for r, t in zip(rel, tpl)))


def test_readme_stage_table_matches_stages():
    readme = os.path.join(os.path.dirname(__file__), os.pardir, "README.md")
    section = open(readme, encoding="utf-8").read().split("\n## Stages\n")[1].split("\n## ")[0]
    table = {}
    for line in section.splitlines():
        if line.startswith("| `"):
            name, reads, writes = line.strip("|").split("|")
            table[name.strip(" `")] = [re.findall(r"`([^`]+)`", c) for c in (reads, writes)]
    cfg = cli.load_config("demo")
    paths = cli.RunPaths("run")
    expected = {name: [_files_cell(stage.reads(cfg, paths), cfg, "run"),
                       _files_cell(stage.writes(cfg, paths), cfg, "run")]
                for name, stage in cli.STAGES.items()}
    assert table == expected
