import hashlib
import json
import os
import shutil

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
        before = open(paths.metrics).read()
        rc = cli.main(["evaluate", "--config", cfg_path, "--target-year", "2021"])
        assert rc == 1
        err = capsys.readouterr().err
        assert "'target_year': 2022" in err and "'target_year': 2021" in err
        assert open(paths.metrics).read() == before

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


def _copy_run(paths, run_dir):
    """Copy a finished run's data and checkpoints, so a failing command's
    config snapshot lands outside the shared run."""
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
