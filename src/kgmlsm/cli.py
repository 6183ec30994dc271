"""Command-line pipeline: simulate -> ingest -> filter -> pretrain ->
finetune -> evaluate -> attn-report, plus `ablate` for component studies
and `all` to chain everything, driven by one JSON config file.

Flags override config keys; nothing is read from the environment.
"""

import argparse
import json
import os
import sys
from collections import defaultdict
from importlib import resources

import numpy as np

from . import attnreport, cropsim, filtering, ingest, losses, metrics, model, training
from .artifacts import read_json, write_json
from .errors import CheckpointMismatch, ConfigError, KgmlsmError, SchemaError

DEFAULTS = {
    "paths": {"run_dir": "runs/out"},
    "cropsim": {
        "n_stations": 40,
        "n_counties": 60,
        "years": {"first": 2015, "last": 2023},
        "field_years": {"first": 1980, "last": 2023},
        "scenario_mix": {"normal": 0.65, "drought": 0.20, "anomalous": 0.15},
        "county_scenario_mix": {"normal": 0.85, "drought": 0.15},
        "county_scenario_overrides": {},
        "data_seed": 7,
    },
    "filter": {"threshold": 0.5, "enabled": True},
    "loss": {"lambda": 2.0, "epsilon": 1.0},
    "model": {"d_model": 32, "d_k": 32, "enc_width1": 16, "enc_width2": 32, "dec_width": 16},
    "train": {
        "pretrain": {"batch_size": 64, "lr": 0.001, "max_epochs": 50,
                     "scheduler_patience": 5, "rmse_stop": 1.0},
        "finetune": {"batch_size": 16, "lr": 0.001, "max_epochs": 30,
                     "scheduler_patience": 5, "early_stop_patience": 10},
        "split_seed": 0,
        "train_fraction": 0.8,
    },
    "target_year": 2023,
    "seeds": [0, 1, 2, 3, 4],
    "variant": "kgml_sm",
}


# keys whose contents are free-form maps rather than fixed schemas
FREEFORM_KEYS = {
    "cropsim.scenario_mix",
    "cropsim.county_scenario_mix",
    "cropsim.county_scenario_overrides",
}


def _merge(defaults, override, path=""):
    if not isinstance(override, dict):
        raise ConfigError(f"config key {path or '<root>'} must be an object")
    out = {}
    for key, default in defaults.items():
        here = f"{path}.{key}" if path else key
        if key in override:
            value = override[key]
            if here in FREEFORM_KEYS:
                out[key] = json.loads(json.dumps(value))
            elif isinstance(default, dict):
                out[key] = _merge(default, value, here)
            else:
                out[key] = value
        else:
            out[key] = json.loads(json.dumps(default))  # deep copy of the default
    for key in override:
        if key not in defaults:
            here = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown config key: {here}")
    return out


def load_config(path):
    """Read a config file; the name "demo" resolves to the bundled demo."""
    if path == "demo":
        text = resources.files("kgmlsm.configs").joinpath("demo.json").read_text(encoding="utf-8")
        raw = json.loads(text)
    else:
        try:
            raw = read_json(path)
        except SchemaError as e:
            raise ConfigError(f"config file: {e}") from None
    return _merge(DEFAULTS, raw)


def config_years(cfg, key="years"):
    y = cfg["cropsim"][key]
    if y["first"] > y["last"]:
        raise ConfigError(f"cropsim.{key}.first must be <= cropsim.{key}.last")
    return list(range(int(y["first"]), int(y["last"]) + 1))


def loss_config(cfg):
    return losses.LossConfig(lam=float(cfg["loss"]["lambda"]),
                             epsilon=float(cfg["loss"]["epsilon"]))


def stage_configs(cfg):
    p = cfg["train"]["pretrain"]
    f = cfg["train"]["finetune"]
    pre = training.StageConfig(batch_size=int(p["batch_size"]), lr=float(p["lr"]),
                               max_epochs=int(p["max_epochs"]),
                               scheduler_patience=int(p["scheduler_patience"]),
                               rmse_stop=float(p["rmse_stop"]))
    fine = training.StageConfig(batch_size=int(f["batch_size"]), lr=float(f["lr"]),
                                max_epochs=int(f["max_epochs"]),
                                scheduler_patience=int(f["scheduler_patience"]),
                                early_stop_patience=int(f["early_stop_patience"]))
    return pre, fine


def split_spec(cfg):
    return training.SplitSpec(target_year=int(cfg["target_year"]),
                              train_fraction=float(cfg["train"]["train_fraction"]),
                              shuffle_seed=int(cfg["train"]["split_seed"]))


class RunPaths:
    def __init__(self, run_dir):
        self.run_dir = str(run_dir)
        self.data = os.path.join(self.run_dir, "data")
        self.filter = os.path.join(self.run_dir, "filter")
        self.pretrain = os.path.join(self.run_dir, "pretrain")
        self.finetune = os.path.join(self.run_dir, "finetune")
        self.evaluate = os.path.join(self.run_dir, "evaluate")
        self.attn = os.path.join(self.run_dir, "attn")
        self.ablate = os.path.join(self.run_dir, "ablate")
        self.field_samples = os.path.join(self.data, "field_samples.csv")
        self.pixels = os.path.join(self.data, "pixels.csv")
        self.daily = os.path.join(self.data, "daily.csv")
        self.truth = os.path.join(self.data, "county_truth.csv")
        self.county_samples = os.path.join(self.data, "county_samples.csv")
        self.filter_report = os.path.join(self.filter, "filter_report.csv")
        self.field_filtered = os.path.join(self.filter, "field_filtered.csv")
        self.metrics = os.path.join(self.evaluate, "metrics.json")
        self.errors = os.path.join(self.evaluate, "errors.csv")
        self.attn_raw = os.path.join(self.attn, "attention_raw.csv")
        self.attn_category = os.path.join(self.attn, "attention_category.csv")
        self.attn_box = os.path.join(self.attn, "attention_box.csv")
        self.attn_svg = os.path.join(self.attn, "attention_category.svg")

    def checkpoint_stem(self, stage, seed):
        return os.path.join(getattr(self, stage), f"seed{seed}", "model")

    def epochs_csv(self, stage, seed):
        return os.path.join(getattr(self, stage), f"seed{seed}", "epochs.csv")


def _require(path, producer):
    if not os.path.exists(path):
        raise KgmlsmError(f"missing {path}; run the `{producer}` subcommand first")


def _ensure_dirs(*dirs):
    for d in dirs:
        os.makedirs(d, exist_ok=True)


def _snapshot(cfg, paths):
    _ensure_dirs(paths.run_dir)
    write_json(os.path.join(paths.run_dir, "config_snapshot.json"), cfg)


# ---------------------------------------------------------------------------
# subcommands


def cmd_simulate(cfg, paths):
    _ensure_dirs(paths.data)
    county_years = config_years(cfg)
    field_years = config_years(cfg, "field_years")
    cs = cfg["cropsim"]
    field = cropsim.build_field_dataset(int(cs["n_stations"]), field_years,
                                        cs["scenario_mix"], int(cs["data_seed"]))
    ingest.write_samples_csv(field, paths.field_samples)
    cropsim.build_county_inputs(int(cs["n_counties"]), county_years, cs["county_scenario_mix"],
                                int(cs["data_seed"]), paths.pixels, paths.daily, paths.truth,
                                scenario_overrides=cs["county_scenario_overrides"])
    print(f"simulate: {len(field)} field samples, county inputs for {cs['n_counties']} counties")
    return [paths.field_samples, paths.pixels, paths.daily, paths.truth]


def cmd_ingest(cfg, paths):
    for p in (paths.pixels, paths.daily, paths.truth):
        _require(p, "simulate")
    _ensure_dirs(paths.data)
    county = ingest.build_county_dataset(paths.pixels, paths.daily, paths.truth)
    ingest.label_drought(county)
    ingest.write_samples_csv(county, paths.county_samples)
    print(f"ingest: {len(county)} county samples")
    return [paths.county_samples]


def cmd_filter(cfg, paths):
    _require(paths.field_samples, "simulate")
    _require(paths.county_samples, "ingest")
    _ensure_dirs(paths.filter)
    field = ingest.read_samples_csv(paths.field_samples)
    county = ingest.read_samples_csv(paths.county_samples)
    sm_model = filtering.fit_sm_regressor(county)
    threshold = float(cfg["filter"]["threshold"])
    kept, discarded, report = filtering.screen_field_samples(field, sm_model, threshold)
    filtering.write_filter_report(paths.filter_report, report)
    ingest.write_samples_csv(kept, paths.field_filtered)
    print(f"filter: kept {len(kept)}, discarded {len(discarded)} (threshold {threshold})")
    return [paths.filter_report, paths.field_filtered]


def _pretrain_source(cfg, paths):
    if bool(cfg["filter"]["enabled"]):
        _require(paths.field_filtered, "filter")
        return paths.field_filtered
    _require(paths.field_samples, "simulate")
    return paths.field_samples


def cmd_pretrain(cfg, paths):
    variant = training.get_variant(cfg["variant"])
    if not variant.use_pretrain:
        print(f"pretrain: variant {variant.name} skips pretraining")
        return []
    source = _pretrain_source(cfg, paths)
    field = ingest.read_samples_csv(source)
    pre_cfg, _ = stage_configs(cfg)
    artifacts = []
    for seed in cfg["seeds"]:
        bundle, rows = training.pretrain(field, pre_cfg, loss_config(cfg), variant,
                                         cfg["model"], int(seed))
        stem = paths.checkpoint_stem("pretrain", seed)
        _ensure_dirs(os.path.dirname(stem))
        artifacts += list(model.save_checkpoint(stem, bundle))
        training.write_epochs_csv(paths.epochs_csv("pretrain", seed), rows)
        artifacts.append(paths.epochs_csv("pretrain", seed))
        print(f"pretrain seed {seed}: {bundle.meta['epochs_run']} epochs, "
              f"train RMSE {bundle.meta['final_train_rmse']:.3f} ({bundle.meta['stop_reason']})")
    return artifacts


def cmd_finetune(cfg, paths):
    _require(paths.county_samples, "ingest")
    variant = training.get_variant(cfg["variant"])
    county = ingest.read_samples_csv(paths.county_samples)
    _, fine_cfg = stage_configs(cfg)
    spec = split_spec(cfg)
    artifacts = []
    for seed in cfg["seeds"]:
        checkpoint = None
        if variant.use_pretrain:
            stem = paths.checkpoint_stem("pretrain", seed)
            _require(stem + ".json", "pretrain")
            _require(stem + ".bin", "pretrain")
            checkpoint = model.load_checkpoint(stem)
        bundle, rows, _split = training.finetune(checkpoint, county, spec, fine_cfg,
                                                 loss_config(cfg), variant, cfg["model"],
                                                 int(seed))
        stem = paths.checkpoint_stem("finetune", seed)
        _ensure_dirs(os.path.dirname(stem))
        artifacts += list(model.save_checkpoint(stem, bundle))
        training.write_epochs_csv(paths.epochs_csv("finetune", seed), rows)
        artifacts.append(paths.epochs_csv("finetune", seed))
        print(f"finetune seed {seed}: best epoch {bundle.meta['best_epoch']}, "
              f"val loss {bundle.meta['best_val_loss']:.4f} ({bundle.meta['stop_reason']})")
    return artifacts


def _require_test_samples(county, year):
    n = sum(s.year == year for s in county.samples)
    if n < 2:
        raise KgmlsmError(f"target year {year} has {n} county sample(s); "
                          "scoring needs at least 2")


def _require_split(bundle, spec, stem):
    wanted = spec.to_meta()
    recorded = {key: bundle.meta.get(key) for key in wanted}
    if recorded != wanted:
        raise CheckpointMismatch(f"{stem}.json was finetuned on split {recorded}, but this run "
                                 f"asks for {wanted}; rerun the `finetune` subcommand")


def cmd_evaluate(cfg, paths):
    _require(paths.county_samples, "ingest")
    county = ingest.read_samples_csv(paths.county_samples)
    spec = split_spec(cfg)
    _require_test_samples(county, spec.target_year)
    split = training.temporal_split(county, spec)
    y_test = np.array([s.yield_label for s in split.test.samples])
    _ensure_dirs(paths.evaluate)

    per_seed = defaultdict(list)
    all_rows = []
    for seed in cfg["seeds"]:
        stem = paths.checkpoint_stem("finetune", seed)
        _require(stem + ".json", "finetune")
        _require(stem + ".bin", "finetune")
        bundle = model.load_checkpoint(stem)
        _require_split(bundle, spec, stem)
        rows, numbers = metrics.score_seed(split.test, bundle.predict(split.test), seed)
        all_rows.extend(rows)
        for key, value in numbers.items():
            per_seed[key].append(value)

    baselines = {}
    for kind in ("lr", "ridge"):
        pred = metrics.baseline_fit_predict(kind, split.train, split.test)
        baselines[kind] = {"rmse": metrics.rmse(y_test, pred), "r2": metrics.r2(y_test, pred)}
    mlp_rmse, mlp_r2 = [], []
    for seed in cfg["seeds"]:
        pred = metrics.baseline_fit_predict("mlp", split.train, split.test, val=split.val,
                                            seed=int(seed))
        mlp_rmse.append(metrics.rmse(y_test, pred))
        mlp_r2.append(metrics.r2(y_test, pred))
    baselines["mlp"] = {"rmse": float(np.mean(mlp_rmse)), "r2": float(np.mean(mlp_r2)),
                        "per_seed_rmse": mlp_rmse, "per_seed_r2": mlp_r2}

    payload = {
        "variant": cfg["variant"],
        "lambda": float(cfg["loss"]["lambda"]),
        "target_year": int(cfg["target_year"]),
        "n_test": len(split.test),
        "seeds": [int(s) for s in cfg["seeds"]],
        "per_seed": per_seed,
        "rmse_mean": float(np.mean(per_seed["rmse"])),
        "r2_mean": float(np.mean(per_seed["r2"])),
        "baselines": baselines,
    }
    write_json(paths.metrics, payload)
    metrics.write_errors_csv(paths.errors, all_rows)
    print(f"evaluate: RMSE {payload['rmse_mean']:.3f}, R2 {payload['r2_mean']:.3f} "
          f"over {len(cfg['seeds'])} seeds")
    return [paths.metrics, paths.errors]


def _require_drought_classes(county):
    counts = {}
    for s in county.samples:
        counts.setdefault(s.year, [0, 0])[int(s.drought_flag)] += 1
    for year, (n_other, n_drought) in sorted(counts.items()):
        if not n_other or not n_drought:
            raise KgmlsmError(f"year {year} has {n_drought} drought-flagged and {n_other} other "
                              "county samples; the attention box statistics need both classes")


def cmd_attn_report(cfg, paths):
    _require(paths.county_samples, "ingest")
    seed = int(cfg["seeds"][0])
    stem = paths.checkpoint_stem("finetune", seed)
    _require(stem + ".json", "finetune")
    _require(stem + ".bin", "finetune")
    bundle = model.load_checkpoint(stem)
    county = ingest.read_samples_csv(paths.county_samples)
    if bundle.config.use_sm_tokens:
        _require_drought_classes(county)
    _ensure_dirs(paths.attn)
    extraction = attnreport.extract(bundle, county)
    attnreport.write_raw_csv(paths.attn_raw, extraction)
    rows = attnreport.category_report(extraction)
    attnreport.write_category_csv(paths.attn_category, rows)
    artifacts = [paths.attn_raw, paths.attn_category]

    if bundle.config.use_sm_tokens:
        sm_att = attnreport.sm_attention_scalar(extraction)
        stats_by_year = {}
        for year in sorted(set(extraction["years"].tolist())):
            mask = extraction["years"] == year
            stats_by_year[year] = attnreport.drought_distribution_stats(
                sm_att[mask], extraction["drought"][mask])
        attnreport.write_box_csv(paths.attn_box, stats_by_year)
        artifacts.append(paths.attn_box)
    attnreport.render_category_svg(paths.attn_svg, rows)
    artifacts.append(paths.attn_svg)
    print(f"attn-report: {extraction['alpha'].shape[0]} samples x "
          f"{extraction['alpha'].shape[1]} tokens (seed {seed})")
    return artifacts


def cmd_ablate(cfg, paths, variant=None, unfiltered=False):
    _require(paths.county_samples, "ingest")
    variant_name = variant or cfg["variant"]
    if unfiltered:
        source = paths.field_samples
        _require(source, "simulate")
    else:
        source = _pretrain_source(cfg, paths)
    vspec = training.get_variant(variant_name)
    field = ingest.read_samples_csv(source) if vspec.use_pretrain else None
    county = ingest.read_samples_csv(paths.county_samples)
    _require_test_samples(county, int(cfg["target_year"]))
    pre_cfg, fine_cfg = stage_configs(cfg)
    result = training.run_experiment(field, county, variant_name, [int(s) for s in cfg["seeds"]],
                                     split_spec(cfg), pre_cfg, fine_cfg, loss_config(cfg),
                                     sizes=cfg["model"])
    tag = variant_name + ("_unfiltered" if unfiltered else "")
    out_dir = os.path.join(paths.ablate, tag)
    _ensure_dirs(out_dir)
    report_path = os.path.join(out_dir, "report.json")
    write_json(report_path, {
        "variant": result.variant, "lambda": result.lam, "unfiltered": bool(unfiltered),
        "seeds": result.seeds, "per_seed": result.per_seed, "summary": result.summary,
    })
    print(f"ablate {tag}: median test RMSE {result.summary['rmse_median']:.3f}, "
          f"tokens {result.summary['token_count']}")
    return [report_path]


def cmd_all(cfg, paths):
    artifacts = []
    artifacts += cmd_simulate(cfg, paths)
    artifacts += cmd_ingest(cfg, paths)
    if bool(cfg["filter"]["enabled"]):
        artifacts += cmd_filter(cfg, paths)
    artifacts += cmd_pretrain(cfg, paths)
    artifacts += cmd_finetune(cfg, paths)
    artifacts += cmd_evaluate(cfg, paths)
    artifacts += cmd_attn_report(cfg, paths)
    return artifacts


COMMANDS = {
    "simulate": cmd_simulate,
    "ingest": cmd_ingest,
    "filter": cmd_filter,
    "pretrain": cmd_pretrain,
    "finetune": cmd_finetune,
    "evaluate": cmd_evaluate,
    "attn-report": cmd_attn_report,
    "all": cmd_all,
}


def build_parser():
    parser = argparse.ArgumentParser(prog="kgmlsm",
                                     description="weather -> soil moisture -> yield pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in list(COMMANDS) + ["ablate"]:
        p = sub.add_parser(name)
        p.add_argument("--config", required=True,
                       help="path to a JSON config, or 'demo' for the bundled demo")
        p.add_argument("--seed", type=int, default=None, help="run a single seed")
        p.add_argument("--variant", default=None, help="ablation variant name")
        p.add_argument("--target-year", type=int, default=None)
        p.add_argument("--lambda", dest="lam", type=float, default=None,
                       help="overestimation penalty coefficient")
        p.add_argument("--run-dir", default=None, help="override paths.run_dir")
        if name == "ablate":
            p.add_argument("--unfiltered", action="store_true",
                           help="pretrain on the unfiltered field dataset")
    return parser


def _apply_overrides(cfg, args):
    if args.seed is not None:
        cfg["seeds"] = [int(args.seed)]
    if args.variant is not None:
        training.get_variant(args.variant)  # validate early
        cfg["variant"] = args.variant
    if args.target_year is not None:
        cfg["target_year"] = int(args.target_year)
    if args.lam is not None:
        cfg["loss"]["lambda"] = float(args.lam)
    if args.run_dir is not None:
        cfg["paths"]["run_dir"] = args.run_dir
    return cfg


def _validate_artifacts(artifacts):
    missing = [a for a in artifacts if not os.path.exists(a)]
    if missing:
        raise KgmlsmError(f"declared artifacts were not written: {missing}")
    for path in artifacts:
        if path.endswith(".json"):
            read_json(path)
        elif path.endswith(".csv"):
            with open(path, encoding="utf-8") as f:
                header = f.readline()
            if "," not in header:
                raise KgmlsmError(f"artifact {path} lacks a CSV header row")


def main(argv=None):
    args = build_parser().parse_args(argv)
    try:
        cfg = _apply_overrides(load_config(args.config), args)
        paths = RunPaths(cfg["paths"]["run_dir"])
        _snapshot(cfg, paths)
        if args.command == "ablate":
            artifacts = cmd_ablate(cfg, paths, variant=args.variant,
                                   unfiltered=bool(getattr(args, "unfiltered", False)))
        else:
            artifacts = COMMANDS[args.command](cfg, paths)
        _validate_artifacts(artifacts)
    except KgmlsmError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
