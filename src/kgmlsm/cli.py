"""Command-line pipeline: simulate -> ingest -> filter -> pretrain ->
finetune -> evaluate -> attn-report, plus `ablate` for component studies
and `all` to chain everything, driven by one JSON config file.

Flags set config keys and are checked with them, in `load_config`, before
the first stage runs; nothing is read from the environment.
"""

import argparse
import json
import math
import os
import sys
from collections import namedtuple
from importlib import resources

from . import attnreport, cropsim, filtering, ingest, losses, metrics, model, optim, training
from .artifacts import read_json, write_json
from .errors import CheckpointMismatch, ConfigError, KgmlsmError, SchemaError, SingularFit

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
    "loss": {"lambda": 2.0},
    "train": {
        "pretrain": {"batch_size": 64, "max_epochs": 50, "rmse_stop": 1.0},
        "finetune": dict(optim.PAPER_FINETUNE),
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


# the types a leaf may have, by the type of its default
LEAF_TYPES = {bool: (bool,), int: (int,), float: (int, float), str: (str,), dict: (dict,)}


def _leaf(here, value, default):
    """A copy of value, refused unless it has the JSON type of default."""
    if here == "seeds":
        wanted = "a non-empty list of distinct ints"
        ok = (isinstance(value, list) and value and len(set(value)) == len(value)
              and all(type(s) is int for s in value))
    else:
        types = LEAF_TYPES[type(default)]
        wanted, ok = " or ".join(t.__name__ for t in types), type(value) in types
        if ok and type(default) is float and not math.isfinite(value):
            wanted, ok = "a finite number", False
    if not ok:
        raise ConfigError(f"config key {here} must be {wanted}, not {value!r}")
    return float(value) if type(default) is float else json.loads(json.dumps(value))


def _merge(defaults, override, path=""):
    if not isinstance(override, dict):
        raise ConfigError(f"config key {path or '<root>'} must be an object")
    out = {}
    for key, default in defaults.items():
        here = f"{path}.{key}" if path else key
        if isinstance(default, dict) and here not in FREEFORM_KEYS:
            out[key] = _merge(default, override.get(key, {}), here)
        else:
            out[key] = _leaf(here, override.get(key, default), default)
    for key in override:
        if key not in defaults:
            here = f"{path}.{key}" if path else key
            raise ConfigError(f"unknown config key: {here}")
    return out


def _require_mix(key, mix, level):
    """A scenario mix maps names of the scenarios its level may draw to
    weights that numpy can draw from: finite, non-negative, with a
    positive sum."""
    names = cropsim.SCENARIOS[level]
    if not isinstance(mix, dict) or not set(mix) <= set(names):
        raise ConfigError(f"config key {key} must map scenarios of {names} to weights, "
                          f"not {mix!r}")
    weights = list(mix.values())
    if not (all(type(w) in (int, float) and math.isfinite(w) and w >= 0 for w in weights)
            and sum(weights) > 0):
        raise ConfigError(f"config key {key} must hold non-negative weights with a positive "
                          f"sum, not {mix!r}")


def _require_domain(cfg):
    """Refuse settings, file keys and flags alike, that no stage can run
    on. Each rule stays with the code that owns it and runs once here."""
    cs = cfg["cropsim"]
    for key in ("n_stations", "n_counties"):
        if cs[key] < 1:
            raise ConfigError(f"config key cropsim.{key} must be >= 1, not {cs[key]}")
    years = config_years(cfg)
    config_years(cfg, "field_years")
    simulated = cropsim.simulated_years(years)
    mixes = {"cropsim.scenario_mix": (cs["scenario_mix"], "field"),
             "cropsim.county_scenario_mix": (cs["county_scenario_mix"], "county")}
    for year, mix in cs["county_scenario_overrides"].items():
        if not year.isdecimal():
            raise ConfigError(f"config key cropsim.county_scenario_overrides has the key "
                              f"{year!r}, which is not a year")
        if int(year) not in simulated:
            raise ConfigError(f"config key cropsim.county_scenario_overrides has the year "
                              f"{year}, outside the simulated years {simulated[0]}-{simulated[-1]}")
        mixes[f"cropsim.county_scenario_overrides.{year}"] = (mix, "county")
    for key, (mix, level) in mixes.items():
        _require_mix(key, mix, level)
    # the messages of training.temporal_split, which checks the samples themselves
    if cfg["target_year"] not in years:
        raise ConfigError(f"target year {cfg['target_year']} absent from dataset years {years}")
    if cfg["target_year"] == years[0]:
        raise ConfigError(f"no samples precede the target year {cfg['target_year']}")
    # numpy seeds its generators with ints >= 0
    seeds = [("seeds", seed) for seed in cfg["seeds"]] + [("cropsim.data_seed", cs["data_seed"])]
    for key, seed in seeds:
        if seed < 0:
            raise ConfigError(f"config key {key} has the negative seed {seed}; "
                              "numpy seeds must be >= 0")
    training.get_variant(cfg["variant"])
    loss_config(cfg)
    stage_configs(cfg)


def load_config(path, flags=None):
    """Read a config file ("demo" is the bundled demo) and set flags, a map
    from dotted keys such as "loss.lambda" to values, over it. A flag is
    typed like the key it sets; then the whole config is checked."""
    if path == "demo":
        text = resources.files("kgmlsm.configs").joinpath("demo.json").read_text(encoding="utf-8")
        raw = json.loads(text)
    else:
        try:
            raw = read_json(path)
        except SchemaError as e:
            raise ConfigError(f"config file: {e}") from None
    override = {}
    for key, value in (flags or {}).items():
        *parents, leaf = key.split(".")
        node = override
        for parent in parents:
            node = node.setdefault(parent, {})
        node[leaf] = value
    cfg = _merge(_merge(DEFAULTS, raw), override)
    _require_domain(cfg)
    return cfg


def config_years(cfg, key="years"):
    y = cfg["cropsim"][key]
    if y["first"] > y["last"]:
        raise ConfigError(f"cropsim.{key}.first must be <= cropsim.{key}.last")
    return list(range(y["first"], y["last"] + 1))


def loss_config(cfg):
    return losses.LossConfig(lam=cfg["loss"]["lambda"])


def stage_configs(cfg):
    return (training.StageConfig(**cfg["train"]["pretrain"]),
            training.StageConfig(**cfg["train"]["finetune"]))


def split_spec(cfg):
    return training.SplitSpec(target_year=cfg["target_year"])


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
        self.filter_diagnostics = os.path.join(self.filter, "diagnostics.json")
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


def _variant(cfg):
    return training.get_variant(cfg["variant"])


def _field_source(cfg, paths):
    """The field samples `pretrain` and `ablate` pretrain on."""
    return paths.field_filtered if cfg["filter"]["enabled"] else paths.field_samples


def _read_samples(csv_path, level):
    """The samples of csv_path, refused unless its manifest names level."""
    dataset = ingest.read_samples_csv(csv_path)
    if dataset.level != level:
        raise SchemaError(f"{ingest.manifest_path(csv_path)} describes {dataset.level!r} "
                          f"samples, but {csv_path} must hold {level!r} samples")
    return dataset


def _ablate_report(cfg, paths):
    """ablate/<variant>[_unfiltered]/lambda<λ>/report.json, λ as repr(float)."""
    tag = cfg["variant"] + ("" if cfg["filter"]["enabled"] else "_unfiltered")
    return os.path.join(paths.ablate, tag, f"lambda{cfg['loss']['lambda']!r}", "report.json")


# ---------------------------------------------------------------------------
# subcommands; each reads and writes the files its STAGES entry declares


def cmd_simulate(cfg, paths):
    cs = cfg["cropsim"]
    field = cropsim.build_field_dataset(cs["n_stations"], config_years(cfg, "field_years"),
                                        cs["scenario_mix"], cs["data_seed"])
    ingest.write_samples_csv(field, paths.field_samples)
    cropsim.build_county_inputs(cs["n_counties"], config_years(cfg), cs["county_scenario_mix"],
                                cs["data_seed"], paths.pixels, paths.daily, paths.truth,
                                scenario_overrides=cs["county_scenario_overrides"])
    print(f"simulate: {len(field)} field samples, county inputs for {cs['n_counties']} counties")


def cmd_ingest(cfg, paths):
    county = ingest.build_county_dataset(paths.pixels, paths.daily, paths.truth)
    ingest.label_drought(county)
    ingest.write_samples_csv(county, paths.county_samples)
    print(f"ingest: {len(county)} county samples")


def cmd_filter(cfg, paths):
    field = _read_samples(paths.field_samples, "field")
    county = _read_samples(paths.county_samples, "county")
    sm_model = filtering.fit_sm_regressor(county)
    threshold = cfg["filter"]["threshold"]
    kept, discarded, report = filtering.screen_field_samples(field, sm_model, threshold)
    if not len(kept):
        raise KgmlsmError(f"filter.threshold {threshold} keeps none of the {len(field)} field "
                          "samples; pretraining needs at least one")
    filtering.write_filter_report(paths.filter_report, report)
    write_json(paths.filter_diagnostics, sm_model.diagnostics)
    ingest.write_samples_csv(kept, paths.field_filtered)
    print(f"filter: kept {len(kept)}, discarded {len(discarded)} (threshold {threshold})")


def cmd_pretrain(cfg, paths):
    variant = _variant(cfg)
    if not variant.use_pretrain:
        print(f"pretrain: variant {variant.name} skips pretraining")
        return
    field = _read_samples(_field_source(cfg, paths), "field")
    pre_cfg, _ = stage_configs(cfg)
    for seed in cfg["seeds"]:
        bundle, rows = training.pretrain(field, pre_cfg, loss_config(cfg), variant, None, seed)
        model.save_checkpoint(paths.checkpoint_stem("pretrain", seed), bundle)
        training.write_epochs_csv(paths.epochs_csv("pretrain", seed), rows)
        print(f"pretrain seed {seed}: {bundle.meta['epochs_run']} epochs, "
              f"train RMSE {bundle.meta['final_train_rmse']:.3f} ({bundle.meta['stop_reason']})")


def _load_checkpoint(paths, stage, seed, wanted):
    """The seed's checkpoint of a stage, refused unless its meta records `wanted`."""
    stem = paths.checkpoint_stem(stage, seed)
    bundle = model.load_checkpoint(stem)
    recorded = {key: bundle.meta.get(key) for key in wanted}
    if recorded != wanted:
        raise CheckpointMismatch(f"{stem}.json was written by `{stage}` as {recorded}, but this "
                                 f"run asks for {wanted}; rerun the `{stage}` subcommand")
    return bundle


def cmd_finetune(cfg, paths):
    variant = _variant(cfg)
    spec = split_spec(cfg)
    # split once; neither the whole dataset nor the test part is held through training
    split = training.temporal_split(_read_samples(paths.county_samples, "county"), spec)
    train, val = split.train, split.val
    del split
    _, fine_cfg = stage_configs(cfg)
    # every pretrain checkpoint is checked before any finetune checkpoint is written
    checkpoints = {seed: (_load_checkpoint(paths, "pretrain", seed, {"variant": variant.name})
                          if variant.use_pretrain else None) for seed in cfg["seeds"]}
    for seed, checkpoint in checkpoints.items():
        bundle, rows = training.finetune(checkpoint, train, val, spec, fine_cfg,
                                         loss_config(cfg), variant, None, seed)
        model.save_checkpoint(paths.checkpoint_stem("finetune", seed), bundle)
        training.write_epochs_csv(paths.epochs_csv("finetune", seed), rows)
        print(f"finetune seed {seed}: best epoch {bundle.meta['best_epoch']}, "
              f"val loss {bundle.meta['best_val_loss']:.4f} ({bundle.meta['stop_reason']})")


def cmd_evaluate(cfg, paths):
    spec = split_spec(cfg)
    # the split's parts copy their records: the whole dataset is not kept beside them
    split = training.temporal_split(_read_samples(paths.county_samples, "county"), spec)
    metrics.require_scorable(split.test)
    # every finetune checkpoint is checked before any seed is scored
    wanted = {"variant": cfg["variant"], **spec.to_meta()}
    bundles = {seed: _load_checkpoint(paths, "finetune", seed, wanted) for seed in cfg["seeds"]}
    tables, per_seed, summary = metrics.score_seeds(
        split.test, {seed: bundle.predict(split.test) for seed, bundle in bundles.items()})

    y_test = ingest.stack_dataset(split.test)["y"]
    baselines = {}
    for kind in ("lr", "ridge"):
        try:
            pred = metrics.baseline_fit_predict(kind, split.train, split.test)
        except SingularFit as e:
            baselines[kind] = {"skipped": str(e)}
            continue
        baselines[kind] = {"rmse": metrics.rmse(y_test, pred), "r2": metrics.r2(y_test, pred)}
    _, mlp_seeds, mlp = metrics.score_seeds(split.test, {
        seed: {"y_hat": metrics.baseline_fit_predict("mlp", split.train, split.test,
                                                     val=split.val, seed=seed), "sm_hat": None}
        for seed in cfg["seeds"]})
    baselines["mlp"] = {"rmse": mlp["rmse_mean"], "r2": mlp["r2_mean"],
                        "per_seed_rmse": mlp_seeds["rmse"], "per_seed_r2": mlp_seeds["r2"]}

    payload = {
        "variant": cfg["variant"],
        "lambda": cfg["loss"]["lambda"],
        "target_year": cfg["target_year"],
        "n_test": summary["n_test"],
        "seeds": cfg["seeds"],
        "per_seed": per_seed,
        "rmse_mean": summary["rmse_mean"],
        "r2_mean": summary["r2_mean"],
        "baselines": baselines,
    }
    write_json(paths.metrics, payload)
    metrics.write_errors_csv(paths.errors, tables)
    print(f"evaluate: RMSE {payload['rmse_mean']:.3f}, R2 {payload['r2_mean']:.3f} "
          f"over {len(cfg['seeds'])} seeds")


def cmd_attn_report(cfg, paths):
    seed = cfg["seeds"][0]
    bundle = _load_checkpoint(paths, "finetune", seed, {"variant": cfg["variant"]})
    extraction = attnreport.extract(bundle, _read_samples(paths.county_samples, "county"))
    rows = attnreport.category_report(extraction)
    boxes = attnreport.box_report(extraction) if bundle.config.use_sm_tokens else None
    attnreport.write_raw_csv(paths.attn_raw, extraction)
    attnreport.write_category_csv(paths.attn_category, rows)
    if boxes is not None:
        attnreport.write_box_csv(paths.attn_box, boxes)
    attnreport.render_category_svg(paths.attn_svg, rows)
    print(f"attn-report: {extraction['alpha'].shape[0]} samples x "
          f"{extraction['alpha'].shape[1]} tokens (seed {seed})")


def cmd_ablate(cfg, paths):
    pretrains = _variant(cfg).use_pretrain
    field = _read_samples(_field_source(cfg, paths), "field") if pretrains else None
    county = _read_samples(paths.county_samples, "county")
    pre_cfg, fine_cfg = stage_configs(cfg)
    result = training.run_experiment(field, county, cfg["variant"], cfg["seeds"],
                                     split_spec(cfg), pre_cfg, fine_cfg, loss_config(cfg))
    report_path = _ablate_report(cfg, paths)
    write_json(report_path, {
        "variant": cfg["variant"], "lambda": cfg["loss"]["lambda"],
        "unfiltered": not cfg["filter"]["enabled"],
        "seeds": cfg["seeds"], "per_seed": result.per_seed, "summary": result.summary,
    })
    tag = os.path.relpath(os.path.dirname(report_path), paths.ablate)
    print(f"ablate {tag}: median test RMSE {result.summary['rmse_median']:.3f}, "
          f"tokens {result.summary['token_count']}")


# ---------------------------------------------------------------------------
# the stage table: what each subcommand runs, reads and writes for a config


# run(cfg, paths) runs a subcommand, reads(cfg, paths) lists the files it needs,
# writes(cfg, paths) those it writes, and flags its own (flag, argparse keywords)
Stage = namedtuple("Stage", "run reads writes flags", defaults=((),))


def _samples(csv_path):
    return [csv_path, ingest.manifest_path(csv_path)]


def _checkpoints(paths, stage, seeds):
    return [paths.checkpoint_stem(stage, seed) + ext for seed in seeds for ext in (".json", ".bin")]


def _trained(paths, stage, seeds):
    return _checkpoints(paths, stage, seeds) + [paths.epochs_csv(stage, seed) for seed in seeds]


def _if_pretrains(cfg, files):
    return files if _variant(cfg).use_pretrain else []


STAGES = {
    "simulate": Stage(
        cmd_simulate,
        reads=lambda cfg, p: [],
        writes=lambda cfg, p: _samples(p.field_samples) + [p.pixels, p.daily, p.truth]),
    "ingest": Stage(
        cmd_ingest,
        reads=lambda cfg, p: [p.pixels, p.daily, p.truth],
        writes=lambda cfg, p: _samples(p.county_samples)),
    "filter": Stage(
        cmd_filter,
        reads=lambda cfg, p: _samples(p.field_samples) + _samples(p.county_samples),
        writes=lambda cfg, p: [p.filter_report, p.filter_diagnostics] + _samples(p.field_filtered)),
    "pretrain": Stage(
        cmd_pretrain,
        reads=lambda cfg, p: _if_pretrains(cfg, _samples(_field_source(cfg, p))),
        writes=lambda cfg, p: _if_pretrains(cfg, _trained(p, "pretrain", cfg["seeds"]))),
    "finetune": Stage(
        cmd_finetune,
        reads=lambda cfg, p: (_samples(p.county_samples)
                              + _if_pretrains(cfg, _checkpoints(p, "pretrain", cfg["seeds"]))),
        writes=lambda cfg, p: _trained(p, "finetune", cfg["seeds"])),
    "evaluate": Stage(
        cmd_evaluate,
        reads=lambda cfg, p: _samples(p.county_samples) + _checkpoints(p, "finetune", cfg["seeds"]),
        writes=lambda cfg, p: [p.metrics, p.errors]),
    "attn-report": Stage(
        cmd_attn_report,
        reads=lambda cfg, p: (_samples(p.county_samples)
                              + _checkpoints(p, "finetune", cfg["seeds"][:1])),
        writes=lambda cfg, p: ([p.attn_raw, p.attn_category, p.attn_svg]
                               + ([p.attn_box] if _variant(cfg).use_sm_tokens else []))),
    "ablate": Stage(
        cmd_ablate,
        reads=lambda cfg, p: (_samples(p.county_samples)
                              + _if_pretrains(cfg, _samples(_field_source(cfg, p)))),
        writes=lambda cfg, p: [_ablate_report(cfg, p)],
        flags=[("--unfiltered", {"dest": "filter.enabled", "action": "store_const",
                                 "const": False,
                                 "help": "pretrain on the unfiltered field dataset"})]),
}


def chain(cfg):
    """The stages `all` runs, in order."""
    return [n for n in STAGES if n != "ablate" and (n != "filter" or cfg["filter"]["enabled"])]


def run_stage(name, cfg, paths):
    """Check inputs, run, check that every declared output exists (each is
    written whole by `artifacts`), then snapshot the config that wrote
    them, less `paths`, so a run's files do not depend on where it is."""
    stage = STAGES[name]
    for path in stage.reads(cfg, paths):
        if not os.path.exists(path):
            producer = next(n for n, s in STAGES.items() if path in s.writes(cfg, paths))
            raise KgmlsmError(f"missing {path}; run the `{producer}` subcommand first")
    stage.run(cfg, paths)
    missing = [path for path in stage.writes(cfg, paths) if not os.path.exists(path)]
    if missing:
        raise KgmlsmError(f"declared artifacts were not written: {missing}")
    write_json(os.path.join(paths.run_dir, "config_snapshot.json"),
               {key: value for key, value in cfg.items() if key != "paths"})


def build_parser():
    """Each flag but --config, if given, sets the config key its dest names."""
    parser = argparse.ArgumentParser(prog="kgmlsm",
                                     description="weather -> soil moisture -> yield pipeline")
    sub = parser.add_subparsers(dest="command", required=True)
    for name in list(STAGES) + ["all"]:
        p = sub.add_parser(name, argument_default=argparse.SUPPRESS)
        p.add_argument("--config", required=True,
                       help="path to a JSON config, or 'demo' for the bundled demo")
        p.add_argument("--seed", dest="seeds", metavar="SEED", type=int, help="run a single seed")
        p.add_argument("--variant", help="ablation variant name")
        p.add_argument("--target-year", type=int)
        p.add_argument("--lambda", dest="loss.lambda", type=float,
                       help="overestimation penalty coefficient")
        p.add_argument("--run-dir", dest="paths.run_dir", help="override paths.run_dir")
        for flag, keywords in STAGES[name].flags if name in STAGES else ():
            p.add_argument(flag, **keywords)
    return parser


def main(argv=None):
    flags = vars(build_parser().parse_args(argv))
    command, path = flags.pop("command"), flags.pop("config")
    if "seeds" in flags:  # --seed k runs the one seed k
        flags["seeds"] = [flags["seeds"]]
    try:
        cfg = load_config(path, flags)
        paths = RunPaths(cfg["paths"]["run_dir"])
        for name in chain(cfg) if command == "all" else [command]:
            run_stage(name, cfg, paths)
    except KgmlsmError as e:
        print(f"error: {e}", file=sys.stderr)
        return 1
    return 0


if __name__ == "__main__":
    sys.exit(main())
