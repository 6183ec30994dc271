"""Two-stage optimization: pretraining on the (filtered) field-level
dataset and finetuning on the county-level dataset (both through
optim.fit), with temporal splits, the multi-seed experiment runner, and
the component-ablation variants.
"""

import csv
from collections import defaultdict
from dataclasses import dataclass

import numpy as np

from . import losses, metrics, model
from .errors import CheckpointMismatch, ConfigError, TrainingDiverged
from .optim import StageConfig, fit  # noqa: F401 (StageConfig is re-exported for callers)


@dataclass
class SplitSpec:
    target_year: int
    train_fraction: float = 0.8
    shuffle_seed: int = 0

    def to_meta(self):
        """What a finetune checkpoint records of the split it was trained on."""
        return {"target_year": self.target_year, "split_seed": self.shuffle_seed,
                "train_fraction": self.train_fraction}


@dataclass
class Split:
    train: "model.ingest.Dataset"
    val: "model.ingest.Dataset"
    test: "model.ingest.Dataset"


def temporal_split(dataset, spec):
    """Test = all target-year samples; earlier years shuffled then cut
    train_fraction/rest. Years after the target never enter any part."""
    years = {s.year for s in dataset.samples}
    if spec.target_year not in years:
        raise ConfigError(f"target year {spec.target_year} absent from dataset years {sorted(years)}")
    test = [s for s in dataset.samples if s.year == spec.target_year]
    pre = [s for s in dataset.samples if s.year < spec.target_year]
    if not pre:
        raise ConfigError(f"no samples precede the target year {spec.target_year}")
    rng = np.random.default_rng([spec.shuffle_seed, 211])
    order = rng.permutation(len(pre))
    n_train = int(np.floor(spec.train_fraction * len(pre)))
    train = [pre[i] for i in order[:n_train]]
    val = [pre[i] for i in order[n_train:]]
    mk = lambda samples: type(dataset)(level=dataset.level, samples=samples)
    return Split(train=mk(train), val=mk(val), test=mk(test))


# ---------------------------------------------------------------------------
# ablation variants


@dataclass(frozen=True)
class VariantSpec:
    name: str
    use_sm_tokens: bool
    use_pretrain: bool
    use_w2s: bool
    use_smw: bool
    use_oe: bool


VARIANTS = {
    "att_wo_sm": VariantSpec("att_wo_sm", False, False, False, False, False),
    "att": VariantSpec("att", True, False, False, False, False),
    "att_sim": VariantSpec("att_sim", True, True, False, False, False),
    "att_sim_w2s": VariantSpec("att_sim_w2s", True, True, True, False, False),
    "att_sim_w2s_smw": VariantSpec("att_sim_w2s_smw", True, True, True, True, False),
    "kgml_sm": VariantSpec("kgml_sm", True, True, True, True, True),
}


def get_variant(name):
    if name not in VARIANTS:
        raise ConfigError(f"unknown variant {name!r}; choose from {sorted(VARIANTS)}")
    return VARIANTS[name]


def model_config_for(variant, sizes=None):
    sizes = dict(sizes or {})
    return model.ModelConfig(use_sm_tokens=variant.use_sm_tokens, use_w2s=variant.use_w2s, **sizes)


# ---------------------------------------------------------------------------
# batching and the shared training step


def _take(arrays, idx):
    out = {}
    for k, v in arrays.items():
        if k == "keys":
            continue
        out[k] = v[idx]
    return out


def _compute_loss(batch, params, mconfig, variant, loss_cfg):
    """Build the loss graph for one standardized batch.

    Returns (total tensor, standardized yield estimate tensor). The SM
    term exists only when the W2S branch runs; without the SMW component
    the drought weight is forced to exactly 1 by zeroing sbar under
    epsilon=1.
    """
    y_hat, sm_hat, _alpha = model.forward_graph(batch, params, mconfig)
    lam = loss_cfg.lam if variant.use_oe else 0.0
    if variant.use_smw:
        sbar = batch["sbar"]
        eps = loss_cfg.epsilon
    else:
        sbar = np.zeros_like(batch["sbar"])  # with eps 1 every weight is exactly 1
        eps = 1.0
    y_term = losses.yield_loss(batch["y_std"], y_hat, sbar,
                               losses.LossConfig(lam=lam, epsilon=eps))
    if sm_hat is not None:
        s_term = losses.sm_loss(batch["s"], sm_hat)
        total = losses.total_loss(s_term, y_term)
        parts = {"sm": float(s_term.data), "yield": float(y_term.data)}
    else:
        total = y_term
        parts = {"sm": 0.0, "yield": float(y_term.data)}
    if not np.isfinite(total.data):
        raise TrainingDiverged(f"non-finite loss: {parts}")
    return total, y_hat


def _eval_loss(arrays, params, mconfig, variant, loss_cfg):
    total, _ = _compute_loss(arrays, params, mconfig, variant, loss_cfg)
    return float(total.data)


def _yield_rmse(arrays, y_hat, stats):
    return metrics.rmse(arrays["y"], y_hat.data * stats.y_sd + stats.y_mu)


def write_epochs_csv(path, rows):
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(["epoch", "train_loss", "val_loss", "lr", "rmse"])
        for r in rows:
            w.writerow([str(r["epoch"]), repr(r["train_loss"]),
                        "" if r["val_loss"] is None else repr(r["val_loss"]),
                        repr(r["lr"]), repr(r["rmse"])])


# ---------------------------------------------------------------------------
# pretraining


def pretrain(field_dataset, stage_cfg, loss_cfg, variant, sizes, seed):
    """Fit on the field-level dataset until the train yield RMSE target or
    the epoch cap. Returns (ModelBundle, per-epoch rows)."""
    if not variant.use_pretrain:
        raise ValueError(f"variant {variant.name} does not pretrain")
    mconfig = model_config_for(variant, sizes)
    stats = model.Normalization.from_dataset(field_dataset)
    params = model.init_params(mconfig, seed)
    arrays = model.standardize(model.stack_dataset(field_dataset), stats)

    def batch_loss(idx):
        return _compute_loss(_take(arrays, idx), params, mconfig, variant, loss_cfg)[0]

    def end_epoch():
        y_hat, _, _ = model.forward_graph(arrays, params, mconfig)
        return None, _yield_rmse(arrays, y_hat, stats)

    rows, stop_reason, _, _ = fit(params, len(field_dataset), batch_loss, end_epoch,
                                  stage_cfg, seed, 503)
    meta = {
        "stage": "pretrain", "seed": seed, "variant": variant.name,
        "stop_reason": stop_reason, "epochs_run": len(rows),
        "final_train_rmse": rows[-1]["rmse"],
        "rmse_target_met": bool(stage_cfg.rmse_stop is not None
                                and rows[-1]["rmse"] < stage_cfg.rmse_stop),
        "loss_history": [r["train_loss"] for r in rows],
    }
    bundle = model.ModelBundle(config=mconfig, params=params, stats=stats, meta=meta)
    return bundle, rows


# ---------------------------------------------------------------------------
# finetuning


def finetune(checkpoint, county_dataset, split_spec, stage_cfg, loss_cfg, variant, sizes, seed):
    """Finetune from a checkpoint (or train from scratch when the variant
    skips pretraining). Early stopping restores the best-validation
    parameters. Returns (ModelBundle, per-epoch rows, Split)."""
    mconfig = model_config_for(variant, sizes)
    split = temporal_split(county_dataset, split_spec)

    if checkpoint is not None:
        if checkpoint.config.to_dict() != mconfig.to_dict():
            raise CheckpointMismatch(
                f"checkpoint config {checkpoint.config.to_dict()} != variant config {mconfig.to_dict()}")
        params = model.init_params(mconfig, seed)
        params.load_arrays(checkpoint.params.to_arrays())
        # channels that were constant at pretraining (zeroed VIs) carried
        # no scaling information; take their statistics from this split
        stats = checkpoint.stats.refreshed_from(split.train)
    else:
        # from-scratch run (variants without pretraining, or paired
        # pretrained-vs-scratch comparisons of the same architecture)
        params = model.init_params(mconfig, seed)
        stats = model.Normalization.from_dataset(split.train)

    train_arrays = model.standardize(model.stack_dataset(split.train), stats)
    val_arrays = model.standardize(model.stack_dataset(split.val), stats)

    def batch_loss(idx):
        return _compute_loss(_take(train_arrays, idx), params, mconfig, variant, loss_cfg)[0]

    def end_epoch():
        total, y_hat = _compute_loss(val_arrays, params, mconfig, variant, loss_cfg)
        return float(total.data), _yield_rmse(val_arrays, y_hat, stats)

    rows, stop_reason, best_epoch, best_val = fit(params, len(split.train), batch_loss,
                                                  end_epoch, stage_cfg, seed, 907)
    meta = {
        "stage": "finetune", "seed": seed, "variant": variant.name,
        "stop_reason": stop_reason, "epochs_run": len(rows),
        "best_epoch": best_epoch, "best_val_loss": best_val,
        "pretrained": checkpoint is not None,
        "val_loss_history": [r["val_loss"] for r in rows],
        **split_spec.to_meta(),
    }
    bundle = model.ModelBundle(config=mconfig, params=params, stats=stats, meta=meta)
    return bundle, rows, split


# ---------------------------------------------------------------------------
# experiment runners


@dataclass
class ExperimentResult:
    variant: str
    lam: float
    seeds: list
    per_seed: dict
    summary: dict


def run_experiment(field_dataset, county_dataset, variant_name, seeds, split_spec,
                   pre_cfg, fine_cfg, loss_cfg, sizes=None):
    """Pretrain (when the variant asks for it) and finetune once per seed;
    aggregate test metrics across seeds and report the variant's tokens
    and components."""
    variant = get_variant(variant_name)
    if variant.use_pretrain and field_dataset is None:
        raise ValueError(f"variant {variant.name} pretrains and needs a field dataset")
    per_seed = defaultdict(list)
    n_test = 0
    for seed in seeds:
        checkpoint = None
        if variant.use_pretrain:
            checkpoint, _ = pretrain(field_dataset, pre_cfg, loss_cfg, variant, sizes, seed)
        bundle, _, split = finetune(checkpoint, county_dataset, split_spec,
                                    fine_cfg, loss_cfg, variant, sizes, seed)
        _, numbers = metrics.score_seed(split.test, bundle.predict(split.test), seed)
        for key, value in numbers.items():
            per_seed[key].append(value)
        n_test = len(split.test)

    drought = per_seed["mean_signed_error_drought"]
    summary = {
        "rmse_mean": float(np.mean(per_seed["rmse"])),
        "r2_mean": float(np.mean(per_seed["r2"])),
        "rmse_median": float(np.median(per_seed["rmse"])),
        # None, like the per-seed values, when the test set has no drought sample
        "mean_signed_error_drought_median": None if None in drought else float(np.median(drought)),
        "n_test": n_test,
        "token_count": model_config_for(variant, sizes).n_tokens,
        "components": {
            "attention": True,
            "soil_moisture_tokens": variant.use_sm_tokens,
            "field_pretraining": variant.use_pretrain,
            "w2s_encoder": variant.use_w2s,
            "smw_loss": variant.use_smw,
            "oe_loss": variant.use_oe,
        },
    }
    return ExperimentResult(variant=variant_name, lam=loss_cfg.lam, seeds=list(seeds),
                            per_seed=per_seed, summary=summary)
