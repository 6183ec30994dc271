"""Two-stage optimization: pretraining on the (filtered) field-level
dataset and finetuning on the county-level dataset (both through
optim.fit), with temporal splits, the multi-seed experiment runner, and
the component-ablation variants.
"""

from dataclasses import dataclass

import numpy as np

from . import artifacts, ingest, losses, metrics, model
from .errors import CheckpointMismatch, ConfigError
from .optim import StageConfig, fit  # noqa: F401 (StageConfig is re-exported for callers)


@dataclass
class SplitSpec:
    target_year: int
    train_fraction: float = 0.8
    shuffle_seed: int = 0

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ConfigError(f"train.train_fraction must be in (0, 1), not {self.train_fraction}")

    def to_meta(self):
        """What a finetune checkpoint records of the split it was trained on."""
        return {"target_year": self.target_year, "split_seed": self.shuffle_seed,
                "train_fraction": self.train_fraction}


@dataclass
class Split:
    train: ingest.Dataset
    val: ingest.Dataset
    test: ingest.Dataset


def temporal_split(dataset, spec):
    """Test = all target-year samples; earlier years shuffled then cut
    train_fraction/rest. Years after the target never enter any part."""
    years = ingest.stack_dataset(dataset)["years"]
    if spec.target_year not in years:
        raise ConfigError(f"target year {spec.target_year} absent from dataset years "
                          f"{np.unique(years).tolist()}")
    pre = np.flatnonzero(years < spec.target_year)
    if not len(pre):
        raise ConfigError(f"no samples precede the target year {spec.target_year}")
    order = pre[np.random.default_rng([spec.shuffle_seed, 211]).permutation(len(pre))]
    n_train = int(np.floor(spec.train_fraction * len(pre)))
    if not 0 < n_train < len(pre):
        raise ConfigError(f"train.train_fraction {spec.train_fraction} of the {len(pre)} samples "
                          f"before {spec.target_year} leaves {n_train} to train on and "
                          f"{len(pre) - n_train} to validate on; both need at least one")
    return Split(train=dataset.subset(order[:n_train]), val=dataset.subset(order[n_train:]),
                 test=dataset.subset(np.flatnonzero(years == spec.target_year)))


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
    return {k: v[idx] for k, v in arrays.items()}


def _loss(batch, y_hat, sm_hat, variant, loss_cfg):
    """The loss of one standardized batch from the model's outputs on it,
    tensors in a training graph or arrays from model.forward_blocks.

    The SM term exists only when the W2S branch runs; without the SMW
    component the drought weight is forced to exactly 1 by zeroing sbar
    under epsilon=1.
    """
    lam = loss_cfg.lam if variant.use_oe else 0.0
    if variant.use_smw:
        sbar = batch["sbar"]
        eps = loss_cfg.epsilon
    else:
        sbar = np.zeros_like(batch["sbar"])  # with eps 1 every weight is exactly 1
        eps = 1.0
    y_term = losses.yield_loss(batch["y_std"], y_hat, sbar,
                               losses.LossConfig(lam=lam, epsilon=eps))
    if sm_hat is None:
        return y_term
    return losses.total_loss(losses.sm_loss(batch["s"], sm_hat), y_term)


def _compute_loss(batch, params, mconfig, variant, loss_cfg):
    """The loss tensor of one standardized batch through the training
    graph. A diverging step raises NonFiniteError where a tensor turns
    non-finite."""
    y_hat, sm_hat, _alpha = model.forward_graph(batch, params, mconfig)
    return _loss(batch, y_hat, sm_hat, variant, loss_cfg)


def _yield_rmse(arrays, y_hat, stats):
    return metrics.rmse(arrays["y"], y_hat * stats.y_sd + stats.y_mu)


def write_epochs_csv(path, rows):
    header = ["epoch", "train_loss", "val_loss", "lr", "rmse"]
    artifacts.write_csv(path, header, [[r[k] for r in rows] for k in header])


# ---------------------------------------------------------------------------
# pretraining


def pretrain(field_dataset, stage_cfg, loss_cfg, variant, sizes, seed):
    """Fit on the field-level dataset until the train yield RMSE target or
    the epoch cap. Returns (ModelBundle, per-epoch rows)."""
    if not variant.use_pretrain:
        raise ValueError(f"variant {variant.name} does not pretrain")
    mconfig = model_config_for(variant, sizes)
    arrays = ingest.stack_dataset(field_dataset)
    stats = model.Normalization.from_arrays(arrays)
    params = model.init_params(mconfig, seed)
    arrays = model.standardize(arrays, stats)

    def batch_loss(idx):
        return _compute_loss(_take(arrays, idx), params, mconfig, variant, loss_cfg)

    def end_epoch():
        y_hat, _, _ = model.forward_blocks(arrays, params, mconfig)
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


def finetune(checkpoint, train, val, split_spec, stage_cfg, loss_cfg, variant, sizes, seed):
    """Finetune from a checkpoint (or train from scratch when the variant
    skips pretraining) on the train and val parts of split_spec's split.
    Early stopping restores the best-validation parameters. Returns
    (ModelBundle, per-epoch rows)."""
    mconfig = model_config_for(variant, sizes)
    train_arrays = ingest.stack_dataset(train)

    params = model.init_params(mconfig, seed)
    if checkpoint is not None:
        if checkpoint.config.to_dict() != mconfig.to_dict():
            raise CheckpointMismatch(
                f"checkpoint config {checkpoint.config.to_dict()} != variant config {mconfig.to_dict()}")
        params.vector[:] = checkpoint.params.vector
        # channels that were constant at pretraining (zeroed VIs) carried
        # no scaling information; take their statistics from this split
        stats = checkpoint.stats.refreshed_from(train_arrays)
    else:
        # from-scratch run (variants without pretraining, or paired
        # pretrained-vs-scratch comparisons of the same architecture)
        stats = model.Normalization.from_arrays(train_arrays)

    train_arrays = model.standardize(train_arrays, stats)
    val_arrays = model.standardize(ingest.stack_dataset(val), stats)

    def batch_loss(idx):
        return _compute_loss(_take(train_arrays, idx), params, mconfig, variant, loss_cfg)

    def end_epoch():
        y_hat, sm_hat, _ = model.forward_blocks(val_arrays, params, mconfig)
        total = _loss(val_arrays, y_hat, sm_hat, variant, loss_cfg)
        return float(total.data), _yield_rmse(val_arrays, y_hat, stats)

    rows, stop_reason, best_epoch, best_val = fit(params, len(train), batch_loss,
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
    return bundle, rows


# ---------------------------------------------------------------------------
# experiment runners


@dataclass
class ExperimentResult:
    per_seed: dict
    summary: dict


def run_experiment(field_dataset, county_dataset, variant_name, seeds, split_spec,
                   pre_cfg, fine_cfg, loss_cfg, sizes=None):
    """Pretrain (when the variant asks for it) and finetune once per seed,
    score every seed on the target year through metrics.score_seeds, and
    report the variant's tokens and components."""
    variant = get_variant(variant_name)
    if variant.use_pretrain and field_dataset is None:
        raise ValueError(f"variant {variant.name} pretrains and needs a field dataset")
    split = temporal_split(county_dataset, split_spec)
    metrics.require_scorable(split.test)
    predictions = {}
    for seed in seeds:
        checkpoint = None
        if variant.use_pretrain:
            checkpoint, _ = pretrain(field_dataset, pre_cfg, loss_cfg, variant, sizes, seed)
        bundle, _ = finetune(checkpoint, split.train, split.val, split_spec,
                             fine_cfg, loss_cfg, variant, sizes, seed)
        predictions[seed] = bundle.predict(split.test)
    _, per_seed, summary = metrics.score_seeds(split.test, predictions)
    summary["token_count"] = model_config_for(variant, sizes).n_tokens
    summary["components"] = {
        "attention": True,
        "soil_moisture_tokens": variant.use_sm_tokens,
        "field_pretraining": variant.use_pretrain,
        "w2s_encoder": variant.use_w2s,
        "smw_loss": variant.use_smw,
        "oe_loss": variant.use_oe,
    }
    return ExperimentResult(per_seed=per_seed, summary=summary)
