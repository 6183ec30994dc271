"""Adam updates, a reduce-on-plateau learning-rate schedule and the one
minibatch training loop that every trained model runs through."""

from dataclasses import dataclass, field

import numpy as np

from .autodiff import gradients
from .errors import ConfigError, ShapeError


@dataclass
class AdamState:
    """Per-parameter moment estimates plus the shared step counter."""

    lr: float
    beta1: float = 0.9
    beta2: float = 0.999
    eps: float = 1e-8
    t: int = 0
    m: dict = field(default_factory=dict)
    v: dict = field(default_factory=dict)


def adam_init(store, lr):
    if lr <= 0:
        raise ValueError(f"lr must be positive, got {lr}")
    state = AdamState(lr=lr)
    for name, t in store.items():
        state.m[name] = np.zeros_like(t.data)
        state.v[name] = np.zeros_like(t.data)
    return state


def adam_step(store, grads, state):
    """One Adam update with bias correction, applied in place."""
    state.t += 1
    b1, b2 = state.beta1, state.beta2
    bias1 = 1.0 - b1 ** state.t
    bias2 = 1.0 - b2 ** state.t
    for name, p in store.items():
        g = grads[name]
        if g.shape != p.data.shape:
            raise ShapeError(f"adam_step: grad shape {g.shape} != param shape {p.data.shape} for {name}")
        m = state.m[name]
        v = state.v[name]
        m *= b1
        m += (1.0 - b1) * g
        v *= b2
        v += (1.0 - b2) * (g * g)
        m_hat = m / bias1
        v_hat = v / bias2
        p.data = p.data - state.lr * m_hat / (np.sqrt(v_hat) + state.eps)
    return state


@dataclass
class PlateauScheduler:
    """Halve the learning rate after `patience` epochs without improvement.

    Improvement means a strictly lower monitored value, by any margin. The
    lr never drops below min_lr; a reduction resets the stall counter.
    """

    lr: float
    patience: int = 5
    factor: float = 0.5
    min_lr: float = 1e-6
    best: float = None
    bad_epochs: int = 0

    def step(self, value):
        value = float(value)
        if self.best is None or value < self.best:
            self.best = value
            self.bad_epochs = 0
        else:
            self.bad_epochs += 1
            if self.bad_epochs >= self.patience:
                self.lr = max(self.lr * self.factor, self.min_lr)
                self.bad_epochs = 0
        return self.lr


@dataclass
class StageConfig:
    batch_size: int
    lr: float = 0.001
    max_epochs: int = 50
    scheduler_patience: int = 5
    rmse_stop: float = None  # stop when the epoch's RMSE drops below
    early_stop_patience: int = None  # epochs of no val improvement

    def __post_init__(self):
        if self.batch_size < 1:
            raise ConfigError("batch_size must be >= 1")
        if self.lr <= 0:
            raise ConfigError("lr must be > 0")


def default_finetune_config():
    """The paper's finetune recipe, which the MLP baseline also trains with."""
    return StageConfig(batch_size=16, lr=0.001, max_epochs=30, scheduler_patience=5,
                       early_stop_patience=10)


def fit(params, n, batch_loss, end_epoch, cfg, seed, tag):
    """Train params by minibatch Adam on n samples under one stage's recipe.

    Each epoch visits the samples in the permutation drawn from
    [seed, tag, epoch]; batch_loss(idx) builds the loss graph of one batch.
    After the epoch, end_epoch() returns (val_loss, rmse), either
    of which may be None. The plateau scheduler watches val_loss, or the
    mean train loss when there is no validation. Training stops once rmse
    drops below cfg.rmse_stop, or after cfg.early_stop_patience epochs
    without a lower val_loss; the best-val_loss parameters are then restored.

    Returns (per-epoch rows, stop reason, best epoch, best val_loss).
    """
    adam = adam_init(params, cfg.lr)
    sched = PlateauScheduler(lr=cfg.lr, patience=cfg.scheduler_patience)
    best_val, best_arrays, best_epoch, bad = None, None, -1, 0
    rows = []
    stop_reason = "max_epochs"
    for epoch in range(cfg.max_epochs):
        order = np.random.default_rng([seed, tag, epoch]).permutation(n)
        train_loss = 0.0
        for i in range(0, n, cfg.batch_size):
            idx = order[i: i + cfg.batch_size]
            total = batch_loss(idx)
            grads = gradients(total, params)
            adam.lr = sched.lr
            adam_step(params, grads, adam)
            train_loss += float(total.data) * len(idx)
        train_loss /= n
        val_loss, rmse = end_epoch()
        lr = sched.step(train_loss if val_loss is None else val_loss)
        rows.append({"epoch": epoch, "train_loss": train_loss, "val_loss": val_loss,
                     "lr": lr, "rmse": rmse})
        if cfg.rmse_stop is not None and rmse < cfg.rmse_stop:
            stop_reason = "train_rmse_below_target"
            break
        if val_loss is None:
            continue
        if best_val is None or val_loss < best_val:
            best_val, best_arrays, best_epoch, bad = val_loss, params.to_arrays(), epoch, 0
        else:
            bad += 1
            if cfg.early_stop_patience is not None and bad >= cfg.early_stop_patience:
                stop_reason = "early_stopping"
                break
    if best_arrays is not None:
        params.load_arrays(best_arrays)
    return rows, stop_reason, best_epoch, best_val
