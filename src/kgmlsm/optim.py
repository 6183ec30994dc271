"""Adam updates of the parameter vector by a gradient vector of its layout,
a reduce-on-plateau learning-rate schedule and the one minibatch training
loop that every trained model runs through."""

from dataclasses import dataclass

import numpy as np

from .autodiff import gradients
from .errors import ConfigError, ShapeError

ADAM_BETA1, ADAM_BETA2, ADAM_EPS = 0.9, 0.999, 1e-8
PLATEAU_FACTOR, MIN_LR = 0.5, 1e-6


@dataclass
class AdamState:
    """Moment estimates over the parameter vector, plus the step counter."""

    lr: float
    m: np.ndarray
    v: np.ndarray
    t: int = 0


def adam_init(vector, lr):
    if lr <= 0:
        raise ValueError(f"lr must be positive, got {lr}")
    return AdamState(lr=lr, m=np.zeros(vector.size), v=np.zeros(vector.size))


def adam_step(vector, g, state):
    """One Adam update with bias correction of the parameter vector, given
    the gradient vector g in the same layout (autodiff.gradients').

    The update is element-wise, so one pass over the vector gives each
    value exactly what a pass per parameter would; it is subtracted in
    place, so every parameter's data stays a view of the vector.
    """
    if g.shape != vector.shape:
        raise ShapeError(f"adam_step: gradient shape {g.shape} != parameter vector shape "
                         f"{vector.shape}")
    state.t += 1
    b1, b2 = ADAM_BETA1, ADAM_BETA2
    bias1 = 1.0 - b1 ** state.t
    bias2 = 1.0 - b2 ** state.t
    m, v = state.m, state.v
    m *= b1
    m += (1.0 - b1) * g
    v *= b2
    v += (1.0 - b2) * (g * g)
    m_hat = m / bias1
    v_hat = v / bias2
    vector -= state.lr * m_hat / (np.sqrt(v_hat) + ADAM_EPS)
    return state


@dataclass
class PlateauScheduler:
    """Halve the learning rate after `patience` epochs without improvement.

    Improvement means a strictly lower monitored value, by any margin. The
    lr never drops below MIN_LR; a reduction resets the stall counter.
    """

    lr: float
    patience: int = 5
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
                self.lr = max(self.lr * PLATEAU_FACTOR, MIN_LR)
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
        if self.max_epochs < 1:
            raise ConfigError("max_epochs must be >= 1")
        if self.scheduler_patience < 1:
            raise ConfigError("scheduler_patience must be >= 1")
        if self.early_stop_patience is not None and self.early_stop_patience < 1:
            raise ConfigError("early_stop_patience must be >= 1")


# the paper's finetune recipe, over StageConfig's lr and scheduler_patience:
# the default of a run's finetune stage, and the one the MLP baseline always
# trains with
PAPER_FINETUNE = {"batch_size": 16, "max_epochs": 30, "early_stop_patience": 10}


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
    adam = adam_init(params.vector, cfg.lr)
    sched = PlateauScheduler(lr=cfg.lr, patience=cfg.scheduler_patience)
    best_val, best_vector, best_epoch, bad = None, None, -1, 0
    rows = []
    stop_reason = "max_epochs"
    for epoch in range(cfg.max_epochs):
        order = np.random.default_rng([seed, tag, epoch]).permutation(n)
        train_loss = 0.0
        for i in range(0, n, cfg.batch_size):
            idx = order[i: i + cfg.batch_size]
            total = batch_loss(idx)
            adam.lr = sched.lr
            adam_step(params.vector, gradients(total, params), adam)
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
            best_val, best_vector, best_epoch, bad = val_loss, params.vector.copy(), epoch, 0
        else:
            bad += 1
            if cfg.early_stop_patience is not None and bad >= cfg.early_stop_patience:
                stop_reason = "early_stopping"
                break
    if best_vector is not None:
        params.vector[:] = best_vector
    return rows, stop_reason, best_epoch, best_val
