"""Training objectives: soil-moisture MSE, the drought-aware asymmetric
yield loss (one autodiff node), and their unweighted sum.

The yield loss is, per sample,

    d * [ (y - y_hat)^2 + lambda * max(0, y_hat - y)^2 ]

averaged over the batch, where d = 1 / (sbar + epsilon) weights dry
seasons up. sbar always comes from the sample's input soil-moisture
channel, never from the model's own prediction, and no gradient flows
through it.
"""

from dataclasses import dataclass

import numpy as np

from .autodiff import _as_tensor, mean, node, square
from .errors import ConfigError, ShapeError


@dataclass
class LossConfig:
    lam: float = 2.0  # overestimation penalty coefficient
    epsilon: float = 1.0  # drought-weight stabilizer

    def __post_init__(self):
        if self.lam < 0:
            raise ConfigError(f"lambda must be >= 0, got {self.lam}")
        if self.epsilon <= 0:
            raise ConfigError(f"epsilon must be > 0, got {self.epsilon}")


def sm_loss(s, s_hat):
    """Mean squared error over batch, timesteps and both SM layers."""
    s = _as_tensor(s)
    s_hat = _as_tensor(s_hat)
    if s.shape != s_hat.shape:
        raise ShapeError(f"sm_loss: shapes differ, {s.shape} vs {s_hat.shape}")
    return mean(square(s - s_hat))


def drought_weight(sbar, epsilon=1.0):
    """d = 1 / (sbar + epsilon); decreasing in seasonal soil moisture."""
    sbar = np.asarray(sbar, dtype=np.float64)
    if np.any(sbar < 0):
        raise ValueError("sbar must be non-negative")
    if epsilon <= 0:
        raise ValueError("epsilon must be positive")
    return 1.0 / (sbar + epsilon)


def yield_loss(y, y_hat, sbar, config):
    """Drought-weighted squared error with the overestimation penalty, one
    autodiff node whose backward repeats the op-by-op chain bit for bit.

    y and sbar are per-sample constants; y_hat may be a graph tensor so
    gradients flow to the model only through the prediction.
    """
    y = np.asarray(y, dtype=np.float64)
    sbar = np.asarray(sbar, dtype=np.float64)
    y_hat = _as_tensor(y_hat)
    if y.shape != y_hat.shape or y.shape != sbar.shape:
        raise ShapeError(
            f"yield_loss: length mismatch, y {y.shape}, y_hat {y_hat.shape}, sbar {sbar.shape}")
    if y.size == 0:
        raise ShapeError("yield_loss: empty batch")
    d = drought_weight(sbar, config.epsilon)
    lam = float(config.lam)
    diff = y + y_hat.data * -1.0
    over = y_hat.data + y * -1.0
    mask = over > 0
    over = np.where(mask, over, 0.0)

    def grads(go):
        g = np.full(y.shape, float(go) / y.size) * d
        return [(g * lam * 2.0 * over) * mask + g * 2.0 * diff * -1.0]

    return node((d * (diff * diff + (over * over) * lam)).mean(), [y_hat], grads, "yield_loss")


def total_loss(sm_term, yield_term):
    """Unweighted sum of the two objectives."""
    return _as_tensor(sm_term) + _as_tensor(yield_term)
