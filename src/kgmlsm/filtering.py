"""Screen simulated field samples against a weather-to-SM linear model.

A linear regressor is fit on county-level data (per-timestep pooled rows,
ordinary least squares via the normal equations) and every field sample is
scored by the MSE between the regressor's soil-moisture prediction from
the sample's weather and the sample's simulated soil moisture. Samples
scoring above the threshold are discarded.
"""

from dataclasses import dataclass

import numpy as np

from . import artifacts, ingest
from .errors import ShapeError

COND_LIMIT = 1e10
RIDGE_EPS = 1e-8


@dataclass
class LinearSMModel:
    weights: np.ndarray  # (5, 2): 4 weather coefficients + intercept -> 2 SM layers
    diagnostics: dict

    def predict(self, weather):
        """(..., T, 4) weather -> (..., T, 2) soil moisture."""
        weather = np.asarray(weather, dtype=np.float64)
        if weather.ndim < 2 or weather.shape[-1] != 4:
            raise ShapeError(f"predict: expected (..., T, 4) weather, got {weather.shape}")
        design = np.concatenate([weather, np.ones(weather.shape[:-1] + (1,))], axis=-1)
        return design @ self.weights


def fit_sm_regressor(dataset):
    """OLS with intercept on all (sample, timestep) rows of a county dataset.

    Falls back to a tiny ridge term when the Gram matrix is near-singular;
    the diagnostics record whether that happened.
    """
    if len(dataset) == 0:
        raise ValueError("fit_sm_regressor: empty dataset")
    a = ingest.stack_dataset(dataset)
    x, y = a["w"].reshape(-1, 4), a["s"].reshape(-1, 2)
    design = np.hstack([x, np.ones((x.shape[0], 1))])
    gram = design.T @ design
    cond = float(np.linalg.cond(gram))
    ridge_applied = cond > COND_LIMIT
    if ridge_applied:
        gram = gram + RIDGE_EPS * np.eye(gram.shape[0])
    weights = np.linalg.solve(gram, design.T @ y)
    residuals = design @ weights - y
    diagnostics = {
        "rows": int(x.shape[0]),
        "cond": cond,
        "ridge_applied": bool(ridge_applied),
        "residual_mse": float((residuals ** 2).mean()),
    }
    return LinearSMModel(weights=weights, diagnostics=diagnostics)


def score_samples(model, weather, sm):
    """MSE over timesteps and both SM layers between the regressor's
    prediction from (..., T, 4) weather and the (..., T, 2) SM: one score
    per sample."""
    err = model.predict(weather) - sm
    return (err ** 2).reshape(err.shape[:-2] + (-1,)).mean(axis=-1)


def screen_field_samples(dataset, model, threshold=0.5):
    """Partition into (kept, discarded, report); kept iff mse <= threshold.

    The report holds the columns "id", "year", "mse" and "kept", one entry
    per input sample.
    """
    a = ingest.stack_dataset(dataset)
    mse = score_samples(model, a["w"], a["s"])
    keep = mse <= threshold
    report = {"id": a["ids"], "year": a["years"], "mse": mse, "kept": keep}
    return dataset.subset(np.flatnonzero(keep)), dataset.subset(np.flatnonzero(~keep)), report


def write_filter_report(path, report):
    header = ["id", "year", "mse", "kept"]
    artifacts.write_csv(path, header, [report[k] for k in header])
