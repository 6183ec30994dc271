"""Evaluation: RMSE and R2, the LR/Ridge/MLP reference models, and the
signed-error reports used for over/underestimation diagnostics."""

import numpy as np

from . import artifacts, ingest
from .autodiff import ParamStore, Tensor, matmul, mean, relu, square
from .errors import KgmlsmError, ShapeError, SingularFit
from .optim import default_finetune_config, fit


def rmse(y, y_hat):
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.shape != y_hat.shape:
        raise ShapeError(f"rmse: shapes differ, {y.shape} vs {y_hat.shape}")
    if y.size == 0:
        raise ValueError("rmse: empty input")
    return float(np.sqrt(((y - y_hat) ** 2).mean()))


def r2(y, y_hat):
    y = np.asarray(y, dtype=np.float64)
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y.shape != y_hat.shape:
        raise ShapeError(f"r2: shapes differ, {y.shape} vs {y_hat.shape}")
    if y.size < 2:
        raise ValueError("r2: need at least 2 samples")
    sst = float(((y - y.mean()) ** 2).sum())
    if sst == 0.0:
        raise ValueError("r2: zero-variance actuals")
    sse = float(((y - y_hat) ** 2).sum())
    return 1.0 - sse / sst


# ---------------------------------------------------------------------------
# baseline models on flattened sample features


def sample_features(arrays):
    """Flatten each sample of stack_dataset arrays to one vector: all series
    channel values in channel-major order, then the auxiliaries (matches
    token order)."""
    return np.hstack([ingest.channel_major(arrays), arrays["aux"]])


def _standardize_features(train_x, *others):
    mu = train_x.mean(axis=0)
    sd = train_x.std(axis=0)
    sd = np.where(sd < 1e-12, 1.0, sd)
    return tuple((x - mu) / sd for x in (train_x,) + others)


def _lstsq_normal_equations(design, y, ridge_alpha=0.0):
    """Least-squares weights from the normal equations, in an order of
    arithmetic that the BLAS thread count cannot change: BLAS splits the
    wide Gram's sums, and LAPACK's blocked solve its updates, by thread
    count, which moved the last bits of the baselines between machines.
    einsum without optimize adds each sum over the samples in one fixed
    order, and the solve is Gaussian elimination with partial pivoting
    in element-wise steps."""
    gram = np.einsum("ij,ik->jk", design, design, optimize=False)
    if ridge_alpha > 0.0:
        penalty = ridge_alpha * np.eye(gram.shape[0])
        penalty[-1, -1] = 0.0  # intercept is not shrunk
        gram = gram + penalty
    x = np.einsum("ij,i->j", design, y, optimize=False)
    n = len(x)
    for k in range(n):
        p = k + int(np.argmax(np.abs(gram[k:, k])))
        if gram[p, k] == 0.0:
            raise SingularFit(f"singular normal equations: {design.shape[0]} samples, "
                              f"{n} design columns; use the ridge baseline")
        gram[[k, p]], x[[k, p]] = gram[[p, k]], x[[p, k]]
        f = gram[k + 1:, k] / gram[k, k]
        gram[k + 1:, k:] -= np.multiply.outer(f, gram[k, k:])
        x[k + 1:] -= f * x[k]
    for k in range(n - 1, -1, -1):
        x[k] = (x[k] - np.sum(gram[k, k + 1:] * x[k + 1:])) / gram[k, k]
    return x


def baseline_fit_predict(kind, train, test, val=None, seed=0, ridge_alpha=1.0):
    """Fit a reference model on the train split and predict the test split.

    kind: "lr" (ordinary least squares), "ridge" (L2, intercept unshrunk)
    or "mlp" (64-unit hidden layer trained with the finetune recipe; needs
    the val split for early stopping). Targets are standardized with
    train statistics and predictions mapped back to t/ha. Raises
    SingularFit when a linear fit's normal equations are singular.
    """
    train, test = ingest.stack_dataset(train), ingest.stack_dataset(test)
    train_x, test_x = sample_features(train), sample_features(test)
    y_mu, y_sd = train["y"].mean(), train["y"].std()
    y_sd = y_sd if y_sd > 1e-12 else 1.0
    train_t = (train["y"] - y_mu) / y_sd

    kind = kind.lower()
    if kind == "mlp":
        if val is None:
            raise ValueError("mlp baseline needs a validation split")
        val = ingest.stack_dataset(val)
        val_x, val_y = sample_features(val), (val["y"] - y_mu) / y_sd
        train_x, test_x, val_x = _standardize_features(train_x, test_x, val_x)
        d, hidden = train_x.shape[1], 64
        rng = np.random.default_rng([seed, 773])
        p = ParamStore()
        p.add("h.w", rng.uniform(-1 / np.sqrt(d), 1 / np.sqrt(d), size=(d, hidden)))
        p.add("h.b", np.zeros(hidden))
        p.add("o.w", rng.uniform(-1 / np.sqrt(hidden), 1 / np.sqrt(hidden), size=(hidden, 1)))
        p.add("o.b", np.zeros(1))

        def forward(x, q):
            h = relu(matmul(Tensor(x), q["h.w"]) + q["h.b"])
            return matmul(h, q["o.w"])[:, 0] + q["o.b"]

        def loss_on(x, y, q):
            return mean(square(forward(x, q) - Tensor(y)))

        # only the training batches build a graph; validation and test run on constants
        fit(p, train_x.shape[0], lambda idx: loss_on(train_x[idx], train_t[idx], p),
            lambda: (float(loss_on(val_x, val_y, p.constants()).data), None),
            default_finetune_config(), seed, 787)
        return forward(test_x, p.constants()).data * y_sd + y_mu

    train_x, test_x = _standardize_features(train_x, test_x)
    design = np.hstack([train_x, np.ones((train_x.shape[0], 1))])
    test_design = np.hstack([test_x, np.ones((test_x.shape[0], 1))])
    if kind == "lr":
        w = _lstsq_normal_equations(design, train_t, ridge_alpha=0.0)
    elif kind == "ridge":
        w = _lstsq_normal_equations(design, train_t, ridge_alpha=ridge_alpha)
    else:
        raise ValueError(f"unknown baseline kind {kind!r}")
    return test_design @ w * y_sd + y_mu


# ---------------------------------------------------------------------------
# error reports


def error_report(dataset, y_hat, sm_hat=None):
    """Per-sample signed errors plus drought/non-drought group means.

    The rows are columns: "id", "year", "drought_flag", "y", "y_hat",
    "signed_error" and "abs_error", one entry per sample. When sm_hat is
    given, "sm_abs_error" holds each sample's mean absolute SM error so
    yield misses can be read against SM misses.
    """
    y_hat = np.asarray(y_hat, dtype=np.float64)
    if y_hat.shape != (len(dataset),):
        raise ShapeError(f"error_report: {y_hat.shape} predictions for {len(dataset)} samples")
    a = ingest.stack_dataset(dataset)
    signed = y_hat - a["y"]
    rows = {"id": a["ids"], "year": a["years"], "drought_flag": a["drought"], "y": a["y"],
            "y_hat": y_hat, "signed_error": signed, "abs_error": np.abs(signed)}
    if sm_hat is not None:
        rows["sm_abs_error"] = np.abs(sm_hat - a["s"]).reshape(len(signed), -1).mean(axis=1)

    groups = {}
    for name, mask in (("all", np.ones_like(a["drought"])), ("drought", a["drought"]),
                       ("non_drought", ~a["drought"])):
        if mask.any():
            groups[name] = {"mean_signed_error": float(signed[mask].mean()),
                            "mean_abs_error": float(np.abs(signed[mask]).mean()),
                            "n": int(mask.sum())}
        else:
            groups[name] = {"mean_signed_error": None, "mean_abs_error": None, "n": 0}
    return rows, groups


def require_scorable(test):
    """Refuse a target year's test set (as temporal_split makes it, never
    empty) that RMSE and R2 cannot score: one of fewer than 2 samples, or
    one whose yields are all equal, which leaves R2 no variance to explain."""
    a = ingest.stack_dataset(test)
    year, y = int(a["years"][0]), a["y"]
    if len(y) < 2:
        raise KgmlsmError(f"target year {year} has {len(y)} county sample(s); "
                          "scoring needs at least 2")
    if (y == y[0]).all():
        raise KgmlsmError(f"target year {year} has {len(y)} county samples whose yields all "
                          f"equal {y[0]}; R2 needs yields that vary")


def score_seeds(dataset, predictions):
    """Score each seed's predictions on dataset. predictions maps a seed to
    its ModelBundle.predict output ({"y_hat", "sm_hat"}; sm_hat may be None).
    Returns (tables, per_seed, summary): each seed's error_report rows tagged
    with the seed; per-seed lists of RMSE, R2 and the mean signed errors (all,
    drought, non-drought; None for an empty group); and the RMSE and R2 means,
    the RMSE median, the drought error's median (None if a seed's is) and n_test."""
    tables, per_seed = [], {}
    for seed, pred in predictions.items():
        rows, groups = error_report(dataset, pred["y_hat"], pred["sm_hat"])
        tables.append({"seed": np.full(len(dataset), seed), **rows})
        numbers = {
            "rmse": rmse(rows["y"], pred["y_hat"]),
            "r2": r2(rows["y"], pred["y_hat"]),
            "mean_signed_error": groups["all"]["mean_signed_error"],
            "mean_signed_error_drought": groups["drought"]["mean_signed_error"],
            "mean_signed_error_non_drought": groups["non_drought"]["mean_signed_error"],
        }
        for key, value in numbers.items():
            per_seed.setdefault(key, []).append(value)
    drought = per_seed["mean_signed_error_drought"]
    return tables, per_seed, {
        "rmse_mean": float(np.mean(per_seed["rmse"])),
        "r2_mean": float(np.mean(per_seed["r2"])),
        "rmse_median": float(np.median(per_seed["rmse"])),
        "mean_signed_error_drought_median": None if None in drought else float(np.median(drought)),
        "n_test": len(dataset),
    }


def write_errors_csv(path, tables):
    """One line per error row of each table in turn (error_report or
    score_seeds rows); seed and sm_abs_error columns when the tables carry them."""
    header = ["seed", "id", "year", "drought_flag", "y", "y_hat", "signed_error", "abs_error",
              "sm_abs_error"]
    header = [k for k in header if k in tables[0]]
    artifacts.write_csv(path, header, [np.concatenate([t[k] for t in tables]) for k in header])
