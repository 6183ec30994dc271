"""Output checks, computed here with plain numpy and the csv module.

Nothing in this file calls the program: every expectation is either
recomputed from the files the program wrote or is a property the method
must have (counts, quantile flags, a least-squares fit, softmax rows).
"""

import csv
import json
import os

import numpy as np

from inputs import SM_MAX, SM_MIN, T


class CheckFailed(Exception):
    """An output of the program is wrong."""


def expect(ok, message):
    if not ok:
        raise CheckFailed(message)


def read_rows(path):
    with open(path, newline="", encoding="utf-8") as f:
        return list(csv.DictReader(f))


def read_samples(path):
    """A samples CSV as arrays; channels come back as (N, 13, c)."""
    with open(path, newline="", encoding="utf-8") as f:
        rows = list(csv.reader(f))[1:]
    ids = [r[0] for r in rows]
    num = np.array([r[1:] for r in rows], dtype=np.float64).reshape(len(rows), -1)
    block = lambda lo, c: num[:, lo: lo + c * T].reshape(-1, c, T).transpose(0, 2, 1)
    return {
        "keys": list(zip(ids, num[:, 0].astype(int).tolist())),
        "year": num[:, 0].astype(int), "aux": num[:, [0, 1, 2, 3]],
        "y": num[:, 4], "sbar": num[:, 5], "flag": num[:, 6].astype(bool),
        "weather": block(7, 4), "vis": block(7 + 4 * T, 4), "sm": block(7 + 8 * T, 2),
        "flat": num[:, 7:],
    }


def rmse(y, y_hat):
    return float(np.sqrt(np.mean((np.asarray(y) - np.asarray(y_hat)) ** 2)))


def ridge_cv_rmse(samples, folds=5, alpha=1.0):
    """Held-out RMSE of a ridge fit of yield on every built feature, with
    counties split into `folds` groups: how much signal the built data
    carry. Pooling all held-out samples keeps it steady across seeds."""
    x = np.hstack([samples["flat"], samples["aux"]])
    units = sorted({sid for sid, _ in samples["keys"]})
    folds = min(folds, len(units))
    fold_of = {sid: i % folds for i, sid in enumerate(units)}
    fold = np.array([fold_of[sid] for sid, _ in samples["keys"]])
    pred = np.empty(len(x))
    for k in range(folds):
        train, test = fold != k, fold == k
        expect(train.any() and test.any(), f"fold {k} of {folds} is empty")
        mu, sd = x[train].mean(axis=0), x[train].std(axis=0)
        sd[sd < 1e-12] = 1.0
        z = np.hstack([(x - mu) / sd, np.ones((len(x), 1))])
        penalty = alpha * np.eye(z.shape[1])
        penalty[-1, -1] = 0.0
        coef = np.linalg.solve(z[train].T @ z[train] + penalty, z[train].T @ samples["y"][train])
        pred[test] = z[test] @ coef
    return rmse(samples["y"], pred)


# ---------------------------------------------------------------------------
# prep


def _check_composites(samples, name):
    for key in ("weather", "vis", "sm"):
        expect(np.isfinite(samples[key]).all(), f"{name}: non-finite {key} composite")
    expect(((samples["sm"] >= SM_MIN) & (samples["sm"] <= SM_MAX)).all(),
           f"{name}: soil moisture outside [{SM_MIN}, {SM_MAX}]")


def _check_drought_flags(samples, name):
    sbar = samples["sm"].reshape(len(samples["sm"]), -1).mean(axis=1)
    expect(np.allclose(sbar, samples["sbar"], rtol=0, atol=1e-12),
           f"{name}: sbar is not the mean of the soil-moisture composites")
    for year in np.unique(samples["year"]):
        mask = samples["year"] == year
        flags = sbar[mask] < np.quantile(sbar[mask], 0.2)
        expect(np.array_equal(flags, samples["flag"][mask]),
               f"{name}: drought flags for {year} differ from the 20% quantile recount")


def check_prep(cfg, run_dir):
    """Counts, drought flags, composites and the filter's kept set."""
    data = os.path.join(run_dir, "data")
    cs = cfg["cropsim"]
    n_years = cs["years"]["last"] - cs["years"]["first"] + 1
    n_field_years = cs["field_years"]["last"] - cs["field_years"]["first"] + 1
    field = read_samples(os.path.join(data, "field_samples.csv"))
    county = read_samples(os.path.join(data, "county_samples.csv"))
    expect(len(field["y"]) == cs["n_stations"] * n_field_years,
           f"field samples: {len(field['y'])} rows, want stations x years")
    expect(len(county["y"]) == cs["n_counties"] * n_years,
           f"county samples: {len(county['y'])} rows, want counties x years")
    for name, samples in (("field", field), ("county", county)):
        _check_composites(samples, name)
        _check_drought_flags(samples, name)

    # weather -> SM linear fit on pooled county windows, then the MSE rule
    x = np.hstack([county["weather"].reshape(-1, 4), np.ones((county["weather"].size // 4, 1))])
    coef = np.linalg.lstsq(x, county["sm"].reshape(-1, 2), rcond=None)[0]
    pred = np.concatenate([field["weather"], np.ones(field["weather"].shape[:2] + (1,))], axis=2) @ coef
    mse = ((pred - field["sm"]) ** 2).mean(axis=(1, 2))
    threshold = float(cfg["filter"]["threshold"])
    kept = set(read_samples(os.path.join(run_dir, "filter", "field_filtered.csv"))["keys"])
    clear = np.abs(mse - threshold) > 1e-9 * max(threshold, 1.0)
    for key, m, ok in zip(field["keys"], mse, clear):
        if ok:
            expect((key in kept) == (m <= threshold),
                   f"filter: {key} kept={key in kept} but refit MSE {m:.6g} vs {threshold}")
    return len(field["y"]) + len(county["y"])


# ---------------------------------------------------------------------------
# train


def errors_against_truth(run_dir, target_year):
    """(y_true, y_hat, hist_avg) per errors.csv row, truth from the truth CSV."""
    truth = {(r["id"], int(r["year"])): r
             for r in read_rows(os.path.join(run_dir, "data", "county_truth.csv"))}
    rows = read_rows(os.path.join(run_dir, "evaluate", "errors.csv"))
    expect(rows, "errors.csv is empty")
    expect(all(int(r["year"]) == target_year for r in rows), "errors.csv has non-target years")
    t = [truth[(r["id"], int(r["year"]))] for r in rows]
    return (np.array([float(x["yield"]) for x in t]), np.array([float(r["y_hat"]) for r in rows]),
            np.array([float(x["hist_avg_yield"]) for x in t]))


def check_reported(run_dir, y, y_hat):
    """metrics.json must hold the RMSE and R2 of errors.csv against truth."""
    with open(os.path.join(run_dir, "evaluate", "metrics.json"), encoding="utf-8") as f:
        reported = json.load(f)["per_seed"]
    got_rmse = rmse(y, y_hat)
    got_r2 = 1.0 - float(((y - y_hat) ** 2).sum()) / float(((y - y.mean()) ** 2).sum())
    expect(abs(got_rmse - reported["rmse"][0]) <= 1e-9,
           f"RMSE {reported['rmse'][0]} in metrics.json, {got_rmse} recomputed")
    expect(abs(got_r2 - reported["r2"][0]) <= 1e-9,
           f"R2 {reported['r2'][0]} in metrics.json, {got_r2} recomputed")
    return got_rmse


def check_train(cfg, run_dir):
    """Reported RMSE and R2 against a recount; the model beats the
    county's own 5-year average. Returns the test RMSE."""
    y, y_hat, hist = errors_against_truth(run_dir, int(cfg["target_year"]))
    got = check_reported(run_dir, y, y_hat)
    expect(got < rmse(y, hist),
           f"model RMSE {got:.3f} does not beat the 5-year average ({rmse(y, hist):.3f})")
    return got


# ---------------------------------------------------------------------------
# score: an independent forward pass of the finetuned model


def load_checkpoint(stem):
    with open(stem + ".json", encoding="utf-8") as f:
        manifest = json.load(f)
    with open(stem + ".bin", "rb") as f:
        blob = np.frombuffer(f.read(), dtype="<f8")
    params, offset = {}, 0
    for entry in manifest["params"]:
        size = int(np.prod(entry["shape"]))
        params[entry["name"]] = blob[offset: offset + size].reshape(entry["shape"])
        offset += size
    expect(offset == blob.size, f"{stem}.bin holds {blob.size} values, manifest {offset}")
    norm = {k: (np.array(v) if isinstance(v, list) else v)
            for k, v in manifest["normalization"].items()}
    return manifest["config"], params, norm


def _conv3(x, w, b):
    z = np.zeros_like(x[:, :1])
    xp = np.concatenate([z, x, z], axis=1)
    n = x.shape[1]
    return np.concatenate([xp[:, 0:n], xp[:, 1:n + 1], xp[:, 2:n + 2]], axis=2) @ w + b


def _pool(x):
    return 0.5 * (x[:, 0::2] + x[:, 1::2])


def reference_forward(params, norm, config, weather, vis, aux):
    """W2S encoder-decoder then token attention, in physical units.

    Returns (y_hat (N,), alpha (N, tokens)).
    """
    relu = lambda a: np.maximum(a, 0.0)
    w = (weather - norm["weather_mu"]) / norm["weather_sd"]
    v = (vis - norm["vi_mu"]) / norm["vi_sd"]
    o = (aux - norm["aux_mu"]) / norm["aux_sd"]
    x = np.concatenate([w] + [w[:, T - 1:T]] * 3, axis=1)
    e1 = relu(_conv3(x, params["w2s.enc1.w"], params["w2s.enc1.b"]))
    e2 = relu(_conv3(_pool(e1), params["w2s.enc2.w"], params["w2s.enc2.b"]))
    mid = relu(_pool(e2) @ params["w2s.mid.w"] + params["w2s.mid.b"])
    d2 = relu(_conv3(np.concatenate([np.repeat(mid, 2, axis=1), e2], axis=2),
                     params["w2s.dec2.w"], params["w2s.dec2.b"]))
    d1 = relu(_conv3(np.concatenate([np.repeat(d2, 2, axis=1), e1], axis=2),
                     params["w2s.dec1.w"], params["w2s.dec1.b"]))
    sm = (d1 @ params["w2s.head.w"] + params["w2s.head.b"])[:, :T]

    tokens = np.concatenate([w[:, :, i] for i in range(4)] + [v[:, :, i] for i in range(4)]
                            + [sm[:, :, i] for i in range(2)] + [o], axis=1)
    e = tokens[:, :, None] * params["att.embed.value"] + params["att.embed.bias"]
    scores = (e @ params["att.wk"] @ params["att.q"])[:, :, 0] / np.sqrt(config["d_k"])
    alpha = np.exp(scores - scores.max(axis=1, keepdims=True))
    alpha /= alpha.sum(axis=1, keepdims=True)
    pooled = np.einsum("nt,ntk->nk", alpha, e @ params["att.wv"])
    y = (pooled @ params["att.out.w"])[:, 0] + params["att.out.b"]
    return y * norm["y_sd"] + norm["y_mu"], alpha


def check_score(cfg, run_dir, n_samples, subset=64):
    """y_hat of a subset against the reference forward pass; attention
    rows are distributions; one attention row per sample and token."""
    seed = int(cfg["seeds"][0])
    config, params, norm = load_checkpoint(
        os.path.join(run_dir, "finetune", f"seed{seed}", "model"))
    expect(config["use_w2s"] and config["use_sm_tokens"], f"unexpected variant {config}")
    samples = read_samples(os.path.join(run_dir, "data", "county_samples.csv"))
    index = {k: i for i, k in enumerate(samples["keys"])}
    rows = read_rows(os.path.join(run_dir, "evaluate", "errors.csv"))
    expect(len(rows) == int((samples["year"] == int(cfg["target_year"])).sum()),
           f"errors.csv has {len(rows)} rows, want one per target-year sample")
    pick = rows[:: max(1, len(rows) // subset)]
    idx = [index[(r["id"], int(r["year"]))] for r in pick]
    y_ref, _ = reference_forward(params, norm, config, samples["weather"][idx],
                                 samples["vis"][idx], samples["aux"][idx])
    for r, ref in zip(pick, y_ref):
        expect(abs(float(r["y_hat"]) - ref) <= 1e-9,
               f"y_hat {r['y_hat']} for {r['id']}/{r['year']}, reference forward gives {ref!r}")

    n_tokens = 10 * T + 4
    with open(os.path.join(run_dir, "attn", "attention_raw.csv"), newline="",
              encoding="utf-8") as f:
        alpha = np.array([row[4] for row in list(csv.reader(f))[1:]], dtype=np.float64)
    expect(alpha.size == n_samples * n_tokens,
           f"attention_raw.csv has {alpha.size} rows, want {n_samples} x {n_tokens}")
    expect((alpha >= 0).all(), "negative attention weight")
    sums = alpha.reshape(n_samples, n_tokens).sum(axis=1)
    expect(np.abs(sums - 1.0).max() <= 1e-9, f"attention rows sum to {sums.min()}..{sums.max()}")
    y = samples["y"][[index[(r["id"], int(r["year"]))] for r in rows]]
    return check_reported(run_dir, y, np.array([float(r["y_hat"]) for r in rows]))
