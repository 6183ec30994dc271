"""Configs and input files for the three workloads, made from the seed.

The program only ever sees what these functions write: a JSON config per
workload and, for `score`, a county and a field samples file in the
program's documented CSV schema, written here without calling the program.
"""

import csv
import json
import os

import numpy as np

T = 13  # 16-day windows per season
WEATHER = ("radn", "tmax", "tmin", "ppt")
VIS = ("gcvi", "evi", "ndwi", "ndvi")
SM = ("sm_surface", "sm_rootzone")
AUX = ("year", "lat", "lon", "hist_avg_yield")
SM_MIN, SM_MAX = 0.05, 0.55

# Sizes of each workload. Tests pass smaller ones; the benchmark always
# runs these.
# `prep` trains only in its traced run, briefly, to time the model layers;
# `score` builds a small demo-style data set only in its traced run, to
# time the data layers.
PREP = {"cropsim": {"n_counties": 100}, "pretrain_epochs": 2, "finetune_epochs": 2}
TRAIN = {"cropsim": {}, "pretrain_epochs": 25, "finetune_epochs": 30}
SCORE = {"n_counties": 864, "first_year": 2019, "last_year": 2023, "history_years": 5,
         "n_stations": 32, "field_years": 8, "data_stages": {"n_counties": 12, "n_stations": 8}}


def data_seed(seed):
    """The program's rng streams need a non-negative seed."""
    return int(seed) % (2 ** 31)


def demo_config(root):
    with open(os.path.join(root, "src", "kgmlsm", "configs", "demo.json"), encoding="utf-8") as f:
        return json.load(f)


def write_config(path, cfg):
    with open(path, "w", encoding="utf-8") as f:
        json.dump(cfg, f, indent=2, sort_keys=True)
        f.write("\n")


def prep_config(root, run_dir, seed, scale=PREP):
    """The demo's station and year ranges with more counties, on a data
    seed taken from the benchmark seed."""
    cfg = demo_config(root)
    cfg["paths"] = {"run_dir": run_dir}
    cfg["cropsim"].update(scale["cropsim"])
    cfg["cropsim"]["data_seed"] = data_seed(seed)
    return fixed_training(cfg, seed, scale)


def fixed_training(cfg, seed, scale):
    """One training seed and a fixed number of epochs.

    Both stop rules are switched off so that every seed runs the same
    number of steps: otherwise `wall_s` would follow where a seed happens
    to cross the pretrain RMSE target, not how fast a step is.
    """
    cfg["seeds"] = [data_seed(seed)]
    fine_epochs = int(scale["finetune_epochs"])
    cfg["train"] = {
        "pretrain": {"max_epochs": int(scale["pretrain_epochs"]), "rmse_stop": 0.0},
        "finetune": {"max_epochs": fine_epochs, "early_stop_patience": fine_epochs},
    }
    return cfg


def train_config(root, run_dir, seed, scale=TRAIN):
    """The demo config and data, one training seed, and a fixed amount of
    training."""
    cfg = demo_config(root)
    cfg["paths"] = {"run_dir": run_dir}
    cfg["cropsim"].update(scale["cropsim"])
    return fixed_training(cfg, seed, scale)


def score_data_config(root, run_dir, seed, scale=SCORE):
    """The data stages' config for `score`'s traced run: the demo's ranges
    with few stations and counties, on a data seed from the benchmark seed."""
    return prep_config(root, run_dir, seed, {"cropsim": scale["data_stages"],
                                             "pretrain_epochs": 1, "finetune_epochs": 1})


def score_config(run_dir, seed, scale=SCORE):
    """Paper-scale scoring: the generated county samples, checkpoints made
    with one epoch of each training stage."""
    return {
        "paths": {"run_dir": run_dir},
        "cropsim": {"years": {"first": scale["first_year"], "last": scale["last_year"]}},
        "filter": {"enabled": False},
        "train": {
            "pretrain": {"batch_size": 64, "max_epochs": 1, "rmse_stop": 0.0},
            "finetune": {"batch_size": 64, "max_epochs": 1, "early_stop_patience": 1},
        },
        "target_year": scale["last_year"],
        "seeds": [data_seed(seed)],
        "variant": "kgml_sm",
    }


# ---------------------------------------------------------------------------
# samples generator for `score`


def manifest(level):
    """The channel manifest the program expects beside a samples CSV."""
    return {
        "level": level, "timesteps": T, "window_days": 16, "season_days": 214,
        "weather_channels": list(WEATHER), "vi_channels": list(VIS), "sm_channels": list(SM),
        "aux_fields": list(AUX),
        "compositing": {c: ("sum" if c == "ppt" else "mean") for c in WEATHER + VIS + SM},
        "categories": {**{c: "Weather" for c in WEATHER}, **{c: "VIs" for c in VIS},
                       **{c: "SM" for c in SM}},
    }


def synth_samples(rng, n_units, first_year, last_year, history_years, prefix, with_vis=True):
    """Seasons of 13 windows per unit-year, with yield driven by seasonal
    soil moisture and canopy so a model has something to learn.

    Returns dict of arrays over the kept years (first_year..last_year),
    sample-major, unit-major within.
    """
    n_years = last_year - first_year + 1 + history_years
    shape = (n_units, n_years)
    doy = 90 + 16 * np.arange(T) + 8
    lat = rng.uniform(38.0, 48.0, n_units)
    lon = rng.uniform(-102.0, -84.0, n_units)
    wet = rng.uniform(0.1, 0.5, shape)

    season = np.sin(2 * np.pi * (doy - 105) / 365)
    tmean = (9.0 + 0.7 * (46.0 - lat))[:, None, None] + 14.0 * season \
        + rng.normal(0.0, 1.0, shape + (T,))
    radn = 13.0 + 10.0 * np.sin(2 * np.pi * (doy - 81) / 365) + rng.normal(0.0, 1.0, shape + (T,))
    ppt = rng.gamma(2.0, 1.0, shape + (T,)) * 48.0 * wet[..., None]
    weather = np.stack([radn, tmean + 4.0, tmean - 4.0, ppt], axis=-1)

    surface = SM_MIN + 0.5 * ppt / (ppt + 40.0) + rng.normal(0.0, 0.01, shape + (T,))
    rootzone = 0.1 + 0.7 * wet[..., None] + rng.normal(0.0, 0.02, shape + (T,))
    sm = np.clip(np.stack([surface, rootzone], axis=-1), SM_MIN, SM_MAX)
    water = (sm.mean(axis=(2, 3)) - SM_MIN) / (SM_MAX - SM_MIN)

    canopy = np.exp(-((doy - 200) / 40.0) ** 2) * (0.4 + 0.6 * water)[..., None]
    nir, red = 0.15 + 0.35 * canopy, 0.24 - 0.16 * canopy
    vis = np.stack([nir / (0.11 + 0.02 * canopy) - 1.0, 2.5 * (nir - red) / (nir + 6 * red + 0.7),
                    (nir - 0.3 + 0.12 * canopy) / (nir + 0.3), (nir - red) / (nir + red)], axis=-1)
    vis = vis + rng.normal(0.0, 0.01, vis.shape)
    if not with_vis:
        vis = np.zeros_like(vis)

    yields = np.clip(3.0 + 9.0 * water + rng.normal(0.0, 0.6, shape), 0.5, None)
    hist = np.stack([yields[:, y - history_years:y].mean(axis=1)
                     for y in range(history_years, n_years)], axis=1)
    keep = slice(history_years, None)
    years = np.arange(first_year, last_year + 1)
    n = n_units * len(years)
    return {
        "id": np.repeat([f"{prefix}{i:04d}" for i in range(n_units)], len(years)),
        "year": np.tile(years, n_units),
        "lat": np.repeat(lat, len(years)), "lon": np.repeat(lon, len(years)),
        "hist": hist.reshape(n), "y": yields[:, keep].reshape(n),
        "weather": weather[:, keep].reshape(n, T, 4), "vis": vis[:, keep].reshape(n, T, 4),
        "sm": sm[:, keep].reshape(n, T, 2),
    }


def drought_flags(years, sbar, quantile=0.2):
    flags = np.zeros(len(years), dtype=bool)
    for year in np.unique(years):
        mask = years == year
        flags[mask] = sbar[mask] < np.quantile(sbar[mask], quantile)
    return flags


def write_samples(path, s, level):
    """samples.csv schema: keys, label, sbar, flag, then the channels in
    channel-major order; plus the manifest beside it."""
    sbar = np.array([float(np.ascontiguousarray(m).mean()) for m in s["sm"]])
    flags = drought_flags(s["year"], sbar)
    header = ["id", "year", "lat", "lon", "hist_avg_yield", "yield", "sbar", "drought_flag"]
    header += [f"w_{i + 1}" for i in range(4 * T)] + [f"v_{i + 1}" for i in range(4 * T)]
    header += [f"s_{i + 1}" for i in range(2 * T)]
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(header)
        for i in range(len(s["id"])):
            row = [s["id"][i], str(int(s["year"][i]))]
            row += [repr(float(x)) for x in (s["lat"][i], s["lon"][i], s["hist"][i], s["y"][i],
                                             sbar[i])]
            row.append(str(int(flags[i])))
            for block in (s["weather"][i], s["vis"][i], s["sm"][i]):
                row += [repr(float(x)) for x in block.T.reshape(-1)]
            w.writerow(row)
    write_config(path.rsplit(".", 1)[0] + "_manifest.json", manifest(level))
    return len(s["id"])


def write_score_inputs(data_dir, seed, scale=SCORE):
    """County samples at paper scale and a small field file for pretrain."""
    os.makedirs(data_dir, exist_ok=True)
    rng = np.random.default_rng([data_seed(seed), 4320])
    county = synth_samples(rng, scale["n_counties"], scale["first_year"], scale["last_year"],
                           scale["history_years"], "c")
    field = synth_samples(rng, scale["n_stations"], scale["last_year"] - scale["field_years"] + 1,
                          scale["last_year"], scale["history_years"], "st", with_vis=False)
    n = write_samples(os.path.join(data_dir, "county_samples.csv"), county, "county")
    write_samples(os.path.join(data_dir, "field_samples.csv"), field, "field")
    return n
