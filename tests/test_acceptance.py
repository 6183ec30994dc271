"""Acceptance checks for the shipped pipeline.

Each criterion prints one PASS/FAIL line (run with `pytest -s` to see
them live). The directional block (criterion 7) and the determinism
block (criterion 9) train the bundled demo configuration and dominate
the runtime.
"""

import hashlib
import json
import os
import time

import numpy as np
import pytest

from conftest import key_set
from gradcheck import check_param_gradients
from kgmlsm import artifacts, attnreport, cli, cropsim, filtering, ingest, losses, metrics, model, training
from kgmlsm.autodiff import gradients


def check(name, ok, detail=""):
    status = "PASS" if ok else "FAIL"
    line = f"[{status}] {name}"
    if detail:
        line += f" - {detail}"
    print(line)
    assert ok, line


def _sha(path):
    return hashlib.sha256(open(path, "rb").read()).hexdigest()


@pytest.fixture(scope="module")
def demo_cfg():
    return cli.load_config("demo")


@pytest.fixture(scope="module")
def demo_run_a(tmp_path_factory):
    run = tmp_path_factory.mktemp("accept") / "run_a"
    rc = cli.main(["all", "--config", "demo", "--run-dir", str(run)])
    assert rc == 0, "demo pipeline failed"
    return cli.RunPaths(str(run))


# ---------------------------------------------------------------------------
# 1. gradient oracle


def test_criterion_1_gradient_oracle():
    t0 = time.time()
    field = cropsim.build_field_dataset(2, [2020, 2021, 2022],
                                        {"normal": 0.6, "drought": 0.4}, seed=5)
    sub = ingest.Dataset(level="field", samples=field.samples[:3])
    cfg = model.ModelConfig()  # full default architecture
    stats = model.Normalization.from_arrays(ingest.stack_dataset(sub))
    batch = model.standardize(model.stack_dataset(sub), stats)
    lcfg = losses.LossConfig(lam=2.0)

    worst = 0.0
    for seed in range(3):
        params = model.init_params(cfg, seed)

        def build():
            y_hat, sm_hat, _ = model.forward_graph(batch, params, cfg)
            y_term = losses.yield_loss(batch["y_std"], y_hat, batch["sbar"], lcfg)
            return losses.total_loss(losses.sm_loss(batch["s"], sm_hat), y_term)

        analytic = gradients(build(), params)
        worst = max(worst, check_param_gradients(
            lambda: build().data, params, analytic, h=1e-5,
            max_coords_per_param=40, rng=np.random.default_rng(seed)))
    elapsed = time.time() - t0
    check("criterion 1: full-model gradients vs central differences",
          worst < 1e-4 and elapsed < 60.0,
          f"worst rel err {worst:.2e} over 3 seeds in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 2. loss algebra


def test_criterion_2_loss_algebra():
    cfg = losses.LossConfig(lam=2.0, epsilon=1.0)
    under = float(losses.yield_loss(np.array([10.0]), np.array([8.0]),
                                    np.array([0.0]), cfg).data)
    over = float(losses.yield_loss(np.array([8.0]), np.array([10.0]),
                                   np.array([0.0]), cfg).data)
    ratio = over / under
    d0 = float(losses.drought_weight(0.0, 1.0))
    d1 = float(losses.drought_weight(1.0, 1.0))
    ok = (abs(under - 4.0) < 1e-12 and abs(over - 12.0) < 1e-12
          and abs(ratio - 3.0) < 1e-12 and d0 == 1.0 and d1 == 0.5)
    check("criterion 2: loss algebra", ok,
          f"under {under}, over {over}, ratio {ratio}, d(0) {d0}, d(1) {d1}")


# ---------------------------------------------------------------------------
# 3. filtering contract


def _constructed_mse_dataset():
    rng = np.random.default_rng(0)
    records = []  # in ingest.SAMPLE_DTYPE field order
    patterns = {0.4: np.full(26, np.sqrt(0.4)),
                0.5: np.concatenate([np.ones(13), np.zeros(13)]),  # exactly 13/26
                0.6: np.full(26, np.sqrt(0.6))}
    for i, mse in enumerate((0.4, 0.5, 0.6)):
        weather = rng.uniform(0, 30, (13, 4))
        records.append((f"f{i}", 2020, 42.0, -93.0, 9.0, 8.0, weather, np.zeros((13, 4)),
                        patterns[mse].reshape(13, 2), False))
    return ingest.Dataset(level="field", samples=records)


def test_criterion_3_filtering_contract():
    ds = _constructed_mse_dataset()
    zero_model = filtering.LinearSMModel(weights=np.zeros((5, 2)), diagnostics={})
    kept, discarded, report = filtering.screen_field_samples(ds, zero_model, 0.5)
    boundary_ok = ([s.sid for s in discarded.samples] == ["f2"]
                   and [s.sid for s in kept.samples] == ["f0", "f1"]
                   and report["mse"][1] == 0.5)
    kept2, discarded2, _ = filtering.screen_field_samples(kept, zero_model, 0.5)
    idempotent = len(discarded2) == 0 and key_set(kept2) == key_set(kept)
    sizes = [len(filtering.screen_field_samples(ds, zero_model, t)[0])
             for t in (0.7, 0.5, 0.45, 0.3)]
    monotone = sizes == sorted(sizes, reverse=True)
    check("criterion 3: filtering contract", boundary_ok and idempotent and monotone,
          f"mses {np.round(report['mse'], 12).tolist()}, kept sizes by threshold {sizes}")


# ---------------------------------------------------------------------------
# 4. metric identities


def test_criterion_4_metric_identities():
    rng = np.random.default_rng(1)
    worst = 0.0
    for _ in range(100):
        n = int(rng.integers(2, 50))
        y = rng.normal(size=n)
        y_hat = rng.normal(size=n)
        brute_rmse = (sum((float(a) - float(b)) ** 2 for a, b in zip(y, y_hat)) / n) ** 0.5
        sst = sum((float(a) - float(np.mean(y))) ** 2 for a in y)
        worst = max(worst, abs(metrics.rmse(y, y_hat) - brute_rmse))
        if sst > 0:
            brute_r2 = 1.0 - sum((float(a) - float(b)) ** 2 for a, b in zip(y, y_hat)) / sst
            worst = max(worst, abs(metrics.r2(y, y_hat) - brute_r2))
    y = np.array([1.0, 2.0, 3.0, 4.0])
    perfect = metrics.r2(y, y.copy())
    mean_pred = metrics.r2(y, np.full(4, y.mean()))
    check("criterion 4: metric identities", worst < 1e-12
          and perfect == 1.0 and abs(mean_pred) < 1e-15,
          f"worst brute-force gap {worst:.2e}, r2(perfect)={perfect}, r2(mean)={mean_pred}")


# ---------------------------------------------------------------------------
# 5. vegetation-index formulas


def test_criterion_5_vi_formulas():
    gcvi = ingest.compute_vi(red=0.2, nir=0.4, blue=0.05, green=0.2, swir=0.1)[0][0]
    ndvi = ingest.compute_vi(red=0.3, nir=0.3, blue=0.05, green=0.2, swir=0.1)[0][3]
    evi = ingest.compute_vi(red=0.2, nir=0.5, blue=0.05, green=0.2, swir=0.1)[0][1]
    ndwi = ingest.compute_vi(red=0.2, nir=0.3, blue=0.05, green=0.2, swir=0.1)[0][2]
    ok = (abs(gcvi - 1.0) < 1e-6 and ndvi == 0.0
          and abs(evi - 0.322581) < 1e-6 and abs(ndwi - 0.5) < 1e-6)
    check("criterion 5: vegetation-index formulas", ok,
          f"GCVI {gcvi}, NDVI {ndvi}, EVI {evi:.6f}, NDWI {ndwi}")


# ---------------------------------------------------------------------------
# 6. overfit capability


def test_criterion_6_overfit_capability():
    t0 = time.time()
    field = cropsim.build_field_dataset(4, list(range(2016, 2024)),
                                        {"normal": 0.7, "drought": 0.3}, seed=42)
    assert len(field) == 32
    cfg = training.StageConfig(batch_size=64, lr=0.003, max_epochs=500,
                               scheduler_patience=5, rmse_stop=0.1)
    bundle, rows = training.pretrain(field, cfg, losses.LossConfig(),
                                     training.get_variant("kgml_sm"), None, seed=0)
    elapsed = time.time() - t0
    final = rows[-1]["rmse"]
    check("criterion 6: 32-sample overfit capability",
          final < 0.1 and len(rows) <= 500 and elapsed < 300.0,
          f"train RMSE {final:.4f} after {len(rows)} epochs in {elapsed:.1f}s")


# ---------------------------------------------------------------------------
# 7. directional ablations on the demo config


def test_criterion_7_directional_ablation(demo_cfg, demo_run_a):
    t0 = time.time()
    paths = demo_run_a
    county = ingest.read_samples_csv(paths.county_samples)
    field_all = ingest.read_samples_csv(paths.field_samples)
    field_kept = ingest.read_samples_csv(paths.field_filtered)
    pre_cfg, fine_cfg = cli.stage_configs(demo_cfg)
    spec = cli.split_spec(demo_cfg)
    seeds = [int(s) for s in demo_cfg["seeds"]]
    lam2 = losses.LossConfig(lam=2.0, epsilon=1.0)
    lam0 = losses.LossConfig(lam=0.0, epsilon=1.0)

    # the filtered lambda=2 arm is exactly the demo run itself
    with open(paths.metrics, encoding="utf-8") as f:
        run_a = json.load(f)
    kgml_lam2_rmse = run_a["per_seed"]["rmse"]
    kgml_lam2_drought = run_a["per_seed"]["mean_signed_error_drought"]

    att = training.run_experiment(None, county, "att", seeds, spec, pre_cfg, fine_cfg, lam2)
    att_sim = training.run_experiment(field_kept, county, "att_sim", seeds, spec,
                                      pre_cfg, fine_cfg, lam2)
    kgml_lam0 = training.run_experiment(field_kept, county, "kgml_sm", seeds, spec,
                                        pre_cfg, fine_cfg, lam0)
    unfiltered = training.run_experiment(field_all, county, "kgml_sm", seeds, spec,
                                         pre_cfg, fine_cfg, lam2)

    a_ok = att_sim.summary["rmse_median"] <= att.summary["rmse_median"]
    b_ok = (np.median(kgml_lam2_drought)
            < np.median(kgml_lam0.per_seed["mean_signed_error_drought"]))
    c_ok = np.median(kgml_lam2_rmse) <= unfiltered.summary["rmse_median"]
    elapsed = time.time() - t0
    check("criterion 7: directional ablations (demo config, 5 seeds)",
          a_ok and b_ok and c_ok and elapsed < 1800.0,
          f"(a) pretrain {att_sim.summary['rmse_median']:.3f} <= {att.summary['rmse_median']:.3f}: {a_ok}; "
          f"(b) drought signed err lam2 {np.median(kgml_lam2_drought):.3f} < "
          f"lam0 {np.median(kgml_lam0.per_seed['mean_signed_error_drought']):.3f}: {b_ok}; "
          f"(c) filtered {np.median(kgml_lam2_rmse):.3f} <= "
          f"unfiltered {unfiltered.summary['rmse_median']:.3f}: {c_ok}; {elapsed:.0f}s")


# ---------------------------------------------------------------------------
# 8. attention invariants


def test_criterion_8_attention_invariants(demo_run_a):
    paths = demo_run_a
    bundle = model.load_checkpoint(paths.checkpoint_stem("finetune", 0))
    county = ingest.read_samples_csv(paths.county_samples)
    extraction = attnreport.extract(bundle, county)

    sums_ok = bool(np.abs(extraction["alpha"].sum(axis=1) - 1.0).max() < 1e-9)

    sm_att = attnreport.sm_attention_scalar(extraction)
    normalized = attnreport.normalize_by_year(extraction["years"], sm_att)
    max_ok = all(normalized[extraction["years"] == y].max() == 1.0
                 for y in np.unique(extraction["years"]))

    # category means recomputed from the raw CSV alone
    cols = artifacts.read_csv(paths.attn_raw, attnreport.RAW_KINDS)
    by_key = {}
    for sid, year, channel, t, a in zip(*(cols[name].tolist() for name in cols)):
        by_key.setdefault((sid, year), {})[(channel, t)] = a
    acc, n_by_year = {}, {}
    for (sid, year), toks in by_key.items():
        n_by_year[year] = n_by_year.get(year, 0) + 1
        alpha_row = np.array([toks[label] for label in extraction["labels"]])
        for key, v in attnreport.category_average(alpha_row, extraction["labels"]).items():
            acc[(year,) + key] = acc.get((year,) + key, 0.0) + v
    reference = attnreport.category_report(extraction)
    cat_gap = max(abs(acc[(r["year"], r["category"], r["timestep"])] / n_by_year[r["year"]]
                      - r["alpha_mean"]) for r in reference)
    check("criterion 8: attention invariants",
          sums_ok and max_ok and cat_gap < 1e-12,
          f"alpha sums ok {sums_ok}, per-year max==1 {max_ok}, csv recompute gap {cat_gap:.1e}")


def test_readme_2023_row_is_the_demo_run(demo_run_a):
    """README's reproduction table quotes the 2023 RMSEs of `kgmlsm all
    --config demo`: the run criteria 7-9 share, so nothing more is trained."""
    with open(os.path.join(os.path.dirname(__file__), os.pardir, "README.md"),
              encoding="utf-8") as f:
        lines = f.read().splitlines()

    def cells(prefix):
        row = next(line for line in lines if line.startswith(prefix))
        return [cell.strip().strip("`") for cell in row.strip("|").split("|")]

    quoted = dict(zip(cells("| target year |"), cells("| 2023 ")))
    with open(demo_run_a.metrics, encoding="utf-8") as f:
        run = json.load(f)
    got = {"kgml_sm": run["rmse_mean"], **{kind: run["baselines"][kind]["rmse"]
                                           for kind in ("mlp", "ridge", "lr")}}
    got = {name: f"{value:.3f}" for name, value in got.items()}
    check("README 2023 row matches the demo run", {name: quoted[name] for name in got} == got,
          f"README {quoted}, run {got}")


# ---------------------------------------------------------------------------
# 9. determinism of the full pipeline


def test_criterion_9_byte_identical_reruns(demo_run_a, tmp_path_factory, demo_cfg):
    run_b_dir = tmp_path_factory.mktemp("accept_b") / "run_b"
    rc = cli.main(["all", "--config", "demo", "--run-dir", str(run_b_dir)])
    assert rc == 0
    paths_b = cli.RunPaths(str(run_b_dir))

    same = _sha(demo_run_a.metrics) == _sha(paths_b.metrics)
    n_files = 1
    for stage in ("pretrain", "finetune"):
        for seed in demo_cfg["seeds"]:
            for ext in (".json", ".bin"):
                fa = demo_run_a.checkpoint_stem(stage, seed) + ext
                fb = paths_b.checkpoint_stem(stage, seed) + ext
                same = same and (_sha(fa) == _sha(fb))
                n_files += 2
    check("criterion 9: byte-identical metrics and checkpoints across reruns",
          same, f"{n_files} files compared")
