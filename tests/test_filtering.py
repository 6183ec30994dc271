import numpy as np
import pytest

from conftest import key_set, make_sample
from kgmlsm import filtering, ingest


def _dataset_from(weathers, sms, years=None):
    samples = []
    for i, (w, sm) in enumerate(zip(weathers, sms)):
        year = 2019 if years is None else years[i]
        s = make_sample(np.random.default_rng(i), sid=f"x{i:03d}", year=year)
        s.weather, s.sm = w, sm
        samples.append(s)
    return ingest.Dataset(level="county", samples=samples)


class TestFit:
    def test_exact_linear_relationship_recovered(self):
        rng = np.random.default_rng(0)
        weathers, sms = [], []
        for _ in range(8):
            w = rng.uniform(0, 30, (13, 4))
            sm = np.stack([0.01 * w[:, 3] + 0.002 * w[:, 1] + 0.1,
                           0.02 * w[:, 3] - 0.001 * w[:, 1] + 0.2], axis=1)
            weathers.append(w)
            sms.append(sm)
        model = filtering.fit_sm_regressor(_dataset_from(weathers, sms))
        np.testing.assert_allclose(model.weights[3, 0], 0.01, atol=1e-8)
        np.testing.assert_allclose(model.weights[1, 0], 0.002, atol=1e-8)
        np.testing.assert_allclose(model.weights[4, 0], 0.1, atol=1e-8)
        np.testing.assert_allclose(model.weights[[0, 2], 0], 0.0, atol=1e-8)
        assert model.diagnostics["residual_mse"] < 1e-16

    def test_unit_slope_line(self):
        # only the precipitation column varies; sm equals it exactly
        rng = np.random.default_rng(1)
        weathers, sms = [], []
        for _ in range(6):
            w = np.column_stack([rng.uniform(5, 25, 13), rng.uniform(15, 30, 13),
                                 rng.uniform(0, 10, 13), rng.uniform(0, 2, 13)])
            sm = np.stack([w[:, 3], w[:, 3]], axis=1)
            weathers.append(w)
            sms.append(sm)
        model = filtering.fit_sm_regressor(_dataset_from(weathers, sms))
        assert model.weights[3, 0] == pytest.approx(1.0, abs=1e-8)
        assert model.weights[4, 0] == pytest.approx(0.0, abs=1e-8)

    def test_constant_column_engages_ridge(self):
        rng = np.random.default_rng(2)
        weathers, sms = [], []
        for _ in range(6):
            w = rng.uniform(0, 30, (13, 4))
            w[:, 0] = 7.5  # constant radiation column collides with the intercept
            weathers.append(w)
            sms.append(rng.uniform(0.05, 0.55, (13, 2)))
        model = filtering.fit_sm_regressor(_dataset_from(weathers, sms))
        assert model.diagnostics["ridge_applied"]
        assert np.all(np.isfinite(model.weights))

    def test_empty_dataset_rejected(self):
        with pytest.raises(ValueError):
            filtering.fit_sm_regressor(ingest.Dataset(level="county"))

    def test_ols_residuals_orthogonal_to_design(self):
        rng = np.random.default_rng(3)
        weathers = [rng.uniform(0, 30, (13, 4)) for _ in range(10)]
        sms = [rng.uniform(0.05, 0.55, (13, 2)) for _ in range(10)]
        ds = _dataset_from(weathers, sms)
        model = filtering.fit_sm_regressor(ds)
        x = np.concatenate([s.weather for s in ds.samples])
        y = np.concatenate([s.sm for s in ds.samples])
        design = np.hstack([x, np.ones((x.shape[0], 1))])
        residuals = design @ model.weights - y
        np.testing.assert_allclose(design.T @ residuals, 0.0, atol=1e-8)


def _zero_model():
    return filtering.LinearSMModel(weights=np.zeros((5, 2)), diagnostics={})


class TestScore:
    def test_perfect_prediction_scores_zero(self):
        rng = np.random.default_rng(4)
        w = rng.uniform(0, 30, (13, 4))
        model = filtering.fit_sm_regressor(
            _dataset_from([w], [np.full((13, 2), 0.3)]))
        s = make_sample(rng)
        s.weather = w
        s.sm = model.predict(w)
        assert filtering.score_samples(model, s.weather, s.sm) == pytest.approx(0.0, abs=1e-20)

    def test_uniform_half_error_scores_quarter(self):
        rng = np.random.default_rng(5)
        s = make_sample(rng)
        s.sm = np.full((13, 2), 0.5)  # zero model predicts 0 everywhere
        assert filtering.score_samples(_zero_model(), s.weather, s.sm) == pytest.approx(0.25,
                                                                                   abs=1e-15)

    def test_score_invariant_under_consistent_permutation(self):
        rng = np.random.default_rng(6)
        s = make_sample(rng)
        perm = rng.permutation(13)
        s2 = make_sample(rng)
        s2.weather = s.weather[perm]
        s2.sm = s.sm[perm]
        model = _zero_model()
        assert filtering.score_samples(model, s.weather, s.sm) == pytest.approx(
            filtering.score_samples(model, s2.weather, s2.sm), abs=1e-15)


def test_batched_scores_equal_the_per_sample_scores():
    rng = np.random.default_rng(14)
    ds = _dataset_from([rng.uniform(0, 30, (13, 4)) for _ in range(12)],
                       [rng.uniform(0.05, 0.55, (13, 2)) for _ in range(12)])
    model = filtering.fit_sm_regressor(ds)
    a = ingest.stack_dataset(ds)
    batched = filtering.score_samples(model, a["w"], a["s"])
    one_by_one = [filtering.score_samples(model, s.weather, s.sm) for s in ds.samples]
    assert batched.tolist() == one_by_one


def _mse_dataset(mses):
    """Samples whose score under the zero model equals the given MSE.

    0.5 is built from a 0/1 pattern so the boundary value is exact in
    floating point (13/26 == 0.5); other values use sqrt and land within
    one ulp, which is fine away from the threshold.
    """
    rng = np.random.default_rng(7)
    samples = []
    for i, mse in enumerate(mses):
        s = make_sample(rng, sid=f"m{i}", year=2020)
        if mse == 0.5:
            sm = np.zeros(26)
            sm[:13] = 1.0
            s.sm = sm.reshape(13, 2)
        else:
            s.sm = np.full((13, 2), np.sqrt(mse))
        samples.append(s)
    return ingest.Dataset(level="field", samples=samples)


class TestScreen:
    def test_boundary_per_strict_above_rule(self):
        ds = _mse_dataset([0.4, 0.5, 0.6])
        kept, discarded, report = filtering.screen_field_samples(ds, _zero_model(), 0.5)
        assert [s.sid for s in kept.samples] == ["m0", "m1"]  # 0.5 itself is kept
        assert [s.sid for s in discarded.samples] == ["m2"]
        assert report["mse"][1] == 0.5
        np.testing.assert_allclose(report["mse"], [0.4, 0.5, 0.6], atol=1e-12)

    def test_partition_exhaustive_and_disjoint(self):
        rng = np.random.default_rng(8)
        ds = _mse_dataset(rng.uniform(0.0, 1.0, 30))
        kept, discarded, _ = filtering.screen_field_samples(ds, _zero_model(), 0.5)
        assert len(kept) + len(discarded) == len(ds)
        assert key_set(kept).isdisjoint(key_set(discarded))

    def test_idempotent(self):
        rng = np.random.default_rng(9)
        ds = _mse_dataset(rng.uniform(0.0, 1.0, 30))
        kept, _, _ = filtering.screen_field_samples(ds, _zero_model(), 0.5)
        kept2, discarded2, _ = filtering.screen_field_samples(kept, _zero_model(), 0.5)
        assert len(discarded2) == 0
        assert key_set(kept2) == key_set(kept)

    def test_threshold_monotone(self):
        rng = np.random.default_rng(10)
        ds = _mse_dataset(rng.uniform(0.0, 1.0, 40))
        sizes = []
        for thr in (0.8, 0.5, 0.3, 0.1):
            kept, _, _ = filtering.screen_field_samples(ds, _zero_model(), thr)
            sizes.append(len(kept))
        assert sizes == sorted(sizes, reverse=True)

    def test_report_written(self, tmp_path):
        ds = _mse_dataset([0.1, 0.9])
        _, _, report = filtering.screen_field_samples(ds, _zero_model(), 0.5)
        path = tmp_path / "filter_report.csv"
        filtering.write_filter_report(path, report)
        lines = path.read_text().splitlines()
        assert lines[0] == "id,year,mse,kept"
        assert len(lines) == 3
        assert lines[1].endswith(",1") and lines[2].endswith(",0")
