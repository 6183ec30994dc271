import os
import subprocess
import sys

import numpy as np
import pytest

from conftest import make_dataset
from kgmlsm import ingest, metrics
from kgmlsm.errors import ShapeError
from kgmlsm.metrics import (_lstsq_normal_equations, baseline_fit_predict, error_report,
                            r2, rmse, sample_features)


class TestRmse:
    def test_perfect(self):
        y = np.array([1.0, 2.0, 3.0])
        assert rmse(y, y.copy()) == 0.0

    def test_hand_value(self):
        assert rmse(np.array([0.0, 0.0]), np.array([3.0, 4.0])) \
            == pytest.approx(np.sqrt(12.5), abs=1e-12)

    def test_symmetric(self):
        rng = np.random.default_rng(0)
        a, b = rng.normal(size=10), rng.normal(size=10)
        assert rmse(a, b) == pytest.approx(rmse(b, a), abs=1e-15)

    def test_empty_rejected(self):
        with pytest.raises(ValueError):
            rmse(np.array([]), np.array([]))

    def test_matches_brute_force_on_random_vectors(self):
        rng = np.random.default_rng(1)
        for _ in range(100):
            n = int(rng.integers(2, 40))
            y = rng.normal(size=n)
            y_hat = rng.normal(size=n)
            brute = (sum((float(a) - float(b)) ** 2 for a, b in zip(y, y_hat)) / n) ** 0.5
            assert abs(rmse(y, y_hat) - brute) < 1e-12


class TestR2:
    def test_perfect(self):
        y = np.array([1.0, 2.0, 3.0])
        assert r2(y, y.copy()) == pytest.approx(1.0)

    def test_mean_prediction_scores_zero(self):
        y = np.array([1.0, 2.0, 3.0, 4.0])
        assert r2(y, np.full(4, y.mean())) == pytest.approx(0.0, abs=1e-15)

    def test_hand_value(self):
        assert r2(np.array([1.0, 2.0, 3.0]), np.array([1.0, 2.0, 4.0])) \
            == pytest.approx(0.5, abs=1e-12)

    def test_zero_variance_rejected(self):
        with pytest.raises(ValueError):
            r2(np.array([2.0, 2.0]), np.array([1.0, 2.0]))

    def test_identity_with_rmse(self):
        rng = np.random.default_rng(2)
        for _ in range(100):
            n = int(rng.integers(3, 30))
            y = rng.normal(size=n)
            y_hat = rng.normal(size=n)
            sst = ((y - y.mean()) ** 2).sum()
            expected = 1.0 - (rmse(y, y_hat) ** 2 * n) / sst
            assert abs(r2(y, y_hat) - expected) < 1e-12


class TestBaselines:
    def _linear_dataset(self, rng, n=220, years=(2019, 2020, 2021)):
        # n must exceed the 134 flattened features for a determined system
        ds = make_dataset(rng, n=n, years=years)
        x = sample_features(ingest.stack_dataset(ds))
        w = rng.normal(scale=0.02, size=x.shape[1])
        for i, s in enumerate(ds.samples):
            s.yield_label = float(x[i] @ w + 3.0)
        return ds

    def test_lr_recovers_exact_linear_data(self):
        rng = np.random.default_rng(3)
        ds = self._linear_dataset(rng)
        pred = baseline_fit_predict("lr", ds, ds)
        y = np.array([s.yield_label for s in ds.samples])
        assert rmse(y, pred) < 1e-8

    def test_ridge_converges_to_lr(self, monkeypatch):
        rng = np.random.default_rng(4)
        train = self._linear_dataset(rng)
        test = self._linear_dataset(rng, n=12)
        lr_pred = baseline_fit_predict("lr", train, test)
        monkeypatch.setattr(metrics, "RIDGE_ALPHA", 1e-10)
        ridge_pred = baseline_fit_predict("ridge", train, test)
        np.testing.assert_allclose(ridge_pred, lr_pred, atol=1e-6)

    def test_ridge_shrinks_coefficients(self):
        rng = np.random.default_rng(5)
        design = np.hstack([rng.normal(size=(30, 6)), np.ones((30, 1))])
        y = rng.normal(size=30)
        w_lr = _lstsq_normal_equations(design, y, ridge_alpha=0.0)
        w_ridge = _lstsq_normal_equations(design, y, ridge_alpha=1.0)
        assert np.linalg.norm(w_ridge[:-1]) <= np.linalg.norm(w_lr[:-1])

    def test_mlp_needs_validation_split(self):
        rng = np.random.default_rng(6)
        ds = self._linear_dataset(rng, n=20)
        with pytest.raises(ValueError):
            baseline_fit_predict("mlp", ds, ds)

    def test_mlp_learns_something(self):
        # one linear map, sliced into train/val/test
        rng = np.random.default_rng(7)
        full = self._linear_dataset(rng, n=220)
        mk = lambda samples: type(full)(level=full.level, samples=samples)
        train, val, test = (mk(full.samples[:160]), mk(full.samples[160:190]),
                            mk(full.samples[190:]))
        pred = baseline_fit_predict("mlp", train, test, val=val, seed=0)
        y = np.array([s.yield_label for s in test.samples])
        y_train = np.array([s.yield_label for s in train.samples])
        assert rmse(y, pred) < rmse(y, np.full(len(y), y_train.mean()))

    def test_unknown_kind_rejected(self):
        rng = np.random.default_rng(8)
        ds = self._linear_dataset(rng, n=10)
        for kind in ("forest", "LR"):
            with pytest.raises(ValueError, match="unknown baseline kind"):
                baseline_fit_predict(kind, ds, ds)


# At 400 samples x 135 columns, BLAS splits the Gram's sums and LAPACK's
# blocked solve its updates by thread count; the micro pretrain runs the
# model's own GEMMs.
THREAD_PROBE = """
import hashlib
import numpy as np
from conftest import make_dataset
from kgmlsm import cropsim, losses, metrics, training
rng = np.random.default_rng(0)
train, test = make_dataset(rng, n=400), make_dataset(rng, n=20)
for kind in ("lr", "ridge"):
    print(kind, hashlib.sha256(metrics.baseline_fit_predict(kind, train, test)).hexdigest())
field = cropsim.build_field_dataset(4, [2018, 2019, 2020, 2021], {"normal": 0.7, "drought": 0.3},
                                    seed=11)
bundle, _ = training.pretrain(field, training.StageConfig(batch_size=8, max_epochs=2),
                              losses.LossConfig(), training.get_variant("kgml_sm"), None, 0)
print("pretrain", hashlib.sha256(bundle.params.vector).hexdigest())
"""


@pytest.mark.skipif((os.cpu_count() or 1) < 2,
                    reason="one CPU: BLAS has no second thread to split the work with")
def test_fits_do_not_depend_on_the_blas_thread_count():
    here = os.path.dirname(os.path.abspath(__file__))
    path = os.pathsep.join([os.path.join(here, os.pardir, "src"), here])
    outputs = [subprocess.run([sys.executable, "-c", THREAD_PROBE], check=True, capture_output=True,
                              text=True, env=dict(os.environ, PYTHONPATH=path,
                                                  OPENBLAS_NUM_THREADS=threads)).stdout
               for threads in ("1", "2")]
    assert outputs[0].count("\n") == 3 and outputs[0] == outputs[1]

class TestErrorReport:
    def test_zero_errors(self):
        rng = np.random.default_rng(9)
        ds = make_dataset(rng, n=6)
        y = np.array([s.yield_label for s in ds.samples])
        rows, groups = error_report(ds, y)
        assert np.all(rows["signed_error"] == 0.0)
        assert groups["all"]["mean_signed_error"] == 0.0

    def test_plus_minus_one(self):
        rng = np.random.default_rng(10)
        ds = make_dataset(rng, n=2, years=(2020,))
        y = np.array([s.yield_label for s in ds.samples])
        rows, groups = error_report(ds, y + np.array([1.0, -1.0]))
        assert groups["all"]["mean_signed_error"] == pytest.approx(0.0, abs=1e-12)
        assert groups["all"]["mean_abs_error"] == pytest.approx(1.0, abs=1e-12)

    def test_drought_group_uses_only_flagged_samples(self):
        rng = np.random.default_rng(11)
        ds = make_dataset(rng, n=4, years=(2020,))
        for i, s in enumerate(ds.samples):
            s.drought_flag = i < 2
        y = np.array([s.yield_label for s in ds.samples])
        rows, groups = error_report(ds, y + np.array([2.0, 2.0, -1.0, -1.0]))
        assert groups["drought"]["mean_signed_error"] == pytest.approx(2.0)
        assert groups["non_drought"]["mean_signed_error"] == pytest.approx(-1.0)
        assert groups["drought"]["n"] == 2

    def test_paired_sm_errors_included(self):
        rng = np.random.default_rng(12)
        ds = make_dataset(rng, n=3, years=(2020,))
        y = np.array([s.yield_label for s in ds.samples])
        sm_hat = np.stack([s.sm for s in ds.samples]) + 0.1
        rows, _ = error_report(ds, y, sm_hat=sm_hat)
        np.testing.assert_allclose(rows["sm_abs_error"], 0.1, atol=1e-12)
        # the batched mean is the per-sample mean, bit for bit
        assert rows["sm_abs_error"].tolist() == [float(np.abs(sm_hat[i] - s.sm).mean())
                                                 for i, s in enumerate(ds.samples)]

    def test_misalignment_rejected(self):
        rng = np.random.default_rng(13)
        ds = make_dataset(rng, n=3)
        with pytest.raises(ShapeError):
            error_report(ds, np.zeros(2))

    def test_csv_written(self, tmp_path):
        rng = np.random.default_rng(14)
        ds = make_dataset(rng, n=3, years=(2020,))
        y = np.array([s.yield_label for s in ds.samples])
        rows, _ = error_report(ds, y)
        path = tmp_path / "errors.csv"
        metrics.write_errors_csv(path, [rows])
        lines = path.read_text().splitlines()
        assert lines[0].startswith("id,year,drought_flag")
        assert len(lines) == 4
