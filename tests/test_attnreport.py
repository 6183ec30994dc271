import hashlib
import tracemalloc

import numpy as np
import pytest

from kgmlsm import artifacts, attnreport, ingest, model
from kgmlsm.attnreport import (category_average, category_report, drought_distribution_stats,
                               normalize_by_year, sm_attention_scalar)


@pytest.fixture(scope="module")
def extraction(tiny_county):
    cfg = model.ModelConfig()
    params = model.init_params(cfg, 21)
    stats = model.Normalization.from_arrays(ingest.stack_dataset(tiny_county))
    bundle = model.ModelBundle(config=cfg, params=params, stats=stats)
    return attnreport.extract(bundle, tiny_county), bundle, tiny_county


class TestExtract:
    def test_alpha_rows_sum_to_one(self, extraction):
        ext, _, _ = extraction
        np.testing.assert_allclose(ext["alpha"].sum(axis=1), 1.0, atol=1e-9)

    def test_read_only(self, extraction):
        ext, bundle, ds = extraction
        before = hashlib.sha256(bundle.params.vector.tobytes()).hexdigest()
        attnreport.extract(bundle, ds)
        after = hashlib.sha256(bundle.params.vector.tobytes()).hexdigest()
        assert before == after

    def test_sm_tokens_only_in_sm_variants(self, tiny_county):
        cfg = model.ModelConfig(use_sm_tokens=False, use_w2s=False)
        stats = model.Normalization.from_arrays(ingest.stack_dataset(tiny_county))
        bundle = model.ModelBundle(config=cfg, params=model.init_params(cfg, 0), stats=stats)
        ext = attnreport.extract(bundle, tiny_county)
        channels = {ch for ch, _ in ext["labels"]}
        assert not channels & set(ingest.SM_CHANNELS)
        with pytest.raises(ValueError):
            sm_attention_scalar(ext)


class TestNormalizeByYear:
    def test_max_maps_to_exactly_one(self):
        years = np.array([2019, 2019, 2020, 2020])
        values = np.array([0.2, 0.4, 0.1, 0.5])
        out = normalize_by_year(years, values)
        np.testing.assert_allclose(out, [0.5, 1.0, 0.2, 1.0])
        assert out[1] == 1.0 and out[3] == 1.0

    def test_idempotent(self):
        rng = np.random.default_rng(0)
        years = rng.choice([2019, 2020, 2021], 30)
        values = rng.uniform(0.01, 1.0, 30)
        once = normalize_by_year(years, values)
        twice = normalize_by_year(years, once)
        np.testing.assert_array_equal(once, twice)

    def test_cross_year_ratios_not_preserved(self):
        years = np.array([2019, 2019, 2020, 2020])
        values = np.array([1.0, 2.0, 10.0, 20.0])
        out = normalize_by_year(years, values)
        # within-year structure identical, cross-year magnitudes collapsed
        np.testing.assert_allclose(out[:2], out[2:])

    def test_all_zero_year_rejected(self):
        with pytest.raises(ValueError):
            normalize_by_year(np.array([2019, 2019]), np.array([0.0, 0.0]))


class TestCategoryAverage:
    def test_constant_category(self):
        labels = [("radn", 0), ("tmax", 0), ("tmin", 0), ("ppt", 0)]
        out = category_average(np.array([0.3, 0.3, 0.3, 0.3]), labels)
        assert out[("Weather", 0)] == pytest.approx(0.3)

    def test_weather_mean_over_four_channels(self):
        labels = [("radn", 2), ("tmax", 2), ("tmin", 2), ("ppt", 2)]
        out = category_average(np.array([0.1, 0.2, 0.3, 0.4]), labels)
        assert out[("Weather", 2)] == pytest.approx(0.25, abs=1e-15)

    def test_mass_identity_per_timestep(self, extraction):
        ext, _, _ = extraction
        labels = ext["labels"]
        sizes = {"Weather": 4, "VIs": 4, "SM": 2}
        row = ext["alpha"][0]
        cats = category_average(row, labels)
        for t in range(13):
            total = sum(cats[(c, t)] * sizes[c] for c in sizes)
            series_mass = sum(a for a, (ch, tt) in zip(row, labels)
                              if tt == t and ch in ingest.CHANNEL_CATEGORY)
            assert total == pytest.approx(series_mass, abs=1e-12)

    def test_unassigned_channel_rejected(self):
        with pytest.raises(ValueError):
            category_average(np.array([0.5]), [("mystery", 0)])

    def test_commutes_with_sample_averaging(self, extraction):
        ext, _, _ = extraction
        rows = ext["alpha"][:8]
        labels = ext["labels"]
        per_sample = [category_average(r, labels) for r in rows]
        keys = per_sample[0].keys()
        mean_of_avgs = {k: np.mean([p[k] for p in per_sample]) for k in keys}
        avg_of_mean = category_average(rows.mean(axis=0), labels)
        for k in keys:
            assert mean_of_avgs[k] == pytest.approx(avg_of_mean[k], abs=1e-12)


class TestDroughtStats:
    def test_hand_quartiles(self):
        values = np.array([1.0, 2.0, 3.0, 4.0, 5.0, 9.0])
        flags = np.array([True] * 5 + [False])
        out = drought_distribution_stats(values, flags)
        assert out["drought"]["median"] == pytest.approx(3.0)
        assert out["drought"]["q1"] == pytest.approx(2.0)
        assert out["drought"]["q3"] == pytest.approx(4.0)

    def test_degenerate_box(self):
        values = np.array([0.4] * 6)
        flags = np.array([True, True, True, False, False, False])
        out = drought_distribution_stats(values, flags)
        for cls in ("drought", "non_drought"):
            assert out[cls]["q3"] - out[cls]["q1"] == 0.0
            assert out[cls]["outliers"] == 0

    def test_class_respects_flags(self):
        values = np.array([1.0, 1.0, 5.0, 5.0])
        flags = np.array([True, True, False, False])
        out = drought_distribution_stats(values, flags)
        assert out["drought"]["median"] == 1.0
        assert out["non_drought"]["median"] == 5.0

    def test_outlier_counting(self):
        values = np.array([1.0, 1.1, 1.2, 1.3, 50.0, 2.0])
        flags = np.array([True] * 5 + [False])
        out = drought_distribution_stats(values, flags)
        assert out["drought"]["outliers"] == 1

    def test_empty_class_rejected(self):
        with pytest.raises(ValueError):
            drought_distribution_stats(np.array([1.0]), np.array([True]))


class TestReportRoundTrip:
    def test_category_report_recomputable_from_raw_csv(self, extraction, tmp_path):
        ext, _, _ = extraction
        raw_path = tmp_path / "attention_raw.csv"
        attnreport.write_raw_csv(raw_path, ext)
        cols = artifacts.read_csv(raw_path, attnreport.RAW_KINDS)

        # rebuild the per-sample matrix from the csv alone
        by_key = {}
        for sid, year, channel, t, a in zip(*(cols[name].tolist() for name in cols)):
            by_key.setdefault((sid, year), {})[(channel, t)] = a
        reference = category_report(ext)
        acc = {}
        n_by_year = {}
        for (sid, year), toks in by_key.items():
            n_by_year[year] = n_by_year.get(year, 0) + 1
            alpha_row = [toks[label] for label in ext["labels"]]
            for (cat, t), v in category_average(np.array(alpha_row), ext["labels"]).items():
                acc[(year, cat, t)] = acc.get((year, cat, t), 0.0) + v
        for ref in reference:
            key = (ref["year"], ref["category"], ref["timestep"])
            assert acc[key] / n_by_year[ref["year"]] == pytest.approx(
                ref["alpha_mean"], abs=1e-12)

    def test_raw_csv_peak_does_not_grow_with_the_samples(self, tmp_path):
        """write_raw_csv builds and writes model.INFER_ROWS samples' rows at
        a time: over 16 blocks it peaks as over 2, and writes the bytes that
        whole columns give. Whole columns peaked 4.2x as high over 16."""
        labels = model.token_labels(model.ModelConfig())[::16]
        peaks = []
        for n in (2 * model.INFER_ROWS, 16 * model.INFER_ROWS):
            rng = np.random.default_rng(n)
            ext = {"labels": labels, "alpha": rng.dirichlet(np.ones(len(labels)), size=n),
                   "ids": np.array([f"c{i % 300:03d}" for i in range(n)]),
                   "years": 2000 + np.arange(n) % 20}
            tracemalloc.start()
            try:
                attnreport.write_raw_csv(tmp_path / "raw.csv", ext)
                peaks.append(tracemalloc.get_traced_memory()[1])
            finally:
                tracemalloc.stop()
        artifacts.write_csv(tmp_path / "whole.csv", attnreport.RAW_KINDS, [
            ext["ids"].repeat(len(labels)), ext["years"].repeat(len(labels)),
            *(np.tile([label[i] for label in labels], n) for i in (0, 1)), ext["alpha"].ravel()])
        assert (tmp_path / "raw.csv").read_bytes() == (tmp_path / "whole.csv").read_bytes()
        assert peaks[1] < 1.25 * peaks[0]

    def test_svg_emitted(self, extraction, tmp_path):
        ext, _, _ = extraction
        rows = category_report(ext)
        path = tmp_path / "chart.svg"
        attnreport.render_category_svg(path, rows)
        content = path.read_text()
        assert content.startswith("<svg") and "polyline" in content


def _category_report_by_sample(alpha, labels, years):
    """Reference for category_report: each sample's category means by a
    running sum over its tokens, then a running sum of those per year."""
    acc, n_by_year = {}, {}
    for row, year in zip(alpha, years.tolist()):
        n_by_year[year] = n_by_year.get(year, 0) + 1
        sums, counts = {}, {}
        for a, (channel, t) in zip(row, labels):
            if t >= 0:
                key = (ingest.CHANNEL_CATEGORY[channel], t)
                sums[key] = sums.get(key, 0.0) + float(a)
                counts[key] = counts.get(key, 0) + 1
        for (cat, t), total in sums.items():
            acc[(year, cat, t)] = acc.get((year, cat, t), 0.0) + total / counts[(cat, t)]
    return [{"year": year, "category": cat, "timestep": t,
             "alpha_mean": acc[year, cat, t] / n_by_year[year]} for year, cat, t in sorted(acc)]


def test_category_report_matches_per_sample_sums_bit_for_bit():
    labels = model.token_labels(model.ModelConfig())
    rng = np.random.default_rng(7)
    years = rng.permutation(np.repeat([2019, 2020, 2021], 100))  # years interleaved
    alpha = rng.dirichlet(np.ones(len(labels)), size=len(years))
    extraction = {"alpha": alpha, "labels": labels, "years": years}
    assert category_report(extraction) == _category_report_by_sample(alpha, labels, years)
