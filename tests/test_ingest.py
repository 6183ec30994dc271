import tracemalloc

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from conftest import datasets_equal, make_dataset, make_sample
from kgmlsm import ingest
from kgmlsm.errors import MissingCoverage, SchemaError, ShapeError


class TestVegetationIndices:
    def test_worked_values(self):
        values, valid = ingest.compute_vi(red=0.2, nir=0.4, blue=0.05, green=0.2, swir=0.1)
        assert valid.all()
        gcvi, evi, ndwi, ndvi = values
        assert gcvi == pytest.approx(0.4 / 0.2 - 1.0, abs=1e-12)  # 1.0
        assert gcvi == pytest.approx(1.0, abs=1e-9)
        assert ndwi == pytest.approx((0.4 - 0.1) / (0.4 + 0.1), abs=1e-12)

    def test_evi_worked_value(self):
        values, _ = ingest.compute_vi(red=0.2, nir=0.5, blue=0.05, green=0.2, swir=0.1)
        expected = 2.5 * (0.5 - 0.2) / (0.5 + 6 * 0.2 - 7.5 * 0.05 + 1.0)
        assert values[1] == pytest.approx(expected, abs=1e-12)
        assert values[1] == pytest.approx(0.322581, abs=1e-6)

    def test_ndvi_zero_when_nir_equals_red(self):
        values, _ = ingest.compute_vi(red=0.3, nir=0.3, blue=0.05, green=0.2, swir=0.1)
        assert values[3] == 0.0

    def test_ndwi_worked_value(self):
        values, _ = ingest.compute_vi(red=0.2, nir=0.3, blue=0.05, green=0.2, swir=0.1)
        assert values[2] == pytest.approx(0.5, abs=1e-12)

    def test_zero_denominator_flags_invalid(self):
        values, valid = ingest.compute_vi(red=0.0, nir=0.0, blue=0.0, green=0.0, swir=0.0)
        assert not valid[0]  # GCVI: green == 0
        assert not valid[2]  # NDWI: nir + swir == 0
        assert not valid[3]  # NDVI: nir + red == 0

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.001, 1.0), st.floats(0.001, 1.0), st.floats(0.0, 1.0),
           st.floats(0.001, 1.0), st.floats(0.001, 1.0))
    def test_normalized_indices_bounded(self, red, nir, blue, green, swir):
        values, valid = ingest.compute_vi(red=red, nir=nir, blue=blue, green=green, swir=swir)
        if valid[3]:
            assert -1.0 <= values[3] <= 1.0
        if valid[2]:
            assert -1.0 <= values[2] <= 1.0
        if valid[0]:
            assert values[0] >= -1.0


def _pixels(county_ids, dates, ndvi_pairs, masks):
    """Build a PixelTable whose NDVI takes chosen values: ndvi v -> nir = r(1+v)/(1-v)."""
    red = np.full(len(county_ids), 0.2)
    nir = np.array([0.2 * (1 + v) / (1 - v) for v in ndvi_pairs])
    fill = np.full(len(county_ids), 0.1)
    return ingest.PixelTable(county_id=np.array(county_ids), date=np.array(dates),
                             red=red, nir=nir, blue=fill, green=fill, swir=fill,
                             corn_mask=np.array(masks, dtype=bool))


def spatial_average(pixels, county_id, date):
    """The reference for ingest.spatial_average_all, one county-date per call:
    the mean of each VI over the corn-masked pixels whose index is valid.

    Raises MissingCoverage when no masked pixel exists (or a channel has
    no valid masked pixel) for the county-date.
    """
    sel = (pixels.county_id == county_id) & (pixels.date == date) & pixels.corn_mask
    if not sel.any():
        raise MissingCoverage(county_id, date)
    values, valid = ingest.compute_vi(pixels.red[sel], pixels.nir[sel], pixels.blue[sel],
                                      pixels.green[sel], pixels.swir[sel])
    counts = valid.sum(axis=0)
    if (counts == 0).any():
        raise MissingCoverage(county_id, date)
    return (values * valid).sum(axis=0) / counts


def _random_pixels(rng):
    """Shuffled county-dates of 1 to 12 rows each, some unmasked and some with
    a zero GCVI or NDWI denominator; every county-date's first row is masked
    and valid, so each has coverage."""
    rows = []
    for county in ("a", "b", "c10", "c1"):
        for date in ("2020-06-01", "2020-06-02", "2021-06-01"):
            for i in range(int(rng.integers(1, 13))):
                bands = [rng.uniform(0.05, 0.4), rng.uniform(0.1, 0.8), rng.uniform(0.02, 0.2),
                         rng.uniform(0.05, 0.3), rng.uniform(0.05, 0.5)]
                kind = 0 if i == 0 else int(rng.integers(0, 4))
                if kind == 2:
                    bands[3] = 0.0  # green: GCVI has no denominator
                elif kind == 3:
                    bands[1] = bands[4] = 0.0  # nir + swir: NDWI has none
                rows.append((county, date, *bands, kind != 1))
    rows = [rows[i] for i in rng.permutation(len(rows))]
    cols = list(zip(*rows))
    return ingest.PixelTable(county_id=np.array(cols[0]), date=np.array(cols[1]),
                             **{name: np.array(c) for name, c in
                                zip(("red", "nir", "blue", "green", "swir"), cols[2:7])},
                             corn_mask=np.array(cols[7], dtype=bool))


def _averages(pixels):
    """ingest.spatial_average_all as dict (county, date) -> means, in its row order."""
    county_ids, dates, means = ingest.spatial_average_all(pixels)
    return dict(zip(zip(county_ids.tolist(), dates.tolist()), means))


class TestSpatialAverage:
    def test_constant_pixels_average_to_that_value(self):
        table = _pixels(["c1"] * 3, ["2020-06-01"] * 3, [0.4, 0.4, 0.4], [1, 1, 1])
        means = _averages(table)[("c1", "2020-06-01")]
        assert means[3] == pytest.approx(0.4, abs=1e-12)

    def test_mask_respected(self):
        table = _pixels(["c1"] * 3, ["2020-06-01"] * 3, [0.2, 0.4, 0.9], [1, 1, 0])
        means = _averages(table)[("c1", "2020-06-01")]
        assert means[3] == pytest.approx(0.3, abs=1e-12)

    def test_empty_mask_raises(self):
        table = _pixels(["c1", "c2"], ["2020-06-01"] * 2, [0.4, 0.4], [1, 0])
        with pytest.raises(MissingCoverage, match="county c2 on 2020-06-01"):
            ingest.spatial_average_all(table)
        with pytest.raises(MissingCoverage):
            spatial_average(table, "c2", "2020-06-01")

    def test_channel_without_valid_pixel_raises(self):
        table = _pixels(["c1"] * 3, ["2020-06-01"] * 3, [0.2, 0.4, 0.9], [1, 1, 0])
        table.green[:2] = 0.0  # GCVI is valid only on the unmasked pixel
        with pytest.raises(MissingCoverage, match="county c1 on 2020-06-01"):
            ingest.spatial_average_all(table)

    def test_bulk_path_matches_per_call(self):
        for seed in range(5):
            table = _random_pixels(np.random.default_rng(seed))
            bulk = _averages(table)
            keys = set(zip(table.county_id.tolist(), table.date.tolist()))
            assert list(bulk) == sorted(keys)  # county then date order
            for (county, date), means in bulk.items():
                expected = spatial_average(table, county, date)
                assert means.tobytes() == expected.tobytes(), (seed, county, date)


class TestCompositing:
    def test_window_count_is_13(self):
        assert ingest.SEASON_DAYS == 214
        assert ingest.SEASON_DAYS // ingest.WINDOW_DAYS == 13
        out = ingest.composite_16day(np.arange(214, dtype=float))
        assert out.shape == (13,)

    def test_constant_series_preserved(self):
        out = ingest.composite_16day(np.full(214, 3.7))
        np.testing.assert_allclose(out, 3.7, atol=1e-12)

    def test_first_window_mean(self):
        rng = np.random.default_rng(1)
        daily = rng.normal(size=214)
        out = ingest.composite_16day(daily)
        assert out[0] == pytest.approx(daily[:16].sum() / 16.0, abs=1e-12)

    def test_sum_rule_for_precipitation(self):
        daily = np.ones(214)
        out = ingest.composite_16day(daily, rule="sum")
        np.testing.assert_allclose(out, 16.0)

    def test_trailing_days_dropped(self):
        daily = np.zeros(214)
        daily[208:] = 99.0  # the dropped tail must not leak in
        np.testing.assert_allclose(ingest.composite_16day(daily), 0.0)

    def test_linearity_of_mean_compositing(self):
        rng = np.random.default_rng(2)
        x, y = rng.normal(size=214), rng.normal(size=214)
        a, b = 2.5, -1.25
        lhs = ingest.composite_16day(a * x + b * y)
        rhs = a * ingest.composite_16day(x) + b * ingest.composite_16day(y)
        np.testing.assert_allclose(lhs, rhs, atol=1e-12)

    def test_short_season_rejected(self):
        with pytest.raises(ShapeError):
            ingest.composite_16day(np.zeros(207))

    def test_batch_composites_bit_for_bit_as_each_series(self):
        rng = np.random.default_rng(16)
        # magnitudes from 1e-3 to 1e4, so any change in summation order shows
        daily = rng.normal(size=(40, 6, 214)) * 10.0 ** rng.integers(-3, 5, size=(40, 6, 1))
        rules = [ingest.COMPOSITE_RULES[name] for name in ingest.DAILY_HEADER[2:]]
        assert "sum" in rules and "mean" in rules
        # a contiguous batch, and the (N, days, C) rows view ingest composites
        batches = (daily, np.ascontiguousarray(daily.transpose(0, 2, 1)).transpose(0, 2, 1))
        for batch in (ingest.composite_16day(b, rules) for b in batches):
            assert batch.shape == (40, 6, 13)
            for n in range(40):
                for c, rule in enumerate(rules):
                    one = ingest.composite_16day(daily[n, c], rule)
                    assert batch[n, c].tobytes() == one.tobytes(), (n, c)

    def test_season_slice_starts_april_first(self):
        yearly = np.arange(365, dtype=float)
        sliced = ingest.season_slice(yearly)
        assert sliced[0] == 90.0  # Jan 31 + Feb 28 + Mar 31 days precede April 1
        assert len(sliced) == 214
        batch = ingest.season_slice(np.stack([yearly, -yearly]))
        np.testing.assert_array_equal(batch, np.stack([sliced, -sliced]))


class TestSeasonalSmMean:
    def test_constant(self):
        assert ingest.seasonal_sm_mean(np.full((13, 2), 0.3)) == pytest.approx(0.3)

    def test_two_layer_mean(self):
        sm = np.stack([np.full(13, 0.2), np.full(13, 0.4)], axis=1)
        assert ingest.seasonal_sm_mean(sm) == pytest.approx(0.3, abs=1e-12)

    def test_permutation_invariant(self):
        rng = np.random.default_rng(3)
        sm = rng.uniform(0.05, 0.55, (13, 2))
        perm = rng.permutation(13)
        assert ingest.seasonal_sm_mean(sm) == pytest.approx(
            ingest.seasonal_sm_mean(sm[perm]), abs=1e-15)


class TestDroughtLabels:
    def test_equal_sbar_flags_nothing(self):
        rng = np.random.default_rng(4)
        ds = ingest.Dataset(level="county")
        for i in range(6):
            ds.samples.append(make_sample(rng, sid=f"c{i}", year=2020,
                                          sm=np.full((13, 2), 0.3)))
        ingest.label_drought(ds)
        assert not any(s.drought_flag for s in ds.samples)

    def test_quantile_by_hand(self):
        rng = np.random.default_rng(5)
        ds = ingest.Dataset(level="county")
        for i, sbar in enumerate(np.linspace(0.1, 1.0, 10)):
            # sbar is derived from sm, so build sm at the target level
            ds.samples.append(make_sample(rng, sid=f"c{i}", year=2020,
                                          sm=np.full((13, 2), sbar * 0.5)))
        ingest.label_drought(ds, quantile=0.2)
        flags = [s.drought_flag for s in ds.samples]
        assert flags == [True, True] + [False] * 8

    def test_flags_deterministic(self):
        rng = np.random.default_rng(6)
        ds = make_dataset(rng, n=12)
        ingest.label_drought(ds)
        first = [s.drought_flag for s in ds.samples]
        ingest.label_drought(ds)
        assert [s.drought_flag for s in ds.samples] == first

    def test_per_year_thresholds(self):
        rng = np.random.default_rng(7)
        ds = ingest.Dataset(level="county")
        # year A is uniformly wetter; each year still gets its own flags
        for i in range(5):
            ds.samples.append(make_sample(rng, sid=f"a{i}", year=2019,
                                          sm=np.full((13, 2), 0.4 + 0.02 * i)))
            ds.samples.append(make_sample(rng, sid=f"b{i}", year=2020,
                                          sm=np.full((13, 2), 0.1 + 0.02 * i)))
        ingest.label_drought(ds, quantile=0.3)
        for year in (2019, 2020):
            group = [s for s in ds.samples if s.year == year]
            assert any(s.drought_flag for s in group)


class TestStackDataset:
    def test_rows_are_the_samples_fields(self):
        rng = np.random.default_rng(12)
        ds = make_dataset(rng, n=7)
        ingest.label_drought(ds)
        a = ingest.stack_dataset(ds)
        series = ingest.channel_major(a)
        for i, s in enumerate(ds.samples):
            assert (a["ids"][i], a["years"][i]) == (s.sid, s.year)
            assert a["aux"][i].tolist() == [s.year, s.lat, s.lon, s.hist_avg_yield]
            assert (a["y"][i], a["sbar"][i], a["drought"][i]) == (s.yield_label, s.sbar,
                                                                  s.drought_flag)
            for key, field in (("w", s.weather), ("v", s.vis), ("s", s.sm)):
                np.testing.assert_array_equal(a[key][i], field)
            np.testing.assert_array_equal(
                series[i], np.concatenate([s.weather.T.ravel(), s.vis.T.ravel(), s.sm.T.ravel()]))

    def test_empty_dataset_stacks_to_empty_arrays(self):
        a = ingest.stack_dataset(ingest.Dataset(level="field"))
        assert a["w"].shape == (0, ingest.N_WINDOWS, 4) and a["aux"].shape == (0, 4)
        assert ingest.channel_major(a).shape == (0, 10 * ingest.N_WINDOWS)

    def test_from_arrays_inverts_stack_dataset(self):
        rng = np.random.default_rng(17)
        ds = make_dataset(rng, n=7, level="field")
        ingest.label_drought(ds)
        arrays = ingest.stack_dataset(ds)
        assert datasets_equal(ingest.Dataset.from_arrays(ds.level, arrays), ds)
        # sbar is derived from the SM series, never read
        arrays["sbar"] = np.zeros(len(ds))
        assert datasets_equal(ingest.Dataset.from_arrays(ds.level, arrays), ds)
        assert len(ingest.Dataset.from_arrays("county", ingest.stack_dataset(
            ingest.Dataset(level="county")))) == 0

    def test_subset_keeps_order_and_level(self):
        rng = np.random.default_rng(13)
        ds = make_dataset(rng, n=5, level="field")
        sub = ds.subset([3, 0])
        assert sub.level == "field" and [s.sid for s in sub.samples] == ["u003", "u000"]


class TestCsvRoundTrip:
    def test_samples_round_trip_exactly(self, tmp_path):
        rng = np.random.default_rng(8)
        ds = make_dataset(rng, n=9, level="county")
        ingest.label_drought(ds)
        path = tmp_path / "samples.csv"
        ingest.write_samples_csv(ds, path)
        back = ingest.read_samples_csv(path)
        assert datasets_equal(ds, back)

    def test_stale_sbar_detected(self, tmp_path):
        rng = np.random.default_rng(9)
        ds = make_dataset(rng, n=3)
        path = tmp_path / "samples.csv"
        ingest.write_samples_csv(ds, path)
        lines = path.read_text().splitlines()
        cols = lines[1].split(",")
        cols[6] = "0.99"  # corrupt the stored sbar
        lines[1] = ",".join(cols)
        path.write_text("\n".join(lines) + "\n")
        with pytest.raises(SchemaError):
            ingest.read_samples_csv(path)

    def test_missing_manifest_rejected(self, tmp_path):
        rng = np.random.default_rng(10)
        ds = make_dataset(rng, n=2)
        path = tmp_path / "samples.csv"
        ingest.write_samples_csv(ds, path)
        (tmp_path / "samples_manifest.json").unlink()
        with pytest.raises(SchemaError):
            ingest.read_samples_csv(path)

    def test_duplicate_keys_rejected(self, tmp_path):
        rng = np.random.default_rng(11)
        ds = make_dataset(rng, n=2, years=(2020,))
        ds.samples[1].sid = ds.samples[0].sid
        path = tmp_path / "samples.csv"
        ingest.write_samples_csv(ds, path)
        with pytest.raises(SchemaError):
            ingest.read_samples_csv(path)


def _daily_rows(rng):
    """daily.csv rows of three ids and two years, grouped and in date order."""
    ids, dates = [], []
    for sid in ("c000", "c002", "c010"):
        for year in (2019, 2020):
            ids += [sid] * 5
            dates += [f"{year}-04-{day:02d}" for day in range(1, 6)]
    return ids, dates, rng.normal(size=(len(ids), 6))


class TestDailyCsv:
    def test_shuffled_rows_give_the_same_groups(self, tmp_path):
        rng = np.random.default_rng(14)
        ids, dates, values = _daily_rows(rng)
        perm = rng.permutation(len(ids))
        ingest.write_daily_csv(tmp_path / "sorted.csv", ids, dates, values)
        ingest.write_daily_csv(tmp_path / "shuffled.csv", [ids[i] for i in perm],
                               [dates[i] for i in perm], values[perm])
        grouped = ingest.read_daily_csv(tmp_path / "sorted.csv")
        shuffled = ingest.read_daily_csv(tmp_path / "shuffled.csv")
        keys = [(sid, year) for sid in ("c000", "c002", "c010") for year in (2019, 2020)]
        for got_ids, got_years, got_dates, got_values in (grouped, shuffled):
            assert list(zip(got_ids.tolist(), got_years.tolist())) == [k for k in keys
                                                                       for _ in range(5)]
            assert got_dates.tolist() == dates
            assert got_values.tobytes() == values.tobytes()

    def test_date_without_a_year_names_file_and_column(self, tmp_path):
        ids, dates, values = _daily_rows(np.random.default_rng(15))
        dates[7] = "20x0-04-01"
        ingest.write_daily_csv(tmp_path / "daily.csv", ids, dates, values)
        with pytest.raises(SchemaError, match=r"daily\.csv: column 'date' has a cell that is "
                                              r"not a date: '20x0-04-01'"):
            ingest.read_daily_csv(tmp_path / "daily.csv")


class TestPixelsCsv:
    def test_read_peaks_under_4x_the_arrays_it_returns(self, tmp_path):
        """The reader parses each block of rows as it reads, so the text of
        the file is never held at once: a cell per Python string peaked at
        6.4x the returned arrays."""
        n, rng = 100_000, np.random.default_rng(16)
        days = np.datetime_as_string(np.datetime64("2019-04-01") + np.arange(214)).astype("U10")
        table = ingest.PixelTable(
            county_id=np.char.add("c", np.char.zfill((np.arange(n) % 100).astype(str), 3)),
            date=days[np.arange(n) % 214],
            **{name: rng.random(n) for name in ingest.PIXELS_HEADER[2:7]},
            corn_mask=rng.random(n) < 0.5)
        ingest.write_pixels_csv(tmp_path / "pixels.csv", table)
        tracemalloc.start()
        try:
            back = ingest.read_pixels_csv(tmp_path / "pixels.csv")
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        arrays = [getattr(back, name) for name in ingest.PIXELS_HEADER]
        for got, want in zip(arrays, (getattr(table, name) for name in ingest.PIXELS_HEADER)):
            assert got.dtype == want.dtype and got.tobytes() == want.tobytes()
        assert peak < 4 * sum(a.nbytes for a in arrays)


class TestCountyAssembly:
    def test_county_dataset_has_nonzero_vis(self, tiny_county):
        vis = np.stack([s.vis for s in tiny_county.samples])
        assert np.abs(vis).max() > 0.1
        assert len(tiny_county) == 8 * 6
        for s in tiny_county.samples:
            assert s.sbar == pytest.approx(ingest.seasonal_sm_mean(s.sm), abs=1e-15)

    def test_weather_composites_match_manual_recompute(self, tmp_path):
        paths = [str(tmp_path / n) for n in ("p.csv", "d.csv", "t.csv")]
        from kgmlsm import cropsim

        cropsim.build_county_inputs(1, [2020], {"normal": 1.0}, seed=2,
                                    pixels_path=paths[0], daily_path=paths[1],
                                    truth_path=paths[2])
        ds = ingest.build_county_dataset(*paths)
        ids, years, _, vals = ingest.read_daily_csv(paths[1])
        _, _, vi = ingest.spatial_average_all(ingest.read_pixels_csv(paths[0]))
        sample = next(s for s in ds.samples if s.sid == ids[0] and s.year == years[0])
        # one county-year: every daily and pixel row is this sample's
        expect = np.testing.assert_array_equal
        expect(sample.weather[:, 0], ingest.composite_16day(vals[:, 0], "mean"))
        expect(sample.weather[:, 3], ingest.composite_16day(vals[:, 3], "sum"))
        for i in range(4):
            expect(sample.vis[:, i], ingest.composite_16day(vi[:, i], "mean"))
        for i in range(2):
            expect(sample.sm[:, i], ingest.composite_16day(vals[:, 4 + i], "mean"))
