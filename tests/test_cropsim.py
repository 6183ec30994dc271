import os
import tracemalloc

import numpy as np
import pytest

from conftest import datasets_equal
from kgmlsm import artifacts, cropsim, ingest


class TestManagement:
    def test_draws_stay_in_enumerated_sets(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            sow_start, sow_end, population, fertilizer, soil_water = cropsim.sample_management(rng)
            assert population in {6, 7, 8, 9}
            assert fertilizer in {200, 250, 300}
            assert soil_water in {0.40, 0.50, 0.60}
            assert sow_start in cropsim.SOW_START_CHOICES
            assert sow_end in cropsim.SOW_END_CHOICES
            assert sow_start < sow_end

    def test_fixed_seed_reproduces_management(self):
        a = cropsim.sample_management(np.random.default_rng(42))
        b = cropsim.sample_management(np.random.default_rng(42))
        assert a.tobytes() == b.tobytes()


class TestWeather:
    def test_constraints_hold(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            radn, tmax, tmin, ppt = cropsim.synth_weather(rng, (42.0, -93.0))
            assert np.all(tmax >= tmin)
            assert np.all(ppt >= 0)
            assert np.all(radn >= 0)

    def test_drought_knob_reduces_season_rain(self):
        totals = {0.05: [], 0.30: []}
        ppt = ingest.WEATHER_CHANNELS.index("ppt")
        for seed in range(100):
            for p in (0.05, 0.30):
                w = cropsim.synth_weather(np.random.default_rng([seed, 5]), (42.0, -93.0),
                                          wet_day_prob=p)
                totals[p].append(ingest.season_slice(w[ppt]).sum())
        assert np.mean(totals[0.05]) < np.mean(totals[0.30])

    def test_latitude_shifts_temperature(self):
        tmax = ingest.WEATHER_CHANNELS.index("tmax")
        north = cropsim.synth_weather(np.random.default_rng(7), (48.0, -99.0))
        south = cropsim.synth_weather(np.random.default_rng(7), (38.0, -99.0))
        assert south[tmax].mean() > north[tmax].mean()


class TestSimulation:
    def test_yield_bounded_by_potential(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = cropsim.sample_management(rng)
            w = cropsim.synth_weather(rng, (42.0, -93.0))
            out = cropsim.simulate_station_years(w[None], m[None])
            assert 0.0 <= out["yield_tha"][0] <= out["potential_yield"][0] + 1e-12
            assert out["sm_surface"][0].min() >= 0.05 - 1e-12
            assert out["sm_rootzone"][0].max() <= 0.55 + 1e-12

    def test_more_fertilizer_never_hurts(self):
        rng = np.random.default_rng(3)
        w = cropsim.synth_weather(rng, (42.0, -93.0))
        y_low, y_high = cropsim.simulate_station_years(
            np.stack([w, w]), np.array([[110, 136, 8, f, 0.5] for f in (200, 300)]))["yield_tha"]
        assert y_high >= y_low

    def test_wetter_season_never_hurts(self):
        rng = np.random.default_rng(4)
        m = np.array([110, 136, 8, 250, 0.5])
        ppt = ingest.WEATHER_CHANNELS.index("ppt")
        for _ in range(5):
            w = cropsim.synth_weather(rng, (40.0, -95.0), wet_day_prob=0.15)
            scaled = w.copy()
            scaled[ppt] *= 1.4
            wet, dry = cropsim.simulate_station_years(np.stack([scaled, w]),
                                                      np.stack([m, m]))["yield_tha"]
            assert wet >= dry - 1e-12

    def test_potential_yield_map(self):
        w = cropsim.synth_weather(np.random.default_rng(5), (42.0, -93.0))
        pot = cropsim.simulate_station_years(
            np.stack([w, w]), np.array([[110, 136, 6, 200, 0.5], [110, 136, 9, 300, 0.5]])
        )["potential_yield"]
        assert pot[0] == pytest.approx(9.0)
        assert pot[1] == pytest.approx(10.15)
        assert pot[1] <= 12.5


MIX = {"normal": 0.7, "drought": 0.2, "anomalous": 0.1}


class TestFieldDataset:
    def test_sample_count_and_zero_vis(self, tiny_field):
        assert len(tiny_field) == 4 * 6
        for s in tiny_field.samples:
            assert np.all(s.vis == 0.0)
            assert s.sm.min() >= 0.05 - 1e-12 and s.sm.max() <= 0.55 + 1e-12

    def test_reproducible_byte_for_byte(self):
        years = [2020, 2021]
        a = cropsim.build_field_dataset(3, years, MIX, seed=5)
        b = cropsim.build_field_dataset(3, years, MIX, seed=5)
        assert datasets_equal(a, b)
        c = cropsim.build_field_dataset(3, years, MIX, seed=6)
        assert not datasets_equal(a, c)

    def test_historical_average_matches_recomputation(self):
        ds = cropsim.build_field_dataset(2, [2020, 2021], MIX, seed=9)
        for s in ds.samples[:4]:
            station = int(s.sid[2:])
            keys = [(station, year) for year in range(s.year - 5, s.year)]
            _, _, sim = cropsim.simulate_unit_years(9, "field", keys, MIX)
            prior = sim["yield_tha"]
            assert s.hist_avg_yield == pytest.approx(np.mean(prior), abs=1e-12)

    @pytest.mark.parametrize("level,mix", [("field", {"normal": 0.4, "drought": 0.3,
                                                      "anomalous": 0.3}),
                                           ("county", {"normal": 0.6, "drought": 0.4})])
    def test_a_batch_simulates_each_key_as_it_would_alone(self, level, mix):
        keys = [(unit, year) for unit in (0, 3, 7) for year in (2017, 2018, 2019, 2020)]
        shifts = [cropsim.draw_unit_year(8, level, *key, mix)[4] for key in keys]
        assert any(shifts) == (level == "field")  # anomalous field keys shift their SM
        batch = cropsim.simulate_unit_years(8, level, keys, mix)
        for i, key in enumerate(keys):
            alone = cropsim.simulate_unit_years(8, level, [key], mix)
            assert batch[0][i].tobytes() == alone[0][0].tobytes()
            assert batch[1][i].tobytes() == alone[1][0].tobytes()
            assert sorted(batch[2]) == sorted(alone[2])
            for name in batch[2]:
                assert batch[2][name][i].tobytes() == alone[2][name][0].tobytes(), (key, name)

    def test_sm_yield_correlation_positive_at_scale(self):
        ds = cropsim.build_field_dataset(63, list(range(2016, 2024)),
                                         {"normal": 0.7, "drought": 0.3}, seed=1)
        assert len(ds) >= 500
        sm = np.array([s.sm[:, 1].mean() for s in ds.samples])
        y = np.array([s.yield_label for s in ds.samples])
        assert np.corrcoef(sm, y)[0, 1] > 0.3


class TestCountyInputs:
    def test_csvs_round_trip_and_cover_the_season(self, tmp_path):
        paths = [str(tmp_path / n) for n in ("pixels.csv", "daily.csv", "truth.csv")]
        cropsim.build_county_inputs(2, [2020, 2021], {"normal": 1.0}, seed=3,
                                    pixels_path=paths[0], daily_path=paths[1],
                                    truth_path=paths[2])
        pixels = artifacts.read_csv(paths[0], ingest.PIXELS_KINDS)
        ids, years, dates, _ = map(np.concatenate, zip(*ingest.read_daily_csv(paths[1])))
        truth = ingest.read_truth_csv(paths[2])
        assert len(truth["id"]) == 4
        county_years, rows = np.unique(np.char.add(ids, years.astype(str)), return_counts=True)
        assert len(county_years) == 4
        assert (rows == ingest.SEASON_DAYS).all()
        # reflectances are physical
        for band in list(ingest.PIXELS_KINDS)[2:7]:
            assert pixels[band].min() >= 0.0 and pixels[band].max() <= 1.0
        # each county-date has unmasked pixels that must not leak into means
        assert (~pixels["corn_mask"]).sum() > 0

    def test_historical_average_is_the_mean_of_the_written_prior_yields(self, tmp_path):
        """Each 2021 county-year's historical average is exactly np.mean of
        its county's reported yields of 2016-2020, as the truth file has them."""
        paths = [str(tmp_path / n) for n in ("p.csv", "d.csv", "t.csv")]
        cropsim.build_county_inputs(3, list(range(2016, 2022)), {"normal": 0.7, "drought": 0.3},
                                    seed=4, pixels_path=paths[0], daily_path=paths[1],
                                    truth_path=paths[2])
        truth = ingest.read_truth_csv(paths[2])
        latest = np.flatnonzero(truth["year"] == 2021)
        assert len(latest) == 3
        for row in latest:
            prior = (truth["id"] == truth["id"][row]) & (truth["year"] < 2021)
            assert prior.sum() == cropsim.HISTORY_YEARS
            assert truth["hist_avg_yield"][row] == np.mean(truth["yield"][prior])

    def test_an_error_in_a_later_block_leaves_pixels_and_daily_as_they_were(self, tmp_path,
                                                                            monkeypatch):
        """The pixel and daily rows are written block by block, each file
        beside its path, and replace the old files only once every block is
        written: an error while simulating the second block of counties
        leaves both byte for byte as they were, and no temp file behind."""
        paths = [str(tmp_path / n) for n in ("pixels.csv", "daily.csv", "truth.csv")]
        n = len(cropsim.unit_blocks(1000, [2021])[0]) + 1  # two blocks
        cropsim.build_county_inputs(n, [2021], {"normal": 1.0}, 3, *paths)
        before = [open(p, "rb").read() for p in paths[:2]]
        simulate, calls = cropsim.simulate_unit_years, []

        def fail_on_the_second_block(*args, **kwargs):
            calls.append(args)
            if len(calls) == 2:
                raise RuntimeError("second block")
            return simulate(*args, **kwargs)

        monkeypatch.setattr(cropsim, "simulate_unit_years", fail_on_the_second_block)
        with pytest.raises(RuntimeError, match="second block"):
            cropsim.build_county_inputs(n, [2021], {"normal": 1.0}, 4, *paths)
        assert [open(p, "rb").read() for p in paths[:2]] == before
        assert sorted(os.listdir(tmp_path)) == ["daily.csv", "pixels.csv", "truth.csv"]

    def test_unmasked_pixels_differ_from_corn(self, tmp_path):
        paths = [str(tmp_path / n) for n in ("p.csv", "d.csv", "t.csv")]
        cropsim.build_county_inputs(1, [2021], {"normal": 1.0}, seed=3,
                                    pixels_path=paths[0], daily_path=paths[1],
                                    truth_path=paths[2])
        (pixels,) = ingest.read_pixels_csv(paths[0])  # one county: one table
        corn_nir = pixels.nir[pixels.corn_mask].mean()
        other_nir = pixels.nir[~pixels.corn_mask].mean()
        assert corn_nir != pytest.approx(other_nir, abs=1e-3)


class TestBlocks:
    def test_block_size_changes_no_byte(self, tmp_path, monkeypatch):
        """A block of one unit writes the same field samples, pixels, daily
        and truth files as the default block, here one block of all five
        units: every draw has its own rng stream, and every kernel row is
        its own station-year."""
        years = [2020, 2021]

        def build(name):
            run = tmp_path / name
            ingest.write_samples_csv(cropsim.build_field_dataset(5, years, MIX, seed=4),
                                     run / "field.csv")
            cropsim.build_county_inputs(5, years, {"normal": 0.7, "drought": 0.3}, 4,
                                        *(str(run / n) for n in ("p.csv", "d.csv", "t.csv")),
                                        scenario_overrides={2021: {"drought": 1.0}})
            return {path.name: path.read_bytes() for path in sorted(run.iterdir())}

        assert [len(units) for units in cropsim.unit_blocks(5, years)] == [5]
        default = build("default")
        monkeypatch.setattr(cropsim, "BLOCK_UNIT_YEARS", 1)
        assert [len(units) for units in cropsim.unit_blocks(5, years)] == [1] * 5
        assert build("one_unit") == default
        assert len(default) == 5

    def test_simulate_unit_years_peaks_under_1_3x_the_arrays_it_returns(self):
        """Each draw lands in its row of the returned arrays, and only the
        recorded weather of the anomalous rows is held apart while the
        kernel runs on the driving weather: 1.21x here, where holding every
        draw in a list and copying it into a weather and a driving array
        peaked at 2.67x."""
        mix = {"normal": 0.4, "drought": 0.3, "anomalous": 0.3}
        keys = [(unit, year) for unit in range(20) for year in range(2010, 2020)]
        cropsim.simulate_unit_years(3, "field", keys[:2], mix)  # one-off first-call allocations
        tracemalloc.start()
        try:
            locations, weather, sim = cropsim.simulate_unit_years(3, "field", keys, mix)
            peak = tracemalloc.get_traced_memory()[1]
        finally:
            tracemalloc.stop()
        assert any(cropsim.draw_unit_year(3, "field", *key, mix)[4] for key in keys)  # anomalous
        returned = locations.nbytes + weather.nbytes + sum(a.nbytes for a in sim.values())
        assert peak <= 1.3 * returned, peak / returned
