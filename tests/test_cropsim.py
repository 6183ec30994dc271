import numpy as np
import pytest

from kgmlsm import cropsim, ingest
from kgmlsm.ingest import datasets_equal


class TestManagement:
    def test_draws_stay_in_enumerated_sets(self):
        rng = np.random.default_rng(0)
        for _ in range(200):
            m = cropsim.sample_management(rng)
            assert m.plant_population in {6, 7, 8, 9}
            assert m.fertilizer in {200, 250, 300}
            assert m.initial_soil_water in {0.40, 0.50, 0.60}
            assert m.sow_window_start in cropsim.SOW_START_CHOICES
            assert m.sow_window_end in cropsim.SOW_END_CHOICES
            assert m.sow_window_start < m.sow_window_end

    def test_fixed_seed_reproduces_management(self):
        a = cropsim.sample_management(np.random.default_rng(42))
        b = cropsim.sample_management(np.random.default_rng(42))
        assert a == b


class TestWeather:
    def test_constraints_hold(self):
        rng = np.random.default_rng(1)
        for _ in range(10):
            w = cropsim.synth_weather(rng, 2020, (42.0, -93.0))
            assert np.all(w.tmax >= w.tmin)
            assert np.all(w.ppt >= 0)
            assert np.all(w.radn >= 0)

    def test_drought_knob_reduces_season_rain(self):
        totals = {0.05: [], 0.30: []}
        for seed in range(100):
            for p in (0.05, 0.30):
                w = cropsim.synth_weather(np.random.default_rng([seed, 5]), 2020,
                                          (42.0, -93.0), wet_day_prob=p)
                totals[p].append(ingest.season_slice(w.ppt).sum())
        assert np.mean(totals[0.05]) < np.mean(totals[0.30])

    def test_latitude_shifts_temperature(self):
        north = cropsim.synth_weather(np.random.default_rng(7), 2020, (48.0, -99.0))
        south = cropsim.synth_weather(np.random.default_rng(7), 2020, (38.0, -99.0))
        assert south.tmax.mean() > north.tmax.mean()


class TestSimulation:
    def test_yield_bounded_by_potential(self):
        rng = np.random.default_rng(2)
        for _ in range(10):
            m = cropsim.sample_management(rng)
            w = cropsim.synth_weather(rng, 2020, (42.0, -93.0))
            out, = cropsim.simulate_station_years([w], [m])
            assert 0.0 <= out.yield_tha <= out.potential_yield + 1e-12
            assert out.sm_surface.min() >= 0.05 - 1e-12
            assert out.sm_rootzone.max() <= 0.55 + 1e-12

    def test_more_fertilizer_never_hurts(self):
        rng = np.random.default_rng(3)
        w = cropsim.synth_weather(rng, 2020, (42.0, -93.0))
        base = dict(sow_window_start=110, sow_window_end=136, plant_population=8,
                    initial_soil_water=0.5)
        y_low, y_high = cropsim.simulate_station_years(
            [w, w], [cropsim.Management(fertilizer=f, **base) for f in (200, 300)])
        assert y_high.yield_tha >= y_low.yield_tha

    def test_wetter_season_never_hurts(self):
        rng = np.random.default_rng(4)
        m = cropsim.Management(110, 136, 8, 250, 0.5)
        for _ in range(5):
            w = cropsim.synth_weather(rng, 2020, (40.0, -95.0), wet_day_prob=0.15)
            scaled = cropsim.WeatherSeries(radn=w.radn, tmax=w.tmax, tmin=w.tmin,
                                           ppt=w.ppt * 1.4)
            wet, dry = cropsim.simulate_station_years([scaled, w], [m, m])
            assert wet.yield_tha >= dry.yield_tha - 1e-12

    def test_potential_yield_map(self):
        assert cropsim.potential_yield(6, 200) == pytest.approx(9.0)
        assert cropsim.potential_yield(9, 300) == pytest.approx(10.15)
        assert cropsim.potential_yield(9, 300) <= 12.5


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
            prior = [sim.yield_tha for _, _, sim
                     in cropsim.simulate_field_station_years(9, keys, MIX)]
            assert s.hist_avg_yield == pytest.approx(np.mean(prior), abs=1e-12)

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
        pixels = ingest.read_pixels_csv(paths[0])
        daily = ingest.read_daily_csv(paths[1])
        truth = ingest.read_truth_csv(paths[2])
        assert len(truth) == 4
        assert len(daily) == 4
        for key, (dates, vals) in daily.items():
            assert len(dates) == ingest.SEASON_DAYS
        # reflectances are physical
        for band in (pixels.red, pixels.nir, pixels.blue, pixels.green, pixels.swir):
            assert band.min() >= 0.0 and band.max() <= 1.0
        # each county-date has unmasked pixels that must not leak into means
        assert (~pixels.corn_mask).sum() > 0

    def test_unmasked_pixels_differ_from_corn(self, tmp_path):
        paths = [str(tmp_path / n) for n in ("p.csv", "d.csv", "t.csv")]
        cropsim.build_county_inputs(1, [2021], {"normal": 1.0}, seed=3,
                                    pixels_path=paths[0], daily_path=paths[1],
                                    truth_path=paths[2])
        pixels = ingest.read_pixels_csv(paths[0])
        corn_nir = pixels.nir[pixels.corn_mask].mean()
        other_nir = pixels.nir[~pixels.corn_mask].mean()
        assert corn_nir != pytest.approx(other_nir, abs=1e-3)
