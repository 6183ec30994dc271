"""Deterministic surrogate crop simulator.

Stands in for a process-based simulator at desk scale: synthetic daily
weather, a two-bucket water balance for surface and rootzone soil
moisture (see kernels.py), and a stress-modulated yield. Field
station-years and county-years go through one path: draw_unit_year makes
a unit-year's draws from its level's replayable rng streams, and
simulate_unit_years draws a block of units, all their years, warm-up
years included, into the block's own arrays and simulates them in one
kernel call. A block is as many whole units as make about
BLOCK_UNIT_YEARS unit-years, at either level. The field builder turns
each block into samples with ingest's one array path (composite_16day,
Dataset.from_arrays), compositing only the years it keeps; the county
builder adds a reported yield, a canopy and observation noise, and
writes the ingestion CSVs (pixel reflectances, daily weather/SM series,
truth): one county's pixel and daily rows at a time, each block's before
the next block is simulated.
"""

import numpy as np

from . import ingest
from .kernels import SM_MIN, SM_SAT, bucket_water_balance

DAYS_PER_YEAR = 365

# 0-based day-of-year windows (non-leap calendar)
SOW_START_CHOICES = (109, 110, 111, 112, 113, 114)  # Apr 20 .. Apr 25
SOW_END_CHOICES = (134, 135, 136, 137, 138, 139)  # May 15 .. May 20
PLANT_POPULATION_CHOICES = (6, 7, 8, 9)  # plants/m2
FERTILIZER_CHOICES = (200, 250, 300)  # kg/ha
INITIAL_SOIL_WATER_CHOICES = (0.40, 0.50, 0.60)  # fraction of the SM span

POTENTIAL_YIELD_CAP = 12.5  # t/ha

HISTORY_YEARS = 5  # prior years of a sample's historical average yield, simulated as warm-up

# per-draw ranges around the nominal scenario knobs; the spread across
# station-years is what gives yields enough variance to learn from
SCENARIO_WET_PROB_RANGE = {
    "normal": (0.10, 0.50),
    "drought": (0.04, 0.13),
    "anomalous": (0.10, 0.50),
}
PPT_EVENT_SCALE_RANGE = (3.0, 9.5)  # gamma scale, mm per wet-day event

# the scenarios each level may draw: a county-year reports the weather
# that drove it, so only a field station-year may be anomalous
SCENARIOS = {"field": ["anomalous", "drought", "normal"], "county": ["drought", "normal"]}


def sample_management(rng):
    """Uniform draw from each enumerated management set, as one row:
    sowing-window start and end (0-based days of year), plant population,
    fertilizer and initial soil water."""
    return np.array([rng.choice(SOW_START_CHOICES), rng.choice(SOW_END_CHOICES),
                     rng.choice(PLANT_POPULATION_CHOICES), rng.choice(FERTILIZER_CHOICES),
                     rng.choice(INITIAL_SOIL_WATER_CHOICES)], dtype=np.float64)


def synth_weather(rng, location, wet_day_prob=0.30, ppt_event_scale=6.0):
    """One synthetic weather year, (4, 365) in WEATHER_CHANNELS order:
    seasonal sinusoids plus noise for temperature and radiation, a gamma
    wet-day process for rain."""
    lat, lon = location
    doy = np.arange(DAYS_PER_YEAR, dtype=np.float64)
    tmean_base = 9.0 + 0.7 * (46.0 - lat)
    tmean = tmean_base + 14.0 * np.sin(2.0 * np.pi * (doy - 105.0) / 365.0) \
        + rng.normal(0.0, 1.5, DAYS_PER_YEAR)
    diurnal = np.clip(8.0 + rng.normal(0.0, 2.0, DAYS_PER_YEAR), 0.5, None)
    radn = np.clip(13.0 + 10.0 * np.sin(2.0 * np.pi * (doy - 81.0) / 365.0)
                   + rng.normal(0.0, 2.0, DAYS_PER_YEAR), 0.1, None)
    wet = rng.random(DAYS_PER_YEAR) < wet_day_prob
    amounts = rng.gamma(1.3, ppt_event_scale, DAYS_PER_YEAR)
    ppt = np.where(wet, amounts, 0.0)
    return np.stack([radn, tmean + 0.5 * diurnal, tmean - 0.5 * diurnal, ppt])


def simulate_station_years(weather, management):
    """Daily water balance plus the stress-scaled yield for a batch of
    station-years, in one kernel call: weather (N, 4, 365) in
    WEATHER_CHANNELS order, management (N, 5) rows as sample_management
    draws them.

    Returns a dict of arrays, one row per station-year: "sm_surface" and
    "sm_rootzone", the (N, 365) daily volumetric SM; "yield_tha",
    "stress_index", "sow_day" and "potential_yield", the stress-free yield
    of the management, each (N,). The seasonal stress index is the
    whole-window met-demand fraction multiplied by the reproductive-window
    fraction, so equal season totals with badly timed dry spells still
    cost yield.
    """
    sow_start, sow_end, population, fertilizer, soil_water = management.T
    sow_day, stress_mean, critical_mean, sm_s, sm_r = bucket_water_balance(
        *weather.transpose(1, 0, 2), SM_MIN + soil_water * (SM_SAT - SM_MIN), sow_start, sow_end)
    # reproductive-window stress modulates up to 40% of the yield on top
    # of the season-long supply ratio
    index = stress_mean * (0.6 + 0.4 * critical_mean)
    pot = np.minimum(9.0 + 0.25 * (population - 6) + 0.004 * (fertilizer - 200),
                     POTENTIAL_YIELD_CAP)
    return {"sm_surface": sm_s, "sm_rootzone": sm_r, "yield_tha": pot * index,
            "stress_index": index, "sow_day": sow_day, "potential_yield": pot}


# ---------------------------------------------------------------------------
# rng plumbing: every (purpose, unit, year) gets its own replayable stream

_STREAM = {
    "station_loc": 101, "county_loc": 103,
    "management": 11, "weather": 13, "decoy": 17, "scenario": 19,
    "county_mgmt": 23, "county_weather": 29, "county_scenario": 31,
    "county_effect": 37, "county_yield": 41, "county_pixels": 43,
    "county_obs": 47,
}

# each level's location, scenario, management and weather streams
_LEVEL_STREAMS = {"field": ("station_loc", "scenario", "management", "weather"),
                  "county": ("county_loc", "county_scenario", "county_mgmt", "county_weather")}


def _rng(seed, purpose, *key):
    return np.random.default_rng([seed, _STREAM[purpose], *key])


def _pick_scenario(rng, scenario_mix):
    names = sorted(scenario_mix)
    weights = np.array([scenario_mix[n] for n in names], dtype=np.float64)
    weights = weights / weights.sum()
    return names[int(rng.choice(len(names), p=weights))]


def draw_unit_year(seed, level, unit, year, scenario_mix):
    """Every random draw for one station-year ("field") or county-year
    ("county") under the scenario mix, from the level's own streams.

    Returns (lat, lon), the recorded weather and the weather the water
    balance runs on (each a synth_weather array), the management row and
    the SM level shift (0.0 for a faithful unit-year). Anomalous unit-years report one weather draw while
    their soil moisture and yield come from an opposite-rainfall draw with
    a level shift on the SM series, standing in for unrealistic
    uncalibrated simulator output: the recorded weather no longer explains
    the recorded soil moisture or yield.
    """
    loc_stream, scenario_stream, mgmt_stream, weather_stream = _LEVEL_STREAMS[level]
    loc_rng = _rng(seed, loc_stream, unit)
    lat, lon = 38.0 + 10.0 * loc_rng.random(), -102.0 + 18.0 * loc_rng.random()
    sc_rng = _rng(seed, scenario_stream, unit, year)
    scenario = _pick_scenario(sc_rng, scenario_mix)
    wet_prob = float(sc_rng.uniform(*SCENARIO_WET_PROB_RANGE[scenario]))
    event_scale = float(sc_rng.uniform(*PPT_EVENT_SCALE_RANGE))
    mgmt = sample_management(_rng(seed, mgmt_stream, unit, year))
    weather = synth_weather(_rng(seed, weather_stream, unit, year), (lat, lon), wet_prob,
                            event_scale)
    if scenario != "anomalous":
        return (lat, lon), weather, weather, mgmt, 0.0
    decoy_wet = wet_prob < 0.25
    decoy_prob = float(sc_rng.uniform(0.35, 0.45) if decoy_wet else sc_rng.uniform(0.02, 0.08))
    decoy = synth_weather(_rng(seed, "decoy", unit, year), (lat, lon), decoy_prob, event_scale)
    # level shift pushes the series further in the decoy's direction
    shift = float(sc_rng.uniform(0.10, 0.16)) * (1.0 if decoy_wet else -1.0)
    return (lat, lon), weather, decoy, mgmt, shift


def simulate_unit_years(seed, level, keys, scenario_mix, overrides=None):
    """Draw each (unit, year) in keys, under its year's mix in overrides if
    it has one, else scenario_mix; then simulate them all at once.

    Returns (locations (N, 2), the recorded weather (N, 4, 365) in
    WEATHER_CHANNELS order, the simulate_station_years arrays with each
    SM shift applied and clipped to the physical range), one row per key
    in order. Every draw has its own rng stream, so the batch does not
    change any value. Each draw lands in its row of the returned arrays:
    the weather array holds the driving weather until the kernel returns,
    and only the recorded weather of an anomalous draw, which differs
    from its driving weather, is held apart meanwhile.
    """
    overrides = {int(year): mix for year, mix in (overrides or {}).items()}
    n = len(keys)
    locations, weather = np.empty((n, 2)), np.empty((n, 4, DAYS_PER_YEAR))
    management, anomalous = np.empty((n, 5)), {}  # row: (recorded weather, SM shift)
    for i, (unit, year) in enumerate(keys):
        locations[i], record, weather[i], management[i], shift = draw_unit_year(
            seed, level, unit, year, overrides.get(year, scenario_mix))
        if shift:
            anomalous[i] = record, shift
    sim = simulate_station_years(weather, management)
    for i, (record, shift) in anomalous.items():
        weather[i] = record
        for key in ("sm_surface", "sm_rootzone"):
            sim[key][i] = np.clip(sim[key][i] + shift, SM_MIN, SM_SAT)
    return locations, weather, sim


def simulated_years(years):
    """The years a build over years simulates: HISTORY_YEARS of warm-up
    before the first, so every written year has a real historical average."""
    return range(min(years) - HISTORY_YEARS, max(years) + 1)


# unit-years per simulate_unit_years call, at either level: a block is
# as many whole units as make this many simulated years (at least one
# unit). Each kernel call pays a fixed overhead (kernels.py), so a smaller
# block is slower, and a larger one holds more series at once. On the
# prep benchmark's 40 stations over 30 simulated years and 100 counties
# over 14 (2-vCPU host), the field and county kernels took 0.95 and 1.05 s
# at 28 unit-years, 0.89 and 0.52 s at 56, 0.31 and 0.32 s at 112, and
# 0.18 and 0.17 s at 240; `simulate` peaked at 45.0, 45.0, 45.6 and
# 50.0 MB RSS, and the traced peaks of the two builds were 2.9 and 4.4,
# 2.9 and 4.6, 3.8 and 5.1, and 8.9 and 6.1 MB.
BLOCK_UNIT_YEARS = 112


def unit_blocks(n_units, years):
    """The units 0 .. n_units - 1 as ranges of consecutive units, each as
    many as simulate BLOCK_UNIT_YEARS unit-years over simulated_years(years),
    and at least one."""
    step = max(1, BLOCK_UNIT_YEARS // len(simulated_years(years)))
    return [range(lo, min(lo + step, n_units)) for lo in range(0, n_units, step)]


def unit_year_keys(units, years):
    """The (unit, year) keys (N, 2) a build simulates for units, unit by unit
    over simulated_years; the rows of the requested years; and each such
    row's HISTORY_YEARS prior rows, (rows, HISTORY_YEARS), oldest first."""
    keys = np.array([(unit, year) for unit in units for year in simulated_years(years)])
    kept = np.flatnonzero(np.isin(keys[:, 1], years))
    return keys, kept, kept[:, None] + np.arange(-HISTORY_YEARS, 0)


def build_field_dataset(n_stations, years, scenario_mix, seed):
    """One sample per station-year; VI channels all zero at field level.
    Each sample's historical average is its station's mean simulated
    yield over the HISTORY_YEARS before it. Stations are simulated a block
    at a time, and only the 16-day composites of each block's kept years
    are kept."""
    blocks = [_field_block(units, years, scenario_mix, seed)
              for units in unit_blocks(n_stations, years)]
    keys, series, locations, hist, y = map(np.concatenate, zip(*blocks))
    stations, sample_years = keys.T
    ds = ingest.Dataset.from_arrays("field", {
        "ids": np.array([f"st{st:03d}" for st in range(n_stations)])[stations],
        "years": sample_years, "w": series[:, :, :4], "s": series[:, :, 4:],
        "v": np.zeros((len(keys), ingest.N_WINDOWS, 4)),
        "aux": np.column_stack([sample_years, locations, hist]),
        "y": y, "drought": np.zeros(len(keys), dtype=bool)})
    ingest.label_drought(ds)
    return ds


def _field_block(units, years, scenario_mix, seed):
    """One block of stations: the (unit, year) keys of its samples, their
    (n, T, 6) series in WEATHER_CHANNELS + SM_CHANNELS order, locations,
    historical averages and yields."""
    keys, kept, prior = unit_year_keys(units, years)
    locations, weather, sim = simulate_unit_years(seed, "field", keys.tolist(), scenario_mix)
    sm = np.stack([sim[name][kept] for name in ingest.SM_CHANNELS], axis=1)
    season = ingest.season_slice
    daily = np.concatenate([season(weather)[kept], season(sm)], axis=1)  # (n, 6, days)
    rules = [ingest.COMPOSITE_RULES[name] for name in ingest.WEATHER_CHANNELS + ingest.SM_CHANNELS]
    series = ingest.composite_16day(daily, rules).transpose(0, 2, 1)  # (n, T, 6)
    return (keys[kept], series, locations[kept], sim["yield_tha"][prior].mean(axis=1),
            sim["yield_tha"][kept])


# ---------------------------------------------------------------------------
# county-side input synthesis (daily series, pixel reflectances, yields)


def _canopy_curve(sow_day, stress_index, effect):
    """Daily canopy fraction: logistic green-up, plateau, senescence.

    Peak canopy scales with seasonal water status and the county-year
    management effect so vegetation indices carry real yield signal.
    """
    doy = np.arange(DAYS_PER_YEAR, dtype=np.float64)
    rise = 1.0 / (1.0 + np.exp(-(doy - (sow_day + 40.0)) / 8.0))
    fall = 1.0 / (1.0 + np.exp((doy - (sow_day + 140.0)) / 7.0))
    peak = np.clip(0.45 + 0.40 * stress_index + 0.12 * effect, 0.05, 1.0)
    return np.clip(rise * fall * peak, 0.0, 1.0)


def _pixel_reflectances(rng, canopy, sm_surface, corn):
    """Reflectance bands for one pixel across the season days."""
    n = canopy.shape[0]
    kappa = canopy if corn else np.full(n, 0.12)
    wet = (sm_surface - SM_MIN) / (SM_SAT - SM_MIN)
    red = 0.24 - 0.16 * kappa + rng.normal(0.0, 0.008, n)
    nir = 0.15 + 0.35 * kappa + rng.normal(0.0, 0.010, n)
    green = 0.11 + 0.02 * kappa + rng.normal(0.0, 0.004, n)
    blue = 0.05 + rng.normal(0.0, 0.003, n)
    swir = 0.30 - 0.12 * kappa - 0.10 * wet + rng.normal(0.0, 0.010, n)
    return (np.clip(red, 0.01, 0.6), np.clip(nir, 0.02, 0.95), np.clip(blue, 0.005, 0.3),
            np.clip(green, 0.01, 0.5), np.clip(swir, 0.02, 0.8))


PIXELS_PER_COUNTY = 5  # 4 corn-masked + 1 unmasked


def build_county_inputs(n_counties, years, scenario_mix, seed, pixels_path, daily_path,
                        truth_path, scenario_overrides=None):
    """Write the three county ingestion CSVs (pixels, daily, truth).

    scenario_overrides maps specific years to their own scenario mix, so
    drought frequency can vary across years the way real seasons do.
    The reported yield adds a management effect (visible through the
    canopy and hence the VIs) plus observation noise to the simulated
    yield; a county-year's historical average is its county's mean
    reported yield over the HISTORY_YEARS before it. Counties are
    simulated a block at a time, and within a block one county's pixel
    and daily rows are made and written at a time, before the next
    county's; the truth rows, one per county-year, are written at the
    end. An error in any block leaves the pixels and daily files as they
    were.
    """
    truth = []  # each block's truth columns

    def tables(write_daily):
        for units in unit_blocks(n_counties, years):
            block_truth, counties = _county_block(units, years, scenario_mix, seed,
                                                  scenario_overrides)
            truth.append(block_truth)
            for table, daily in counties:
                write_daily(*daily)
                del daily
                yield table
                del table  # the next county is made without this one

    with ingest.daily_csv_writer(daily_path) as write_daily:
        ingest.write_pixels_csv(pixels_path, tables(write_daily))
    ingest.write_truth_csv(truth_path, list(map(np.concatenate, zip(*truth))))


def _county_block(units, years, scenario_mix, seed, scenario_overrides):
    """Simulate one block of counties. Returns its truth columns in
    TRUTH_KINDS order, and an iterator that makes each county's rows in
    turn (_county_rows)."""
    keys, kept, prior = unit_year_keys(units, years)
    locations, weather, sim = simulate_unit_years(seed, "county", keys.tolist(), scenario_mix,
                                                  scenario_overrides)
    effect, noise = np.array([(_rng(seed, "county_effect", c, year).normal(0.0, 1.0),
                               _rng(seed, "county_yield", c, year).lognormal(0.0, 0.16))
                              for c, year in keys.tolist()]).T
    # multiplicative observation model: low yields carry proportionally
    # low noise, so crop failures stay near zero instead of clipping
    reported = sim["yield_tha"] * np.exp(0.10 * effect) * noise
    season = ingest.season_slice
    canopy = season(_canopy_curve(sim["sow_day"][kept, None], sim["stress_index"][kept, None],
                                  effect[kept, None]))
    state = (season(weather)[kept], season(sim["sm_surface"])[kept],
             season(sim["sm_rootzone"])[kept], canopy)
    counties, kept_years = keys[kept].T
    sids = np.array([f"c{c:03d}" for c in counties.tolist()])
    n = len(kept) // len(units)  # kept rows run unit by unit, n years each
    rows = (_county_rows(seed, c, sids[lo], kept_years[lo: lo + n],
                         *(a[lo: lo + n] for a in state))
            for c, lo in zip(units, range(0, len(kept), n)))
    return ([sids, kept_years, *locations[kept].T, reported[kept], reported[prior].mean(axis=1)],
            rows)


def _county_rows(seed, c, sid, years, weather, sm_s, sm_r, canopy):
    """County c's (id sid) rows over its years: its PixelTable, and its daily
    rows as the ids, dates and (rows, 6) values daily_csv_writer takes.
    weather is the years' (n, 4, SEASON_DAYS) true season weather; sm_s,
    sm_r and canopy are (n, SEASON_DAYS)."""
    nd, n_px = ingest.SEASON_DAYS, PIXELS_PER_COUNTY
    daily_values = np.empty((len(years), nd, 6))
    # band, year, pixel, day: each band's rows in file order
    bands = np.empty((5, len(years), n_px, nd))
    for i, year in enumerate(years.tolist()):
        # gridded-product observation noise: the county record is a
        # noisy view of the true weather/SM that drove the simulation
        obs = _rng(seed, "county_obs", c, year)
        radn, tmax, tmin, ppt = weather[i]
        sradn = np.clip(radn + obs.normal(0, 1.5, nd), 0.1, None)
        stmax = tmax + obs.normal(0, 0.8, nd)
        stmin = np.minimum(tmin + obs.normal(0, 0.8, nd), stmax)
        sppt = np.clip(ppt * obs.lognormal(0.0, 0.20, nd) + obs.normal(0, 0.3, nd), 0.0, None)
        ssm_s = np.clip(sm_s[i] + obs.normal(0, 0.02, nd), SM_MIN, SM_SAT)
        ssm_r = np.clip(sm_r[i] + obs.normal(0, 0.02, nd), SM_MIN, SM_SAT)
        daily_values[i] = np.stack([sradn, stmax, stmin, sppt, ssm_s, ssm_r], axis=1)
        # reflectance follows the true state
        px_rng = _rng(seed, "county_pixels", c, year)
        for p in range(n_px):
            bands[:, i, p] = _pixel_reflectances(px_rng, canopy[i], sm_s[i], p < n_px - 1)

    # rows: year, then pixel, then day
    dates = np.array([ingest.season_dates(year) for year in years]).reshape(-1, 1, nd)
    table = ingest.PixelTable(
        county_id=np.full(bands[0].size, sid),
        date=np.tile(dates, (1, n_px, 1)).ravel(),
        **{name: bands[b].ravel() for b, name in enumerate(list(ingest.PIXELS_KINDS)[2:7])},
        corn_mask=np.tile(np.repeat(np.arange(n_px) < n_px - 1, nd), len(years)))
    return table, (np.full(dates.size, sid), dates.ravel(), daily_values.reshape(-1, 6))
