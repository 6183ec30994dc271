"""Deterministic surrogate crop simulator.

Stands in for a process-based simulator at desk scale: synthetic daily
station weather, a two-bucket water balance for surface and rootzone soil
moisture (see kernels.py), and a stress-modulated yield. The same
machinery also synthesizes the county-side ingestion inputs (pixel
reflectances, daily weather/SM series, reported yields).

Everything is a pure function of (seed, inputs); station-years draw from
independent, replayable rng streams.
"""

import datetime
from dataclasses import dataclass

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

# per-draw ranges around the nominal scenario knobs; the spread across
# station-years is what gives yields enough variance to learn from
SCENARIO_WET_PROB_RANGE = {
    "normal": (0.10, 0.50),
    "drought": (0.04, 0.13),
    "anomalous": (0.10, 0.50),
}
PPT_EVENT_SCALE_RANGE = (3.0, 9.5)  # gamma scale, mm per wet-day event


def scenario_wet_prob(rng, scenario):
    lo, hi = SCENARIO_WET_PROB_RANGE[scenario]
    return float(rng.uniform(lo, hi))

_MMDD = [(datetime.date(2001, 1, 1) + datetime.timedelta(days=d)).strftime("%m-%d")
         for d in range(DAYS_PER_YEAR)]


def date_str(year, doy):
    return f"{year}-{_MMDD[doy]}"


@dataclass
class Management:
    sow_window_start: int  # 0-based day of year
    sow_window_end: int
    plant_population: int
    fertilizer: int
    initial_soil_water: float


@dataclass
class WeatherSeries:
    radn: np.ndarray  # MJ/m2
    tmax: np.ndarray  # degC
    tmin: np.ndarray  # degC
    ppt: np.ndarray  # mm


@dataclass
class SimOutput:
    sm_surface: np.ndarray  # daily volumetric fraction
    sm_rootzone: np.ndarray
    yield_tha: float
    stress_index: float
    sow_day: int
    potential_yield: float


def sample_management(rng):
    """Uniform draw from each enumerated management set."""
    return Management(
        sow_window_start=int(rng.choice(SOW_START_CHOICES)),
        sow_window_end=int(rng.choice(SOW_END_CHOICES)),
        plant_population=int(rng.choice(PLANT_POPULATION_CHOICES)),
        fertilizer=int(rng.choice(FERTILIZER_CHOICES)),
        initial_soil_water=float(rng.choice(INITIAL_SOIL_WATER_CHOICES)),
    )


def synth_weather(rng, year, location, wet_day_prob=0.30, ppt_event_scale=6.0):
    """One synthetic weather year: seasonal sinusoids plus noise for
    temperature and radiation, a gamma wet-day process for rain."""
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
    return WeatherSeries(radn=radn, tmax=tmean + 0.5 * diurnal,
                         tmin=tmean - 0.5 * diurnal, ppt=ppt)


def potential_yield(plant_population, fertilizer):
    """Stress-free yield for a management combination, t/ha."""
    y = 9.0 + 0.25 * (plant_population - 6) + 0.004 * (fertilizer - 200)
    return min(y, POTENTIAL_YIELD_CAP)


def initial_sm(management):
    return SM_MIN + management.initial_soil_water * (SM_SAT - SM_MIN)


def simulate_station_years(weathers, managements):
    """Daily water balance plus the stress-scaled yield for a batch of
    station-years, in one kernel call; one SimOutput per station-year.

    The seasonal stress index is the whole-window met-demand fraction
    multiplied by the reproductive-window fraction, so equal season totals
    with badly timed dry spells still cost yield.
    """
    sow_day, stress_mean, critical_mean, sm_s, sm_r = bucket_water_balance(
        np.stack([w.radn for w in weathers]), np.stack([w.tmax for w in weathers]),
        np.stack([w.tmin for w in weathers]), np.stack([w.ppt for w in weathers]),
        np.array([initial_sm(m) for m in managements]),
        np.array([m.sow_window_start for m in managements]),
        np.array([m.sow_window_end for m in managements]))
    # reproductive-window stress modulates up to 40% of the yield on top
    # of the season-long supply ratio
    index = stress_mean * (0.6 + 0.4 * critical_mean)
    outs = []
    for i, m in enumerate(managements):
        pot = potential_yield(m.plant_population, m.fertilizer)
        outs.append(SimOutput(sm_surface=sm_s[i], sm_rootzone=sm_r[i],
                              yield_tha=float(pot * index[i]), stress_index=float(index[i]),
                              sow_day=int(sow_day[i]), potential_yield=pot))
    return outs


# ---------------------------------------------------------------------------
# rng plumbing: every (purpose, unit, year) gets its own replayable stream

_STREAM = {
    "station_loc": 101, "county_loc": 103,
    "management": 11, "weather": 13, "decoy": 17, "scenario": 19,
    "county_mgmt": 23, "county_weather": 29, "county_scenario": 31,
    "county_effect": 37, "county_yield": 41, "county_pixels": 43,
    "county_obs": 47,
}


def _rng(seed, purpose, *key):
    return np.random.default_rng([seed, _STREAM[purpose], *key])


def _pick_scenario(rng, scenario_mix):
    names = sorted(scenario_mix)
    weights = np.array([scenario_mix[n] for n in names], dtype=np.float64)
    weights = weights / weights.sum()
    return names[int(rng.choice(len(names), p=weights))]


def station_location(seed, idx, purpose="station_loc"):
    rng = _rng(seed, purpose, idx)
    return 38.0 + 10.0 * rng.random(), -102.0 + 18.0 * rng.random()


def _composited_sample(sid, year, lat, lon, hist, yield_label, weather, sim, vis=None):
    season = ingest.season_slice
    comp = ingest.composite_16day
    wmat = np.stack([
        comp(season(weather.radn), "mean"),
        comp(season(weather.tmax), "mean"),
        comp(season(weather.tmin), "mean"),
        comp(season(weather.ppt), "sum"),
    ], axis=1)
    smat = np.stack([
        comp(season(sim.sm_surface), "mean"),
        comp(season(sim.sm_rootzone), "mean"),
    ], axis=1)
    if vis is None:
        vis = np.zeros((ingest.N_WINDOWS, 4))
    return ingest.Sample(sid=sid, year=year, lat=lat, lon=lon,
                         hist_avg_yield=hist, yield_label=yield_label,
                         weather=wmat, vis=vis, sm=smat)


def draw_field_station_year(seed, station, year, scenario_mix):
    """Every random draw for one station-year under the scenario mix.

    Returns (lat, lon), the recorded weather, the weather the water
    balance runs on, the management and the SM level shift (None for a
    faithful station-year). Anomalous station-years report one weather
    draw while their soil moisture and yield come from an opposite-rainfall
    draw with a level shift on the SM series, standing in for unrealistic
    uncalibrated simulator output: the recorded weather no longer explains
    the recorded soil moisture or yield.
    """
    lat, lon = station_location(seed, station)
    sc_rng = _rng(seed, "scenario", station, year)
    scenario = _pick_scenario(sc_rng, scenario_mix)
    wet_prob = scenario_wet_prob(sc_rng, scenario)
    event_scale = float(sc_rng.uniform(*PPT_EVENT_SCALE_RANGE))
    mgmt = sample_management(_rng(seed, "management", station, year))
    weather = synth_weather(_rng(seed, "weather", station, year), year, (lat, lon),
                            wet_prob, event_scale)
    if scenario != "anomalous":
        return (lat, lon), weather, weather, mgmt, None
    decoy_wet = wet_prob < 0.25
    decoy_prob = float(sc_rng.uniform(0.35, 0.45) if decoy_wet
                       else sc_rng.uniform(0.02, 0.08))
    decoy = synth_weather(_rng(seed, "decoy", station, year), year, (lat, lon),
                          decoy_prob, event_scale)
    # level shift pushes the series further in the decoy's direction
    shift = float(sc_rng.uniform(0.10, 0.16)) * (1.0 if decoy_wet else -1.0)
    return (lat, lon), weather, decoy, mgmt, shift


def shift_sm(sim, shift):
    """Apply an anomalous station-year's SM level shift, clipped to the
    physical range; a None shift leaves the simulation as it is."""
    if shift is not None:
        sim.sm_surface = np.clip(sim.sm_surface + shift, SM_MIN, SM_SAT)
        sim.sm_rootzone = np.clip(sim.sm_rootzone + shift, SM_MIN, SM_SAT)
    return sim


def simulate_field_station_years(seed, keys, scenario_mix):
    """Draw each (station, year) in keys, then simulate them all at once.

    Returns [((lat, lon), weather, sim)] in the order of keys. Every draw
    has its own rng stream, so the batch does not change any value.
    """
    draws = [draw_field_station_year(seed, st, year, scenario_mix) for st, year in keys]
    sims = simulate_station_years([d[2] for d in draws], [d[3] for d in draws])
    return [(loc, weather, shift_sm(sim, shift))
            for (loc, weather, _, _, shift), sim in zip(draws, sims)]


def build_field_dataset(n_stations, years, scenario_mix, seed):
    """One Sample per station-year; VI channels all zero at field level.

    The five years before the first requested year are simulated as
    warm-up so every sample gets a real 5-year historical average.
    """
    years = sorted(years)
    all_years = list(range(years[0] - 5, years[-1] + 1))
    keys = [(st, year) for st in range(n_stations) for year in all_years]
    ds = ingest.Dataset(level="field")
    history = {}
    for (st, year), ((lat, lon), weather, sim) in zip(
            keys, simulate_field_station_years(seed, keys, scenario_mix)):
        if year in years:
            hist = float(np.mean([history[st, y] for y in range(year - 5, year)]))
            ds.samples.append(_composited_sample(
                f"st{st:03d}", year, lat, lon, hist, sim.yield_tha, weather, sim))
        history[st, year] = sim.yield_tha
    ingest.label_drought(ds)
    return ds


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
    clip = lambda a, lo, hi: np.clip(a, lo, hi)
    return (clip(red, 0.01, 0.6), clip(nir, 0.02, 0.95), clip(blue, 0.005, 0.3),
            clip(green, 0.01, 0.5), clip(swir, 0.02, 0.8))


def draw_county_year(seed, county, year, scenario_mix):
    """Location, weather and management of one county-year."""
    lat, lon = station_location(seed, county, purpose="county_loc")
    sc_rng = _rng(seed, "county_scenario", county, year)
    scenario = _pick_scenario(sc_rng, scenario_mix)
    wet_prob = scenario_wet_prob(sc_rng, scenario)
    event_scale = float(sc_rng.uniform(*PPT_EVENT_SCALE_RANGE))
    mgmt = sample_management(_rng(seed, "county_mgmt", county, year))
    weather = synth_weather(_rng(seed, "county_weather", county, year), year, (lat, lon),
                            wet_prob, event_scale)
    return (lat, lon), weather, mgmt


def county_outcome(seed, county, year, sim):
    """Reported county yield and daily canopy for a simulated county-year.

    The reported yield adds a management effect (visible through the
    canopy and hence the VIs) plus observation noise on top of the
    simulated yield.
    """
    effect = float(_rng(seed, "county_effect", county, year).normal(0.0, 1.0))
    noise = float(_rng(seed, "county_yield", county, year).lognormal(0.0, 0.16))
    # multiplicative observation model: low yields carry proportionally
    # low noise, so crop failures stay near zero instead of clipping
    county_yield = sim.yield_tha * np.exp(0.10 * effect) * noise
    canopy = _canopy_curve(sim.sow_day, sim.stress_index, effect)
    return county_yield, canopy


PIXELS_PER_COUNTY = 5  # 4 corn-masked + 1 unmasked


def build_county_inputs(n_counties, years, scenario_mix, seed, pixels_path, daily_path,
                        truth_path, scenario_overrides=None):
    """Write the three county ingestion CSVs (pixels, daily, truth).

    scenario_overrides maps specific years to their own scenario mix, so
    drought frequency can vary across years the way real seasons do.
    """
    years = sorted(years)
    overrides = {int(k): v for k, v in (scenario_overrides or {}).items()}
    all_years = list(range(years[0] - 5, years[-1] + 1))
    season = ingest.season_slice
    start = ingest.SEASON_START_DOY

    pixel_cols = {name: [] for name in ("county_id", "date", "red", "nir", "blue", "green", "swir", "corn_mask")}
    daily_rows = []
    truth_rows = []

    keys = [(c, year) for c in range(n_counties) for year in all_years]
    draws = [draw_county_year(seed, c, year, overrides.get(year, scenario_mix))
             for c, year in keys]
    sims = simulate_station_years([d[1] for d in draws], [d[2] for d in draws])
    history = {}
    for (c, year), ((lat, lon), weather, _), sim in zip(keys, draws, sims):
        sid = f"c{c:03d}"
        county_yield, canopy = county_outcome(seed, c, year, sim)
        history[c, year] = county_yield
        if year not in years:
            continue
        hist = float(np.mean([history[c, y] for y in range(year - 5, year)]))
        truth_rows.append((sid, year, lat, lon, county_yield, hist))

        dates = [date_str(year, start + d) for d in range(ingest.SEASON_DAYS)]
        # gridded-product observation noise: the county record is a
        # noisy view of the true weather/SM that drove the simulation
        obs = _rng(seed, "county_obs", c, year)
        nd = ingest.SEASON_DAYS
        sradn = np.clip(season(weather.radn) + obs.normal(0, 1.5, nd), 0.1, None)
        stmax = season(weather.tmax) + obs.normal(0, 0.8, nd)
        stmin = np.minimum(season(weather.tmin) + obs.normal(0, 0.8, nd), stmax)
        sppt = np.clip(season(weather.ppt) * obs.lognormal(0.0, 0.20, nd)
                       + obs.normal(0, 0.3, nd), 0.0, None)
        ssm_s = np.clip(season(sim.sm_surface) + obs.normal(0, 0.02, nd), SM_MIN, SM_SAT)
        ssm_r = np.clip(season(sim.sm_rootzone) + obs.normal(0, 0.02, nd), SM_MIN, SM_SAT)
        for d in range(ingest.SEASON_DAYS):
            daily_rows.append((sid, dates[d], sradn[d], stmax[d], stmin[d], sppt[d],
                               ssm_s[d], ssm_r[d]))

        px_rng = _rng(seed, "county_pixels", c, year)
        scanopy = season(canopy)
        true_sm_s = season(sim.sm_surface)  # reflectance follows the true state
        for p in range(PIXELS_PER_COUNTY):
            corn = p < PIXELS_PER_COUNTY - 1
            red, nir, blue, green, swir = _pixel_reflectances(px_rng, scanopy, true_sm_s, corn)
            pixel_cols["county_id"].extend([sid] * ingest.SEASON_DAYS)
            pixel_cols["date"].extend(dates)
            pixel_cols["red"].extend(red.tolist())
            pixel_cols["nir"].extend(nir.tolist())
            pixel_cols["blue"].extend(blue.tolist())
            pixel_cols["green"].extend(green.tolist())
            pixel_cols["swir"].extend(swir.tolist())
            pixel_cols["corn_mask"].extend([corn] * ingest.SEASON_DAYS)

    table = ingest.PixelTable(
        county_id=np.array(pixel_cols["county_id"]),
        date=np.array(pixel_cols["date"]),
        red=np.array(pixel_cols["red"]), nir=np.array(pixel_cols["nir"]),
        blue=np.array(pixel_cols["blue"]), green=np.array(pixel_cols["green"]),
        swir=np.array(pixel_cols["swir"]),
        corn_mask=np.array(pixel_cols["corn_mask"], dtype=bool))
    ingest.write_pixels_csv(pixels_path, table)
    ingest.write_daily_csv(daily_path, daily_rows)
    ingest.write_truth_csv(truth_path, truth_rows)
    return table
