"""Feature construction: vegetation indices from band reflectances,
cropland-masked spatial averaging, 16-day compositing over the April to
October season, seasonal soil-moisture means and drought labeling, plus
the header and column types of the samples, pixels, daily and truth CSVs
(the text format itself is `artifacts`).

Seasonal layout: April 1 through October 31 is 214 days. The first 208
days form 13 windows of 16 days; the trailing 6 days are dropped.
Precipitation composites by window sum, everything else by window mean
(the manifest records the rule per channel).
"""

from dataclasses import dataclass, field

import numpy as np

from . import artifacts
from .errors import MissingCoverage, SchemaError, ShapeError

SEASON_START_DOY = 90  # 0-based index of April 1 in a 365-day year
SEASON_DAYS = 214  # April 1 .. October 31
WINDOW_DAYS = 16
N_WINDOWS = SEASON_DAYS // WINDOW_DAYS  # 13

WEATHER_CHANNELS = ("radn", "tmax", "tmin", "ppt")
VI_CHANNELS = ("gcvi", "evi", "ndwi", "ndvi")
SM_CHANNELS = ("sm_surface", "sm_rootzone")
SERIES_CHANNELS = WEATHER_CHANNELS + VI_CHANNELS + SM_CHANNELS
AUX_FIELDS = ("year", "lat", "lon", "hist_avg_yield")

COMPOSITE_RULES = {name: ("sum" if name == "ppt" else "mean") for name in SERIES_CHANNELS}

CHANNEL_CATEGORY = {}
for _name in WEATHER_CHANNELS:
    CHANNEL_CATEGORY[_name] = "Weather"
for _name in VI_CHANNELS:
    CHANNEL_CATEGORY[_name] = "VIs"
for _name in SM_CHANNELS:
    CHANNEL_CATEGORY[_name] = "SM"


def channel_manifest(level):
    return {
        "level": level,
        "timesteps": N_WINDOWS,
        "window_days": WINDOW_DAYS,
        "season_days": SEASON_DAYS,
        "weather_channels": list(WEATHER_CHANNELS),
        "vi_channels": list(VI_CHANNELS),
        "sm_channels": list(SM_CHANNELS),
        "aux_fields": list(AUX_FIELDS),
        "compositing": dict(COMPOSITE_RULES),
        "categories": dict(CHANNEL_CATEGORY),
    }


# ---------------------------------------------------------------------------
# vegetation indices


def compute_vi(red, nir, blue, green, swir):
    """Four vegetation indices from band reflectances in [0, 1].

    Returns (values, valid): values has shape (..., 4) ordered
    (GCVI, EVI, NDWI, NDVI); valid flags entries whose denominator was
    exactly zero as False so callers can exclude them from averages.
    """
    red = np.asarray(red, dtype=np.float64)
    nir = np.asarray(nir, dtype=np.float64)
    blue = np.asarray(blue, dtype=np.float64)
    green = np.asarray(green, dtype=np.float64)
    swir = np.asarray(swir, dtype=np.float64)

    den_gcvi = green
    den_evi = nir + 6.0 * red - 7.5 * blue + 1.0
    den_ndwi = nir + swir
    den_ndvi = nir + red
    valid = np.stack([den_gcvi != 0.0, den_evi != 0.0, den_ndwi != 0.0, den_ndvi != 0.0], axis=-1)

    with np.errstate(divide="ignore", invalid="ignore"):
        gcvi = nir / den_gcvi - 1.0
        evi = 2.5 * (nir - red) / den_evi
        ndwi = (nir - swir) / den_ndwi
        ndvi = (nir - red) / den_ndvi
    values = np.stack([gcvi, evi, ndwi, ndvi], axis=-1)
    values = np.where(valid, values, 0.0)
    return values, valid


# ---------------------------------------------------------------------------
# pixel tables and spatial averaging


@dataclass
class PixelTable:
    """Column store for pixels.csv rows."""

    county_id: np.ndarray  # str
    date: np.ndarray  # ISO str
    red: np.ndarray
    nir: np.ndarray
    blue: np.ndarray
    green: np.ndarray
    swir: np.ndarray
    corn_mask: np.ndarray  # bool

    def __len__(self):
        return len(self.county_id)


def spatial_average_all(pixels):
    """County-date mean of each VI over the corn-masked pixels whose index
    is valid (compute_vi), for every (county, date) in the table.

    Returns dict (county_id, date) -> (4,) VI means, in county then date
    order. One np.bincount per channel sums the masked rows of every
    county-date at once, adding them in row order. Raises MissingCoverage
    for a county-date with no masked pixel, or with a channel that has no
    valid masked pixel.
    """
    counties, county_code = np.unique(pixels.county_id, return_inverse=True)
    dates, date_code = np.unique(pixels.date, return_inverse=True)
    keys, group = np.unique(county_code * len(dates) + date_code, return_inverse=True)
    values, valid = compute_vi(pixels.red, pixels.nir, pixels.blue, pixels.green, pixels.swir)
    masked = pixels.corn_mask
    group, values, valid = group[masked], values[masked], valid[masked]
    sums = np.stack([np.bincount(group, weights=values[:, i], minlength=len(keys))
                     for i in range(len(VI_CHANNELS))], axis=1)
    counts = np.stack([np.bincount(group, weights=valid[:, i], minlength=len(keys))
                       for i in range(len(VI_CHANNELS))], axis=1)
    names = zip(counties[keys // len(dates)].tolist(), dates[keys % len(dates)].tolist())
    uncovered = (counts == 0).any(axis=1)
    if uncovered.any():
        raise MissingCoverage(*list(names)[np.argmax(uncovered)])
    return dict(zip(names, sums / counts))


# ---------------------------------------------------------------------------
# temporal compositing


def composite_16day(daily, rule="mean"):
    """Collapse a seasonal daily series into 13 16-day values.

    daily must cover the season (>= 208 days starting April 1); days past
    day 208 are dropped. rule is "mean" or "sum".
    """
    daily = np.asarray(daily, dtype=np.float64)
    if daily.ndim != 1:
        raise ShapeError(f"composite_16day: expected 1-D daily series, got shape {daily.shape}")
    if daily.size < N_WINDOWS * WINDOW_DAYS:
        raise ShapeError(
            f"composite_16day: season needs >= {N_WINDOWS * WINDOW_DAYS} days, got {daily.size}")
    windows = daily[: N_WINDOWS * WINDOW_DAYS].reshape(N_WINDOWS, WINDOW_DAYS)
    if rule == "mean":
        return windows.mean(axis=1)
    if rule == "sum":
        return windows.sum(axis=1)
    raise ValueError(f"unknown compositing rule {rule!r}")


def season_slice(yearly):
    """Extract the April 1 .. October 31 span from a 365-day series."""
    yearly = np.asarray(yearly, dtype=np.float64)
    if yearly.size < SEASON_START_DOY + SEASON_DAYS:
        raise ShapeError(f"season_slice: need >= {SEASON_START_DOY + SEASON_DAYS} days, got {yearly.size}")
    return yearly[SEASON_START_DOY: SEASON_START_DOY + SEASON_DAYS]


def seasonal_sm_mean(sm):
    """Season mean over all timesteps and both soil-moisture layers."""
    sm = np.asarray(sm, dtype=np.float64)
    return float(sm.mean())


# ---------------------------------------------------------------------------
# samples and datasets


@dataclass
class Sample:
    sid: str
    year: int
    lat: float
    lon: float
    hist_avg_yield: float
    yield_label: float
    weather: np.ndarray  # (T, 4)
    vis: np.ndarray  # (T, 4)
    sm: np.ndarray  # (T, 2)
    sbar: float = None
    drought_flag: bool = False

    def __post_init__(self):
        self.weather = np.asarray(self.weather, dtype=np.float64)
        self.vis = np.asarray(self.vis, dtype=np.float64)
        self.sm = np.asarray(self.sm, dtype=np.float64)
        if self.weather.shape != (N_WINDOWS, 4) or self.vis.shape != (N_WINDOWS, 4) \
                or self.sm.shape != (N_WINDOWS, 2):
            raise ShapeError(
                f"sample {self.sid}/{self.year}: bad channel shapes "
                f"{self.weather.shape}/{self.vis.shape}/{self.sm.shape}")
        # sbar is always derived from the sm matrix; never trusted from callers
        self.sbar = seasonal_sm_mean(self.sm)


@dataclass
class Dataset:
    level: str  # "field" | "county"
    samples: list = field(default_factory=list)

    def __len__(self):
        return len(self.samples)

    def key_set(self):
        return {(s.sid, s.year) for s in self.samples}

    def subset(self, idx):
        """The samples at positions idx, in that order, at the same level."""
        return Dataset(level=self.level, samples=[self.samples[i] for i in idx])


def stack_dataset(dataset):
    """The one array view of a dataset, one row per sample in order.

    Keys: "ids" and "years"; "w", "v" and "s", the (N, T, 4), (N, T, 4) and
    (N, T, 2) weather, VI and SM series; "aux", the (N, 4) auxiliaries in
    AUX_FIELDS order; "y", "sbar" and "drought", the yield labels, seasonal
    SM means and drought flags.
    """
    ss, n = dataset.samples, len(dataset)
    return {
        "ids": np.array([s.sid for s in ss], dtype=str),
        "years": np.array([s.year for s in ss], dtype=np.int64),
        "w": np.array([s.weather for s in ss], dtype=np.float64).reshape(n, N_WINDOWS, 4),
        "v": np.array([s.vis for s in ss], dtype=np.float64).reshape(n, N_WINDOWS, 4),
        "s": np.array([s.sm for s in ss], dtype=np.float64).reshape(n, N_WINDOWS, 2),
        "aux": np.array([[s.year, s.lat, s.lon, s.hist_avg_yield] for s in ss],
                        dtype=np.float64).reshape(n, len(AUX_FIELDS)),
        "y": np.array([s.yield_label for s in ss], dtype=np.float64),
        "sbar": np.array([s.sbar for s in ss], dtype=np.float64),
        "drought": np.array([s.drought_flag for s in ss], dtype=bool),
    }


def channel_major(arrays):
    """(N, 10 T) series values of stack_dataset arrays, channel-major: every
    window of radn, then of tmax, ... then sm_rootzone (the samples CSV
    column order and the model's token order)."""
    series = np.concatenate([arrays["w"], arrays["v"], arrays["s"]], axis=2)  # (N, T, 10)
    return series.transpose(0, 2, 1).reshape(len(series), len(SERIES_CHANNELS) * N_WINDOWS)


def label_drought(dataset, quantile=0.2):
    """Flag samples whose sbar falls strictly below the per-year quantile."""
    by_year = {}
    for s in dataset.samples:
        by_year.setdefault(s.year, []).append(s)
    for year, group in by_year.items():
        threshold = float(np.quantile([s.sbar for s in group], quantile))
        for s in group:
            s.drought_flag = bool(s.sbar < threshold)
    return dataset


# ---------------------------------------------------------------------------
# CSV schemas
#
# samples.csv is wide: id,year,lat,lon,hist_avg_yield,yield,sbar,drought_flag,
# then w_1..w_52, v_1..v_52, s_1..s_26 in channel-major manifest order
# (w_1..w_13 = radn windows 1..13, w_14..w_26 = tmax, ...).

SAMPLE_HEADER = (["id", "year", "lat", "lon", "hist_avg_yield", "yield", "sbar", "drought_flag"]
                 + [f"w_{i + 1}" for i in range(4 * N_WINDOWS)]
                 + [f"v_{i + 1}" for i in range(4 * N_WINDOWS)]
                 + [f"s_{i + 1}" for i in range(2 * N_WINDOWS)])
PIXELS_HEADER = ["county_id", "date", "red", "nir", "blue", "green", "swir", "corn_mask"]
DAILY_HEADER = ["id", "date", "radn", "tmax", "tmin", "ppt", "sm_surface", "sm_rootzone"]
TRUTH_HEADER = ["id", "year", "lat", "lon", "yield", "hist_avg_yield"]


def manifest_path(csv_path):
    return csv_path.rsplit(".", 1)[0] + "_manifest.json"


def write_samples_csv(dataset, csv_path):
    csv_path = str(csv_path)
    a = stack_dataset(dataset)
    artifacts.write_csv(csv_path, SAMPLE_HEADER,
                        [a["ids"], a["years"], *a["aux"][:, 1:].T, a["y"], a["sbar"], a["drought"],
                         *channel_major(a).T])
    artifacts.write_json(manifest_path(csv_path), channel_manifest(dataset.level))
    return csv_path


def read_samples_csv(csv_path):
    csv_path = str(csv_path)
    manifest_file = manifest_path(csv_path)
    manifest = artifacts.read_json(manifest_file)
    if not isinstance(manifest, dict) or manifest != channel_manifest(manifest.get("level")):
        raise SchemaError(f"manifest {manifest_file} does not match the schema of its level")

    cols = artifacts.read_csv(csv_path, SAMPLE_HEADER)
    numbers = np.stack([cols.floats(name) for name in SAMPLE_HEADER[2:7] + SAMPLE_HEADER[8:]],
                       axis=1)
    ids, years = np.array(cols["id"]).tolist(), cols.ints("year").tolist()
    flags = cols.bools("drought_flag").tolist()
    del cols  # a cell string kept past here would pin the memory of its neighbours
    nw = 4 * N_WINDOWS
    ds = Dataset(level=manifest["level"])
    for sid, year, flag, row in zip(ids, years, flags, numbers):
        lat, lon, hist, yld, sbar = row[:5].tolist()
        series = row[5:]
        # C-contiguous layout keeps later reductions bit-identical to
        # the arrays the writer saw
        s = Sample(sid=sid, year=year, lat=lat, lon=lon, hist_avg_yield=hist, yield_label=yld,
                   weather=np.ascontiguousarray(series[:nw].reshape(4, N_WINDOWS).T),
                   vis=np.ascontiguousarray(series[nw: 2 * nw].reshape(4, N_WINDOWS).T),
                   sm=np.ascontiguousarray(series[2 * nw:].reshape(2, N_WINDOWS).T),
                   drought_flag=flag)
        if abs(s.sbar - sbar) > 1e-9:
            raise SchemaError(f"stale sbar for {s.sid}/{s.year} in {csv_path}")
        ds.samples.append(s)
    if len(ds.key_set()) != len(ds):
        raise SchemaError(f"duplicate (id, year) keys in {csv_path}")
    return ds


def write_pixels_csv(path, table):
    artifacts.write_csv(path, PIXELS_HEADER, [getattr(table, name) for name in PIXELS_HEADER])


def read_pixels_csv(path):
    cols = artifacts.read_csv(path, PIXELS_HEADER)
    return PixelTable(county_id=np.array(cols["county_id"]), date=np.array(cols["date"]),
                      **{name: cols.floats(name) for name in PIXELS_HEADER[2:7]},
                      corn_mask=cols.bools("corn_mask"))


def write_daily_csv(path, ids, dates, values):
    """values: each row's six numbers in DAILY_HEADER order, as (rows, 6) or row blocks."""
    artifacts.write_csv(path, DAILY_HEADER, [ids, dates, *np.reshape(values, (-1, 6)).T])


def read_daily_csv(path):
    """Group daily.csv rows into dict (id, year) -> (dates, values (n, 6)),
    in id then year order, each group's rows in date order."""
    cols = artifacts.read_csv(path, DAILY_HEADER)
    values = np.stack([cols.floats(name) for name in DAILY_HEADER[2:]], axis=1)
    ids, dates = np.array(cols["id"]), np.array(cols["date"])
    del cols  # a cell string kept past here would pin the memory of its neighbours
    # a date's first four characters as digit values; any other character
    # (or a short date's padding) wraps to a large unsigned value
    digits = dates.astype("U4").view(np.uint32).reshape(len(dates), 4) - ord("0")
    bad = (digits > 9).any(axis=1)
    if bad.any():
        raise SchemaError(f"{path}: column 'date' has a cell that is not a date: "
                          f"{dates[np.argmax(bad)].item()!r}")
    years = digits.astype(np.int64) @ np.array([1000, 100, 10, 1])
    order = np.lexsort((dates, years, ids))
    ids, years, dates, values = ids[order], years[order], dates[order].tolist(), values[order]
    first = np.ones(len(ids), dtype=bool)
    first[1:] = (ids[1:] != ids[:-1]) | (years[1:] != years[:-1])
    bounds = np.append(np.flatnonzero(first), len(ids)).tolist()
    return {(ids[lo].item(), years[lo].item()): (dates[lo:hi], values[lo:hi])
            for lo, hi in zip(bounds[:-1], bounds[1:])}


def write_truth_csv(path, rows):
    """rows: list of (id, year, lat, lon, yield, hist_avg_yield)."""
    columns = [[r[i] for r in rows] for i in range(len(TRUTH_HEADER))]
    artifacts.write_csv(path, TRUTH_HEADER, columns)


def read_truth_csv(path):
    cols = artifacts.read_csv(path, TRUTH_HEADER)
    numbers = zip(*(cols.floats(name).tolist() for name in TRUTH_HEADER[2:]))
    return {(sid, year): dict(zip(TRUTH_HEADER[2:], row))
            for sid, year, row in zip(cols["id"], cols.ints("year").tolist(), numbers)}


def build_county_dataset(pixels_path, daily_path, truth_path):
    """Assemble the county-level dataset from the three ingestion CSVs."""
    pixels = read_pixels_csv(pixels_path)
    daily = read_daily_csv(daily_path)
    truth = read_truth_csv(truth_path)

    vi_by_key = spatial_average_all(pixels)
    vi_daily = {}
    for (county, date), means in vi_by_key.items():
        year = int(date[:4])
        vi_daily.setdefault((county, year), []).append((date, means))

    ds = Dataset(level="county")
    for key in sorted(daily):
        sid, year = key
        if key not in truth:
            raise SchemaError(f"county {sid}/{year} missing from truth csv")
        dates, vals = daily[key]
        if len(dates) < SEASON_DAYS:
            raise SchemaError(f"county {sid}/{year}: daily series shorter than the season")
        weather = np.stack(
            [composite_16day(vals[:, i], COMPOSITE_RULES[name])
             for i, name in enumerate(WEATHER_CHANNELS)], axis=1)
        sm = np.stack(
            [composite_16day(vals[:, 4 + i], COMPOSITE_RULES[name])
             for i, name in enumerate(SM_CHANNELS)], axis=1)

        if key not in vi_daily:
            raise SchemaError(f"county {sid}/{year} has no pixel coverage")
        entries = sorted(vi_daily[key], key=lambda e: e[0])
        vi_series = np.array([e[1] for e in entries], dtype=np.float64)
        vis = np.stack(
            [composite_16day(vi_series[:, i], "mean") for i in range(4)], axis=1)

        info = truth[key]
        ds.samples.append(Sample(
            sid=sid, year=year, lat=info["lat"], lon=info["lon"],
            hist_avg_yield=info["hist_avg_yield"], yield_label=info["yield"],
            weather=weather, vis=vis, sm=sm))
    return ds
