"""Feature construction: vegetation indices from band reflectances,
cropland-masked spatial averaging, 16-day compositing over the April to
October season, seasonal soil-moisture means and drought labeling, plus
the header and column types of the samples, pixels, daily and truth CSVs
(the text format itself is `artifacts`).

Seasonal layout: April 1 through October 31 is 214 days. The first 208
days form 13 windows of 16 days; the trailing 6 days are dropped.
Precipitation composites by window sum, everything else by window mean:
COMPOSITE_RULES says so, and the manifest records it per channel.

This module alone knows how a Dataset holds its samples: stack_dataset
is the one array view of a dataset, and Dataset.from_arrays, its
inverse, the one place a Sample is built.
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

CHANNEL_CATEGORY = {**dict.fromkeys(WEATHER_CHANNELS, "Weather"),
                    **dict.fromkeys(VI_CHANNELS, "VIs"), **dict.fromkeys(SM_CHANNELS, "SM")}


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

    Returns (county_ids, dates, means (n, 4)), one row per county-date in
    county then date order. One np.bincount per channel sums the masked
    rows of every county-date at once, adding them in row order. Raises
    MissingCoverage for a county-date with no masked pixel, or with a
    channel that has no valid masked pixel.
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
    county_ids, dates = counties[keys // len(dates)], dates[keys % len(dates)]
    uncovered = (counts == 0).any(axis=1)
    if uncovered.any():
        raise MissingCoverage(county_ids[np.argmax(uncovered)], dates[np.argmax(uncovered)])
    return county_ids, dates, sums / counts


# ---------------------------------------------------------------------------
# temporal compositing


def season_dates(year):
    """The SEASON_DAYS ISO dates of a year's season, April 1 .. October 31."""
    return (np.datetime64(f"{year}-04-01") + np.arange(SEASON_DAYS)).astype("U10")


def composite_16day(daily, rule="mean"):
    """Collapse seasonal daily series, the last axis of a (..., days) array
    covering >= 208 days from April 1, into 13 16-day values; later days
    are dropped. rule is "mean" or "sum", or one of them per channel of a
    (..., channels, days) array. Each window's 16 days are summed along
    the last, unit-stride axis, so a batch composites bit for bit as each
    series would alone; a mean is that sum over 16, as np.mean computes it.
    """
    daily = np.asarray(daily, dtype=np.float64)
    if daily.ndim == 0 or daily.shape[-1] < N_WINDOWS * WINDOW_DAYS:
        raise ShapeError(f"composite_16day: season needs >= {N_WINDOWS * WINDOW_DAYS} days, "
                         f"got shape {daily.shape}")
    rules = np.asarray(rule)
    if not np.isin(rules, ("mean", "sum")).all():
        raise ValueError(f"unknown compositing rule {rule!r}")
    sums = np.ascontiguousarray(daily[..., : N_WINDOWS * WINDOW_DAYS]).reshape(
        daily.shape[:-1] + (N_WINDOWS, WINDOW_DAYS)).sum(axis=-1)
    return np.where((rules == "mean")[..., None], sums / WINDOW_DAYS, sums)


def season_slice(yearly):
    """The April 1 .. October 31 span of 365-day series, along the last axis."""
    yearly = np.asarray(yearly, dtype=np.float64)
    if yearly.ndim == 0 or yearly.shape[-1] < SEASON_START_DOY + SEASON_DAYS:
        raise ShapeError(f"season_slice: need >= {SEASON_START_DOY + SEASON_DAYS} days, "
                         f"got shape {yearly.shape}")
    return yearly[..., SEASON_START_DOY: SEASON_START_DOY + SEASON_DAYS]


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

    @classmethod
    def from_arrays(cls, level, arrays):
        """The dataset whose stack_dataset arrays these are, one Sample per
        row: the one place a Sample is built. sbar is always derived from
        "s"; the "sbar" key and the year column of "aux" are not read."""
        w, v, s = (np.ascontiguousarray(arrays[key], dtype=np.float64) for key in "wvs")
        rows = zip(arrays["ids"].tolist(), arrays["years"].tolist(),
                   *arrays["aux"][:, 1:].T.tolist(), arrays["y"].tolist(), w, v, s,
                   arrays["drought"].tolist())
        return cls(level=level, samples=[
            Sample(sid=sid, year=year, lat=lat, lon=lon, hist_avg_yield=hist, yield_label=y,
                   weather=weather, vis=vis, sm=sm, drought_flag=flag)
            for sid, year, lat, lon, hist, y, weather, vis, sm, flag in rows])

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
# the kind of each column, as artifacts.read_csv parses it
SAMPLE_KINDS = {**dict.fromkeys(SAMPLE_HEADER, np.float64), "id": str, "year": np.int64,
                "drought_flag": bool}
PIXELS_KINDS = {**dict.fromkeys(PIXELS_HEADER, np.float64), "county_id": str, "date": str,
                "corn_mask": bool}
DAILY_KINDS = {**dict.fromkeys(DAILY_HEADER, np.float64), "id": str, "date": str}
TRUTH_KINDS = {**dict.fromkeys(TRUTH_HEADER, np.float64), "id": str, "year": np.int64}


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

    cols = artifacts.read_csv(csv_path, SAMPLE_HEADER, SAMPLE_KINDS)
    numbers = np.stack([cols.pop(name) for name in SAMPLE_HEADER[2:7] + SAMPLE_HEADER[8:]],
                       axis=1)
    ids, years, flags = cols["id"], cols["year"], cols["drought_flag"]
    n, series = len(numbers), numbers[:, 5:]
    sm_cells = series[:, 8 * N_WINDOWS:]
    if (sm_cells < 0).any():  # soil moisture is a water content
        row, col = np.unravel_index(np.argmax(sm_cells < 0), sm_cells.shape)
        raise SchemaError(f"{csv_path}: column 's_{col + 1}' has a negative soil moisture "
                          f"{float(sm_cells[row, col])!r} for {ids[row]}/{years[row]}")
    w, v, sm = (series[:, lo * N_WINDOWS: hi * N_WINDOWS].reshape(n, hi - lo, N_WINDOWS)
                .transpose(0, 2, 1) for lo, hi in ((0, 4), (4, 8), (8, 10)))
    ds = Dataset.from_arrays(manifest["level"], {
        "ids": ids, "years": years, "w": w, "v": v, "s": sm,
        "aux": np.column_stack([years, numbers[:, :3]]), "y": numbers[:, 3], "drought": flags})
    stale = np.abs(np.array([s.sbar for s in ds.samples]) - numbers[:, 4]) > 1e-9
    if stale.any():
        s = ds.samples[np.argmax(stale)]
        raise SchemaError(f"stale sbar for {s.sid}/{s.year} in {csv_path}")
    if len(ds.key_set()) != len(ds):
        raise SchemaError(f"duplicate (id, year) keys in {csv_path}")
    return ds


def write_pixels_csv(path, table):
    artifacts.write_csv(path, PIXELS_HEADER, [getattr(table, name) for name in PIXELS_HEADER])


def read_pixels_csv(path):
    return PixelTable(**artifacts.read_csv(path, PIXELS_HEADER, PIXELS_KINDS))


def write_daily_csv(path, ids, dates, values):
    """values: each row's six numbers in DAILY_HEADER order, as (rows, 6) or row blocks."""
    artifacts.write_csv(path, DAILY_HEADER, [ids, dates, *np.reshape(values, (-1, 6)).T])


def read_daily_csv(path):
    """daily.csv as (ids, years, dates, values (n, 6)), its rows sorted by
    id, then year, then date."""
    cols = artifacts.read_csv(path, DAILY_HEADER, DAILY_KINDS)
    values = np.stack([cols.pop(name) for name in DAILY_HEADER[2:]], axis=1)  # each freed here
    ids, dates = cols["id"], cols["date"]
    # a date's first four characters as digit values; any other character
    # (or a short date's padding) wraps to a large unsigned value
    digits = dates.astype("U4").view(np.uint32).reshape(len(dates), 4) - ord("0")
    bad = (digits > 9).any(axis=1)
    if bad.any():
        raise SchemaError(f"{path}: column 'date' has a cell that is not a date: "
                          f"{dates[np.argmax(bad)].item()!r}")
    years = digits.astype(np.int64) @ np.array([1000, 100, 10, 1])
    order = np.lexsort((dates, years, ids))
    return ids[order], years[order], dates[order], values[order]


def write_truth_csv(path, rows):
    """rows: list of (id, year, lat, lon, yield, hist_avg_yield)."""
    columns = [[r[i] for r in rows] for i in range(len(TRUTH_HEADER))]
    artifacts.write_csv(path, TRUTH_HEADER, columns)


def read_truth_csv(path):
    """The truth CSV as a dict of column arrays, keyed by TRUTH_HEADER."""
    return dict(artifacts.read_csv(path, TRUTH_HEADER, TRUTH_KINDS))


def build_county_dataset(pixels_path, daily_path, truth_path):
    """Assemble the county-level dataset from the three ingestion CSVs.

    One sample per (id, year) of the daily CSV, in id then year order. Each
    must have one daily row on each of its season_dates, pixels on exactly
    those dates and a truth row; pixels of any other county-year are
    refused, as is a truth file that repeats an (id, year). Truth rows of
    other county-years are not read.
    """
    pixels = read_pixels_csv(pixels_path)
    ids, years, dates, values = read_daily_csv(daily_path)
    truth = read_truth_csv(truth_path)
    vi_ids, vi_dates, vi = spatial_average_all(pixels)

    first = np.ones(len(ids), dtype=bool)
    first[1:] = (ids[1:] != ids[:-1]) | (years[1:] != years[:-1])
    starts = np.flatnonzero(first)  # each county-year's first row
    # rows are in date order within a county-year, so a repeated date is the previous row's
    repeated = np.zeros(len(ids), dtype=bool)
    repeated[1:] = (dates[1:] == dates[:-1]) & ~first[1:]
    bad = np.diff(np.append(starts, len(ids))) != SEASON_DAYS
    bad[np.cumsum(first)[repeated] - 1] = True
    if bad.any():
        i = starts[np.argmax(bad)]
        raise SchemaError(f"{daily_path}: county {ids[i]}/{years[i]} does not have one row on "
                          f"each of {SEASON_DAYS} distinct dates")
    gid, gyear, k = ids[starts], years[starts], len(starts)
    season_years, at = np.unique(gyear, return_inverse=True)
    expected = np.stack([season_dates(year) for year in season_years.tolist()])[at].ravel()
    off_season = dates != expected
    if off_season.any():
        i = np.argmax(off_season)
        raise SchemaError(f"{daily_path}: county {ids[i]}/{years[i]} has dates outside the "
                          "season, April 1 to October 31")

    # both tables are in county then date order: they line up row for row
    # when every county-year has its pixels on its daily dates
    n = min(len(ids), len(vi_ids))
    differ = np.flatnonzero((ids[:n] != vi_ids[:n]) | (dates[:n] != vi_dates[:n]))
    if len(differ) or len(ids) != len(vi_ids):
        i = differ[0] if len(differ) else n
        sid, date = min((a[i].item(), d[i].item()) for a, d in ((ids, dates), (vi_ids, vi_dates))
                        if i < len(a))
        raise SchemaError(f"{pixels_path}: county {sid}/{date[:4]}: pixel dates differ from "
                          f"the daily dates in {daily_path}")

    # each sample's truth row: code the (id, year) keys of both files together
    _, code = np.unique(np.rec.fromarrays([np.concatenate([gid, truth["id"]]),
                                           np.concatenate([gyear, truth["year"]])]),
                        return_inverse=True)
    repeated = np.bincount(code[k:])[code[k:]] > 1
    if repeated.any():
        i = np.argmax(repeated)
        raise SchemaError(f"{truth_path}: county {truth['id'][i]}/{truth['year'][i]} has more "
                          "than one row")
    row = np.full(len(code), -1)
    row[code[k:]] = np.arange(len(code) - k)
    row = row[code[:k]]
    if (row < 0).any():
        i = np.argmax(row < 0)
        raise SchemaError(f"county {gid[i]}/{gyear[i]} missing from truth csv {truth_path}")

    lat, lon, hist = (truth[name][row] for name in ("lat", "lon", "hist_avg_yield"))
    series = composite_16day(values.reshape(k, SEASON_DAYS, 6).transpose(0, 2, 1),
                             [COMPOSITE_RULES[name] for name in DAILY_HEADER[2:]])
    vis = composite_16day(vi.reshape(k, SEASON_DAYS, 4).transpose(0, 2, 1),
                          [COMPOSITE_RULES[name] for name in VI_CHANNELS])
    return Dataset.from_arrays("county", {
        "ids": gid, "years": gyear, "w": series[:, :4].transpose(0, 2, 1),
        "v": vis.transpose(0, 2, 1), "s": series[:, 4:].transpose(0, 2, 1),
        "aux": np.column_stack([gyear, lat, lon, hist]),
        "y": truth["yield"][row], "drought": np.zeros(k, dtype=bool)})
