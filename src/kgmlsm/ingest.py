"""Feature construction: vegetation indices from band reflectances,
cropland-masked spatial averaging, 16-day compositing over the April to
October season, seasonal soil-moisture means, drought labeling, and the
CSV schemas every stage reads and writes.

Seasonal layout: April 1 through October 31 is 214 days. The first 208
days form 13 windows of 16 days; the trailing 6 days are dropped.
Precipitation composites by window sum, everything else by window mean
(the manifest records the rule per channel).
"""

import csv
import json
from dataclasses import dataclass, field

import numpy as np

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


def spatial_average(pixels, county_id, date):
    """County-date mean of each VI over corn-masked, valid pixels.

    Raises MissingCoverage when no masked pixel exists (or a channel has
    no valid masked pixel) for the county-date.
    """
    sel = (pixels.county_id == county_id) & (pixels.date == date) & pixels.corn_mask
    if not sel.any():
        raise MissingCoverage(county_id, date)
    values, valid = compute_vi(pixels.red[sel], pixels.nir[sel], pixels.blue[sel],
                               pixels.green[sel], pixels.swir[sel])
    counts = valid.sum(axis=0)
    if (counts == 0).any():
        raise MissingCoverage(county_id, date)
    return (values * valid).sum(axis=0) / counts


def spatial_average_all(pixels):
    """Vectorized spatial_average over every (county, date) in the table.

    Returns dict (county_id, date) -> (4,) VI means. Semantics match
    spatial_average call-by-call.
    """
    values, valid = compute_vi(pixels.red, pixels.nir, pixels.blue, pixels.green, pixels.swir)
    masked = pixels.corn_mask
    keys = np.char.add(np.char.add(pixels.county_id.astype(str), "|"), pixels.date.astype(str))
    order = np.argsort(keys, kind="stable")
    keys_sorted = keys[order]
    uniq, starts = np.unique(keys_sorted, return_index=True)
    bounds = np.append(starts, len(keys_sorted))
    out = {}
    for k, lo, hi in zip(uniq, bounds[:-1], bounds[1:]):
        rows = order[lo:hi]
        rows = rows[masked[rows]]
        county, date = k.split("|", 1)
        if rows.size == 0:
            raise MissingCoverage(county, date)
        v = values[rows]
        ok = valid[rows]
        counts = ok.sum(axis=0)
        if (counts == 0).any():
            raise MissingCoverage(county, date)
        out[(county, date)] = (v * ok).sum(axis=0) / counts
    return out


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

    @property
    def aux(self):
        return np.array([self.year, self.lat, self.lon, self.hist_avg_yield], dtype=np.float64)


@dataclass
class Dataset:
    level: str  # "field" | "county"
    samples: list = field(default_factory=list)

    @property
    def timesteps(self):
        return N_WINDOWS

    @property
    def manifest(self):
        return channel_manifest(self.level)

    def __len__(self):
        return len(self.samples)

    def years(self):
        return sorted({s.year for s in self.samples})

    def key_set(self):
        return {(s.sid, s.year) for s in self.samples}


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


def samples_equal(a, b):
    return (a.sid == b.sid and a.year == b.year
            and a.lat == b.lat and a.lon == b.lon
            and a.hist_avg_yield == b.hist_avg_yield
            and a.yield_label == b.yield_label
            and a.sbar == b.sbar and a.drought_flag == b.drought_flag
            and np.array_equal(a.weather, b.weather)
            and np.array_equal(a.vis, b.vis)
            and np.array_equal(a.sm, b.sm))


def datasets_equal(a, b):
    if a.level != b.level or len(a) != len(b):
        return False
    return all(samples_equal(x, y) for x, y in zip(a.samples, b.samples))


# ---------------------------------------------------------------------------
# CSV schemas
#
# samples.csv is wide: id,year,lat,lon,hist_avg_yield,yield,sbar,drought_flag,
# then w_1..w_52, v_1..v_52, s_1..s_26 in channel-major manifest order
# (w_1..w_13 = radn windows 1..13, w_14..w_26 = tmax, ...).


def _fmt(x):
    return repr(float(x))


def _sample_header():
    cols = ["id", "year", "lat", "lon", "hist_avg_yield", "yield", "sbar", "drought_flag"]
    cols += [f"w_{i + 1}" for i in range(4 * N_WINDOWS)]
    cols += [f"v_{i + 1}" for i in range(4 * N_WINDOWS)]
    cols += [f"s_{i + 1}" for i in range(2 * N_WINDOWS)]
    return cols


def _manifest_path(csv_path):
    return csv_path.rsplit(".", 1)[0] + "_manifest.json"


def write_samples_csv(dataset, csv_path):
    csv_path = str(csv_path)
    with open(csv_path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(_sample_header())
        for s in dataset.samples:
            row = [s.sid, str(s.year), _fmt(s.lat), _fmt(s.lon), _fmt(s.hist_avg_yield),
                   _fmt(s.yield_label), _fmt(s.sbar), str(int(s.drought_flag))]
            row += [_fmt(x) for x in s.weather.T.reshape(-1)]
            row += [_fmt(x) for x in s.vis.T.reshape(-1)]
            row += [_fmt(x) for x in s.sm.T.reshape(-1)]
            w.writerow(row)
    with open(_manifest_path(csv_path), "w", encoding="utf-8") as f:
        json.dump(channel_manifest(dataset.level), f, indent=2, sort_keys=True)
        f.write("\n")
    return csv_path


def read_samples_csv(csv_path):
    csv_path = str(csv_path)
    manifest_path = _manifest_path(csv_path)
    try:
        with open(manifest_path, encoding="utf-8") as f:
            manifest = json.load(f)
    except FileNotFoundError:
        raise SchemaError(f"missing manifest for {csv_path}")
    level = manifest["level"]
    expected = channel_manifest(level)
    if manifest != expected:
        raise SchemaError(f"manifest {manifest_path} does not match the {level}-level schema")

    ds = Dataset(level=level)
    with open(csv_path, newline="", encoding="utf-8") as f:
        r = csv.reader(f)
        header = next(r, None)
        if header != _sample_header():
            raise SchemaError(f"unexpected header in {csv_path}")
        nw = 4 * N_WINDOWS
        for row in r:
            vals = row[8:]
            # C-contiguous layout keeps later reductions bit-identical to
            # the arrays the writer saw
            weather = np.ascontiguousarray(
                np.array(vals[:nw], dtype=np.float64).reshape(4, N_WINDOWS).T)
            vis = np.ascontiguousarray(
                np.array(vals[nw: 2 * nw], dtype=np.float64).reshape(4, N_WINDOWS).T)
            sm = np.ascontiguousarray(
                np.array(vals[2 * nw:], dtype=np.float64).reshape(2, N_WINDOWS).T)
            s = Sample(sid=row[0], year=int(row[1]), lat=float(row[2]), lon=float(row[3]),
                       hist_avg_yield=float(row[4]), yield_label=float(row[5]),
                       weather=weather, vis=vis, sm=sm,
                       drought_flag=bool(int(row[7])))
            if abs(s.sbar - float(row[6])) > 1e-9:
                raise SchemaError(f"stale sbar for {s.sid}/{s.year} in {csv_path}")
            ds.samples.append(s)
    if len({(s.sid, s.year) for s in ds.samples}) != len(ds.samples):
        raise SchemaError(f"duplicate (id, year) keys in {csv_path}")
    return ds


PIXELS_HEADER = ["county_id", "date", "red", "nir", "blue", "green", "swir", "corn_mask"]
DAILY_HEADER = ["id", "date", "radn", "tmax", "tmin", "ppt", "sm_surface", "sm_rootzone"]
TRUTH_HEADER = ["id", "year", "lat", "lon", "yield", "hist_avg_yield"]


def write_pixels_csv(path, table):
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(PIXELS_HEADER)
        for i in range(len(table)):
            w.writerow([table.county_id[i], table.date[i], _fmt(table.red[i]), _fmt(table.nir[i]),
                        _fmt(table.blue[i]), _fmt(table.green[i]), _fmt(table.swir[i]),
                        str(int(table.corn_mask[i]))])


def read_pixels_csv(path):
    cols = {name: [] for name in PIXELS_HEADER}
    with open(path, newline="", encoding="utf-8") as f:
        r = csv.reader(f)
        header = next(r, None)
        if header != PIXELS_HEADER:
            raise SchemaError(f"unexpected header in {path}")
        for row in r:
            for name, val in zip(PIXELS_HEADER, row):
                cols[name].append(val)
    return PixelTable(
        county_id=np.array(cols["county_id"]),
        date=np.array(cols["date"]),
        red=np.array(cols["red"], dtype=np.float64),
        nir=np.array(cols["nir"], dtype=np.float64),
        blue=np.array(cols["blue"], dtype=np.float64),
        green=np.array(cols["green"], dtype=np.float64),
        swir=np.array(cols["swir"], dtype=np.float64),
        corn_mask=np.array(cols["corn_mask"], dtype=np.int64).astype(bool),
    )


def write_daily_csv(path, rows):
    """rows: iterable of (id, date, radn, tmax, tmin, ppt, sm_surface, sm_rootzone)."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(DAILY_HEADER)
        for sid, date, *vals in rows:
            w.writerow([sid, date] + [_fmt(v) for v in vals])


def read_daily_csv(path):
    """Group daily.csv rows into dict (id, year) -> (dates, values (n, 6))."""
    groups = {}
    with open(path, newline="", encoding="utf-8") as f:
        r = csv.reader(f)
        header = next(r, None)
        if header != DAILY_HEADER:
            raise SchemaError(f"unexpected header in {path}")
        for row in r:
            sid, date = row[0], row[1]
            year = int(date[:4])
            groups.setdefault((sid, year), []).append((date, [float(x) for x in row[2:]]))
    out = {}
    for key, entries in groups.items():
        entries.sort(key=lambda e: e[0])
        dates = [e[0] for e in entries]
        vals = np.array([e[1] for e in entries], dtype=np.float64)
        out[key] = (dates, vals)
    return out


def write_truth_csv(path, rows):
    """rows: iterable of (id, year, lat, lon, yield, hist_avg_yield)."""
    with open(path, "w", newline="", encoding="utf-8") as f:
        w = csv.writer(f)
        w.writerow(TRUTH_HEADER)
        for sid, year, lat, lon, yld, hist in rows:
            w.writerow([sid, str(year), _fmt(lat), _fmt(lon), _fmt(yld), _fmt(hist)])


def read_truth_csv(path):
    out = {}
    with open(path, newline="", encoding="utf-8") as f:
        r = csv.reader(f)
        header = next(r, None)
        if header != TRUTH_HEADER:
            raise SchemaError(f"unexpected header in {path}")
        for row in r:
            out[(row[0], int(row[1]))] = {
                "lat": float(row[2]), "lon": float(row[3]),
                "yield": float(row[4]), "hist_avg_yield": float(row[5]),
            }
    return out


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
