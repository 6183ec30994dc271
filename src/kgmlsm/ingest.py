"""Feature construction: vegetation indices from band reflectances,
cropland-masked spatial averaging, 16-day compositing over the April to
October season, seasonal soil-moisture means and drought labeling, plus
the schemas of the samples, pixels, daily and truth CSVs: each one map
from column name, in header order, to kind (the text format itself is
`artifacts`).

Seasonal layout: April 1 through October 31 is 214 days. The first 208
days form 13 windows of 16 days; the trailing 6 days are dropped.
Precipitation composites by window sum, everything else by window mean:
COMPOSITE_RULES says so, and the manifest records it per channel.

This module alone knows how a Dataset holds its samples: one record
array of SAMPLE_DTYPE. stack_dataset is the one array view of a dataset,
and Dataset.from_arrays, its inverse, the one way in from arrays.
"""

import collections
import contextlib
import operator
from dataclasses import dataclass, field

import numpy as np

from . import artifacts
from .errors import MissingCoverage, SchemaError, ShapeError

SEASON_START_DOY = 90  # 0-based index of April 1 in a 365-day year
SEASON_DAYS = 214  # April 1 .. October 31
WINDOW_DAYS = 16
N_WINDOWS = SEASON_DAYS // WINDOW_DAYS  # 13
DROUGHT_QUANTILE = 0.2  # a sample is drought-flagged below this quantile of its year's sbar

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


# ---------------------------------------------------------------------------
# samples and datasets

# One record per sample. sid is an object field, so that no id read from a
# file is cut to a fixed width; sbar is no field, stack_dataset derives it.
SAMPLE_DTYPE = np.dtype([
    ("sid", object), ("year", np.int64),
    *((name, np.float64) for name in ("lat", "lon", "hist_avg_yield", "yield_label")),
    ("weather", np.float64, (N_WINDOWS, 4)), ("vis", np.float64, (N_WINDOWS, 4)),
    ("sm", np.float64, (N_WINDOWS, 2)), ("drought_flag", bool)])


@dataclass
class Dataset:
    level: str  # "field" | "county"
    samples: np.recarray = field(default_factory=list)  # SAMPLE_DTYPE records, or a list of them

    def __post_init__(self):
        # an array of SAMPLE_DTYPE is viewed, not copied
        self.samples = np.asarray(self.samples, dtype=SAMPLE_DTYPE).view(np.recarray)

    @classmethod
    def from_arrays(cls, level, arrays):
        """The dataset whose stack_dataset arrays these are. The "sbar" key
        and the year column of "aux" are not read: sbar is always derived
        from "s"."""
        n = len(arrays["ids"])
        got = tuple(np.shape(arrays[key]) for key in "wvs")
        if got != ((n, N_WINDOWS, 4), (n, N_WINDOWS, 4), (n, N_WINDOWS, 2)):
            raise ShapeError(f"{level} dataset of {n} samples: bad w/v/s series shapes "
                             f"{got[0]}/{got[1]}/{got[2]}, not ({n}, {N_WINDOWS}, 4|4|2)")
        samples = np.empty(n, dtype=SAMPLE_DTYPE)
        for name, column in zip(SAMPLE_DTYPE.names, (
                arrays["ids"], arrays["years"], *arrays["aux"][:, 1:].T, arrays["y"],
                arrays["w"], arrays["v"], arrays["s"], arrays["drought"])):
            samples[name] = column
        return cls(level, samples)

    def __len__(self):
        return len(self.samples)

    def subset(self, idx):
        """The samples at positions idx, in that order, at the same level."""
        return Dataset(self.level, self.samples[np.asarray(idx, dtype=np.intp)])


def stack_dataset(dataset):
    """The one array view of a dataset, one row per sample in order: a
    contiguous copy of each field.

    Keys: "ids" and "years"; "w", "v" and "s", the (N, T, 4), (N, T, 4) and
    (N, T, 2) weather, VI and SM series; "aux", the (N, 4) auxiliaries in
    AUX_FIELDS order; "y", "sbar" and "drought", the yield labels, seasonal
    SM means (over all windows and both layers) and drought flags.
    """
    r = dataset.samples
    return {"ids": r.sid.astype(str), "years": r.year.copy(), "w": r.weather.copy(),
            "v": r.vis.copy(), "s": r.sm.copy(),
            "aux": np.column_stack([r.year, r.lat, r.lon, r.hist_avg_yield]),
            "y": r.yield_label.copy(), "sbar": _sbar(r), "drought": r.drought_flag.copy()}


def _sbar(records):
    """Each record's seasonal SM mean, over all windows and both layers."""
    return records["sm"].reshape(len(records), 2 * N_WINDOWS).mean(axis=1)


def channel_major(arrays):
    """(N, 10 T) series values of stack_dataset arrays, channel-major: every
    window of radn, then of tmax, ... then sm_rootzone (the samples CSV
    column order and the model's token order)."""
    series = np.concatenate([arrays["w"], arrays["v"], arrays["s"]], axis=2)  # (N, T, 10)
    return series.transpose(0, 2, 1).reshape(len(series), len(SERIES_CHANNELS) * N_WINDOWS)


def label_drought(dataset):
    """Flag samples whose sbar falls strictly below their year's quantile."""
    r = dataset.samples
    sbar, flags = _sbar(r), r.drought_flag  # a view: each year's group is written into the records
    for year in np.unique(r.year):
        group = r.year == year
        flags[group] = sbar[group] < np.quantile(sbar[group], DROUGHT_QUANTILE)
    return dataset


# ---------------------------------------------------------------------------
# CSV schemas: each CSV's column names, in header order, mapped to the kind
# artifacts.read_csv parses the column as
#
# samples.csv is wide: id,year,lat,lon,hist_avg_yield,yield,sbar,drought_flag,
# then w_1..w_52, v_1..v_52, s_1..s_26 in channel-major manifest order
# (w_1..w_13 = radn windows 1..13, w_14..w_26 = tmax, ...).

SAMPLE_KINDS = {"id": str, "year": np.int64,
                **dict.fromkeys(["lat", "lon", "hist_avg_yield", "yield", "sbar"], np.float64),
                "drought_flag": bool,
                **dict.fromkeys([f"{key}_{i + 1}" for key, n in (("w", 4), ("v", 4), ("s", 2))
                                 for i in range(n * N_WINDOWS)], np.float64)}
PIXELS_KINDS = {"county_id": str, "date": str,
                **dict.fromkeys(["red", "nir", "blue", "green", "swir"], np.float64),
                "corn_mask": bool}
DAILY_KINDS = {"id": str, "date": str, **dict.fromkeys(WEATHER_CHANNELS + SM_CHANNELS, np.float64)}
TRUTH_KINDS = {"id": str, "year": np.int64,
               **dict.fromkeys(["lat", "lon", "yield", "hist_avg_yield"], np.float64)}


def manifest_path(csv_path):
    return csv_path.rsplit(".", 1)[0] + "_manifest.json"


def write_samples_csv(dataset, csv_path):
    """Write a dataset's samples.csv, each column a view of its records
    (the series channel-major), and its manifest."""
    csv_path, r = str(csv_path), dataset.samples
    artifacts.write_csv(csv_path, SAMPLE_KINDS, [
        r.sid, r.year, r.lat, r.lon, r.hist_avg_yield, r.yield_label, _sbar(r), r.drought_flag,
        *(r[name][:, t, c] for name, width in (("weather", 4), ("vis", 4), ("sm", 2))
          for c in range(width) for t in range(N_WINDOWS))])
    artifacts.write_json(manifest_path(csv_path), channel_manifest(dataset.level))
    return csv_path


def read_samples_csv(csv_path):
    csv_path = str(csv_path)
    manifest_file = manifest_path(csv_path)
    manifest = artifacts.read_json(manifest_file)
    if not isinstance(manifest, dict) or manifest != channel_manifest(manifest.get("level")):
        raise SchemaError(f"manifest {manifest_file} does not match the schema of its level")
    if manifest["level"] not in ("field", "county"):
        raise SchemaError(f"{manifest_file} describes {manifest['level']!r} samples, but "
                          f"{csv_path} must hold 'field' or 'county' samples")

    cols = artifacts.read_csv(csv_path, SAMPLE_KINDS)
    n = len(cols["id"])
    if not n:
        raise SchemaError(f"{csv_path} holds no samples")
    # each column is popped into the records, so that it is held once
    samples = np.empty(n, dtype=SAMPLE_DTYPE)
    for name, column in (("sid", "id"), ("year", "year"), ("lat", "lat"), ("lon", "lon"),
                         ("hist_avg_yield", "hist_avg_yield"), ("yield_label", "yield"),
                         ("drought_flag", "drought_flag")):
        samples[name] = cols.pop(column)
    sbar = cols.pop("sbar")
    for name, key, width in (("weather", "w", 4), ("vis", "v", 4), ("sm", "s", 2)):
        for c in range(width):  # channel-major: every window of a channel in turn
            for t in range(N_WINDOWS):
                samples[name][:, t, c] = cols.pop(f"{key}_{c * N_WINDOWS + t + 1}")
    ids, years, sm = samples["sid"], samples["year"], samples["sm"]
    negative = sm < 0  # soil moisture is a water content
    if negative.any():
        row = np.argmax(negative.any(axis=(1, 2)))
        col = np.argmax(negative[row].T.ravel())  # the s_ column, channel-major
        raise SchemaError(f"{csv_path}: column 's_{col + 1}' has a negative soil moisture "
                          f"{float(sm[row, col % N_WINDOWS, col // N_WINDOWS])!r} for "
                          f"{ids[row]}/{years[row]}")
    stale = np.abs(_sbar(samples) - sbar) > 1e-9
    if stale.any():
        i = np.argmax(stale)
        raise SchemaError(f"stale sbar for {ids[i]}/{years[i]} in {csv_path}")
    if len(set(zip(ids.tolist(), years.tolist()))) != n:
        raise SchemaError(f"duplicate (id, year) keys in {csv_path}")
    return Dataset(manifest["level"], samples)


def write_pixels_csv(path, tables):
    """Write PixelTables one after another, each county's rows together;
    no table is held past its block."""
    artifacts.write_csv_blocks(path, PIXELS_KINDS, map(operator.attrgetter(*PIXELS_KINDS), tables))


def _counties(path, kinds, rows):
    """Yield a CSV whose first column is a county id one county at a time,
    in file order, as a dict from column name to array: the file is read a
    block of rows at a time (artifacts.read_csv_blocks), and a county's
    rows are joined across the blocks they span; a file without rows
    yields nothing. A block's last run of rows, which may go on in the next
    block, is copied out of it, so that no block is held while the next is
    parsed. Refuses a county whose rows resume after another county's,
    calling them its `rows` rows."""
    key, ended, parts = next(iter(kinds)), set(), []
    for block in artifacts.read_csv_blocks(path, kinds):
        runs = list(_runs(block[key]))
        for i, (lo, hi) in enumerate(runs, 1):
            sid = block[key][lo]
            if parts and sid != parts[0][key][0]:
                yield _joined(parts)
                parts = []
            if not parts:
                if sid in ended:
                    raise SchemaError(f"{path}: the rows of county {sid} resume after another "
                                      f"county's; each county's {rows} rows must be contiguous")
                ended.add(sid)
            last = i == len(runs)
            parts.append({name: column[lo:hi].copy() if last else column[lo:hi]
                          for name, column in block.items()})
        block = None  # the next block is parsed without this one
    if parts:
        yield _joined(parts)


def _joined(parts):
    """Runs of one county's rows joined into one dict of column arrays."""
    return {name: np.concatenate([part[name] for part in parts]) for name in parts[0]}


def _runs(ids):
    """The (start, end) of each run of equal adjacent ids."""
    ends = (np.flatnonzero(ids[1:] != ids[:-1]) + 1).tolist() + [len(ids)]
    return zip([0] + ends[:-1], ends) if len(ids) else ()


def read_pixels_csv(path):
    """Yield pixels.csv one county at a time, in file order, as PixelTables
    (_counties)."""
    return (PixelTable(**cols) for cols in _counties(path, PIXELS_KINDS, "pixel"))


@contextlib.contextmanager
def daily_csv_writer(path):
    """Yield write(ids, dates, values), which appends rows to daily.csv,
    values each row's six numbers in DAILY_KINDS order, (rows, 6); the file
    replaces path when the with-block completes (artifacts.csv_writer)."""
    with artifacts.csv_writer(path, DAILY_KINDS) as write:
        yield lambda ids, dates, values: write([ids, dates, *np.reshape(values, (-1, 6)).T])


def read_daily_csv(path):
    """Yield daily.csv one county at a time, in file order (_counties), as
    (ids, years, dates, values (n, 6)), its rows sorted by year, then date."""
    for cols in _counties(path, DAILY_KINDS, "daily"):
        values = np.stack([cols.pop(name) for name in WEATHER_CHANNELS + SM_CHANNELS], axis=1)
        ids, dates = cols["id"], cols["date"]
        # a date's first four characters as digit values; any other character
        # (or a short date's padding) wraps to a large unsigned value
        digits = dates.astype("U4").view(np.uint32).reshape(len(dates), 4) - ord("0")
        bad = (digits > 9).any(axis=1)
        if bad.any():
            raise SchemaError(f"{path}: column 'date' has a cell that is not a date: "
                              f"{dates[np.argmax(bad)].item()!r}")
        years = digits.astype(np.int64) @ np.array([1000, 100, 10, 1])
        order = np.lexsort((dates, years))  # stable: rows in order keep it
        if (order[1:] < order[:-1]).any():
            ids, years, dates, values = ids[order], years[order], dates[order], values[order]
        yield ids, years, dates, values


def write_truth_csv(path, columns):
    """columns: id, year, lat, lon, yield and hist_avg_yield, as TRUTH_KINDS orders them."""
    artifacts.write_csv(path, TRUTH_KINDS, columns)


def read_truth_csv(path):
    """The truth CSV as a dict of column arrays, keyed by TRUTH_KINDS."""
    return artifacts.read_csv(path, TRUTH_KINDS)


def _county_means(pixels_path):
    """Yield spatial_average_all of each county of pixels_path, in file
    order; a county-date without coverage is refused naming the file."""
    for table in read_pixels_csv(pixels_path):
        try:
            means = spatial_average_all(table)
        except MissingCoverage as e:
            raise SchemaError(f"{pixels_path}: {e}") from e
        yield means


def _parting(sid, want, pixel_sid, got):
    """None if pixel county pixel_sid, on dates got, is daily county sid,
    on dates want; else the (county, date) at which the two files part:
    the first date of the county on which they differ, or the lesser of
    two counties that differ, on its first date."""
    if pixel_sid != sid:
        return min((s, d[0].item()) for s, d in ((sid, want), (pixel_sid, got))
                   if s is not None)
    if len(got) != len(want) or (got != want).any():
        m = min(len(got), len(want))
        j = np.argmax(np.append(got[:m] != want[:m], True))  # m if one is the other's start
        return sid, min(d[j].item() for d in (got, want) if j < len(d))
    return None


def _check_daily(daily_path, ids, years, dates):
    """The first row of each year of a read_daily_csv county, refused unless
    each has one row on each of its season_dates."""
    first = np.r_[True, years[1:] != years[:-1]]
    starts = np.flatnonzero(first)  # each county-year's first row
    # rows are in date order within a county-year, so a repeated date is the previous row's
    repeated = np.r_[False, (dates[1:] == dates[:-1]) & ~first[1:]]
    bad = np.diff(np.append(starts, len(ids))) != SEASON_DAYS
    bad[np.cumsum(first)[repeated] - 1] = True
    if bad.any():
        i = starts[np.argmax(bad)]
        raise SchemaError(f"{daily_path}: county {ids[i]}/{years[i]} does not have one row on "
                          f"each of {SEASON_DAYS} distinct dates")
    season_years, at = np.unique(years[starts], return_inverse=True)
    expected = np.array([season_dates(year) for year in season_years.tolist()],
                        dtype="U10").reshape(-1, SEASON_DAYS)
    off_season = np.zeros(len(starts), dtype=bool)
    for day, got in enumerate(dates.reshape(len(starts), SEASON_DAYS).T):  # one day of each
        off_season |= got != expected[at, day]
    if off_season.any():
        i = starts[np.argmax(off_season)]
        raise SchemaError(f"{daily_path}: county {ids[i]}/{years[i]} has dates outside the "
                          "season, April 1 to October 31")
    return starts


def build_county_dataset(pixels_path, daily_path, truth_path):
    """Assemble the county-level dataset from the three ingestion CSVs.

    One sample per (id, year) of the daily CSV: counties in file order,
    each county's years in order. Each must have one daily row on each of
    its season_dates, pixels on exactly those dates and a truth row. Pixels
    of any other county-year are refused, as are pixel counties in another
    order than the daily counties and a truth file that repeats an (id,
    year); truth rows of other county-years are not read. The truth file
    is read whole; the daily and pixels files one county at a time, and
    each daily county is checked, joined to the next pixel county's VI
    means (_county_means, _parting) and to its truth rows, and composited
    before the next is read. Where the two files part, both are still
    read to the end, so that a refusal of either file alone (a county that
    resumes, say) comes first; the parting is named after that.
    """
    truth = read_truth_csv(truth_path)
    keys = list(zip(truth["id"].tolist(), truth["year"].tolist()))
    truth_row = dict(zip(keys, range(len(keys))))
    if len(truth_row) < len(keys):
        count = collections.Counter(keys)
        i = next(i for i, key in enumerate(keys) if count[key] > 1)
        raise SchemaError(f"{truth_path}: county {truth['id'][i]}/{truth['year'][i]} has more "
                          "than one row")

    pixel_counties = _county_means(pixels_path)
    # each sample has a truth row of its own, so there are no more samples than truth rows
    parted, samples, n = None, np.empty(len(keys), dtype=SAMPLE_DTYPE), 0
    for ids, years, dates, values in read_daily_csv(daily_path):
        starts = _check_daily(daily_path, ids, years, dates)
        if parted is None:
            pixel_ids, pixel_dates, vi = next(pixel_counties, ([None], None, None))
            parted = _parting(ids[0], dates, pixel_ids[0], pixel_dates)
        if parted is not None:
            continue  # the files have parted: the rest is read only for its own refusals
        gid, gyear, k = ids[starts], years[starts], len(starts)
        row = np.array([truth_row.get(key, -1) for key in zip(gid.tolist(), gyear.tolist())],
                       dtype=np.intp)
        if (row < 0).any():
            i = np.argmax(row < 0)
            raise SchemaError(f"county {gid[i]}/{gyear[i]} missing from truth csv {truth_path}")
        lat, lon, hist = (truth[name][row] for name in ("lat", "lon", "hist_avg_yield"))
        series = composite_16day(values.reshape(k, SEASON_DAYS, 6).transpose(0, 2, 1),
                                 [COMPOSITE_RULES[name] for name in WEATHER_CHANNELS + SM_CHANNELS])
        vis = composite_16day(vi.reshape(k, SEASON_DAYS, 4).transpose(0, 2, 1),
                              [COMPOSITE_RULES[name] for name in VI_CHANNELS])
        samples[n: n + k] = Dataset.from_arrays("county", {
            "ids": gid, "years": gyear, "w": series[:, :4].transpose(0, 2, 1),
            "v": vis.transpose(0, 2, 1), "s": series[:, 4:].transpose(0, 2, 1),
            "aux": np.column_stack([gyear, lat, lon, hist]),
            "y": truth["yield"][row], "drought": np.zeros(k, dtype=bool)}).samples
        n += k
    # pixel counties after the last daily county part the files too
    parted = parted or next(((sid[0], got[0].item()) for sid, got, _ in pixel_counties), None)
    for _ in pixel_counties:  # the rest of the pixels is read for its own refusals
        pass
    if parted:
        sid, date = parted
        raise SchemaError(f"{pixels_path}: county {sid}/{date[:4]}: pixel dates differ from "
                          f"the daily dates in {daily_path}")
    return Dataset("county", samples[:n])
