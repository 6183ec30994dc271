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
    s = r.sm.copy()
    return {"ids": r.sid.astype(str), "years": r.year.copy(), "w": r.weather.copy(),
            "v": r.vis.copy(), "s": s,
            "aux": np.column_stack([r.year, r.lat, r.lon, r.hist_avg_yield]),
            "y": r.yield_label.copy(), "sbar": s.reshape(len(s), 2 * N_WINDOWS).mean(axis=1),
            "drought": r.drought_flag.copy()}


def channel_major(arrays):
    """(N, 10 T) series values of stack_dataset arrays, channel-major: every
    window of radn, then of tmax, ... then sm_rootzone (the samples CSV
    column order and the model's token order)."""
    series = np.concatenate([arrays["w"], arrays["v"], arrays["s"]], axis=2)  # (N, T, 10)
    return series.transpose(0, 2, 1).reshape(len(series), len(SERIES_CHANNELS) * N_WINDOWS)


def label_drought(dataset):
    """Flag samples whose sbar falls strictly below their year's quantile."""
    a = stack_dataset(dataset)
    flags = dataset.samples.drought_flag  # a view: each year's group is written into the records
    for year in np.unique(a["years"]):
        group = a["years"] == year
        flags[group] = a["sbar"][group] < np.quantile(a["sbar"][group], DROUGHT_QUANTILE)
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
    csv_path = str(csv_path)
    a = stack_dataset(dataset)
    artifacts.write_csv(csv_path, SAMPLE_KINDS,
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

    cols = artifacts.read_csv(csv_path, SAMPLE_KINDS)
    ids, years, flags = cols.pop("id"), cols.pop("year"), cols.pop("drought_flag")
    if not len(ids):
        raise SchemaError(f"{csv_path} holds no samples")
    # lat .. sbar, then the series, popped so that only the stack holds them
    numbers = np.stack([cols.pop(name) for name in list(cols)], axis=1)
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
    stale = np.abs(stack_dataset(ds)["sbar"] - numbers[:, 4]) > 1e-9
    if stale.any():
        i = np.argmax(stale)
        raise SchemaError(f"stale sbar for {ids[i]}/{years[i]} in {csv_path}")
    if len(set(zip(ids.tolist(), years.tolist()))) != n:
        raise SchemaError(f"duplicate (id, year) keys in {csv_path}")
    return ds


def write_pixels_csv(path, tables):
    """Write PixelTables one after another, each county's rows together."""
    artifacts.write_csv_blocks(path, PIXELS_KINDS, (
        [getattr(table, name) for name in PIXELS_KINDS] for table in tables))


def read_pixels_csv(path):
    """Yield pixels.csv as PixelTables of whole counties, in file order: the
    file is read a block of rows at a time, and the rows of a block's last
    county carry over into the next. A file without rows yields one empty
    table. Refuses a county whose rows resume after another county's."""
    ended, carry = set(), None
    for cols in artifacts.read_csv_blocks(path, PIXELS_KINDS):
        if carry is not None:
            cols = {name: np.concatenate([carry[name], cols[name]]) for name in PIXELS_KINDS}
        ids = cols["county_id"]
        starts = np.flatnonzero(np.r_[len(ids) > 0, ids[1:] != ids[:-1]])  # each county's first row
        for sid in ids[starts].tolist():
            if sid in ended:
                raise SchemaError(f"{path}: the rows of county {sid} resume after another "
                                  "county's; each county's pixel rows must be contiguous")
            ended.add(sid)
        ended.difference_update(ids[starts[-1:]].tolist())  # its rows go on into the next block
        cut = starts[-1] if len(starts) else 0
        if cut:
            yield PixelTable(**{name: column[:cut] for name, column in cols.items()})
        carry = {name: column[cut:] for name, column in cols.items()}
    yield PixelTable(**carry)


def write_daily_csv(path, blocks):
    """blocks: (ids, dates, values) row blocks, values each row's six numbers
    in DAILY_KINDS order, (rows, 6)."""
    artifacts.write_csv_blocks(path, DAILY_KINDS, (
        [ids, dates, *np.reshape(values, (-1, 6)).T] for ids, dates, values in blocks))


def read_daily_csv(path):
    """daily.csv as (ids, years, dates, values (n, 6)), its rows sorted by
    id, then year, then date."""
    cols = artifacts.read_csv(path, DAILY_KINDS)
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
    order = np.lexsort((dates, years, ids))  # stable: rows already in order keep it
    if (order[1:] < order[:-1]).any():
        ids, years, dates, values = ids[order], years[order], dates[order], values[order]
    return ids, years, dates, values


def write_truth_csv(path, columns):
    """columns: id, year, lat, lon, yield and hist_avg_yield, as TRUTH_KINDS orders them."""
    artifacts.write_csv(path, TRUTH_KINDS, columns)


def read_truth_csv(path):
    """The truth CSV as a dict of column arrays, keyed by TRUTH_KINDS."""
    return artifacts.read_csv(path, TRUTH_KINDS)


def _vi_means(pixels_path, daily_path, ids, dates):
    """The VI means (n, 4) on each row of the sorted daily ids and dates.

    Each block of whole counties of pixels_path goes through
    spatial_average_all, and each county's means join the rows of its
    daily dates. Refused unless every county's pixel dates are its daily
    dates, naming the first county-date, in county then date order, at
    which the two tables part.
    """
    counties, first, n_rows = np.unique(ids, return_index=True, return_counts=True)
    vi = np.empty((len(ids), len(VI_CHANNELS)))
    seen = np.zeros(len(counties), dtype=bool)
    parted = []  # per county whose dates differ: the (county, date) at which they part
    for block in read_pixels_csv(pixels_path):
        vi_ids, vi_dates, means = spatial_average_all(block)
        names, at, size = np.unique(vi_ids, return_index=True, return_counts=True)
        for sid, lo, n in zip(names.tolist(), at.tolist(), size.tolist()):
            got = vi_dates[lo: lo + n]
            k = np.searchsorted(counties, sid)
            want = dates[:0]
            if k < len(counties) and counties[k] == sid:
                seen[k] = True
                want = dates[first[k]: first[k] + n_rows[k]]
            if len(got) == len(want) and (got == want).all():
                vi[first[k]: first[k] + n] = means[lo: lo + n]
                continue
            m = min(len(got), len(want))
            j = np.argmax(np.append(got[:m] != want[:m], True))  # m if one is the other's start
            parted.append((sid, min(d[j].item() for d in (got, want) if j < len(d))))
    parted += [(sid, dates[i].item()) for sid, i in zip(counties[~seen].tolist(), first[~seen])]
    if parted:
        sid, date = min(parted)
        raise SchemaError(f"{pixels_path}: county {sid}/{date[:4]}: pixel dates differ from "
                          f"the daily dates in {daily_path}")
    return vi


def build_county_dataset(pixels_path, daily_path, truth_path):
    """Assemble the county-level dataset from the three ingestion CSVs.

    One sample per (id, year) of the daily CSV, in id then year order. Each
    must have one daily row on each of its season_dates, pixels on exactly
    those dates and a truth row; pixels of any other county-year are
    refused, as is a truth file that repeats an (id, year). Truth rows of
    other county-years are not read. The daily and truth files are read
    whole; the pixels a block of whole counties at a time, each block
    reduced to its VI means before the next is read (_vi_means).
    """
    ids, years, dates, values = read_daily_csv(daily_path)
    truth = read_truth_csv(truth_path)

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
    expected = np.stack([season_dates(year) for year in season_years.tolist()])
    off_season = np.zeros(k, dtype=bool)
    for day, got in enumerate(dates.reshape(k, SEASON_DAYS).T):  # one day of every county-year
        off_season |= got != expected[at, day]
    if off_season.any():
        i = starts[np.argmax(off_season)]
        raise SchemaError(f"{daily_path}: county {ids[i]}/{years[i]} has dates outside the "
                          "season, April 1 to October 31")

    vi = _vi_means(pixels_path, daily_path, ids, dates)

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
                             [COMPOSITE_RULES[name] for name in WEATHER_CHANNELS + SM_CHANNELS])
    vis = composite_16day(vi.reshape(k, SEASON_DAYS, 4).transpose(0, 2, 1),
                          [COMPOSITE_RULES[name] for name in VI_CHANNELS])
    return Dataset.from_arrays("county", {
        "ids": gid, "years": gyear, "w": series[:, :4].transpose(0, 2, 1),
        "v": vis.transpose(0, 2, 1), "s": series[:, 4:].transpose(0, 2, 1),
        "aux": np.column_stack([gyear, lat, lon, hist]),
        "y": truth["yield"][row], "drought": np.zeros(k, dtype=bool)})
