"""Attention interpretability reports: raw per-token weight extraction,
per-year max-normalization, category averages over the season, and
drought vs. non-drought distribution statistics.

Everything emitted downstream is recomputable from attention_raw.csv
alone; the writers here hold no hidden state.
"""

import numpy as np

from . import artifacts, ingest, model
from .errors import KgmlsmError

CATEGORIES = ("Weather", "VIs", "SM")


def extract(bundle, dataset):
    """Per-sample attention weights keyed by (id, year, channel, timestep).

    Read-only with respect to the model. Returns a dict with the raw
    (N, n_tokens) matrix, token labels, and the samples' ids, years and
    drought flags.
    """
    pred = bundle.predict(dataset)
    a = ingest.stack_dataset(dataset)
    return {"alpha": pred["alpha"], "labels": model.token_labels(bundle.config),
            "ids": a["ids"], "years": a["years"], "drought": a["drought"]}


def normalize_by_year(years, values):
    """Divide each value by the maximum within its year.

    The per-year maximum maps to exactly 1; ratios across years are not
    preserved and must not be compared.
    """
    years = np.asarray(years)
    values = np.asarray(values, dtype=np.float64)
    if values.size == 0:
        raise ValueError("normalize_by_year: empty input")
    out = np.empty_like(values)
    for year in np.unique(years):
        mask = years == year
        peak = values[mask].max()
        if peak <= 0:
            raise ValueError(f"normalize_by_year: year {year} has no positive value")
        out[mask] = values[mask] / peak
    return out


def category_average(alpha, labels):
    """Per-category, per-timestep mean of attention weights: of one
    sample's (n_tokens,) row, or of each row of an (N, n_tokens) matrix.

    Returns {(category, timestep): mean}, a scalar for a row and an (N,)
    array for a matrix; each group's tokens are added in label order.
    Every series channel must belong to exactly one category; auxiliary
    tokens (timestep -1) have no category and are excluded.
    """
    groups = {}
    for i, (channel, t) in enumerate(labels):
        if t < 0:
            continue
        if channel not in ingest.CHANNEL_CATEGORY:
            raise ValueError(f"channel {channel!r} has no category assignment")
        groups.setdefault((ingest.CHANNEL_CATEGORY[channel], t), []).append(i)
    alpha = np.asarray(alpha, dtype=np.float64)
    out = {}
    for key, idx in groups.items():
        total = np.zeros(alpha.shape[:-1])
        for i in idx:
            total += alpha[..., i]
        out[key] = total / len(idx)
    return out


def category_report(extraction):
    """Mean category attention per (year, category, timestep) over samples.

    Each year's category_average rows are added in dataset order (a sum
    over axis 0 of the year's block), so every mean is the one a
    per-sample running sum gives, bit for bit.
    """
    cats = category_average(extraction["alpha"], extraction["labels"])
    keys = sorted(cats)
    values = np.column_stack([cats[key] for key in keys])
    years = extraction["years"]
    rows = []
    for year in np.unique(years).tolist():
        block = values[years == year]
        means = (block.sum(axis=0) / len(block)).tolist()
        rows += [{"year": year, "category": cat, "timestep": t, "alpha_mean": m}
                 for (cat, t), m in zip(keys, means)]
    return rows


def sm_attention_scalar(extraction):
    """Per-sample soil-moisture attention: mean over the SM tokens."""
    idx = [i for i, (ch, t) in enumerate(extraction["labels"]) if ch in ingest.SM_CHANNELS]
    if not idx:
        raise ValueError("no soil-moisture tokens in this model variant")
    return extraction["alpha"][:, idx].mean(axis=1)


def drought_distribution_stats(values, flags):
    """Box statistics (median, quartiles, Tukey-fence outlier count) per
    drought class. Quartiles use linear interpolation."""
    values = np.asarray(values, dtype=np.float64)
    flags = np.asarray(flags, dtype=bool)
    out = {}
    for name, mask in (("drought", flags), ("non_drought", ~flags)):
        if not mask.any():
            raise ValueError(f"drought_distribution_stats: empty class {name!r}")
        v = values[mask]
        q1, med, q3 = np.percentile(v, [25, 50, 75])
        iqr = q3 - q1
        lo, hi = q1 - 1.5 * iqr, q3 + 1.5 * iqr
        out[name] = {"median": float(med), "q1": float(q1), "q3": float(q3),
                     "n": int(mask.sum()), "outliers": int(((v < lo) | (v > hi)).sum())}
    return out


def box_report(extraction):
    """drought_distribution_stats of the per-sample SM attention, per year;
    a year without both drought classes is refused."""
    sm_att = sm_attention_scalar(extraction)
    years, flags = extraction["years"], extraction["drought"]
    out = {}
    for year in np.unique(years).tolist():
        of_year = years == year
        n_drought, n_other = int(flags[of_year].sum()), int((~flags[of_year]).sum())
        if not n_drought or not n_other:
            raise KgmlsmError(f"year {year} has {n_drought} drought-flagged and {n_other} other "
                              "county samples; the attention box statistics need both classes")
        out[year] = drought_distribution_stats(sm_att[of_year], flags[of_year])
    return out


# ---------------------------------------------------------------------------
# CSV / SVG emitters


RAW_KINDS = {"id": str, "year": np.int64, "channel": str, "timestep": np.int64, "alpha": np.float64}


def write_raw_csv(path, extraction):
    """One row per (sample, token), samples in dataset order, built and
    written model.INFER_ROWS samples at a time."""
    labels = extraction["labels"]
    channels, steps = (np.array([label[i] for label in labels]) for i in (0, 1))

    def blocks():
        for lo in range(0, len(extraction["years"]), model.INFER_ROWS):
            ids, years, alpha = (extraction[k][lo:lo + model.INFER_ROWS]
                                 for k in ("ids", "years", "alpha"))
            yield [ids.repeat(len(labels)), years.repeat(len(labels)),
                   np.tile(channels, len(ids)), np.tile(steps, len(ids)), alpha.ravel()]

    artifacts.write_csv_blocks(path, RAW_KINDS, blocks())


def write_category_csv(path, rows):
    header = ["year", "category", "timestep", "alpha_mean"]
    artifacts.write_csv(path, header, [[r[k] for r in rows] for k in header])


def write_box_csv(path, stats_by_year):
    header = ["year", "class", "median", "q1", "q3", "n", "outliers"]
    rows = [{"year": year, "class": cls, **st} for year in sorted(stats_by_year)
            for cls, st in sorted(stats_by_year[year].items())]
    artifacts.write_csv(path, header, [[r[k] for r in rows] for k in header])


_SVG_COLORS = {"Weather": "#1f77b4", "VIs": "#2ca02c", "SM": "#d62728"}
SVG_WIDTH, SVG_PANEL_HEIGHT = 640, 120


def render_category_svg(path, rows):
    """Static line chart: one panel per year, one line per category."""
    years = sorted({r["year"] for r in rows})
    t_max = max(r["timestep"] for r in rows) + 1
    v_max = max(r["alpha_mean"] for r in rows) or 1.0
    margin = 36
    height = SVG_PANEL_HEIGHT * len(years) + margin
    parts = [f'<svg xmlns="http://www.w3.org/2000/svg" width="{SVG_WIDTH}" height="{height}">']
    for pi, year in enumerate(years):
        y0 = pi * SVG_PANEL_HEIGHT + 18
        parts.append(f'<text x="4" y="{y0}" font-size="11">{year}</text>')
        for cat in CATEGORIES:
            pts = [(r["timestep"], r["alpha_mean"]) for r in rows
                   if r["year"] == year and r["category"] == cat]
            if not pts:
                continue
            pts.sort()
            coords = " ".join(
                f"{margin + (SVG_WIDTH - margin - 8) * t / max(t_max - 1, 1):.1f},"
                f"{y0 + (SVG_PANEL_HEIGHT - 30) * (1 - v / v_max):.1f}"
                for t, v in pts)
            color = _SVG_COLORS.get(cat, "#333")
            parts.append(f'<polyline fill="none" stroke="{color}" stroke-width="1.5" points="{coords}"/>')
    legend = " ".join(f"{cat}={_SVG_COLORS[cat]}" for cat in CATEGORIES)
    parts.append(f'<text x="4" y="{height - 6}" font-size="10">{legend}</text>')
    parts.append("</svg>")
    artifacts.write_bytes(path, ("\n".join(parts) + "\n").encode("utf-8"))
