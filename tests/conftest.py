import os
import sys

import numpy as np
import pytest

sys.path.insert(0, os.path.join(os.path.dirname(__file__), "..", "src"))

from kgmlsm import cropsim, ingest  # noqa: E402


def make_sample(rng, sid="s0", year=2020, vis_zero=False, sm=None):
    """One sample record of random auxiliaries and series; its fields can be set."""
    weather = np.stack([
        rng.uniform(5, 25, ingest.N_WINDOWS),
        rng.uniform(15, 32, ingest.N_WINDOWS),
        rng.uniform(2, 18, ingest.N_WINDOWS),
        rng.uniform(0, 120, ingest.N_WINDOWS),
    ], axis=1)
    vis = np.zeros((ingest.N_WINDOWS, 4)) if vis_zero else rng.uniform(-0.2, 2.5, (ingest.N_WINDOWS, 4))
    if sm is None:
        sm = rng.uniform(0.05, 0.55, (ingest.N_WINDOWS, 2))
    return np.rec.array([(sid, year, float(rng.uniform(38, 48)), float(rng.uniform(-102, -84)),
                          float(rng.uniform(7, 11)), float(rng.uniform(4, 12)),
                          weather, vis, sm, False)], dtype=ingest.SAMPLE_DTYPE)[0]


def make_dataset(rng, n=10, level="county", years=(2019, 2020, 2021), vis_zero=False):
    return ingest.Dataset(level=level, samples=[
        make_sample(rng, sid=f"u{i:03d}", year=years[i % len(years)], vis_zero=vis_zero)
        for i in range(n)])


def key_set(dataset):
    """The (id, year) keys of a dataset's samples."""
    a = ingest.stack_dataset(dataset)
    return set(zip(a["ids"].tolist(), a["years"].tolist()))


def datasets_equal(a, b):
    """Same level and the same stack_dataset arrays, field by field."""
    xa, xb = ingest.stack_dataset(a), ingest.stack_dataset(b)
    return a.level == b.level and all(np.array_equal(xa[k], xb[k]) for k in xa)


@pytest.fixture(scope="session")
def tiny_field():
    """24 simulated station-years, enough for fast model tests."""
    return cropsim.build_field_dataset(
        4, [2018, 2019, 2020, 2021, 2022, 2023],
        {"normal": 0.7, "drought": 0.2, "anomalous": 0.1}, seed=11)


@pytest.fixture(scope="session")
def tiny_county(tmp_path_factory):
    """Small ingested county dataset built through the full CSV pipeline."""
    tmp = tmp_path_factory.mktemp("county")
    paths = [str(tmp / n) for n in ("pixels.csv", "daily.csv", "truth.csv")]
    cropsim.build_county_inputs(8, list(range(2018, 2024)), {"normal": 0.8, "drought": 0.2},
                                seed=11, pixels_path=paths[0], daily_path=paths[1],
                                truth_path=paths[2])
    ds = ingest.build_county_dataset(*paths)
    ingest.label_drought(ds)
    return ds


@pytest.fixture(scope="session")
def medium_pair(tmp_path_factory):
    """Field + county datasets big enough for transfer-behavior checks."""
    field = cropsim.build_field_dataset(
        12, list(range(2012, 2024)),
        {"normal": 0.7, "drought": 0.2, "anomalous": 0.1}, seed=11)
    tmp = tmp_path_factory.mktemp("medium")
    paths = [str(tmp / n) for n in ("pixels.csv", "daily.csv", "truth.csv")]
    cropsim.build_county_inputs(16, list(range(2018, 2024)),
                                {"normal": 0.75, "drought": 0.25}, seed=11,
                                pixels_path=paths[0], daily_path=paths[1],
                                truth_path=paths[2])
    county = ingest.build_county_dataset(*paths)
    ingest.label_drought(county)
    return field, county
