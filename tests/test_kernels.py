import math

import numpy as np

from kgmlsm.kernels import (BARE_ET_FRAC, CRITICAL_END, CRITICAL_START, CROP_DURATION_DAYS,
                            DEPTH_ROOTZONE, DEPTH_SURFACE, DRAIN_RATE_ROOTZONE,
                            DRAIN_RATE_SURFACE, HARGREAVES_COEF, SM_FC, SM_MIN, SM_SAT,
                            SOW_SM_THRESHOLD, SURFACE_ET_FRAC, bucket_water_balance)


def _bucket_loop(radn, tmax, tmin, ppt, sm_s0, sm_r0, sow_start, sow_end,
                 sm_s_out, sm_r_out):
    """Scalar reference: one station-year, one day at a time.

    The batched kernel must match it bit for bit. Returns (sow_day,
    stress_mean, critical_mean) and fills the per-day SM outputs.
    """
    n = radn.shape[0]
    sm_s = sm_s0
    sm_r = sm_r0
    sow_day = -1
    stress_sum = 0.0
    stress_days = 0
    critical_sum = 0.0
    critical_days = 0
    for d in range(n):
        if sow_day < 0 and d >= sow_start:
            if sm_r >= SOW_SM_THRESHOLD or d >= sow_end:
                sow_day = d

        tm = 0.5 * (tmax[d] + tmin[d])
        dtr = tmax[d] - tmin[d]
        if dtr < 0.0:
            dtr = 0.0
        et0 = HARGREAVES_COEF * radn[d] * (tm + 17.8) * math.sqrt(dtr)
        if et0 < 0.0:
            et0 = 0.0

        crop_active = sow_day >= 0 and d >= sow_day and d < sow_day + CROP_DURATION_DAYS
        if crop_active:
            demand = et0
        else:
            demand = BARE_ET_FRAC * et0

        w_r = sm_r * DEPTH_ROOTZONE + ppt[d]
        if w_r > SM_SAT * DEPTH_ROOTZONE:
            w_r = SM_SAT * DEPTH_ROOTZONE
        avail = w_r - SM_MIN * DEPTH_ROOTZONE
        if avail < 0.0:
            avail = 0.0
        et_act = demand if demand <= avail else avail
        w_r -= et_act
        excess = w_r - SM_FC * DEPTH_ROOTZONE
        if excess > 0.0:
            w_r -= DRAIN_RATE_ROOTZONE * excess
        sm_r = w_r / DEPTH_ROOTZONE

        if crop_active:
            if demand > 0.0:
                met = et_act / demand
            else:
                met = 1.0
            stress_sum += met
            stress_days += 1
            age = d - sow_day
            if CRITICAL_START <= age < CRITICAL_END:
                critical_sum += met
                critical_days += 1

        w_s = sm_s * DEPTH_SURFACE + ppt[d]
        if w_s > SM_SAT * DEPTH_SURFACE:
            w_s = SM_SAT * DEPTH_SURFACE
        avail_s = w_s - SM_MIN * DEPTH_SURFACE
        if avail_s < 0.0:
            avail_s = 0.0
        dem_s = SURFACE_ET_FRAC * et0
        e_s = dem_s if dem_s <= avail_s else avail_s
        w_s -= e_s
        excess_s = w_s - SM_FC * DEPTH_SURFACE
        if excess_s > 0.0:
            w_s -= DRAIN_RATE_SURFACE * excess_s
        sm_s = w_s / DEPTH_SURFACE

        sm_s_out[d] = sm_s
        sm_r_out[d] = sm_r

    stress_mean = stress_sum / stress_days if stress_days > 0 else 1.0
    critical_mean = critical_sum / critical_days if critical_days > 0 else 1.0
    return sow_day, stress_mean, critical_mean


def _random_weather(rng, n=365):
    tmean = 10 + 12 * np.sin(2 * np.pi * (np.arange(n) - 100) / 365) + rng.normal(0, 2, n)
    dtr = np.clip(8 + rng.normal(0, 2, n), 0.5, None)
    radn = np.clip(13 + 10 * np.sin(2 * np.pi * (np.arange(n) - 81) / 365), 0.1, None)
    ppt = np.where(rng.random(n) < 0.3, rng.gamma(1.3, 6.0, n), 0.0)
    return radn, tmean + dtr / 2, tmean - dtr / 2, ppt


def _constant_weather(ppt, tmax=24.0, tmin=14.0, n=365):
    return np.full(n, 18.0), np.full(n, tmax), np.full(n, tmin), np.broadcast_to(ppt, n).copy()


def _run(radn, tmax, tmin, ppt, sm0=0.30, sow_start=110, sow_end=136):
    """One station-year through the batched kernel, as a batch of one."""
    sow, stress, critical, sm_s, sm_r = bucket_water_balance(
        radn[None], tmax[None], tmin[None], ppt[None], np.array([sm0]),
        np.array([sow_start]), np.array([sow_end]))
    return int(sow[0]), stress[0] * critical[0], sm_s[0], sm_r[0]


# one mixed batch: (weather, sm0, sow_start, sow_end) per row
def _mixed_batch():
    rng = np.random.default_rng(0)
    rows = [
        (_constant_weather(0.0), 0.25, 110, 136),  # dry profile, sows at the window end
        (_random_weather(rng), 0.30, 365, 380),  # window past day 364: no crop days
        (_constant_weather(0.0, tmax=20.0, tmin=20.0), 0.30, 110, 136),  # zero demand
    ]
    mixed = _random_weather(rng)
    mixed[1][150:200] = mixed[2][150:200]  # tmax == tmin inside the crop window
    rows.append((mixed, 0.20, 112, 138))
    for i in range(8):
        rows.append((_random_weather(rng), (0.15, 0.30, 0.45)[i % 3], 109 + i % 6, 134 + i % 6))
    return rows


def _stack(rows):
    weather = [np.stack([r[0][k] for r in rows]) for k in range(4)]
    return (*weather, np.array([r[1] for r in rows]), np.array([r[2] for r in rows]),
            np.array([r[3] for r in rows]))


def test_batched_kernel_matches_scalar_reference_bitwise():
    rows = _mixed_batch()
    sow, stress, critical, sm_s, sm_r = bucket_water_balance(*_stack(rows))
    for i, ((radn, tmax, tmin, ppt), sm0, sow_start, sow_end) in enumerate(rows):
        ref_s = np.empty(365)
        ref_r = np.empty(365)
        ref = _bucket_loop(radn, tmax, tmin, ppt, sm0, sm0, sow_start, sow_end, ref_s, ref_r)
        assert (sow[i], stress[i], critical[i]) == ref
        np.testing.assert_array_equal(sm_s[i], ref_s)
        np.testing.assert_array_equal(sm_r[i], ref_r)
    assert sow[0] == 136  # dry profile sows at the window end
    assert sow[1] == -1 and stress[1] == 1.0 and critical[1] == 1.0
    assert stress[2] == 1.0 and critical[2] == 1.0  # no demand is fully met


def test_permuting_rows_permutes_outputs_exactly():
    inputs = _stack(_mixed_batch())
    perm = np.random.default_rng(3).permutation(inputs[0].shape[0])
    out = bucket_water_balance(*inputs)
    out_perm = bucket_water_balance(*(a[perm] for a in inputs))
    for a, b in zip(out, out_perm):
        np.testing.assert_array_equal(a[perm], b)


def test_sm_stays_within_physical_bounds():
    rng = np.random.default_rng(1)
    batch = [np.stack(k) for k in zip(*(_random_weather(rng) for _ in range(10)))]
    _, _, _, sm_s, sm_r = bucket_water_balance(*batch, np.full(10, 0.30),
                                               np.full(10, 110), np.full(10, 136))
    assert sm_s.min() >= SM_MIN - 1e-12 and sm_s.max() <= SM_SAT + 1e-12
    assert sm_r.min() >= SM_MIN - 1e-12 and sm_r.max() <= SM_SAT + 1e-12


def test_rain_exactly_balancing_demand_gives_unit_stress():
    """Closed form: daily inflow equal to the ET demand keeps soil water
    constant, so every crop day meets demand and the index is exactly 1."""
    et0 = HARGREAVES_COEF * 18.0 * (19.0 + 17.8) * np.sqrt(10.0)
    sow_day, stress, _, sm_r = _run(*_constant_weather(et0), sm0=0.30)
    assert sow_day == 110  # moist profile sows on the first window day
    assert stress == 1.0


def test_zero_rain_draws_rootzone_down_monotonically():
    sow_day, stress, _, sm_r = _run(*_constant_weather(0.0), sm0=0.25)
    assert sow_day == 136  # profile too dry, sows at the window end
    after = sm_r[sow_day:]
    assert np.all(np.diff(after) <= 1e-15)
    assert stress < 1.0


def test_stress_counts_only_crop_window_days():
    et0 = HARGREAVES_COEF * 18.0 * (19.0 + 17.8) * np.sqrt(10.0)
    radn, tmax, tmin, ppt = _constant_weather(et0)
    sow_day, stress, critical, _, _ = bucket_water_balance(
        radn[None], tmax[None], tmin[None], ppt[None], np.array([0.30]),
        np.array([110]), np.array([136]))
    assert sow_day[0] + CROP_DURATION_DAYS <= 365
    assert stress[0] == 1.0 and critical[0] == 1.0


def test_badly_timed_dry_spell_costs_more_than_early_one():
    """Equal season totals, different timing: a reproductive-window dry
    spell must cost more yield than an early-season one."""
    radn, tmax, tmin, base = _constant_weather(4.0, tmax=26.0)
    early = base.copy()
    early[115:150] = 0.0  # dry spell right after sowing
    late = base.copy()
    late[175:210] = 0.0  # dry spell in the reproductive window
    _, stress_early, _, _ = _run(radn, tmax, tmin, early, sm0=0.15)
    _, stress_late, _, _ = _run(radn, tmax, tmin, late, sm0=0.15)
    assert stress_late < stress_early


def test_more_rain_never_reduces_stress():
    rng = np.random.default_rng(2)
    for _ in range(5):
        radn, tmax, tmin, ppt = _random_weather(rng)
        _, stress_low, _, _ = _run(radn, tmax, tmin, ppt)
        _, stress_high, _, _ = _run(radn, tmax, tmin, ppt * 1.5)
        assert stress_high >= stress_low - 1e-12


def test_field_capacity_between_floor_and_saturation():
    assert SM_MIN < SM_FC < SM_SAT
