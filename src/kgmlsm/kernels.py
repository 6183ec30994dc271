"""Daily two-bucket water-balance kernel.

Each day depends on the previous day's soil state, so the loop runs over
the 365 days of the year; the station-years of a whole build ride along
as an (N,) state updated with elementwise numpy ops, one call per build.
There is one implementation and nothing is read from the environment.

Water is tracked in mm over two buckets: a 50 mm surface layer and a
1000 mm rootzone. Each day: rain infiltrates, overflow above saturation
runs off, evapotranspiration is drawn up to availability, and water above
field capacity drains. Crop water stress on a day is the met fraction of
the ET demand; the seasonal stress index is its mean over the crop window.
"""

import numpy as np

SM_MIN = 0.05  # wilting floor, volumetric fraction
SM_SAT = 0.55  # saturation ceiling
SM_FC = 0.35  # field capacity, drainage threshold
DEPTH_SURFACE = 50.0  # mm
DEPTH_ROOTZONE = 1000.0  # mm
DRAIN_RATE_ROOTZONE = 0.3  # fraction of above-FC water drained per day
DRAIN_RATE_SURFACE = 0.5
SURFACE_ET_FRAC = 0.7  # surface evaporation demand as a fraction of ET0
BARE_ET_FRAC = 0.4  # rootzone ET demand outside the crop window
SOW_SM_THRESHOLD = 0.25  # rootzone moisture needed to trigger sowing
CROP_DURATION_DAYS = 150
# reproductive window (days after sowing) where water stress is most
# damaging; the seasonal index multiplies the window mean into the total
CRITICAL_START = 55
CRITICAL_END = 95
# Hargreaves-style demand scaled so midsummer ET0 lands near 4-5 mm/day
# with measured (not extraterrestrial) radiation driving it.
HARGREAVES_COEF = 0.00216


def _bucket_step(w, ppt, demand, depth, drain_rate):
    """One day of one bucket: rain, saturation overflow, ET up to the
    water above the wilting floor, drainage above field capacity.

    Returns (new water content in mm, actual ET in mm)."""
    w = w + ppt
    w = np.where(w > SM_SAT * depth, SM_SAT * depth, w)
    avail = w - SM_MIN * depth
    avail = np.where(avail < 0.0, 0.0, avail)
    et_act = np.where(demand <= avail, demand, avail)
    w = w - et_act
    excess = w - SM_FC * depth
    w = np.where(excess > 0.0, w - drain_rate * excess, w)
    return w, et_act


def _window_mean(total, days):
    """Mean met fraction over a window; 1.0 (no stress) for empty windows."""
    return np.divide(total, days, out=np.ones_like(total), where=days > 0)


def bucket_water_balance(radn, tmax, tmin, ppt, sm0, sow_start, sow_end):
    """Run the daily balance over a batch of station-years.

    radn/tmax/tmin/ppt are (N, days) daily series; sm0, sow_start and
    sow_end are (N,): the starting volumetric SM of both buckets and the
    0-based day-of-year bounds of the sowing window. The crop is sown on
    the first window day with rootzone SM >= SOW_SM_THRESHOLD, else at the
    window end (-1 when the window starts after the last day).

    Returns (sow_day, stress_mean, critical_mean, sm_surface, sm_rootzone):
    the sowing day, the met-demand fraction averaged over the whole crop
    window and over the reproductive window (1.0 for a window with no
    days), each (N,), and the daily SM of both buckets, each (N, days).
    """
    n, days = radn.shape
    sm_s = sm_r = np.asarray(sm0, dtype=np.float64)
    sow_day = np.full(n, -1, dtype=np.int64)
    stress_sum = np.zeros(n)
    stress_days = np.zeros(n, dtype=np.int64)
    critical_sum = np.zeros(n)
    critical_days = np.zeros(n, dtype=np.int64)
    sm_s_out = np.empty((n, days))
    sm_r_out = np.empty((n, days))
    for d in range(days):
        sows = (sow_day < 0) & (d >= sow_start) & ((sm_r >= SOW_SM_THRESHOLD) | (d >= sow_end))
        sow_day[sows] = d

        tm = 0.5 * (tmax[:, d] + tmin[:, d])
        dtr = tmax[:, d] - tmin[:, d]
        dtr = np.where(dtr < 0.0, 0.0, dtr)
        et0 = HARGREAVES_COEF * radn[:, d] * (tm + 17.8) * np.sqrt(dtr)
        et0 = np.where(et0 < 0.0, 0.0, et0)

        crop_active = (sow_day >= 0) & (d >= sow_day) & (d < sow_day + CROP_DURATION_DAYS)
        demand = np.where(crop_active, et0, BARE_ET_FRAC * et0)

        # rootzone bucket (contains the full profile; receives all rain)
        w_r, et_act = _bucket_step(sm_r * DEPTH_ROOTZONE, ppt[:, d], demand,
                                   DEPTH_ROOTZONE, DRAIN_RATE_ROOTZONE)
        sm_r = w_r / DEPTH_ROOTZONE

        met = np.divide(et_act, demand, out=np.ones(n), where=demand > 0.0)
        np.add(stress_sum, met, out=stress_sum, where=crop_active)
        stress_days += crop_active
        age = d - sow_day
        critical = crop_active & (CRITICAL_START <= age) & (age < CRITICAL_END)
        np.add(critical_sum, met, out=critical_sum, where=critical)
        critical_days += critical

        # surface bucket (diagnostic top layer, dries and rewets fast)
        w_s, _ = _bucket_step(sm_s * DEPTH_SURFACE, ppt[:, d], SURFACE_ET_FRAC * et0,
                              DEPTH_SURFACE, DRAIN_RATE_SURFACE)
        sm_s = w_s / DEPTH_SURFACE

        sm_s_out[:, d] = sm_s
        sm_r_out[:, d] = sm_r

    return (sow_day, _window_mean(stress_sum, stress_days),
            _window_mean(critical_sum, critical_days), sm_s_out, sm_r_out)
