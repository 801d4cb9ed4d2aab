"""Seeded input generator for the benchmark.

It writes station CSVs in the ``indian`` schema
(Year,Month,Date,Time,Temp,WindSpeed,Humidity,Pressure,Rainfall) and
works out, from how it built them, what ``nowcast prepare`` must report:
parsed rows, hourly records, filled hours, segments, skipped segments,
windows, positives, train/test rows and container bytes. It imports
nothing from ``nowcast``, so the expectations do not share code with the
program they check.

Two kinds of series:

* ``station`` -- several years of hours with sub-hourly records, late
  first records, duplicate and out-of-order rows, short gaps that get
  filled, long gaps that split segments, and islands too short to window.
* ``clean``   -- a regular hourly series with a learnable rain signal:
  rain follows persistent moist fronts, which also raise humidity, wind,
  temperature and pressure, so a model that reads the window beats the
  majority class.
"""

import math
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

FEATURES = 5
MAX_FILL = 6          # gaps of up to this many hours are forward-filled
TRAIN_FRACTION = 0.8
HEADER = "Year,Month,Date,Time,Temp,WindSpeed,Humidity,Pressure,Rainfall"


@dataclass
class Expected:
    """What ``nowcast prepare`` must report for a generated CSV."""

    rows_parsed: int
    hourly_records: int
    filled_hours: int
    segments: int
    skipped_segments: int
    windows: int
    positives: int
    train_rows: int
    test_rows: int
    train_bytes: int
    test_bytes: int


def container_bytes(n, lookback):
    return 20 + 8 * n * lookback * FEATURES + n + 16 * FEATURES


def _weather(rng, hours, front):
    """Continuous features for ``hours`` slots driven by a moist/dry front.

    A moist front raises humidity, wind, temperature and pressure together,
    so even a model that mostly sees a window's mean level can tell the
    fronts apart.
    """
    hod = np.arange(hours) % 24
    temp = 26.0 + 2.0 * np.sin(2 * np.pi * hod / 24) + 3.0 * front + rng.normal(0, 0.8, hours)
    wind = np.clip(6.0 + 8.0 * front + rng.normal(0, 1.5, hours), 0.0, None)
    hum_target = np.where(front == 1, 92.0, 40.0) + rng.normal(0, 2.0, hours)
    pres_target = np.where(front == 1, 1012.0, 998.0) + rng.normal(0, 0.5, hours)
    hum = np.empty(hours)
    pres = np.empty(hours)
    hum[0], pres[0] = 60.0, 1005.0
    for t in range(1, hours):
        hum[t] = min(100.0, max(5.0, 0.5 * (hum[t - 1] + hum_target[t])))
        pres[t] = 0.5 * (pres[t - 1] + pres_target[t])
    return np.stack([temp, wind, hum, pres], axis=1).round(1)


def _fronts(rng, hours, mean_length):
    """Alternating dry (0) and moist (1) fronts of mean_length +- 25% hours,
    so every few days of hours hold both classes in near-equal shares."""
    lo, hi = mean_length * 3 // 4, mean_length * 5 // 4
    lengths = rng.integers(lo, hi + 1, size=hours // lo + 1)
    return (np.repeat(np.arange(len(lengths)), lengths)[:hours] + rng.integers(2)) % 2


def _format(stamps, values, rain_mm):
    lines = [HEADER]
    for ts, (t, w, h, p), r in zip(stamps, values.tolist(), rain_mm.tolist()):
        lines.append(
            f"{ts.year},{ts.month},{ts.day},{ts.hour:02d}:{ts.minute:02d},"
            f"{t:.1f},{w:.1f},{h:.1f},{p:.1f},{r:.1f}"
        )
    return "\n".join(lines) + "\n"


def _runs(flags):
    """(start, stop) of each maximal run of True in a bool vector."""
    edges = np.diff(np.concatenate([[0], flags.astype(np.int8), [0]]))
    return list(zip(np.flatnonzero(edges == 1), np.flatnonzero(edges == -1)))


def expect(present, rain, months, month_set, lookback, horizon, rows_parsed,
           train_fraction=TRAIN_FRACTION):
    """Expected prepare counts for an hour-slot occupancy mask.

    ``present[i]`` says whether hour slot i has at least one record,
    ``rain[i]`` is the hour's rain flag (max over its records) and
    ``months[i]`` its calendar month.
    """
    idx = np.flatnonzero(present)
    occupied = present.copy()
    filled = 0
    for a, b in zip(idx[:-1], idx[1:]):
        if 1 < b - a <= MAX_FILL + 1:
            occupied[a + 1:b] = True   # filled hours carry rain 0
            filled += int(b - a - 1)
    keep = occupied if month_set is None else occupied & np.isin(months, sorted(month_set))
    runs = _runs(keep)
    windows = positives = skipped = 0
    hour_rain = np.where(present, rain, 0)
    for start, stop in runs:
        count = (stop - start) - lookback - horizon + 1
        if count < 1:
            skipped += 1
            continue
        windows += int(count)
        positives += int(hour_rain[start + lookback + horizon - 1:stop].sum())
    train = math.ceil(windows * train_fraction)
    return Expected(
        rows_parsed=rows_parsed,
        hourly_records=int(len(idx) + filled),
        filled_hours=filled,
        segments=len(runs),
        skipped_segments=skipped,
        windows=windows,
        positives=positives,
        train_rows=train,
        test_rows=windows - train,
        train_bytes=container_bytes(train, lookback),
        test_bytes=container_bytes(windows - train, lookback),
    )


def station_csv(seed, years=3, lookback=24, horizon=1, month_set=frozenset({6, 7, 8, 9})):
    """An irregular multi-year station file; returns (csv text, Expected)."""
    rng = np.random.default_rng(seed)
    start = datetime(2014, 1, 1)
    hours = int((datetime(2014 + years, 1, 1) - start) / timedelta(hours=1))
    slots = [start + timedelta(hours=i) for i in range(hours)]
    months = np.array([ts.month for ts in slots])

    present = np.ones(hours, dtype=bool)
    for _ in range(60 * years):                       # short gaps, filled
        a = rng.integers(hours)
        present[a:a + rng.integers(1, MAX_FILL + 1)] = False
    for _ in range(5 * years):                        # long gaps, split segments
        a = rng.integers(hours)
        present[a:a + rng.integers(MAX_FILL + 1, 73)] = False
    monsoon = np.flatnonzero(np.isin(months, sorted(month_set)))
    for _ in range(2 * years):                        # islands too short to window
        a = monsoon[rng.integers(len(monsoon) - 60)]
        g1, m, g2 = rng.integers(8, 17), rng.integers(4, lookback), rng.integers(8, 17)
        present[a:a + g1] = False
        present[a + g1 + m:a + g1 + m + g2] = False
    present[0] = present[-1] = True

    front = _fronts(rng, hours, 16)
    values = _weather(rng, hours, front)
    rain = (front ^ (rng.random(hours) < 0.05)).astype(np.int64)

    # records: one primary per present hour (sometimes late), sub-hourly extras
    slot_idx = np.flatnonzero(present)
    minute = np.where(rng.random(len(slot_idx)) < 0.02, 10, 0)
    extra = slot_idx[rng.random(len(slot_idx)) < 0.04]
    rec_slot = np.concatenate([slot_idx, extra, extra])
    rec_min = np.concatenate([minute, np.full(len(extra), 20), np.full(len(extra), 45)])
    rec_rain = np.concatenate([
        rain[slot_idx],
        (rng.random(len(extra)) < 0.3).astype(np.int64),
        (rng.random(len(extra)) < 0.3).astype(np.int64),
    ])
    rec_vals = values[rec_slot] + np.concatenate([
        np.zeros((len(slot_idx), 4)),
        rng.normal(0, 0.2, (2 * len(extra), 4)).round(1),
    ])
    rec_vals[:, 2] = np.clip(rec_vals[:, 2], 0.0, 100.0)
    hour_rain = np.zeros(hours, dtype=np.int64)
    np.maximum.at(hour_rain, rec_slot, rec_rain)
    rows_parsed = len(rec_slot)

    order = list(np.lexsort((rec_min, rec_slot)))
    for i in rng.choice(len(order) - 1, size=len(order) // 200, replace=False):
        order[i], order[i + 1] = order[i + 1], order[i]          # out-of-order pairs
    for i in rng.choice(len(order), size=len(order) // 100, replace=False):
        order.insert(int(rng.integers(len(order))), order[i])    # exact duplicates
    order = np.array(order)

    stamps = [slots[s] + timedelta(minutes=int(mi)) for s, mi in zip(rec_slot[order], rec_min[order])]
    mm = np.where(rec_rain[order] == 1, rng.uniform(0.2, 20.0, len(order)), 0.0)
    text = _format(stamps, rec_vals[order], mm)
    exp = expect(present, hour_rain, months, month_set, lookback, horizon, rows_parsed)
    return text, exp


def clean_csv(seed, hours, lookback=24, horizon=1, split=TRAIN_FRACTION,
              start=datetime(2015, 6, 1)):
    """A regular hourly series with a learnable rain flag; months 'all'."""
    rng = np.random.default_rng(seed)
    front = _fronts(rng, hours, 72)
    values = _weather(rng, hours, front)
    rain = (front ^ (rng.random(hours) < 0.03)).astype(np.int64)
    stamps = [start + timedelta(hours=i) for i in range(hours)]
    mm = np.where(rain == 1, rng.uniform(0.2, 20.0, hours), 0.0)
    text = _format(stamps, values, mm)
    months = np.array([ts.month for ts in stamps])
    exp = expect(np.ones(hours, dtype=bool), rain, months, None, lookback, horizon, hours, split)
    return text, exp
