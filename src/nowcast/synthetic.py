"""Seeded synthetic hourly weather series for demos and end-to-end tests.

Neither source dataset ships with the package, so this generator produces
station-like series with a learnable rain signal: the rain flag goes up
when humidity has been rising while pressure has been falling over the
last few hours, with optional label noise on top. The marginal label rate
sits near 50%, so accuracy against these series is a meaningful score.
"""

from datetime import datetime

import numpy as np

from .pipeline import HOUR, Observation, ObservationSeries

TREND_HOURS = 3
TREND_WEIGHTS = (0.5, 0.3, 0.2)  # most recent hour-over-hour change weighted most


def trend_score(humidity, pressure, t):
    """Weighted humidity-rise minus pressure-rise over the 3 hours up to t.

    Positive when humidity has been climbing while pressure has been
    falling; each hour-over-hour change contributes with its own weight.
    """
    score = 0.0
    for s, w in enumerate(TREND_WEIGHTS):
        score += w * (humidity[t - s] - humidity[t - s - 1])
        score -= w * (pressure[t - s] - pressure[t - s - 1])
    return score


REGIME_FLIP_PROB = 1.0 / 50.0  # mean front length ~2 days


def make_series(hours, seed=0, label_noise=0.0, start=datetime(2015, 6, 1)):
    """Generate an hourly ObservationSeries of the given length.

    Weather alternates between persistent moist and dry fronts; during a
    moist front humidity climbs while pressure falls, and the reverse
    during a dry one. Both levels mean-revert (humidity slowly, pressure
    quickly) so trends stay alive through a front instead of pegging at
    the physical bounds. rain at hour t (for t > TREND_HOURS) is 1
    exactly when the weighted humidity rise over hours t-1-TREND_HOURS ..
    t-1 exceeds the pressure rise over the same span (``trend_score``),
    then flipped with probability ``label_noise``. A window anchored at t
    therefore predicts rain at t+1 from trends it fully contains.
    """
    rng = np.random.default_rng(seed)
    t_axis = np.arange(hours)

    front = np.empty(hours)
    front[0] = 1.0
    flips = rng.random(hours) < REGIME_FLIP_PROB
    for t in range(1, hours):
        front[t] = -front[t - 1] if flips[t] else front[t - 1]

    # cloud cover in a moist front cools the day; gusts pick up with fronts
    temperature = (
        28.0
        + 4.0 * np.sin(2 * np.pi * (t_axis % 24) / 24.0)
        - 3.5 * front
        + rng.normal(0.0, 0.8, hours)
    ).round(1)

    wind = np.empty(hours)
    wind[0] = 10.0
    shocks = rng.normal(0.0, 1.5, hours)
    for t in range(1, hours):
        wind[t] = 0.9 * wind[t - 1] + 1.0 + 2.0 * front[t] + shocks[t]
    wind = np.clip(wind, 0.0, None).round(1)

    humidity = np.empty(hours)
    humidity[0] = 60.0
    hum_noise = rng.normal(0.0, 0.1, hours)
    for t in range(1, hours):
        drift = 0.8 * front[t] + 0.02 * (60.0 - humidity[t - 1])
        humidity[t] = np.clip(humidity[t - 1] + drift + hum_noise[t], 20.0, 100.0)
    humidity = humidity.round(1)

    pressure = np.empty(hours)
    pressure[0] = 1005.0
    pres_noise = rng.normal(0.0, 0.035, hours)
    for t in range(1, hours):
        drift = -0.4 * front[t] + 0.02 * (1005.0 - pressure[t - 1])
        pressure[t] = np.clip(pressure[t - 1] + drift + pres_noise[t], 985.0, 1025.0)
    pressure = pressure.round(1)

    rain = np.zeros(hours, dtype=int)
    for t in range(TREND_HOURS + 1, hours):
        rain[t] = int(trend_score(humidity, pressure, t - 1) > 0.0)
    if label_noise > 0.0:
        noise_flips = rng.random(hours) < label_noise
        rain[noise_flips] ^= 1

    records = [
        Observation(
            timestamp=start + t * HOUR,
            temperature=float(temperature[t]),
            wind_speed=float(wind[t]),
            humidity=float(humidity[t]),
            pressure=float(pressure[t]),
            rain=int(rain[t]),
        )
        for t in range(hours)
    ]
    return ObservationSeries(segments=[records], cadence=HOUR)


def write_indian_csv(series, path):
    """Dump a series in the indian CSV schema, for end-to-end CLI runs."""
    lines = ["Year,Month,Date,Time,Temp,WindSpeed,Humidity,Pressure,Rainfall"]
    for obs in series.records:
        ts = obs.timestamp
        lines.append(
            f"{ts.year},{ts.month},{ts.day},{ts.hour:02d}:{ts.minute:02d},"
            f"{obs.temperature},{obs.wind_speed},{obs.humidity},{obs.pressure},{obs.rain}"
        )
    with open(path, "w", encoding="utf-8") as fh:
        fh.write("\n".join(lines) + "\n")
