"""Raw station CSV files to leakage-safe, normalized, windowed datasets.

The stages compose in a fixed order: parse -> resample_hourly ->
filter_monsoon (optional) -> make_windows -> split_chronological ->
fit_normalizer / apply_normalizer. Every stage is a pure function of its
inputs; series carry their records in explicit segments so gaps never get
windowed across. A series holds its records as columns (epoch-second
stamps, a feature block, a filled mask), and the stages work on those
arrays; ``Observation`` is the validation and convenience type for one
record.

Window rows are timestep-major: all five features for the oldest hour
first, ending with the five features of the anchor hour, so a row is
lookback * 5 wide (120 for a 24-hour lookback). The target is the rain
flag ``horizon`` hours after the anchor.
"""

import csv
import io
import math
import operator
import struct
import warnings
from dataclasses import dataclass
from datetime import datetime, timedelta

import numpy as np

from ._io import atomic_write_bytes
from .errors import (
    CorruptContainer,
    DegenerateSplit,
    DuplicateTimestampWarning,
    MalformedRow,
    NoData,
    NonMonotonicWarning,
    SegmentTooShortWarning,
)

FEATURES = ("temperature", "wind_speed", "humidity", "pressure", "rain")
FEATURE_COUNT = len(FEATURES)
RAIN_INDEX = FEATURES.index("rain")
HOUR = timedelta(hours=1)
MAX_FILL_HOURS = 6              # longer gaps split the series instead
CLAMP_LO, CLAMP_HI = -0.5, 1.5  # bounds for normalized out-of-range test values
DEFAULT_MONSOON_MONTHS = frozenset({6, 7, 8, 9})
RAIN_KEYWORDS = ("rain", "drizzle", "thunderstorm")

CONTAINER_MAGIC = b"NWC1"

INDIAN_HEADER = (
    "year", "month", "date", "time", "temp", "windspeed", "humidity", "pressure", "rainfall",
)
KAGGLE_PARAMETERS = (
    "temperature", "wind_speed", "humidity", "pressure", "weather_description",
)
# np.loadtxt fields of an indian-schema body row: year, month and day, the
# HH:MM clock, then the FEATURES readings (the rain column still raw)
_INDIAN_DTYPE = [("date", "<i8", (3,)), ("clock", "<U6"), ("readings", "<f8", (FEATURE_COUNT,))]
_MONTH_DAYS = (31, 28, 31, 30, 31, 30, 31, 31, 30, 31, 30, 31)


@dataclass(frozen=True)
class Observation:
    """One station record. ``filled`` marks gap-filled synthetic hours."""

    timestamp: datetime
    temperature: float
    wind_speed: float
    humidity: float
    pressure: float
    rain: int
    filled: bool = False

    def __post_init__(self):
        # NaN compares false and would slip past ``pressure <= 0``; the
        # humidity range check already rejects NaN and inf
        if not math.isfinite(self.temperature):
            raise ValueError(f"temperature {self.temperature} is not finite")
        if not math.isfinite(self.wind_speed):
            raise ValueError(f"wind speed {self.wind_speed} is not finite")
        if not math.isfinite(self.pressure):
            raise ValueError(f"pressure {self.pressure} is not finite")
        if not 0.0 <= self.humidity <= 100.0:
            raise ValueError(f"humidity {self.humidity} outside [0, 100]")
        if self.pressure <= 0.0:
            raise ValueError(f"pressure {self.pressure} must be positive")
        if self.rain not in (0, 1):
            raise ValueError(f"rain flag {self.rain} not in {{0, 1}}")

    def features(self):
        return (self.temperature, self.wind_speed, self.humidity, self.pressure, float(self.rain))


class ObservationSeries:
    """Time-ordered records grouped into gap-free segments, held as columns.

    ``stamps`` holds int64 naive epoch seconds, ``values`` the (M, 5)
    float64 feature block in ``FEATURES`` order and ``filled`` the
    gap-filled mask; segment k is rows ``offsets[k]:offsets[k + 1]``.
    ``cadence`` is None for raw (possibly sub-hourly) data and one hour
    after ``resample_hourly``.

    The constructor takes one list of Observation per segment (timestamps
    are kept to the second); ``segments`` and ``records`` build them back
    on demand.
    """

    def __init__(self, station_id, segments=(), cadence=None):
        segments = [list(seg) for seg in segments]
        records = [o for seg in segments for o in seg]
        self.station_id = station_id
        self.cadence = cadence
        self.stamps = np.array([_epoch_seconds(o.timestamp) for o in records], dtype=np.int64)
        self.values = np.array([o.features() for o in records]).reshape(-1, FEATURE_COUNT)
        self.filled = np.array([o.filled for o in records], dtype=bool)
        self.offsets = np.cumsum([0] + [len(seg) for seg in segments], dtype=np.int64)

    @classmethod
    def from_columns(cls, station_id, stamps, values, filled, offsets, cadence=None):
        series = cls(station_id, cadence=cadence)
        series.stamps, series.values, series.filled, series.offsets = (
            stamps, values, filled, offsets
        )
        return series

    def spans(self):
        """(start, stop) row bounds of each segment."""
        return zip(self.offsets[:-1].tolist(), self.offsets[1:].tolist())

    def _observations(self, a, b):
        return [
            Observation(_EPOCH + timedelta(seconds=s), t, w, hm, p, int(r), f)
            for s, (t, w, hm, p, r), f in zip(
                self.stamps[a:b].tolist(), self.values[a:b].tolist(), self.filled[a:b].tolist()
            )
        ]

    @property
    def segments(self):
        return [self._observations(a, b) for a, b in self.spans()]

    @property
    def records(self):
        return self._observations(0, self.n_records)

    @property
    def n_records(self):
        return len(self.stamps)

    @property
    def n_segments(self):
        return len(self.offsets) - 1


def check_int(name, value, least=None):
    """Raise a ValueError naming the field unless ``value`` is an integer
    (anything ``operator.index`` takes) of at least ``least``."""
    try:
        operator.index(value)
    except TypeError:
        raise ValueError(f"{name} must be an integer, got {value!r}") from None
    if least is not None and value < least:
        raise ValueError(f"{name} must be >= {least}, got {value}")


@dataclass(frozen=True)
class WindowConfig:
    lookback: int
    horizon: int
    features: int = FEATURE_COUNT

    def __post_init__(self):
        for name in ("lookback", "horizon", "features"):
            check_int(name, getattr(self, name), 1)

    @property
    def width(self):
        return self.lookback * self.features


@dataclass(frozen=True)
class NormStats:
    """Per-feature (min, max) fitted on training rows only."""

    mins: np.ndarray
    maxs: np.ndarray

    def close_to(self, other):
        return (
            other is not None
            and np.allclose(self.mins, other.mins)
            and np.allclose(self.maxs, other.maxs)
        )


@dataclass
class WindowedDataset:
    """Supervised matrix of flattened lookback windows and binary targets.

    ``anchors`` holds each row's anchor hour as unix seconds; it is None
    for datasets loaded from a container (the binary format does not carry
    timestamps, so split before saving). ``norm_stats`` is None until
    ``apply_normalizer`` has run.
    """

    inputs: np.ndarray
    targets: np.ndarray
    config: WindowConfig
    anchors: np.ndarray | None = None
    norm_stats: NormStats | None = None

    @property
    def n_rows(self):
        return int(self.inputs.shape[0])

    @property
    def width(self):
        return int(self.inputs.shape[1])

    def positive_rate(self):
        return float(self.targets.mean()) if self.n_rows else 0.0


@dataclass(frozen=True)
class SplitSpec:
    train_fraction: float = 0.8

    def __post_init__(self):
        if not 0.0 < self.train_fraction < 1.0:
            raise ValueError("train_fraction must be in (0, 1)")


@dataclass(frozen=True)
class LabelRule:
    """How a raw rainfall label becomes {0, 1}.

    numeric_passthrough: any nonzero numeric label is 1.
    keyword_match: 1 iff the lowercased description contains a keyword;
    unknown descriptions map to 0.
    """

    kind: str
    keywords: tuple = RAIN_KEYWORDS

    @classmethod
    def numeric_passthrough(cls):
        return cls(kind="numeric")

    @classmethod
    def keyword_match(cls, keywords=RAIN_KEYWORDS):
        return cls(kind="keywords", keywords=tuple(k.lower() for k in keywords))


def binarize_rain(raw_label, rule):
    """Collapse a raw rainfall label (number or description) to {0, 1}."""
    if rule.kind == "numeric":
        return int(float(raw_label) != 0.0)
    if rule.kind == "keywords":
        text = str(raw_label).lower()
        return int(any(k in text for k in rule.keywords))
    raise ValueError(f"unknown label rule {rule.kind!r}")


def _as_text_lines(source):
    """The text lines of a path string, raw bytes, or file-like object,
    split at LF, CRLF or a lone CR as a file opened with ``newline=""``
    splits them; a leading UTF-8 byte-order mark is dropped. A caller's
    stream is read to its end but left open."""
    if isinstance(source, str):
        with open(source, "r", encoding="utf-8-sig", newline="") as fh:
            return fh.readlines()
    text = source if isinstance(source, bytes) else source.read()
    if isinstance(text, bytes):
        text = text.decode("utf-8")
    return io.StringIO(text.removeprefix("\ufeff"), newline="").readlines()


_EPOCH = datetime(1970, 1, 1)
HOUR_S = 3600
DAY_S = 86400


def _epoch_seconds(ts):
    # timezone-free arithmetic: naive timestamps, fixed epoch
    return (ts - _EPOCH) // timedelta(seconds=1)


def _finish_series(stamps, values, station_id):
    """Sort, deduplicate, and wrap parsed stamps and flat feature values."""
    if not len(stamps):
        raise NoData("no valid rows parsed")
    stamps = np.asarray(stamps, dtype=np.int64)
    values = np.asarray(values, dtype=np.float64).reshape(-1, FEATURE_COUNT)
    if (stamps[1:] < stamps[:-1]).any():
        warnings.warn("records out of order; sorting by timestamp", NonMonotonicWarning)
        order = np.argsort(stamps, kind="stable")  # stable: file order kept among ties
        stamps, values = stamps[order], values[order]
    first = np.ones(len(stamps), dtype=bool)
    first[1:] = stamps[1:] != stamps[:-1]
    dupes = len(stamps) - int(np.count_nonzero(first))
    if dupes:
        warnings.warn(
            f"{dupes} duplicate timestamp(s) collapsed to first occurrence",
            DuplicateTimestampWarning,
        )
        stamps, values = stamps[first], values[first]
    n = len(stamps)
    return ObservationSeries.from_columns(
        station_id, stamps, values, np.zeros(n, dtype=bool), np.array([0, n]), cadence=None
    )


def _indian_row(fields, rule):
    """One data row as an Observation; raises the ValueError, IndexError
    or OverflowError that names the row's first fault."""
    year, month, day = int(fields[0]), int(fields[1]), int(fields[2])
    hh, mm = fields[3].strip().split(":")
    return Observation(
        timestamp=datetime(year, month, day, int(hh), int(mm)),
        temperature=float(fields[4]),
        wind_speed=float(fields[5]),
        humidity=float(fields[6]),
        pressure=float(fields[7]),
        rain=binarize_rain(fields[8], rule),
    )


def _indian_reader(lines):
    """A csv reader over ``lines`` past their checked indian-schema header."""
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise NoData("empty file") from None
    normalized = tuple(h.strip().lower().replace(" ", "") for h in header)
    if normalized[: len(INDIAN_HEADER)] != INDIAN_HEADER:
        raise MalformedRow(1, f"expected header {INDIAN_HEADER}, got {normalized}")
    return reader


def _days_from_civil(year, month, day):
    """Days from 1970-01-01 to proleptic Gregorian dates given as int64
    arrays (Hinnant's days_from_civil)."""
    year = year - (month <= 2)
    era = year // 400
    yoe = year - era * 400
    doy = (153 * ((month + 9) % 12) + 2) // 5 + day - 1
    return era * 146097 + yoe * 365 + yoe // 4 - yoe // 100 + doy - 719468


def _indian_columns(body):
    """Stamps and the (M, 5) value block of an indian-schema body, read as
    columns in one ``np.loadtxt`` pass; None unless every row is a plain
    valid record, since only the row loop can name a bad row.

    loadtxt itself rejects quoted or empty fields, ``2014.0`` as an int,
    underscores, non-ASCII digits, whitespace-only lines and rows of other
    than nine fields. The clock is read six wide and must be exactly
    ``DD:DD``, so ``07:055`` (07:55 to the row loop) falls through; a body
    with a NUL falls through too, as loadtxt drops one from a clock's end.
    """
    if "\0" in "".join(body):
        return None
    try:
        with warnings.catch_warnings():
            # "input contained no data", or an older numpy that parses
            # 2014.0 as an int with a DeprecationWarning: both fall through
            warnings.simplefilter("error")
            rows = np.loadtxt(
                body, dtype=_INDIAN_DTYPE, delimiter=",", comments=None, ndmin=1
            )
    except (ValueError, Warning):
        return None
    year, month, day = rows["date"].T
    codes = np.ascontiguousarray(rows["clock"]).view("<u4").reshape(-1, 6)
    digits = codes[:, [0, 1, 3, 4]].astype(np.int64) - ord("0")
    hh = digits[:, 0] * 10 + digits[:, 1]
    mm = digits[:, 2] * 10 + digits[:, 3]
    leap = (year % 4 == 0) & ((year % 100 != 0) | (year % 400 == 0))
    month_days = np.array(_MONTH_DAYS)[np.clip(month, 1, 12) - 1] + ((month == 2) & leap)
    t, w, hm, p, rain = rows["readings"].T
    ok = (
        (1 <= year) & (year <= 9999) & (1 <= month) & (month <= 12)
        & (1 <= day) & (day <= month_days)
        & ((0 <= digits) & (digits <= 9)).all(axis=1)
        & (codes[:, 2] == ord(":")) & (codes[:, 5] == 0) & (hh <= 23) & (mm <= 59)
        & np.isfinite(t) & np.isfinite(w) & np.isfinite(p)
        & (0.0 <= hm) & (hm <= 100.0) & (p > 0.0)
    )
    if not ok.all():
        return None
    stamps = _days_from_civil(year, month, day) * DAY_S + hh * HOUR_S + mm * 60
    values = rows["readings"].copy()
    values[:, RAIN_INDEX] = rain != 0.0
    return stamps, values


def _parse_indian(lines, station_id):
    """Parse the body as columns; a body that fails that path goes through
    the row loop, which reports its first bad row."""
    reader = _indian_reader(lines)
    columns = _indian_columns(lines[reader.line_num:])
    if columns is None:
        return _parse_indian_rows(lines, station_id)
    return _finish_series(*columns, station_id or "indian-station")


def _parse_indian_rows(lines, station_id):
    """Parse row by row, stopping at the first bad row with its line number."""
    reader = _indian_reader(lines)
    rule = LabelRule.numeric_passthrough()
    stamps = []
    values = []
    for line_no, fields in enumerate(reader, start=2):
        if not fields or all(not f.strip() for f in fields):
            continue
        if len(fields) < 9:
            raise MalformedRow(line_no, f"expected 9 columns, got {len(fields)}")
        try:
            obs = _indian_row(fields, rule)
        except (ValueError, IndexError, OverflowError) as exc:
            raise MalformedRow(line_no, str(exc)) from None
        stamps.append(_epoch_seconds(obs.timestamp))
        values.extend(obs.features())
    return _finish_series(stamps, values, station_id or "indian-station")


def _parse_kaggle_table(lines, city, what, numeric):
    """One wide parameter file: datetime column plus one column per city."""
    reader = csv.reader(lines)
    try:
        header = next(reader)
    except StopIteration:
        raise NoData(f"empty {what} file") from None
    columns = [h.strip() for h in header]
    try:
        col = columns.index(city)
    except ValueError:
        raise NoData(f"city {city!r} not in {what} columns {columns[1:]}") from None
    values = {}
    for line_no, fields in enumerate(reader, start=2):
        if not fields or all(not f.strip() for f in fields):
            continue
        raw = fields[col].strip() if col < len(fields) else ""
        if not raw:
            continue  # missing cell: that hour is simply absent for this parameter
        try:
            ts = datetime.strptime(fields[0].strip(), "%Y-%m-%d %H:%M:%S")
            values[ts] = (float(raw) if numeric else raw, line_no)
        except ValueError as exc:
            raise MalformedRow(line_no, f"{what}: {exc}") from None
    return values


def _parse_kaggle(tables, city, station_id):
    missing = [p for p in KAGGLE_PARAMETERS if p not in tables]
    if missing:
        raise NoData(f"kaggle schema needs files for {missing}")
    parsed = {
        p: _parse_kaggle_table(
            _as_text_lines(tables[p]), city, p, numeric=(p != "weather_description")
        )
        for p in KAGGLE_PARAMETERS
    }
    shared = set.intersection(*(set(v) for v in parsed.values()))
    rule = LabelRule.keyword_match()
    stamps = []
    values = []
    for ts in sorted(shared):
        # strptime dominates here, so each hour is checked as an Observation
        try:
            obs = Observation(
                timestamp=ts,
                temperature=parsed["temperature"][ts][0],
                wind_speed=parsed["wind_speed"][ts][0],
                humidity=parsed["humidity"][ts][0],
                pressure=parsed["pressure"][ts][0],
                rain=binarize_rain(parsed["weather_description"][ts][0], rule),
            )
        except ValueError as exc:
            line_no = parsed["temperature"][ts][1]
            raise MalformedRow(line_no, str(exc)) from None
        stamps.append(_epoch_seconds(ts))
        values.extend(obs.features())
    return _finish_series(stamps, values, station_id or city)


def parse_raw_csv(source, schema="indian", city=None, station_id=None):
    """Parse raw weather CSV data into a single-segment ObservationSeries.

    schema 'indian' takes one stream/path with columns
    Year,Month,Date,Time,Temp,WindSpeed,Humidity,Pressure,Rainfall.
    schema 'kaggle_city' takes a mapping of parameter name
    (temperature, wind_speed, humidity, pressure, weather_description) to
    stream/path, each a wide table keyed by datetime with one column per
    city; ``city`` selects the column and the description is keyword-
    binarized into the rain flag.
    """
    if schema == "indian":
        return _parse_indian(_as_text_lines(source), station_id)
    if schema in ("kaggle_city", "kaggle"):
        if city is None:
            raise ValueError("kaggle schema needs a city")
        return _parse_kaggle(source, city, station_id)
    raise ValueError(f"unknown schema {schema!r}")


def resample_hourly(series):
    """Reduce to one record per clock hour and make segments gap-free.

    Continuous features take the earliest record in the hour; rain is the
    max over the hour. Up to six consecutive missing hours are forward-
    filled (continuous features copied, rain forced to 0, ``filled`` set);
    longer gaps split the segment.
    """
    hours = series.stamps // HOUR_S
    lo, hi = series.offsets[:-1], series.offsets[1:]
    seg_starts = lo[hi > lo]
    # first record of each run of one clock hour within a segment
    first = np.zeros(len(hours), dtype=bool)
    first[seg_starts] = True
    first[1:] |= hours[1:] != hours[:-1]
    groups = np.flatnonzero(first)
    hour = hours[groups]
    values = series.values[groups]
    if len(groups):
        values[:, RAIN_INDEX] = np.maximum.reduceat(series.values[:, RAIN_INDEX], groups)

    # hourly row k + 1 continues row k's segment after `gap` missing hours,
    # unless it starts an input segment or the gap is too long (or negative)
    gap = np.diff(hour) - 1
    breaks = np.zeros(len(groups), dtype=bool)
    breaks[np.searchsorted(groups, seg_starts)] = True
    breaks[1:] |= (gap < 0) | (gap > MAX_FILL_HOURS)
    reps = np.ones(len(groups), dtype=np.int64)
    reps[:-1] += np.where(breaks[1:], 0, gap)
    src = np.repeat(np.arange(len(groups)), reps)
    pos = np.cumsum(reps) - reps  # output row of each hourly row
    step = np.arange(len(src)) - pos[src]  # 0 for a real hour, 1.. for its fills
    copy = step > 0
    out = values[src]
    out[copy, RAIN_INDEX] = 0.0
    return ObservationSeries.from_columns(
        series.station_id,
        (hour[src] + step) * HOUR_S,
        out,
        series.filled[groups][src] | copy,
        np.append(pos[breaks], len(src)),
        cadence=HOUR,
    )


def filter_monsoon(series, months=DEFAULT_MONSOON_MONTHS):
    """Keep records whose month is in ``months``; each retained contiguous
    run becomes its own segment."""
    months = frozenset(int(m) for m in months)
    if not months:
        raise ValueError("months must be nonempty")
    month = series.stamps.astype("datetime64[s]").astype("datetime64[M]").astype(np.int64) % 12 + 1
    keep = np.isin(month, sorted(months))
    kept = np.flatnonzero(keep)
    if not len(kept):
        raise NoData(f"no records in months {sorted(months)}")
    # a kept record starts a run after a dropped one or at a segment start
    run_start = np.zeros(len(keep), dtype=bool)
    run_start[series.offsets[:-1][series.offsets[:-1] < len(keep)]] = True
    run_start[1:] |= ~keep[:-1]
    return ObservationSeries.from_columns(
        series.station_id,
        series.stamps[kept],
        series.values[kept],
        series.filled[kept],
        np.append(np.flatnonzero(run_start[kept]), len(kept)),
        cadence=series.cadence,
    )


def make_windows(series, cfg):
    """Reframe an hourly series into flattened supervised rows.

    A segment of length M yields M - lookback - horizon + 1 rows; shorter
    segments are skipped with a SegmentTooShortWarning. Row t covers hours
    t-lookback+1 .. t (timestep-major) and its target is the rain flag at
    t + horizon.
    """
    if series.cadence != HOUR:
        raise ValueError("make_windows needs an hourly-resampled series")
    L, h, F = cfg.lookback, cfg.horizon, cfg.features
    if F != FEATURE_COUNT:
        raise ValueError(f"this pipeline produces {FEATURE_COUNT} features per hour")
    inputs = []
    targets = []
    anchors = []
    for a, b in series.spans():
        M = b - a
        count = M - L - h + 1
        if count < 1:
            warnings.warn(
                f"segment of {M} hour(s) shorter than lookback+horizon = {L + h}; skipped",
                SegmentTooShortWarning,
            )
            continue
        feats = series.values[a:b]
        windows = np.lib.stride_tricks.sliding_window_view(feats, (L, F))[:count, 0]
        inputs.append(windows.reshape(count, L * F))
        targets.append(feats[L - 1 + h:L - 1 + h + count, RAIN_INDEX].astype(np.uint8))
        anchors.append(series.stamps[a + L - 1:a + L - 1 + count])
    if not inputs:
        return WindowedDataset(
            inputs=np.zeros((0, L * F)),
            targets=np.zeros(0, dtype=np.uint8),
            config=cfg,
            anchors=np.zeros(0, dtype=np.int64),
        )
    return WindowedDataset(
        inputs=np.concatenate(inputs),
        targets=np.concatenate(targets),
        config=cfg,
        anchors=np.concatenate(anchors),
    )


def split_chronological(ds, spec=SplitSpec()):
    """Earliest ceil(N * train_fraction) rows by anchor time go to train,
    the rest to test; raises DegenerateSplit if either side is empty."""
    if ds.anchors is None:
        raise ValueError("dataset has no anchor times; split before saving containers")
    n = ds.n_rows
    order = np.argsort(ds.anchors, kind="stable")
    n_train = int(math.ceil(n * spec.train_fraction))
    if n_train == 0 or n_train >= n:
        raise DegenerateSplit(
            f"fraction {spec.train_fraction} on {n} rows leaves an empty side"
        )
    def take(idx):
        return WindowedDataset(
            inputs=ds.inputs[idx],
            targets=ds.targets[idx],
            config=ds.config,
            anchors=ds.anchors[idx],
            norm_stats=ds.norm_stats,
        )
    return take(order[:n_train]), take(order[n_train:])


def fit_normalizer(train):
    """Per-feature (min, max) over every timestep of every training row."""
    if train.n_rows == 0:
        raise NoData("cannot fit normalization on an empty dataset")
    F = train.config.features
    per_feature = train.inputs.reshape(train.n_rows, -1, F)
    return NormStats(
        mins=per_feature.min(axis=(0, 1)),
        maxs=per_feature.max(axis=(0, 1)),
    )


def apply_normalizer(ds, stats):
    """Min-max scale each feature; constant features map to 0; values from
    outside the fitted range are clamped to [-0.5, 1.5].

    Already-normalized datasets pass through unchanged (idempotent), but
    only under the same statistics.
    """
    if ds.norm_stats is not None:
        if stats.close_to(ds.norm_stats):
            return ds
        raise ValueError("dataset already normalized with different statistics")
    F = ds.config.features
    span = stats.maxs - stats.mins
    safe = np.where(span == 0.0, 1.0, span)
    x = ds.inputs.reshape(ds.n_rows, -1, F)
    scaled = x - stats.mins
    scaled /= safe
    scaled[..., span == 0.0] = 0.0
    np.clip(scaled, CLAMP_LO, CLAMP_HI, out=scaled)
    return WindowedDataset(
        inputs=scaled.reshape(ds.n_rows, -1),
        targets=ds.targets.copy(),
        config=ds.config,
        anchors=None if ds.anchors is None else ds.anchors.copy(),
        norm_stats=stats,
    )


def save_windowed(ds, path):
    """Write the flat binary container: magic NWC1, uint32 N/L/F/h, then
    row-major float64 inputs, N target bytes, and F (min, max) float64
    pairs (NaN pairs when unnormalized). Little-endian throughout."""
    cfg = ds.config
    if ds.norm_stats is None:
        pairs = np.full((cfg.features, 2), np.nan)
    else:
        pairs = np.stack([ds.norm_stats.mins, ds.norm_stats.maxs], axis=1)
    atomic_write_bytes(
        path,
        CONTAINER_MAGIC + struct.pack("<IIII", ds.n_rows, cfg.lookback, cfg.features, cfg.horizon),
        np.ascontiguousarray(ds.inputs, dtype="<f8"),
        np.ascontiguousarray(ds.targets, dtype=np.uint8),
        np.ascontiguousarray(pairs, dtype="<f8"),
    )


def load_windowed(path):
    """Read a container written by save_windowed; anchors are not stored."""
    with open(path, "rb") as fh:
        blob = fh.read()
    if blob[:4] != CONTAINER_MAGIC:
        raise CorruptContainer(f"bad magic in {path}")
    if len(blob) < 20:
        raise CorruptContainer(f"truncated header in {path}")
    n, lookback, features, horizon = struct.unpack("<IIII", blob[4:20])
    try:
        cfg = WindowConfig(lookback=lookback, horizon=horizon, features=features)
    except ValueError as exc:
        raise CorruptContainer(f"bad header in {path}: {exc}") from None
    need = 20 + n * cfg.width * 8 + n + features * 16
    if len(blob) != need:
        raise CorruptContainer(f"{path}: expected {need} bytes, found {len(blob)}")
    off = 20
    inputs = np.frombuffer(blob, dtype="<f8", count=n * cfg.width, offset=off)
    inputs = inputs.reshape(n, cfg.width).copy()
    off += n * cfg.width * 8
    targets = np.frombuffer(blob, dtype=np.uint8, count=n, offset=off).copy()
    off += n
    pairs = np.frombuffer(blob, dtype="<f8", count=features * 2, offset=off)
    pairs = pairs.reshape(features, 2)
    stats = None
    if not np.isnan(pairs).all():
        stats = NormStats(mins=pairs[:, 0].copy(), maxs=pairs[:, 1].copy())
    return WindowedDataset(
        inputs=inputs, targets=targets, config=cfg, anchors=None, norm_stats=stats
    )
