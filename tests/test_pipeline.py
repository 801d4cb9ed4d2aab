"""Ingestion, resampling, filtering, windowing, splitting, normalization,
and the binary dataset container."""

import io
import warnings
from datetime import datetime, timedelta

import numpy as np
import pytest

from helpers import count_windows_brute_force

from nowcast import pipeline
from nowcast.errors import (
    CorruptContainer,
    DegenerateSplit,
    DuplicateTimestampWarning,
    MalformedRow,
    NoData,
    NonMonotonicWarning,
    SegmentTooShortWarning,
)
from nowcast.pipeline import (
    HOUR,
    Observation,
    ObservationSeries,
    SplitSpec,
    WindowConfig,
    _indian_columns,
    _parse_indian_rows,
    apply_normalizer,
    filter_monsoon,
    fit_normalizer,
    load_windowed,
    make_windows,
    parse_raw_csv,
    resample_hourly,
    save_windowed,
    split_chronological,
)

RAW_SAMPLE = """Year,Month,Date,Time,Temp,WindSpeed,Humidity,Pressure,Rainfall
2010,7,15,08:10,27,13,84,1004,1
2010,7,15,08:40,26,19,74,1005,0
2010,7,15,09:10,26,17,79,1005,0
2010,7,15,09:40,26,13,84,1005,1
2010,7,15,10:10,26,11,89,1004,1
2010,7,15,10:40,25,13,86,1004,0
"""


def hourly_series(feature_rows, start=datetime(2015, 6, 1), segment_breaks=()):
    """Build an hourly series from (temp, wind, hum, pres, rain) rows;
    ``segment_breaks`` lists row indices that start a new segment."""
    segments = []
    current = []
    t = start
    for i, row in enumerate(feature_rows):
        if i in segment_breaks and current:
            segments.append(current)
            current = []
            t += timedelta(days=30)  # far gap between segments
        current.append(
            Observation(
                timestamp=t,
                temperature=float(row[0]),
                wind_speed=float(row[1]),
                humidity=float(row[2]),
                pressure=float(row[3]),
                rain=int(row[4]),
            )
        )
        t += HOUR
    segments.append(current)
    return ObservationSeries(segments, cadence=HOUR)


def random_feature_rows(rng, n):
    return np.column_stack(
        [
            rng.normal(25.0, 5.0, n),
            np.abs(rng.normal(10.0, 4.0, n)),
            rng.uniform(20.0, 100.0, n),
            rng.uniform(990.0, 1020.0, n),
            rng.integers(0, 2, n).astype(float),
        ]
    )


class TestParseIndian:
    def test_sample_rows(self):
        series = parse_raw_csv(io.StringIO(RAW_SAMPLE))
        assert series.n_records == 6
        first = series.records[0]
        assert first.timestamp == datetime(2010, 7, 15, 8, 10)
        assert (first.temperature, first.wind_speed) == (27.0, 13.0)
        assert (first.humidity, first.pressure, first.rain) == (84.0, 1004.0, 1)

    def test_bytes_and_binary_stream_inputs(self, tmp_path):
        assert parse_raw_csv(RAW_SAMPLE.encode()).n_records == 6
        stream = io.BytesIO(RAW_SAMPLE.encode())
        assert parse_raw_csv(stream).n_records == 6
        assert not stream.closed  # the caller's stream stays the caller's
        # CR-only line ends split like the same file given as a path
        cr_only = RAW_SAMPLE.replace("\n", "\r").encode()
        path = tmp_path / "cr.csv"
        path.write_bytes(cr_only)
        expected = parse_raw_csv(str(path)).records
        assert len(expected) == 6
        for source in (cr_only, io.BytesIO(cr_only), io.StringIO(cr_only.decode())):
            assert parse_raw_csv(source).records == expected

    def test_empty_file_raises_nodata(self):
        with pytest.raises(NoData):
            parse_raw_csv(io.StringIO(""))
        with pytest.raises(NoData):
            parse_raw_csv(io.StringIO("Year,Month,Date,Time,Temp,WindSpeed,Humidity,Pressure,Rainfall\n"))

    def test_unparseable_humidity_reports_line(self):
        bad = RAW_SAMPLE.replace("26,19,74,1005,0", '26,19,"--",1005,0')
        with pytest.raises(MalformedRow) as exc_info:
            parse_raw_csv(io.StringIO(bad))
        assert exc_info.value.line_no == 3

    @pytest.mark.parametrize("row, line_no", [
        ("2010,7,15,08:40,nan,19,74,1005,0", 3),    # temperature
        ("2010,7,15,09:40,26,13,84,inf,1", 5),      # pressure
        ("2010,7,15,10:10,26,nan,89,1004,1", 6),    # wind speed
        ("99999999999999999999,7,15,09:10,26,13,84,1005,1", 4),   # year past any date
        ("2010,7,15,99999999999999999999:10,26,13,84,1005,1", 4),  # hour past any int
    ])
    def test_non_finite_reading_reports_line(self, row, line_no):
        lines = RAW_SAMPLE.split("\n")
        lines[line_no - 1] = row
        with pytest.raises(MalformedRow) as exc_info:
            parse_raw_csv(io.StringIO("\n".join(lines)))
        assert exc_info.value.line_no == line_no

    @pytest.mark.parametrize("first, second", [
        ("2010,7,15,08:40,26,19,120,1005,0", "2010,7,15,09:40,abc,13,84,1005,1"),
        ("2010,7,15,08:40,abc,19,74,1005,0", "2010,7,15,09:40,26,13,120,1005,1"),
    ])
    def test_first_bad_line_wins(self, first, second):
        # a range violation and an unparseable float, in either order
        lines = RAW_SAMPLE.split("\n")
        lines[2], lines[4] = first, second
        with pytest.raises(MalformedRow) as exc_info:
            parse_raw_csv(io.StringIO("\n".join(lines)))
        assert exc_info.value.line_no == 3

    def test_whitespace_only_rows_skipped(self):
        lines = RAW_SAMPLE.split("\n")
        text = "\n".join(lines[:2] + ["   ", " , , , , , , , , ", "\t"] + lines[2:])
        series = parse_raw_csv(io.StringIO(text))
        assert series.n_records == 6

    def _error_text(self, row):
        lines = RAW_SAMPLE.split("\n")
        lines[2] = row
        with pytest.raises(MalformedRow) as exc_info:
            parse_raw_csv(io.StringIO("\n".join(lines)))
        return str(exc_info.value)

    def test_exact_error_texts(self):
        assert self._error_text("2010,7,15,08:40,26,19,120,1005,0") == (
            "unparseable row at line 3: humidity 120.0 outside [0, 100]"
        )
        assert self._error_text("2010,7,15,08:40,26,19,74,nan,0") == (
            "unparseable row at line 3: pressure nan is not finite"
        )
        with pytest.raises(ValueError) as date_error:
            datetime(2010, 6, 31, 8, 40)  # the text is datetime's own
        assert self._error_text("2010,6,31,08:40,26,19,74,1005,0") == (
            f"unparseable row at line 3: {date_error.value}"
        )

    def test_out_of_order_rows_sorted_with_warning(self):
        lines = RAW_SAMPLE.strip().split("\n")
        shuffled = "\n".join([lines[0], lines[3], lines[1], lines[2]] + lines[4:])
        with pytest.warns(NonMonotonicWarning):
            series = parse_raw_csv(io.StringIO(shuffled))
        times = [o.timestamp for o in series.records]
        assert times == sorted(times)

    def test_duplicates_collapse_to_first_with_warning(self):
        lines = RAW_SAMPLE.strip().split("\n")
        dup = "\n".join(lines[:2] + ["2010,7,15,08:10,99,99,99,9999,0"] + lines[2:])
        with pytest.warns(DuplicateTimestampWarning):
            series = parse_raw_csv(io.StringIO(dup))
        assert series.n_records == 6
        assert series.records[0].temperature == 27.0  # first occurrence won

    def test_missing_header_rejected(self):
        with pytest.raises(MalformedRow):
            parse_raw_csv(io.StringIO("2010,7,15,08:10,27,13,84,1004,1\n"))


KAGGLE_VOCAB_RAINY = [
    "light rain", "moderate rain", "heavy intensity rain", "very heavy rain",
    "freezing rain", "light intensity shower rain", "shower rain",
    "heavy intensity shower rain", "ragged shower rain",
    "light intensity drizzle", "drizzle", "heavy intensity drizzle",
    "light intensity drizzle rain", "drizzle rain", "shower drizzle",
    "thunderstorm", "thunderstorm with rain", "thunderstorm with light rain",
    "thunderstorm with heavy rain", "thunderstorm with drizzle",
    "thunderstorm with light drizzle", "heavy thunderstorm",
    "ragged thunderstorm", "proximity thunderstorm",
    "light rain and snow", "rain and snow",
]
KAGGLE_VOCAB_DRY = [
    "sky is clear", "few clouds", "scattered clouds", "broken clouds",
    "overcast clouds", "mist", "fog", "haze", "smoke", "dust", "sand",
    "volcanic ash", "squalls", "light snow", "snow", "heavy snow", "sleet",
    "light shower sleet", "shower snow", "heavy shower snow", "tornado",
]


def kaggle_rain(descriptions):
    """The rain flags the kaggle parser gives hours with these descriptions."""
    tables = kaggle_tables(len(descriptions), descriptions=descriptions)
    series = parse_raw_csv(tables, schema="kaggle_city", city="Rainville")
    return series.values[:, pipeline.RAIN_INDEX].tolist()


class TestBinarizeRain:
    """Each schema's own rain rule, through its parser."""

    def test_numeric_passthrough(self):
        rainfall = ["1", "0", "2.5", "0.0", "1.0"]
        text = RAW_SAMPLE.splitlines()[0] + "".join(
            f"\n2010,7,15,{i:02d}:00,27,13,84,1004,{r}" for i, r in enumerate(rainfall)
        )
        assert _indian_columns(text.splitlines()[1:]) is not None
        for parse in (parse_raw_csv, _parse_indian_rows):
            series = parse(io.StringIO(text))
            assert series.values[:, pipeline.RAIN_INDEX].tolist() == [1, 0, 1, 0, 1]

    def test_non_finite_rainfall_is_a_malformed_row(self):
        # README: a nan or inf reading stops the parse with its line number
        text = RAW_SAMPLE.splitlines()[0] + "".join(
            f"\n2010,7,15,{i:02d}:00,27,13,84,1004,{r}" for i, r in enumerate(["nan", "inf"])
        )
        for parse in (parse_raw_csv, _parse_indian_rows):
            with pytest.raises(MalformedRow) as exc_info:
                parse(io.StringIO(text))
            assert exc_info.value.line_no == 2
            assert str(exc_info.value).endswith("rainfall nan is not finite")

    def test_clear_sky_is_dry(self):
        assert kaggle_rain(["sky is clear"]) == [0]

    def test_light_rain_is_wet(self):
        assert kaggle_rain(["light rain"]) == [1]

    def test_default_keywords_cover_public_vocabulary(self):
        phrases = KAGGLE_VOCAB_RAINY + KAGGLE_VOCAB_DRY
        rains = kaggle_rain(phrases)
        assert [p for p, rain in zip(phrases, rains) if rain] == KAGGLE_VOCAB_RAINY

    def test_case_insensitive(self):
        assert kaggle_rain(["Light Rain", "THUNDERSTORM", "Sky Is Clear"]) == [1, 1, 0]

    def test_unknown_maps_to_zero(self):
        assert kaggle_rain(["quantum storm of frogs"]) == [0]


def kaggle_tables(hours, city="Rainville", other="Dryburg", descriptions=None):
    """Fabricate the five wide per-parameter files; without ``descriptions``
    every third hour reads "light rain" and the rest "sky is clear"."""
    start = datetime(2013, 6, 1)
    stamps = [(start + i * HOUR).strftime("%Y-%m-%d %H:%M:%S") for i in range(hours)]
    rng = np.random.default_rng(0)

    def wide(values):
        lines = [f"datetime,{other},{city}"]
        for ts, v in zip(stamps, values):
            lines.append(f"{ts},0,{v}")
        return io.StringIO("\n".join(lines) + "\n")

    if descriptions is None:
        descriptions = ["light rain" if i % 3 == 0 else "sky is clear" for i in range(hours)]
    return {
        "temperature": wide(np.round(rng.uniform(280, 310, hours), 2)),
        "wind_speed": wide(np.round(rng.uniform(0, 12, hours), 2)),
        "humidity": wide(np.round(rng.uniform(30, 100, hours), 1)),
        "pressure": wide(np.round(rng.uniform(995, 1020, hours), 1)),
        "weather_description": io.StringIO(
            "\n".join([f"datetime,{other},{city}"]
                      + [f"{ts},sky is clear,{d}" for ts, d in zip(stamps, descriptions)])
            + "\n"
        ),
    }


class TestParseKaggle:
    def test_merges_city_column_and_binarizes(self):
        series = parse_raw_csv(kaggle_tables(12), schema="kaggle_city", city="Rainville")
        assert series.n_records == 12
        rains = [o.rain for o in series.records]
        assert rains == [1 if i % 3 == 0 else 0 for i in range(12)]

    def test_missing_cells_drop_the_hour(self):
        tables = kaggle_tables(6)
        text = tables["humidity"].getvalue().split("\n")
        broken = text[:3] + [text[3].rsplit(",", 1)[0] + ","] + text[4:]  # blank hour 2
        tables["humidity"] = io.StringIO("\n".join(broken))
        series = parse_raw_csv(tables, schema="kaggle_city", city="Rainville")
        assert series.n_records == 5

    def test_unknown_city_raises(self):
        with pytest.raises(NoData):
            parse_raw_csv(kaggle_tables(4), schema="kaggle_city", city="Atlantis")

    def test_city_required(self):
        with pytest.raises(ValueError):
            parse_raw_csv(kaggle_tables(4), schema="kaggle_city")

    def test_kaggle_is_not_a_schema_name(self):
        with pytest.raises(ValueError, match="unknown schema 'kaggle'"):
            parse_raw_csv(kaggle_tables(4), schema="kaggle", city="Rainville")

    def test_duplicate_hour_keeps_first_row_and_warns(self):
        tables = kaggle_tables(2)
        temperature = "datetime,Dryburg,Rainville\n" + "".join(
            f"2013-06-01 {hh}:00:00,0,{t}\n" for hh, t in (("00", 20), ("01", 21), ("00", 99))
        )
        tables["temperature"] = io.StringIO(temperature)
        with pytest.warns(DuplicateTimestampWarning, match="temperature: 1 duplicate"):
            series = parse_raw_csv(tables, schema="kaggle_city", city="Rainville")
        assert series.values[:, 0].tolist() == [20.0, 21.0]
        # the later row is still parsed, so a bad cell there names its line
        tables = kaggle_tables(2)
        tables["temperature"] = io.StringIO(temperature.replace(",99", ",hot"))
        with pytest.raises(MalformedRow) as exc_info:
            parse_raw_csv(tables, schema="kaggle_city", city="Rainville")
        assert exc_info.value.line_no == 4

    def test_bad_numeric_cell_reports_line(self):
        tables = kaggle_tables(4)
        text = tables["pressure"].getvalue().split("\n")
        text[1] = text[1].rsplit(",", 1)[0] + ",not-a-number"  # first data row: file line 2
        tables["pressure"] = io.StringIO("\n".join(text))
        with pytest.raises(MalformedRow) as exc_info:
            parse_raw_csv(tables, schema="kaggle_city", city="Rainville")
        assert exc_info.value.line_no == 2

    def test_bad_reading_names_its_own_table_and_line(self):
        tables = kaggle_tables(4)
        text = tables["humidity"].getvalue().split("\n")
        text[1] = text[1].rsplit(",", 1)[0] + ",120"  # first data row: file line 2
        tables["humidity"] = io.StringIO("\n".join(text))
        header, *rows = tables["temperature"].getvalue().splitlines()
        tables["temperature"] = io.StringIO("\n".join([header] + rows[::-1]))
        with pytest.raises(MalformedRow) as exc_info:
            parse_raw_csv(tables, schema="kaggle_city", city="Rainville")
        assert exc_info.value.line_no == 2
        assert str(exc_info.value) == (
            "unparseable row at line 2: humidity: humidity 120.0 outside [0, 100]"
        )


def as_source(text, kind, path):
    """``text`` as one of the source kinds parse_raw_csv accepts."""
    data = text.encode("utf-8")
    if kind == "path":
        path.write_bytes(data)
        return str(path)
    return {"bytes": data, "binary": io.BytesIO(data), "text": io.StringIO(text)}[kind]


SOURCE_KINDS = ("path", "bytes", "binary", "text")


class TestByteOrderMark:
    """A leading UTF-8 byte-order mark is not part of the first field."""

    @staticmethod
    def columns(series):
        return series.stamps.tobytes(), series.values.tobytes(), series.offsets.tobytes()

    @pytest.mark.parametrize("kind", SOURCE_KINDS)
    def test_indian_file_parses_as_without_mark(self, kind, tmp_path):
        plain = parse_raw_csv(as_source(RAW_SAMPLE, kind, tmp_path / "plain.csv"))
        marked = parse_raw_csv(as_source("\ufeff" + RAW_SAMPLE, kind, tmp_path / "bom.csv"))
        assert self.columns(marked) == self.columns(plain)

    @pytest.mark.parametrize("kind", SOURCE_KINDS)
    def test_indian_errors_keep_their_line(self, kind, tmp_path):
        bad = RAW_SAMPLE.replace("26,19,74,1005,0", "26,19,120,1005,0")
        with pytest.raises(MalformedRow) as exc_info:
            parse_raw_csv(as_source("\ufeff" + bad, kind, tmp_path / "bom.csv"))
        assert str(exc_info.value) == "unparseable row at line 3: humidity 120.0 outside [0, 100]"

    @pytest.mark.parametrize("kind", SOURCE_KINDS)
    def test_mark_alone_is_an_empty_file(self, kind, tmp_path):
        with pytest.raises(NoData, match="empty file"):
            parse_raw_csv(as_source("\ufeff", kind, tmp_path / "bom.csv"))

    @pytest.mark.parametrize("kind", SOURCE_KINDS)
    def test_kaggle_tables_parse_as_without_mark(self, kind, tmp_path):
        texts = {p: t.getvalue() for p, t in kaggle_tables(12).items()}
        plain = parse_raw_csv(
            {p: as_source(t, kind, tmp_path / f"{p}.csv") for p, t in texts.items()},
            schema="kaggle_city", city="Rainville",
        )
        marked = parse_raw_csv(
            {p: as_source("\ufeff" + t, kind, tmp_path / f"bom_{p}.csv") for p, t in texts.items()},
            schema="kaggle_city", city="Rainville",
        )
        assert self.columns(marked) == self.columns(plain)


class TestResampleHourly:
    def test_sample_rows_reduce_to_three_hours(self):
        series = resample_hourly(parse_raw_csv(io.StringIO(RAW_SAMPLE)))
        records = series.records
        assert [o.timestamp.hour for o in records] == [8, 9, 10]
        first = records[0]
        # earliest record in the hour provides continuous features
        assert (first.temperature, first.wind_speed, first.humidity, first.pressure) == (27, 13, 84, 1004)
        # rain is the max over the hour
        assert [o.rain for o in records] == [1, 1, 1]

    def test_strictly_hourly_input_is_identity(self):
        rng = np.random.default_rng(1)
        series = hourly_series(random_feature_rows(rng, 20))
        out = resample_hourly(series)
        assert out.segments == series.segments

    def test_long_gap_splits_segments_without_fabrication(self):
        rng = np.random.default_rng(2)
        rows = random_feature_rows(rng, 100)
        obs = hourly_series(rows).records
        gapped = obs[:50] + [
            Observation(
                o.timestamp + timedelta(hours=10), o.temperature, o.wind_speed,
                o.humidity, o.pressure, o.rain,
            )
            for o in obs[50:]
        ]
        out = resample_hourly(ObservationSeries([gapped]))
        assert len(out.segments) == 2
        assert len(out.segments[0]) == 50 and len(out.segments[1]) == 50
        assert not any(o.filled for o in out.records)

    def test_short_gap_forward_fills_with_dry_flagged_hours(self):
        rng = np.random.default_rng(3)
        rows = random_feature_rows(rng, 10)
        rows[:, 4] = 1.0  # make every real hour rainy to expose fills
        obs = hourly_series(rows).records
        gapped = obs[:5] + [
            Observation(
                o.timestamp + timedelta(hours=3), o.temperature, o.wind_speed,
                o.humidity, o.pressure, o.rain,
            )
            for o in obs[5:]
        ]
        out = resample_hourly(ObservationSeries([gapped]))
        assert len(out.segments) == 1
        seg = out.segments[0]
        assert len(seg) == 13
        filled = [o for o in seg if o.filled]
        assert len(filled) == 3
        assert all(o.rain == 0 for o in filled)
        prev = seg[4]
        assert all(o.temperature == prev.temperature for o in filled)
        deltas = {(b.timestamp - a.timestamp) for a, b in zip(seg, seg[1:])}
        assert deltas == {HOUR}


class TestFilterMonsoon:
    def test_defaults_keep_june_through_september(self):
        start = datetime(2015, 5, 20)
        rng = np.random.default_rng(4)
        series = hourly_series(random_feature_rows(rng, 24 * 180), start=start)
        out = filter_monsoon(resample_hourly(series))
        months = {o.timestamp.month for o in out.records}
        assert months == {6, 7, 8, 9}
        # one contiguous monsoon block in one calendar year stays one segment
        assert len(out.segments) == 1

    def test_all_months_is_identity(self):
        rng = np.random.default_rng(5)
        series = hourly_series(random_feature_rows(rng, 48))
        out = filter_monsoon(series, months=range(1, 13))
        assert out.segments == series.segments

    def test_nothing_survives_raises_nodata(self):
        rng = np.random.default_rng(6)
        series = hourly_series(random_feature_rows(rng, 48), start=datetime(2015, 1, 10))
        with pytest.raises(NoData):
            filter_monsoon(series)

    def test_empty_months_rejected(self):
        rng = np.random.default_rng(7)
        series = hourly_series(random_feature_rows(rng, 5))
        with pytest.raises(ValueError):
            filter_monsoon(series, months=())

    def test_separate_years_become_separate_segments(self):
        rng = np.random.default_rng(8)
        hours = 24 * 600  # May 2014 .. Dec 2015: two monsoon seasons
        series = hourly_series(random_feature_rows(rng, hours), start=datetime(2014, 5, 1))
        out = filter_monsoon(resample_hourly(series))
        assert len(out.segments) == 2


class TestMakeWindows:
    def test_row_width_is_lookback_times_features(self):
        rng = np.random.default_rng(9)
        series = hourly_series(random_feature_rows(rng, 60))
        ds = make_windows(series, WindowConfig(lookback=24, horizon=1))
        assert ds.width == 120
        ds12 = make_windows(series, WindowConfig(lookback=12, horizon=1))
        assert ds12.width == 60

    def test_boundary_segment_yields_one_row(self):
        rng = np.random.default_rng(10)
        series = hourly_series(random_feature_rows(rng, 25))
        ds = make_windows(series, WindowConfig(lookback=24, horizon=1))
        assert ds.n_rows == 1

    def test_hundred_hours_l12_h2_gives_87_rows(self):
        rng = np.random.default_rng(11)
        series = hourly_series(random_feature_rows(rng, 100))
        ds = make_windows(series, WindowConfig(lookback=12, horizon=2))
        assert ds.n_rows == 87 == count_windows_brute_force(100, 12, 2)

    def test_too_short_segment_warns_and_skips(self):
        rng = np.random.default_rng(12)
        series = hourly_series(random_feature_rows(rng, 10))
        with pytest.warns(SegmentTooShortWarning):
            ds = make_windows(series, WindowConfig(lookback=12, horizon=1))
        assert ds.n_rows == 0

    def test_round_trip_window_values_match_series(self):
        rng = np.random.default_rng(13)
        for length in (30, 77, 200):
            rows = random_feature_rows(rng, length)
            series = hourly_series(rows)
            L, h = int(rng.integers(2, 9)), int(rng.integers(1, 3))
            ds = make_windows(series, WindowConfig(lookback=L, horizon=h))
            F = 5
            for i in range(ds.n_rows):
                anchor = i + L - 1
                for j in range(L):
                    for f in range(F):
                        assert ds.inputs[i, j * F + f] == rows[anchor - L + 1 + j, f]
                assert ds.targets[i] == rows[anchor + h, 4]

    def test_count_law_over_random_segmentations(self):
        rng = np.random.default_rng(14)
        for _ in range(10):
            n_segments = int(rng.integers(1, 6))
            lengths = [int(rng.integers(1, 60)) for _ in range(n_segments)]
            rows = random_feature_rows(rng, sum(lengths))
            breaks = set(np.cumsum(lengths)[:-1].tolist())
            series = hourly_series(rows, segment_breaks=breaks)
            L, h = int(rng.integers(1, 25)), int(rng.integers(1, 4))
            with warnings.catch_warnings():
                warnings.simplefilter("ignore", SegmentTooShortWarning)
                ds = make_windows(series, WindowConfig(lookback=L, horizon=h))
            expected = sum(max(0, M - L - h + 1) for M in lengths)
            assert ds.n_rows == expected
            assert expected == sum(count_windows_brute_force(M, L, h) for M in lengths)

    def test_needs_hourly_cadence(self):
        rng = np.random.default_rng(15)
        series = hourly_series(random_feature_rows(rng, 30))
        series.cadence = None
        with pytest.raises(ValueError):
            make_windows(series, WindowConfig(lookback=2, horizon=1))


class TestRawToWindowCorrespondence:
    def test_sample_anchor_block_reproduces_reference_row(self):
        # the six raw sample rows, resampled and windowed with L=1, h=1:
        # the first row's anchor block is hour 08 -> (27, 13, 84, 1004, 1)
        series = resample_hourly(parse_raw_csv(io.StringIO(RAW_SAMPLE)))
        ds = make_windows(series, WindowConfig(lookback=1, horizon=1))
        assert ds.n_rows == 2
        assert ds.inputs[0].tolist() == [27.0, 13.0, 84.0, 1004.0, 1.0]


class TestSplitChronological:
    def make_ds(self, n, seed=0):
        rng = np.random.default_rng(seed)
        series = hourly_series(random_feature_rows(rng, n + 2))
        return make_windows(series, WindowConfig(lookback=2, horizon=1))

    def test_eight_two_split(self):
        ds = self.make_ds(10)
        assert ds.n_rows == 10
        train, test = split_chronological(ds, SplitSpec(train_fraction=0.8))
        assert train.n_rows == 8 and test.n_rows == 2
        assert train.anchors.max() < test.anchors.min()

    def test_extreme_fraction_degenerates(self):
        ds = self.make_ds(10)
        with pytest.raises(DegenerateSplit):
            split_chronological(ds, SplitSpec(train_fraction=0.999))

    def test_shuffled_rows_come_out_in_anchor_order(self):
        ds = self.make_ds(20, seed=1)
        perm = np.random.default_rng(2).permutation(ds.n_rows)
        shuffled = pipeline.WindowedDataset(
            inputs=ds.inputs[perm], targets=ds.targets[perm],
            config=ds.config, anchors=ds.anchors[perm],
        )
        train, test = split_chronological(shuffled, SplitSpec(train_fraction=0.5))
        merged = np.concatenate([train.anchors, test.anchors])
        assert np.array_equal(merged, np.sort(ds.anchors))

    def test_fraction_bounds_validated(self):
        with pytest.raises(ValueError):
            SplitSpec(train_fraction=1.0)
        with pytest.raises(ValueError):
            SplitSpec(train_fraction=0.0)

    def test_requires_anchors(self):
        ds = self.make_ds(10)
        ds.anchors = None
        with pytest.raises(ValueError):
            split_chronological(ds)


class TestNormalization:
    def test_midpoint_scales_to_half(self):
        stats = pipeline.NormStats(mins=np.full(5, 20.0), maxs=np.full(5, 40.0))
        ds = pipeline.WindowedDataset(
            inputs=np.full((1, 5), 30.0), targets=np.zeros(1, dtype=np.uint8),
            config=WindowConfig(lookback=1, horizon=1),
        )
        out = apply_normalizer(ds, stats)
        assert np.all(out.inputs == 0.5)

    def test_constant_feature_maps_to_zero(self):
        rng = np.random.default_rng(16)
        rows = random_feature_rows(rng, 30)
        rows[:, 3] = 1000.0  # constant pressure
        ds = make_windows(hourly_series(rows), WindowConfig(lookback=4, horizon=1))
        stats = fit_normalizer(ds)
        out = apply_normalizer(ds, stats)
        pressure_cols = out.inputs.reshape(out.n_rows, -1, 5)[:, :, 3]
        assert np.all(pressure_cols == 0.0)

    def test_out_of_range_value_clamps(self):
        stats = pipeline.NormStats(mins=np.full(5, 20.0), maxs=np.full(5, 40.0))
        ds = pipeline.WindowedDataset(
            inputs=np.array([[44.0, 30.0, 30.0, 30.0, 100.0]]),
            targets=np.zeros(1, dtype=np.uint8),
            config=WindowConfig(lookback=1, horizon=1),
        )
        out = apply_normalizer(ds, stats)
        assert out.inputs[0, 0] == pytest.approx(1.2)
        assert out.inputs[0, 4] == 1.5  # clamped upper bound

    def test_training_rows_land_in_unit_interval(self):
        rng = np.random.default_rng(17)
        ds = make_windows(hourly_series(random_feature_rows(rng, 80)),
                          WindowConfig(lookback=6, horizon=1))
        out = apply_normalizer(ds, fit_normalizer(ds))
        assert out.inputs.min() >= 0.0 and out.inputs.max() <= 1.0

    def test_idempotent_under_same_stats(self):
        rng = np.random.default_rng(18)
        ds = make_windows(hourly_series(random_feature_rows(rng, 50)),
                          WindowConfig(lookback=3, horizon=1))
        stats = fit_normalizer(ds)
        once = apply_normalizer(ds, stats)
        twice = apply_normalizer(once, stats)
        assert np.array_equal(once.inputs, twice.inputs)

    def test_different_stats_on_normalized_data_rejected(self):
        rng = np.random.default_rng(19)
        ds = make_windows(hourly_series(random_feature_rows(rng, 50)),
                          WindowConfig(lookback=3, horizon=1))
        stats = fit_normalizer(ds)
        once = apply_normalizer(ds, stats)
        other = pipeline.NormStats(mins=stats.mins - 5.0, maxs=stats.maxs)
        with pytest.raises(ValueError):
            apply_normalizer(once, other)

    def test_stats_fitted_per_feature_not_per_column(self):
        rng = np.random.default_rng(20)
        ds = make_windows(hourly_series(random_feature_rows(rng, 60)),
                          WindowConfig(lookback=8, horizon=1))
        stats = fit_normalizer(ds)
        per_feature = ds.inputs.reshape(ds.n_rows, 8, 5)
        for f in range(5):
            assert stats.mins[f] == per_feature[:, :, f].min()
            assert stats.maxs[f] == per_feature[:, :, f].max()


class TestContainer:
    def make_normalized(self, n_hours=60, L=4, h=1, seed=21):
        rng = np.random.default_rng(seed)
        ds = make_windows(hourly_series(random_feature_rows(rng, n_hours)),
                          WindowConfig(lookback=L, horizon=h))
        return apply_normalizer(ds, fit_normalizer(ds))

    def test_round_trip(self, tmp_path):
        ds = self.make_normalized()
        path = tmp_path / "data.nwc"
        save_windowed(ds, str(path))
        loaded = load_windowed(str(path))
        assert np.array_equal(loaded.inputs, ds.inputs)
        assert np.array_equal(loaded.targets, ds.targets)
        assert loaded.config == ds.config
        assert np.array_equal(loaded.norm_stats.mins, ds.norm_stats.mins)
        assert np.array_equal(loaded.norm_stats.maxs, ds.norm_stats.maxs)
        assert loaded.anchors is None

    def test_unnormalized_round_trip_keeps_stats_none(self, tmp_path):
        rng = np.random.default_rng(22)
        ds = make_windows(hourly_series(random_feature_rows(rng, 30)),
                          WindowConfig(lookback=3, horizon=2))
        path = tmp_path / "raw.nwc"
        save_windowed(ds, str(path))
        loaded = load_windowed(str(path))
        assert loaded.norm_stats is None
        assert loaded.config.horizon == 2

    def test_bad_magic(self, tmp_path):
        path = tmp_path / "bad.nwc"
        path.write_bytes(b"WXYZ" + b"\x00" * 40)
        with pytest.raises(CorruptContainer):
            load_windowed(str(path))

    def test_truncation_detected(self, tmp_path):
        ds = self.make_normalized()
        path = tmp_path / "cut.nwc"
        save_windowed(ds, str(path))
        blob = path.read_bytes()
        path.write_bytes(blob[:-8])
        with pytest.raises(CorruptContainer):
            load_windowed(str(path))

    @pytest.mark.parametrize("lookback, features, horizon", [(0, 5, 1), (4, 0, 1), (4, 5, 0)])
    def test_zero_size_in_header_rejected(self, tmp_path, lookback, features, horizon):
        import struct

        path = tmp_path / "zero.nwc"
        path.write_bytes(b"NWC1" + struct.pack("<IIII", 0, lookback, features, horizon)
                         + bytes(16 * features))
        with pytest.raises(CorruptContainer):
            load_windowed(str(path))

    def test_header_fields(self, tmp_path):
        ds = self.make_normalized(L=7, h=2, seed=23)
        path = tmp_path / "hdr.nwc"
        save_windowed(ds, str(path))
        blob = path.read_bytes()
        assert blob[:4] == b"NWC1"
        import struct

        n, L, F, h = struct.unpack("<IIII", blob[4:20])
        assert (n, L, F, h) == (ds.n_rows, 7, 5, 2)

    def test_bytes_follow_the_layout(self, tmp_path):
        import struct

        ds = self.make_normalized(seed=24)
        ds.inputs = np.asfortranarray(ds.inputs)  # still written row-major
        path = tmp_path / "layout.nwc"
        save_windowed(ds, str(path))
        pairs = np.stack([ds.norm_stats.mins, ds.norm_stats.maxs], axis=1)
        assert path.read_bytes() == b"".join([
            b"NWC1", struct.pack("<IIII", ds.n_rows, 4, 5, 1),
            ds.inputs.astype("<f8").tobytes(order="C"),
            ds.targets.astype(np.uint8).tobytes(), pairs.astype("<f8").tobytes(),
        ])


class TestObservationInvariants:
    def test_humidity_bounds(self):
        with pytest.raises(ValueError):
            Observation(datetime(2020, 1, 1), 20.0, 5.0, 120.0, 1000.0, 0)

    def test_pressure_positive(self):
        with pytest.raises(ValueError):
            Observation(datetime(2020, 1, 1), 20.0, 5.0, 50.0, 0.0, 0)

    def test_rain_binary(self):
        with pytest.raises(ValueError):
            Observation(datetime(2020, 1, 1), 20.0, 5.0, 50.0, 1000.0, 2)

    def test_window_config_bounds(self):
        with pytest.raises(ValueError):
            WindowConfig(lookback=0, horizon=1)
        with pytest.raises(ValueError):
            WindowConfig(lookback=1, horizon=0)

    @pytest.mark.parametrize("field", ["lookback", "horizon", "features"])
    @pytest.mark.parametrize("value", [2.5, 3.0, "3", None])
    def test_window_config_sizes_must_be_integers(self, field, value):
        with pytest.raises(ValueError, match=field):
            WindowConfig(**{"lookback": 3, "horizon": 1, field: value})
