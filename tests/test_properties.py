"""Property-based checks of the pipeline laws: the columnar parse, resample
and month filter against the scalar references in ``helpers``, the columnar
CSV parse against the row loop on files with edge rows, the window
count law, resample idempotence, chronological split order, the
normalizer round trip, the ``.nwc`` container round trip, the
``.nwm`` checkpoint round trip, truncation and bytes on small random
models, and the bits of the recurrent and convolutional forwards."""

import io
import math
import os
import tempfile
import warnings
from datetime import datetime, timedelta

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from helpers import (
    conv1d_reference,
    count_windows_brute_force,
    filter_months_reference,
    lstm_scan_reference,
    resample_reference,
    save_model_reference,
    signed_zero_input,
    sort_dedupe_reference,
)

from nowcast.errors import (
    CorruptCheckpoint,
    CorruptContainer,
    DuplicateTimestampWarning,
    MalformedRow,
    NoData,
    NonMonotonicWarning,
    SegmentTooShortWarning,
)
from nowcast.pipeline import (
    HOUR,
    INDIAN_HEADER,
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
from nowcast.nn import (
    LSTM,
    BiLSTM,
    Conv1D,
    Dense,
    Dropout,
    GlobalAvgPool1D,
    MaxPool1D,
    Model,
    ReLU,
    Sigmoid,
    load_model,
    save_model,
)

PROPERTY = settings(max_examples=60, deadline=None, derandomize=True)

# starts just before month and year boundaries, and a leap day
STARTS = [
    datetime(2014, 12, 31, 19, 40),
    datetime(2015, 5, 31, 21, 5),
    datetime(2015, 9, 30, 22, 59),
    datetime(2016, 2, 28, 23, 0),
    datetime(2016, 6, 15, 0, 0),
]

# minutes from one CSV row to the next: duplicates and sub-hourly extras,
# plain hours, gaps that get filled (1-6 missing hours), gaps that split
# the series (up to ~40 days, so months go missing), and steps back in time
STEPS = st.one_of(
    st.integers(0, 59),
    st.just(60),
    st.integers(2 * 60, 7 * 60 + 59),
    st.integers(8 * 60, 40 * 24 * 60),
    st.integers(-180, -1),
)

RAIN_FIELDS = ("0", "1", "0.0", "2.5")


@st.composite
def raw_rows(draw, max_rows=80):
    """(timestamp, temperature, wind, humidity, pressure, rain field) rows
    in file order; the readings come from a drawn seed."""
    t = draw(st.sampled_from(STARTS))
    steps = draw(st.lists(STEPS, min_size=1, max_size=max_rows))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    n = len(steps)
    readings = zip(
        rng.uniform(-30.0, 50.0, n).tolist(),
        rng.uniform(0.0, 60.0, n).tolist(),
        rng.choice([0.0, 100.0, 55.5, *rng.uniform(0.0, 100.0, 5)], n).tolist(),
        rng.uniform(900.0, 1100.0, n).tolist(),
        rng.choice(RAIN_FIELDS, n).tolist(),
    )
    rows = []
    for step, reading in zip(steps, readings):
        rows.append((t, *reading))
        t += timedelta(minutes=step)
    return rows


def csv_text(rows):
    lines = [",".join(INDIAN_HEADER)]
    for ts, temp, wind, hum, pres, rain in rows:
        lines.append(
            f"{ts.year},{ts.month},{ts.day},{ts.hour:02d}:{ts.minute:02d},"
            f"{temp!r},{wind!r},{hum!r},{pres!r},{rain}"
        )
    return "\n".join(lines) + "\n"


def observation(row):
    ts, temp, wind, hum, pres, rain = row
    return Observation(ts, temp, wind, hum, pres, int(float(rain) != 0.0))


def parse_quietly(rows):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return parse_raw_csv(io.StringIO(csv_text(rows)))


@st.composite
def raw_series(draw):
    """A parsed raw series, cut into segments at random points (empty
    segments included), with some records marked as filled."""
    records = parse_quietly(draw(raw_rows())).records
    records = [
        Observation(o.timestamp, o.temperature, o.wind_speed, o.humidity, o.pressure,
                    o.rain, filled)
        for o, filled in zip(records, draw(st.lists(
            st.booleans(), min_size=len(records), max_size=len(records))))
    ]
    cuts = sorted(draw(st.lists(st.integers(0, len(records)), max_size=4)))
    bounds = [0] + cuts + [len(records)]
    return ObservationSeries([records[a:b] for a, b in zip(bounds, bounds[1:])])


@st.composite
def hourly_series(draw):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        return resample_hourly(parse_raw_csv(io.StringIO(csv_text(draw(raw_rows(200))))))


@PROPERTY
@given(raw_rows())
def test_parse_sorts_and_dedupes_like_the_reference(rows):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        series = parse_raw_csv(io.StringIO(csv_text(rows)))
    expected = sort_dedupe_reference([observation(r) for r in rows])
    assert series.records == expected
    assert series.segments == [expected]
    stamps = [r[0] for r in rows]
    unordered = any(b < a for a, b in zip(stamps, stamps[1:]))
    dupes = len(stamps) - len(set(stamps))
    categories = [w.category for w in caught]
    assert (NonMonotonicWarning in categories) == unordered
    assert (DuplicateTimestampWarning in categories) == (dupes > 0)
    if dupes:
        assert f"{dupes} duplicate timestamp(s)" in str(caught[-1].message)


# body rows by how they parse: as they stand on the columnar path, as
# valid rows only the row loop reads, or as errors
EDGE_ROWS = {
    "columnar": [
        "2016,2,29,23:59,-0.0,0.0,100,1e-300,-0.0",   # leap day, -0.0, edge readings
        "2000,02,29,00:00,1e308,5e-324,0,1e308,5e-324",  # leap century, tiny rain is wet
        "1,1,1,00:00,-1e308,1,0.5,1,1e308",             # the first day a date can hold
        "9999,12,31,23:59,1,1,1,1,-1e308",              # and the last
        " +2015 , 007 ,\t9 ,12:30, 28.6 ,\t14.6\t,60,1005,0",  # padded and signed fields
        "",                                            # blank line
    ],
    "row_loop": [
        "2014,1,1,07:055,28.6,14.6,60.0,1005.0,1",     # 07:55
        "2014,1,1, 07:05 ,28.6,14.6,60.0,1005.0,1",
        '2014,1,1,"07:05",28.6,14.6,60.0,1005.0,1',
        '2014,1,1,07:05,"28.6",14.6,60.0,1005.0,1',
        "2_014,1,1,07:05,2_8.6,14.6,60.0,1005.0,1",
        "٢٠١٤,1,1,07:05,２８.6,14.6,60.0,1005.0,1",  # non-ASCII digits
        "2014,1,1,07:05,28.6,14.6,60.0,1005.0,1,",     # trailing comma: a tenth field
        "2014,1,1,07:05,28.6,14.6,60.0,1005.0,1,extra",
        "2014,1,1,7:5,28.6,14.6,60.0,1005.0,1",        # 07:05
        "   ",
        " , , , , , , , , ",
        "2014,1,1,+7:05,28.6,14.6,60.0,1005.0,1",       # signed hour
        "2014,1,1,7:05,28.6,14.6,60.0,1005.0,1",
        "2014,1,1,07:5,28.6,14.6,60.0,1005.0,1",
        "2014,1,1,0007:05,28.6,14.6,60.0,1005.0,1",     # wider than the clock column
    ],
    "bad": [
        "2014,1,1,0000,28:6,14.6,60.0,1005.0,14.8",    # ten fields if ':' were a comma
        "2014.0,1,1,07:05,28.6,14.6,60.0,1005.0,1",
        "2014,1,1,07:05,,14.6,60.0,1005.0,1",
        "2014,1,1,07:05,28.6,14.6,60.0,1005.0",
        "2015,2,29,07:05,28.6,14.6,60.0,1005.0,1",      # not a leap year
        "1900,2,29,07:05,28.6,14.6,60.0,1005.0,1",
        "2014,6,31,07:05,28.6,14.6,60.0,1005.0,1",
        "0,1,1,07:05,28.6,14.6,60.0,1005.0,1",
        "10000,1,1,07:05,28.6,14.6,60.0,1005.0,1",
        "2014,13,1,07:05,28.6,14.6,60.0,1005.0,1",
        "2014,1,0,07:05,28.6,14.6,60.0,1005.0,1",
        "2014,1,1,24:00,28.6,14.6,60.0,1005.0,1",
        "2014,1,1,07:60,28.6,14.6,60.0,1005.0,1",
        "2014,1,1,07:05\x00,28.6,14.6,60.0,1005.0,1",
        "2014,1,1,07:05,nan,14.6,60.0,1005.0,1",
        "2014,1,1,07:05,28.6,inf,60.0,1005.0,1",
        "2014,1,1,07:05,28.6,14.6,100.5,1005.0,1",
        "2014,1,1,07:05,28.6,14.6,-0.5,1005.0,1",
        "2014,1,1,07:05,28.6,14.6,60.0,0.0,1",
        "2014,1,1,07:05,28.6,14.6,60.0,inf,1",
        "2014,1,1,07:05,28.6,14.6,60.0,1005.0,rain",
        "2014,1,1,:05,28.6,14.6,60.0,1005.0,1",
        "2014,1,1,07:05:00,28.6,14.6,60.0,1005.0,1",
        "2014,1,1,07:05,28.6,14.6,60.0,1005.0,nan",     # rain must be finite
        "2014,1,1,07:05,28.6,14.6,60.0,1005.0,inf",
        "2014,1,1,07:05,28.6,14.6,60.0,1005.0,-inf",
    ],
}
FINITE = st.floats(allow_nan=False, allow_infinity=False)


@st.composite
def plain_row(draw):
    ts = draw(st.datetimes(datetime(1, 1, 1), datetime(9999, 12, 31, 23, 59)))
    readings = (
        draw(FINITE), draw(FINITE), draw(st.floats(0.0, 100.0)),
        draw(st.floats(0.0, exclude_min=True, allow_infinity=False)),
        draw(st.one_of(st.sampled_from(["0", "1", "0.0", "-0.0", "2.5"]), FINITE.map(repr))),
    )
    fields = [str(ts.year), str(ts.month), str(ts.day), f"{ts.hour:02d}:{ts.minute:02d}"]
    return ",".join(fields + [r if isinstance(r, str) else repr(r) for r in readings])


@st.composite
def station_file(draw):
    """(text, kind): plain rows with up to two edge rows spliced in; kind
    names the worst edge row, so "columnar" means the columnar parse must
    take the whole body."""
    rows = draw(st.lists(plain_row(), max_size=12))
    kind = "columnar"
    for _ in range(draw(st.integers(0, 2))):
        pool = draw(st.sampled_from(list(EDGE_ROWS)))
        rows.insert(draw(st.integers(0, len(rows))), draw(st.sampled_from(EDGE_ROWS[pool])))
        kind = max(kind, pool, key=list(EDGE_ROWS).index)
    end = draw(st.sampled_from(["\n", "\r\n"]))
    text = end.join([",".join(INDIAN_HEADER)] + rows)
    if draw(st.booleans()):
        text += end
    return text, kind


def parse_outcome(parse, text):
    """A parse's stamps, values and offsets bytes and its warnings, or its
    error's type, line and message."""
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        try:
            series = parse(io.StringIO(text))
        except (MalformedRow, NoData) as exc:
            return type(exc), getattr(exc, "line_no", None), str(exc)
    arrays = (series.stamps, series.values, series.offsets)
    return (
        [(a.dtype, a.shape, a.tobytes()) for a in arrays],
        [(w.category, str(w.message)) for w in caught],
    )


def assert_parses_like_the_row_loop(text, kind):
    assert parse_outcome(parse_raw_csv, text) == parse_outcome(_parse_indian_rows, text)
    body = io.StringIO(text).readlines()[1:]
    has_rows = any(line.strip() for line in body)
    assert (_indian_columns(body) is not None) == (kind == "columnar" and has_rows)


@pytest.mark.parametrize("kind, row", [
    pytest.param(kind, row, id=f"{kind}-{i}")
    for kind, rows in EDGE_ROWS.items() for i, row in enumerate(rows)
])
def test_edge_row_parses_like_the_row_loop(kind, row):
    plain = "2014,3,1,10:00,28.6,14.6,60.0,1005.0,0"
    text = "\n".join([",".join(INDIAN_HEADER), plain, row, plain.replace("10:", "11:")])
    assert_parses_like_the_row_loop(text, kind)


@settings(max_examples=150, deadline=None, derandomize=True)
@given(station_file())
def test_columnar_parse_matches_the_row_loop(file):
    assert_parses_like_the_row_loop(*file)


@PROPERTY
@given(raw_series())
def test_resample_matches_the_scalar_reference(series):
    out = resample_hourly(series)
    assert out.cadence == HOUR
    assert out.segments == resample_reference(series.segments)
    assert out.n_records == len(out.records)
    assert int(out.filled.sum()) == sum(o.filled for o in out.records)


@PROPERTY
@given(raw_series())
def test_resample_is_idempotent(series):
    once = resample_hourly(series)
    twice = resample_hourly(once)
    assert twice.segments == once.segments
    assert np.array_equal(twice.offsets, once.offsets)


@PROPERTY
@given(raw_series(), st.sets(st.integers(1, 12), min_size=1))
def test_month_filter_matches_the_scalar_reference(series, months):
    for s in (series, resample_hourly(series)):
        expected = filter_months_reference(s.segments, months)
        if not expected:
            with pytest.raises(NoData):
                filter_monsoon(s, months)
            continue
        out = filter_monsoon(s, months)
        assert out.segments == expected
        assert out.cadence == s.cadence


@PROPERTY
@given(hourly_series(), st.integers(1, 30), st.integers(1, 4))
def test_window_count_law(series, lookback, horizon):
    with warnings.catch_warnings(record=True) as caught:
        warnings.simplefilter("always")
        ds = make_windows(series, WindowConfig(lookback=lookback, horizon=horizon))
    lengths = [len(seg) for seg in series.segments]
    assert ds.n_rows == sum(count_windows_brute_force(M, lookback, horizon) for M in lengths)
    assert ds.width == 5 * lookback
    too_short = [w for w in caught if issubclass(w.category, SegmentTooShortWarning)]
    assert len(too_short) == sum(M < lookback + horizon for M in lengths)
    # every row's newest block is its anchor hour; its target is rain h hours on
    by_stamp = {int((o.timestamp - datetime(1970, 1, 1)) / timedelta(seconds=1)): o
                for o in series.records}
    for row, target, anchor in zip(ds.inputs, ds.targets, ds.anchors):
        assert tuple(row[-5:]) == by_stamp[int(anchor)].features()
        assert target == by_stamp[int(anchor) + 3600 * horizon].rain


@PROPERTY
@given(hourly_series(), st.floats(0.05, 0.95), st.integers(0, 2**32 - 1))
def test_split_is_chronological(series, fraction, seed):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ds = make_windows(series, WindowConfig(lookback=2, horizon=1))
    n_train = math.ceil(ds.n_rows * fraction)
    if n_train == 0 or n_train >= ds.n_rows:
        return
    perm = np.random.default_rng(seed).permutation(ds.n_rows)
    ds.inputs, ds.targets, ds.anchors = ds.inputs[perm], ds.targets[perm], ds.anchors[perm]
    train, test = split_chronological(ds, SplitSpec(train_fraction=fraction))
    assert train.n_rows == n_train and test.n_rows == ds.n_rows - n_train
    merged = np.concatenate([train.anchors, test.anchors])
    assert np.array_equal(merged, np.sort(ds.anchors))
    assert train.anchors.max() < test.anchors.min()


@PROPERTY
@given(hourly_series(), st.integers(1, 8))
def test_normalizer_round_trip(series, lookback):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ds = make_windows(series, WindowConfig(lookback=lookback, horizon=1))
    if ds.n_rows == 0:
        return
    stats = fit_normalizer(ds)
    scaled = apply_normalizer(ds, stats)
    assert scaled.inputs.min() >= 0.0 and scaled.inputs.max() <= 1.0
    span = stats.maxs - stats.mins
    x = ds.inputs.reshape(ds.n_rows, -1, 5)
    back = scaled.inputs.reshape(ds.n_rows, -1, 5) * span + stats.mins
    scale = np.maximum(np.abs(stats.mins), np.abs(stats.maxs))
    assert np.all(np.abs(back - x) <= 1e-12 * scale + 1e-300)
    assert np.all(scaled.inputs.reshape(ds.n_rows, -1, 5)[..., span == 0.0] == 0.0)


@PROPERTY
@given(hourly_series(), st.integers(1, 6), st.integers(1, 3), st.booleans(), st.data())
def test_container_round_trip_and_truncation(series, lookback, horizon, normalize, data):
    with warnings.catch_warnings():
        warnings.simplefilter("ignore")
        ds = make_windows(series, WindowConfig(lookback=lookback, horizon=horizon))
    if normalize and ds.n_rows:
        ds = apply_normalizer(ds, fit_normalizer(ds))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "data.nwc")
        save_windowed(ds, path)
        loaded = load_windowed(path)
        assert np.array_equal(loaded.inputs, ds.inputs)
        assert np.array_equal(loaded.targets, ds.targets)
        assert loaded.config == ds.config
        if ds.norm_stats is None:
            assert loaded.norm_stats is None
        else:
            assert np.array_equal(loaded.norm_stats.mins, ds.norm_stats.mins)
            assert np.array_equal(loaded.norm_stats.maxs, ds.norm_stats.maxs)
        with open(path, "rb") as fh:
            blob = fh.read()
        cut = data.draw(st.integers(0, len(blob) - 1))
        for damaged in (blob[:cut], blob + b"\x00"):
            with open(path, "wb") as fh:
                fh.write(damaged)
            with pytest.raises(CorruptContainer):
                load_windowed(path)


@st.composite
def small_models(draw):
    """A small random recurrent or convolutional Model: the same layer
    kinds as the two networks, at desk sizes."""
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    name = draw(st.sampled_from(["bilstm_net", "cnn_net", "test"]))
    mode = draw(st.sampled_from(["canonical", "flat", "parity"]))
    if draw(st.booleans()):
        steps, features = draw(st.integers(1, 4)), draw(st.integers(1, 3))
        hidden, width = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        first = (
            BiLSTM(features, hidden, rng=rng) if draw(st.booleans())
            else LSTM(features, hidden, rng=rng)
        )
        in_dim = 2 * hidden if first.kind == "bilstm" else hidden
        layers = [first, LSTM(in_dim, width, return_sequences=False, rng=rng)]
        shape = (steps, features)
    else:
        length, channels = draw(st.integers(6, 12)), draw(st.integers(1, 3))
        c1, c2 = draw(st.integers(1, 4)), draw(st.integers(1, 4))
        padding = draw(st.sampled_from(["valid", "same"]))
        layers = [Conv1D(channels, c1, draw(st.integers(1, 3)), padding=padding, rng=rng)]
        if draw(st.booleans()):
            layers.append(MaxPool1D(2))
        layers += [
            Conv1D(c1, c2, 1, rng=rng),
            GlobalAvgPool1D(),
            Dropout(draw(st.sampled_from([0.0, 0.4]))),
        ]
        width = c2
        shape = (length, channels)
    layers += [Dense(width, 3, rng=rng), ReLU(), Dense(3, 1, rng=rng), Sigmoid()]
    return Model(name, mode, shape, layers)


CHECKPOINT_PROPERTY = settings(max_examples=25, deadline=None, derandomize=True)


@CHECKPOINT_PROPERTY
@given(small_models())
def test_checkpoint_round_trip(model):
    x = np.random.default_rng(0).standard_normal((3, model.input_width))
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.nwm")
        save_model(model, path)
        loaded = load_model(path)
    assert (loaded.name, loaded.mode, loaded.input_shape) == (
        model.name, model.mode, model.input_shape)
    assert [layer.kind for layer in loaded.layers] == [layer.kind for layer in model.layers]
    assert {k: a.tobytes() for k, a in loaded.params().items()} == {
        k: a.tobytes() for k, a in model.params().items()}
    assert np.array_equal(loaded.forward(x), model.forward(x))


@CHECKPOINT_PROPERTY
@given(small_models())
def test_checkpoint_bytes_match_the_reference_writer(model):
    with tempfile.TemporaryDirectory() as tmp:
        path, reference = os.path.join(tmp, "model.nwm"), os.path.join(tmp, "reference.nwm")
        save_model(model, path)
        save_model_reference(model, reference)
        with open(path, "rb") as fh, open(reference, "rb") as ref:
            assert fh.read() == ref.read()
        assert sorted(os.listdir(tmp)) == ["model.nwm", "reference.nwm"]  # no temp file left


@settings(max_examples=10, deadline=None, derandomize=True)
@given(small_models())
def test_every_checkpoint_truncation_is_rejected(model):
    with tempfile.TemporaryDirectory() as tmp:
        path = os.path.join(tmp, "model.nwm")
        save_model(model, path)
        for cut in reversed(range(os.path.getsize(path))):
            os.truncate(path, cut)  # shortest last: each cut keeps a prefix
            with pytest.raises(CorruptCheckpoint):
                load_model(path)


@PROPERTY
@given(
    st.integers(1, 4),
    st.integers(1, 12),
    st.one_of(st.just(1), st.integers(1, 6)),
    st.integers(1, 6),
    st.sampled_from(["valid", "same"]),
    st.integers(0, 24),
    st.integers(0, 2**32 - 1),
)
def test_conv1d_forward_matches_the_loop_bitwise(B, ci, co, k, padding, extra, seed):
    # a non-zero bias, so no output sum starts from a signed zero; inputs
    # hold exact 0.0 and -0.0; a uint64 view tells -0.0 from +0.0
    rng = np.random.default_rng(seed)
    L = (k if padding == "valid" else 1) + extra
    layer = Conv1D(ci, co, k, padding=padding, rng=rng)
    layer.params["bias"][...] = rng.standard_normal(co)
    x = signed_zero_input(rng, (B, L, ci))
    y = layer.forward(x)
    for b in range(B):
        want = conv1d_reference(x[b], layer.params["kernel"], layer.params["bias"], padding)
        assert np.array_equal(y[b].view(np.uint64), want.view(np.uint64))


@settings(max_examples=200, deadline=None, derandomize=True)
@given(
    st.booleans(),
    st.integers(1, 5),
    st.integers(1, 6),
    st.integers(1, 4),
    st.integers(1, 5),
    st.booleans(),
    st.booleans(),
    st.booleans(),
    st.sampled_from([1.0, 4.0, 40.0]),
    st.integers(0, 2**32 - 1),
)
def test_lstm_forward_matches_the_plain_scan_bitwise(
        bidirectional, B, T, d, H, train, return_sequences, initial, scale, seed):
    # the output and every array train mode keeps for backward, compared
    # under a uint64 view so -0.0 and the last rounding bit count
    rng = np.random.default_rng(seed)
    if bidirectional:
        layer, state = BiLSTM(d, H, rng=rng), None
    else:
        layer = LSTM(d, H, return_sequences=return_sequences, rng=rng)
        state = (rng.standard_normal(H), rng.standard_normal((B, H))) if initial else None
    for role, arr in layer.params.items():
        if role.endswith("b"):
            arr[...] = rng.standard_normal(4 * H)  # not only the forget-gate ones
    x = signed_zero_input(rng, (B, T, d)) * scale
    want, history = lstm_scan_reference(layer, x, train=train, initial=state)
    got = layer.forward(x, train=train, initial=state)
    assert np.array_equal(got.view(np.uint64), want.view(np.uint64))
    if train:
        for kept, expected in zip(layer._cache[1:5], history):
            assert kept.shape == expected.shape
            assert np.array_equal(kept.view(np.uint64), expected.view(np.uint64))
    else:
        assert layer._cache is None
