"""The two reference network architectures and their verification report.

Each builder returns a plain sequential Model. ``mode`` selects between:

* ``parity``    -- the layer sizes that reproduce the published reference
                   tables' parameter counts exactly (flat 144-wide input,
                   treated as one timestep / one channel),
* ``canonical`` -- BiLSTM only: (lookback, features) sequences,
* ``flat``      -- CNN only: the window flattened to a 1-channel sequence
                   of length lookback*features (its receptive field is
                   longer than any 12- or 24-step multichannel sequence).

``build_model`` builds the form each net is trained in; parity builds
serve ``verify_parity`` only.

``verify_parity`` compares a parity build against the published per-layer
counts and shapes. The published tables carry a handful of internal
inconsistencies; those rows get canned notes and are not treated as
failures. Anything outside the notes is an unexpected mismatch.
"""

from dataclasses import dataclass, field

import numpy as np

from .errors import InputTooShort, ShapeMismatch, UnexpectedMismatch
from .nn import (
    BiLSTM,
    Conv1D,
    Dense,
    Dropout,
    GlobalAvgPool1D,
    LSTM,
    MaxPool1D,
    Model,
    ReLU,
    Sigmoid,
)

BILSTM_NET = "bilstm_net"
CNN_NET = "cnn_net"
# every accepted model key (lowercase) -> its canonical name
MODEL_ALIASES = {
    BILSTM_NET: BILSTM_NET, "bilstm": BILSTM_NET, "lstm": BILSTM_NET,
    CNN_NET: CNN_NET, "cnn": CNN_NET,
}

PARITY_WIDTH = 144  # input width of the published reference builds

# (label, published param count, published per-sample output shape)
BILSTM_REFERENCE = (
    ("bidirectional_1", 68400, (1, 90)),
    ("bidirectional_2", 9408, (21,)),
    ("dense_1", 2816, (128,)),
    ("dense_2", 67854, (526,)),
    ("dense_3", 134912, (256,)),
    ("dense_4", 257, (1,)),
)
BILSTM_STATED_TOTAL = 283647

CNN_REFERENCE = (
    ("conv1d_1", 288, (137, 32)),
    ("conv1d_2", 5152, (133, 32)),
    ("max_pooling1d_1", 0, (44, 32)),
    ("conv1d_3", 6208, (44, 32)),
    ("conv1d_4", 12352, (42, 64)),
    ("conv1d_5", 12352, (38, 64)),
    ("max_pooling1d_2", 0, (12, 64)),
    ("conv1d_6", 16512, (11, 128)),
    ("conv1d_7", 32896, (10, 128)),
    ("conv1d_8", 65792, (9, 256)),
    ("global_average_pooling1d_1", 0, (256,)),
    ("dropout_1", 0, (256,)),
    ("dense_1", 256, (1,)),
)
CNN_STATED_TOTAL = 151809

# label -> (which mismatch field the note excuses: "shape"|"params"|None, note)
BILSTM_KNOWN = {
    "bidirectional_2": (
        None,
        "published as a bidirectional layer, but 9408 = 4*21*(90+21+1) is the "
        "count of a single 21-unit direction on 90-wide input (and 21 is odd, "
        "so it cannot be a concatenated pair); built unidirectional",
    ),
}
CNN_KNOWN = {
    "conv1d_3": (
        "shape",
        "published shape lists 32 channels, but 6208 = 64*(3*32+1) needs 64 "
        "output channels; built with 64",
    ),
    "conv1d_5": (
        "shape",
        "published length 38 implies kernel 5 (from 42), but 12352 = "
        "64*(3*64+1) implies kernel 3; built with kernel 3, so this length "
        "and the lengths after it run 2 longer than published",
    ),
    "max_pooling1d_2": ("shape", "length follows the conv1d_5 kernel choice"),
    "conv1d_6": ("shape", "length follows the conv1d_5 kernel choice"),
    "conv1d_7": ("shape", "length follows the conv1d_5 kernel choice"),
    "conv1d_8": ("shape", "length follows the conv1d_5 kernel choice"),
    "dense_1": (
        "params",
        "published count 256 omits the bias; the built layer has 257, which "
        "is why the stated architecture total is 151809 while the published "
        "rows sum to 151808",
    ),
}

# canonical name -> (published rows, known notes, stated total)
REFERENCES = {
    BILSTM_NET: (BILSTM_REFERENCE, BILSTM_KNOWN, BILSTM_STATED_TOTAL),
    CNN_NET: (CNN_REFERENCE, CNN_KNOWN, CNN_STATED_TOTAL),
}


def _dense_head(rng):
    return [
        Dense(21, 128, rng=rng),
        ReLU(),
        Dense(128, 526, rng=rng),
        ReLU(),
        Dense(526, 256, rng=rng),
        ReLU(),
        Dense(256, 1, rng=rng),
        Sigmoid(),
    ]


def build_lstm_model(mode="canonical", lookback=24, features=5, seed=0):
    """Stacked recurrent classifier: BiLSTM(45) -> LSTM(21, last state) ->
    dense 128/526/256/1 head with ReLU between and a sigmoid output.

    canonical mode consumes (lookback, features) sequences; parity mode
    consumes the flat 144-wide row as a single timestep, which is the shape
    whose per-layer counts match the published reference table.
    """
    rng = np.random.default_rng(seed)
    if mode == "parity":
        input_shape = (1, PARITY_WIDTH)
    elif mode == "canonical":
        input_shape = (int(lookback), int(features))
    else:
        raise ValueError(f"unknown mode {mode!r} for {BILSTM_NET}")
    layers = [
        BiLSTM(input_shape[1], 45, rng=rng),
        LSTM(90, 21, return_sequences=False, rng=rng),
    ] + _dense_head(rng)
    return Model(BILSTM_NET, mode, input_shape, layers)


def _cnn_layers(rng):
    return [
        Conv1D(1, 32, 8, rng=rng),
        Conv1D(32, 32, 5, rng=rng),
        MaxPool1D(3),
        Conv1D(32, 64, 3, padding="same", rng=rng),
        Conv1D(64, 64, 3, rng=rng),
        Conv1D(64, 64, 3, rng=rng),
        MaxPool1D(3),
        Conv1D(64, 128, 2, rng=rng),
        Conv1D(128, 128, 2, rng=rng),
        Conv1D(128, 256, 2, rng=rng),
        GlobalAvgPool1D(),
        Dropout(0.4),
        Dense(256, 1, rng=rng),
        Sigmoid(),
    ]


def cnn_min_length():
    """Shortest input length the conv/pool chain accepts, found by building
    the chain at lengths 1, 2, ... until one fits (59 today). Only the
    error path of ``build_cnn_model`` needs it, so nothing runs it at import."""
    layers = _cnn_layers(np.random.default_rng(0))
    length = 1
    while True:
        try:
            Model(CNN_NET, "flat", (length, 1), layers)
            return length
        except ShapeMismatch:
            length += 1


def build_cnn_model(mode="flat", lookback=24, features=5, seed=0):
    """Eight-conv classifier with two 3-wide max pools, global average
    pooling, 40% dropout, and a sigmoid dense output.

    Both modes feed the row as a 1-channel sequence: parity the flat
    144-wide row (the published reference shape), flat the lookback*features
    window row, which is the form the experiments train. A sequence the
    chain does not fit raises InputTooShort with ``cnn_min_length()``.
    """
    rng = np.random.default_rng(seed)
    if mode == "parity":
        length = PARITY_WIDTH
    elif mode == "flat":
        length = int(lookback) * int(features)
    else:
        raise ValueError(f"unknown mode {mode!r} for {CNN_NET}")
    try:
        return Model(CNN_NET, mode, (length, 1), _cnn_layers(rng))
    except ShapeMismatch:
        raise InputTooShort(length, cnn_min_length()) from None


# canonical name -> (builder, the input form the net is trained in)
_BUILDS = {
    BILSTM_NET: (build_lstm_model, "canonical"),
    CNN_NET: (build_cnn_model, "flat"),
}


def model_name(key):
    """Canonical model name for a name or alias, case-insensitive."""
    try:
        return MODEL_ALIASES[key.lower()]
    except KeyError:
        raise ValueError(
            f"unknown model {key!r}; expected one of {', '.join(sorted(MODEL_ALIASES))}"
        ) from None


def build_model(name, lookback=24, features=5, seed=0):
    """The net of a name or alias (see ``MODEL_ALIASES``) in the form it is
    trained in: the BiLSTM reads (lookback, features) sequences, the CNN
    one sequence of lookback*features values."""
    builder, mode = _BUILDS[model_name(name)]
    return builder(mode, lookback, features, seed)


def build_parity_model(name):
    """The parity build of a name or alias, for ``verify_parity``."""
    builder, _ = _BUILDS[model_name(name)]
    return builder("parity")


@dataclass
class ParityRow:
    label: str
    expected_params: int
    computed_params: int
    expected_shape: tuple
    computed_shape: tuple
    note: str = ""

    @property
    def params_match(self):
        return self.expected_params == self.computed_params

    @property
    def shape_match(self):
        return self.expected_shape == self.computed_shape


@dataclass
class ParityReport:
    """Exhaustive row-by-row comparison of a parity build against the
    published reference table."""

    model_name: str
    rows: list[ParityRow] = field(default_factory=list)
    expected_total: int = 0   # sum of the published per-layer counts
    computed_total: int = 0   # sum over the built layers
    stated_total: int = 0     # the single total the reference text states

    def _faults(self, row):
        """(field, expected, computed) of each mismatch in a row that no
        canned note excuses."""
        _, known, _ = REFERENCES[self.model_name]
        allowed = known.get(row.label, (None, ""))[0]
        out = []
        if not row.params_match and allowed != "params":
            out.append(("params", row.expected_params, row.computed_params))
        if not row.shape_match and allowed != "shape":
            out.append(("shape", row.expected_shape, row.computed_shape))
        return out

    def unexpected(self):
        """Mismatches not excused by a canned note."""
        return [(row.label, *fault) for row in self.rows for fault in self._faults(row)]

    def require_clean(self):
        bad = self.unexpected()
        if bad:
            label, _, expected, computed = bad[0]
            raise UnexpectedMismatch(label, expected, computed)

    def to_text(self):
        lines = [
            f"{'layer':<28} {'expected':>10} {'computed':>10} "
            f"{'exp shape':>12} {'got shape':>12}  note"
        ]
        for r in self.rows:
            flag = "" if (r.params_match and r.shape_match) else ("MISMATCH " if self._faults(r) else "known ")
            lines.append(
                f"{r.label:<28} {r.expected_params:>10,} {r.computed_params:>10,} "
                f"{str(r.expected_shape):>12} {str(r.computed_shape):>12}  {flag}{r.note}"
            )
        lines.append(
            f"{'total':<28} {self.expected_total:>10,} {self.computed_total:>10,}"
        )
        if self.stated_total != self.expected_total:
            lines.append(
                f"stated architecture total {self.stated_total:,} vs published "
                f"row sum {self.expected_total:,} (see dense_1 note)"
            )
        else:
            lines.append(f"stated architecture total {self.stated_total:,}")
        return "\n".join(lines)


# activation layers are not present as rows in the published tables
_UNLISTED_KINDS = ("relu", "sigmoid")


def verify_parity(model):
    """Compare a parity-mode model against its published reference table.

    Returns an exhaustive ParityReport; never raises for the documented
    inconsistencies. Call ``report.require_clean()`` to turn anything
    undocumented into an UnexpectedMismatch.
    """
    if model.mode != "parity":
        raise ValueError("reference comparison needs a parity-mode build")
    try:
        reference, known, stated = REFERENCES[model.name]
    except KeyError:
        raise ValueError(f"no reference table for model {model.name!r}") from None

    listed = [
        (kind, shape, count)
        for (_, kind, shape, count) in model.layer_summary()
        if kind not in _UNLISTED_KINDS
    ]
    if len(listed) != len(reference):
        raise ValueError(
            f"built model has {len(listed)} listed layers, reference has {len(reference)}"
        )
    report = ParityReport(model_name=model.name, stated_total=stated)
    for (label, exp_params, exp_shape), (kind, shape, count) in zip(reference, listed):
        report.rows.append(
            ParityRow(
                label=label,
                expected_params=exp_params,
                computed_params=count,
                expected_shape=tuple(exp_shape),
                computed_shape=tuple(shape),
                note=known.get(label, (None, ""))[1],
            )
        )
    report.expected_total = sum(r[1] for r in reference)
    report.computed_total = model.param_count()
    return report
