"""Mini-batch training with binary cross-entropy and an adaptive-moment
optimizer, plus thresholded binary evaluation and per-epoch logging.

Datasets are anything with ``inputs`` (N x width float array) and
``targets`` (N binary vector) attributes; the rest of the package uses
``pipeline.WindowedDataset``. ``run`` is how ``nowcast train``, every grid
cell and the estimators train: it builds the model, holds out the
validation tail and fits. All runs are deterministic for a fixed seed:
row shuffling and dropout masks draw from one seeded generator, and batch
gradients come from fixed-order reductions.
"""

import time
from dataclasses import dataclass, field, replace

import numpy as np

from ._io import atomic_write_text
from .errors import EmptyDataset, NonFiniteLoss
from .models import build_model
from .nn.model import bce_with_grad
from .pipeline import check_int

BETA1 = 0.9
BETA2 = 0.999
EPSILON = 1e-8
MIN_DELTA = 1e-4  # a validation-loss improvement below this does not reset patience
EVAL_BATCH = 512  # rows per eval-mode forward


@dataclass
class TrainConfig:
    learning_rate: float = 1e-3
    batch_size: int = 32
    epochs: int = 100
    seed: int = 0
    patience: int | None = None  # stop after this many epochs without val-loss improvement

    def __post_init__(self):
        check_int("batch_size", self.batch_size, 1)
        check_int("epochs", self.epochs, 0)
        check_int("seed", self.seed)
        if self.patience is not None:
            check_int("patience", self.patience, 1)
        if not 0 <= self.learning_rate < np.inf:
            raise ValueError(f"learning_rate must be finite and >= 0, got {self.learning_rate}")


class AdamState:
    """First/second moment accumulators plus the global step counter."""

    def __init__(self, m, v, step=0):
        self.m = m
        self.v = v
        self.step = step

    @classmethod
    def for_params(cls, params):
        return cls(
            m={k: np.zeros_like(a) for k, a in params.items()},
            v={k: np.zeros_like(a) for k, a in params.items()},
        )


def adam_step(params, grads, state, cfg, t):
    """One bias-corrected adaptive-moment update, in place.

    m <- b1*m + (1-b1)*g ; v <- b2*v + (1-b2)*g^2 ;
    theta <- theta - lr * m_hat / (sqrt(v_hat) + eps), with
    m_hat = m / (1 - b1^t), v_hat = v / (1 - b2^t), t >= 1.
    """
    if t < 1:
        raise ValueError("step index t starts at 1")
    c1 = 1.0 - BETA1 ** t
    c2 = 1.0 - BETA2 ** t
    for name, theta in params.items():
        g = grads[name]
        m = state.m[name]
        v = state.v[name]
        m *= BETA1
        m += (1.0 - BETA1) * g
        v *= BETA2
        v += (1.0 - BETA2) * (g * g)
        theta -= cfg.learning_rate * (m / c1) / (np.sqrt(v / c2) + EPSILON)


@dataclass
class EpochMetrics:
    loss: float
    accuracy: float


@dataclass
class Metrics:
    """Thresholded binary-classification metrics plus confusion counts."""

    accuracy: float
    precision: float
    recall: float
    f1: float
    tp: int
    fp: int
    tn: int
    fn: int
    loss: float
    n: int


def train_epoch(model, dataset, cfg, rng, state=None, epoch=0):
    """One pass over the training rows: shuffle, forward in train mode,
    mean-BCE backward, one optimizer step per batch.

    Returns the mean loss and accuracy of the predictions made during the
    epoch (train-mode forward passes, so dropout is active).
    """
    X = np.asarray(dataset.inputs, dtype=np.float64)
    y = np.asarray(dataset.targets, dtype=np.float64)
    n = X.shape[0]
    if n == 0:
        raise EmptyDataset("cannot train on an empty dataset")
    if state is None:
        state = AdamState.for_params(model.params())
    params = model.params()
    order = rng.permutation(n)
    loss_sum = 0.0
    correct = 0
    for b, start in enumerate(range(0, n, cfg.batch_size)):
        idx = order[start:start + cfg.batch_size]
        xb, yb = X[idx], y[idx]
        p = model.forward(xb, train=True, rng=rng)
        losses, dp = bce_with_grad(p, yb)
        batch_loss = float(losses.mean())
        if not np.isfinite(batch_loss):
            raise NonFiniteLoss(epoch, b)
        loss_sum += float(losses.sum())
        correct += int(((p >= 0.5) == (yb >= 0.5)).sum())
        model.zero_grads()
        model.backward(dp / len(idx))
        state.step += 1
        adam_step(params, model.grads(), state, cfg, state.step)
    return EpochMetrics(loss=loss_sum / n, accuracy=correct / n)


def check_threshold(threshold):
    """A decision threshold must be a finite number in [0, 1]."""
    if not 0.0 <= threshold <= 1.0:
        raise ValueError(f"the threshold must be a number in [0, 1], got {threshold}")


def probabilities(model, X):
    """Eval-mode output for the rows of X, one forward per EVAL_BATCH rows.
    BLAS rounds by row count, so a row's bits depend on its block: every
    scoring path comes here. No rows still run one (empty) forward."""
    X = np.asarray(X, dtype=np.float64)
    return np.concatenate([
        model.forward(X[start:start + EVAL_BATCH], train=False)
        for start in range(0, max(len(X), 1), EVAL_BATCH)
    ])


def evaluate(model, dataset, threshold=0.5):
    """Eval-mode metrics at a decision threshold; p == threshold counts as 1.
    The loss is summed per block of EVAL_BATCH rows, then over blocks."""
    check_threshold(threshold)
    X = np.asarray(dataset.inputs, dtype=np.float64)
    y = np.asarray(dataset.targets, dtype=np.float64)
    n = X.shape[0]
    if n == 0:
        raise EmptyDataset("cannot evaluate an empty dataset")
    p = probabilities(model, X)
    loss_sum = 0.0
    for start in range(0, n, EVAL_BATCH):
        losses, _ = bce_with_grad(p[start:start + EVAL_BATCH], y[start:start + EVAL_BATCH])
        loss_sum += float(losses.sum())
    cls = p >= threshold
    pos = y >= 0.5
    tp = int((cls & pos).sum())
    fp = int((cls & ~pos).sum())
    fn = int((~cls & pos).sum())
    tn = int((~cls & ~pos).sum())
    precision = tp / (tp + fp) if tp + fp else 0.0
    recall = tp / (tp + fn) if tp + fn else 0.0
    f1 = 2 * precision * recall / (precision + recall) if precision + recall else 0.0
    return Metrics(
        accuracy=(tp + tn) / n,
        precision=precision,
        recall=recall,
        f1=f1,
        tp=tp,
        fp=fp,
        tn=tn,
        fn=fn,
        loss=loss_sum / n,
        n=n,
    )


@dataclass
class EpochRecord:
    train_loss: float
    train_acc: float
    val_loss: float
    val_acc: float
    seconds: float


@dataclass
class TrainLog:
    """Per-epoch trace plus the final held-out evaluation.

    The CSV serialization carries the four curve columns only (epoch
    timings stay in memory), so a fixed seed reproduces the file
    byte for byte.
    """

    records: list[EpochRecord] = field(default_factory=list)
    final_test: Metrics | None = None

    CSV_HEADER = "epoch,train_loss,train_acc,val_loss,val_acc"

    def to_csv_text(self):
        lines = [self.CSV_HEADER]
        for i, r in enumerate(self.records, start=1):
            lines.append(
                f"{i},{r.train_loss:.6g},{r.train_acc:.6g},{r.val_loss:.6g},{r.val_acc:.6g}"
            )
        return "\n".join(lines) + "\n"

    def save(self, path):
        atomic_write_text(path, self.to_csv_text())


def fit(model, train, validation=None, test=None, cfg=None):
    """Train for cfg.epochs (optionally stopping early on stale validation
    loss) and evaluate the last-epoch parameters on the test split.

    validation metrics are logged as nan when no validation set is given;
    patience needs one. Test evaluation always uses the final parameters,
    not the best-validation ones.
    """
    cfg = cfg or TrainConfig()
    rng = np.random.default_rng(cfg.seed)
    state = AdamState.for_params(model.params())
    log = TrainLog()
    best_val = np.inf
    stale = 0
    for epoch in range(cfg.epochs):
        t0 = time.perf_counter()
        em = train_epoch(model, train, cfg, rng, state, epoch=epoch)
        if validation is not None:
            vm = evaluate(model, validation)
            val_loss, val_acc = vm.loss, vm.accuracy
        else:
            val_loss = val_acc = float("nan")
        log.records.append(
            EpochRecord(em.loss, em.accuracy, val_loss, val_acc, time.perf_counter() - t0)
        )
        if cfg.patience is not None and validation is not None:
            if val_loss < best_val - MIN_DELTA:
                best_val = val_loss
                stale = 0
            else:
                stale += 1
                if stale >= cfg.patience:
                    break
    if test is not None:
        log.final_test = evaluate(model, test)
    return log


@dataclass(frozen=True)
class RunSpec:
    """One training run: model key or alias, the share of the training
    rows held out as a validation tail, and the optimizer settings.
    ``config.seed`` seeds both the build and the fit."""

    model: str
    val_fraction: float
    config: TrainConfig

    def __post_init__(self):
        if not 0.0 <= self.val_fraction < np.inf:
            raise ValueError(
                f"the validation fraction must be finite and >= 0, got {self.val_fraction}"
            )


def _rows(ds, a, b):
    return replace(
        ds,
        inputs=ds.inputs[a:b],
        targets=ds.targets[a:b],
        anchors=None if ds.anchors is None else ds.anchors[a:b],
    )


def run(spec, train, test=None):
    """Build the model for ``train``'s (lookback, features) in its trained
    form, hold out the chronological validation tail and fit; returns
    (model, log)."""
    window = train.config
    model = build_model(spec.model, window.lookback, window.features, spec.config.seed)
    validation = None
    if spec.val_fraction:
        n = train.n_rows
        n_val = max(1, int(round(n * spec.val_fraction)))
        if n_val >= n:
            raise ValueError("the validation fraction leaves no training rows")
        train, validation = _rows(train, 0, n - n_val), _rows(train, n - n_val, n)
    log = fit(model, train, validation=validation, test=test, cfg=spec.config)
    return model, log
