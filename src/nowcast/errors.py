"""Exception and warning types shared across the package."""


def _restore(cls, args):
    exc = cls.__new__(cls)
    exc.args = args
    return exc


class NowcastError(Exception):
    """Base class for all package errors.

    Pickles as (type, args, attributes) without calling ``__init__`` again,
    so subclasses whose constructors build their message from several
    arguments cross process boundaries unchanged.
    """

    def __reduce__(self):
        return _restore, (type(self), self.args), self.__dict__ or None


class PipelineError(NowcastError):
    """Base class for data-preparation errors."""


class MalformedRow(PipelineError):
    """A CSV row contained a field that could not be parsed."""

    def __init__(self, line_no, detail=""):
        self.line_no = line_no
        msg = f"unparseable row at line {line_no}"
        if detail:
            msg += f": {detail}"
        super().__init__(msg)


class NoData(PipelineError):
    """A stage produced zero usable records."""


class DegenerateSplit(PipelineError):
    """A train/test split left one side empty."""


class EmptyDataset(PipelineError):
    """An operation that needs rows received a dataset with none."""


class ShapeMismatch(NowcastError):
    """Array shape incompatible with a layer or model contract."""


class KernelTooLarge(ShapeMismatch):
    """Convolution kernel longer than the (unpadded) input sequence."""


class PoolTooLarge(ShapeMismatch):
    """Pool window longer than the input sequence."""


class InputTooShort(NowcastError):
    """Sequence too short for a model's conv/pool chain.

    ``min_length`` is the shortest input length the chain accepts.
    """

    def __init__(self, length, min_length):
        self.length = length
        self.min_length = min_length
        super().__init__(
            f"input length {length} too short; this stack needs at least {min_length}"
        )


class UnexpectedMismatch(NowcastError):
    """A reference-table comparison failed outside the documented notes."""

    def __init__(self, layer, expected, computed):
        self.layer = layer
        self.expected = expected
        self.computed = computed
        super().__init__(
            f"layer {layer!r}: expected {expected}, computed {computed}"
        )


class NonFiniteLoss(NowcastError):
    """Training hit a NaN/inf batch loss."""

    def __init__(self, epoch, batch_index):
        self.epoch = epoch
        self.batch_index = batch_index
        super().__init__(f"non-finite loss at epoch {epoch}, batch {batch_index}")


class CorruptCheckpoint(NowcastError):
    """Checkpoint file failed magic, shape, or length validation."""


class CorruptContainer(PipelineError):
    """Windowed-dataset container failed magic or length validation."""


class NotFittedError(NowcastError):
    """Estimator method called before fit()."""


class NowcastWarning(UserWarning):
    """Base class for package warnings."""


class NonMonotonicWarning(NowcastWarning):
    """Raw records were out of order and had to be sorted."""


class DuplicateTimestampWarning(NowcastWarning):
    """Duplicate timestamps were collapsed to the first occurrence."""


class SegmentTooShortWarning(NowcastWarning):
    """A segment was too short to yield any window and was skipped."""
