"""Package errors survive a pickle round trip, as they must to come back
from a worker process."""

import inspect
import pickle

from nowcast.errors import NowcastError

# an argument value for every constructor parameter name in the hierarchy
SAMPLE_ARGS = {
    "line_no": 3,
    "detail": "x",
    "length": 2,
    "min_length": 10,
    "layer": "a",
    "expected": 1,
    "computed": 2,
    "epoch": 1,
    "batch_index": 3,
}


def all_error_classes():
    classes, todo = [], [NowcastError]
    while todo:
        cls = todo.pop()
        classes.append(cls)
        todo.extend(cls.__subclasses__())
    return classes


def instance(cls):
    if not inspect.isfunction(cls.__init__):  # Exception's own constructor
        return cls("something went wrong")
    params = list(inspect.signature(cls.__init__).parameters)[1:]
    return cls(*(SAMPLE_ARGS[name] for name in params))


def test_every_error_round_trips_through_pickle():
    classes = all_error_classes()
    assert len(classes) > 10
    for cls in classes:
        exc = instance(cls)
        back = pickle.loads(pickle.dumps(exc))
        assert type(back) is cls
        assert str(back) == str(exc)
        assert back.args == exc.args
        assert vars(back) == vars(exc)


def test_malformed_row_keeps_line_and_message():
    from nowcast.errors import MalformedRow

    back = pickle.loads(pickle.dumps(MalformedRow(3, "x")))
    assert back.line_no == 3
    assert str(back) == "unparseable row at line 3: x"
