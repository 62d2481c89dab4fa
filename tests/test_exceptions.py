import inspect
import pickle

import pytest

import cfris.exceptions
from cfris.exceptions import CfrisError, ConfigError

CLASSES = [cls for _, cls in inspect.getmembers(cfris.exceptions, inspect.isclass) if issubclass(cls, CfrisError)]


@pytest.mark.parametrize("cls", CLASSES, ids=lambda cls: cls.__name__)
def test_round_trips_through_pickle(cls):
    # an error raised in a forked worker reaches the caller pickled
    exc = cls("L", "must be at least 1") if cls is ConfigError else cls("matrix is not square")
    copy = pickle.loads(pickle.dumps(exc))
    assert type(copy) is cls
    assert str(copy) == str(exc) and copy.args == exc.args
    if cls is ConfigError:
        assert str(copy) == "L: must be at least 1" and copy.field == "L"


def test_classes_are_found():
    assert {"CfrisError", "ConfigError", "ModelError"} <= {cls.__name__ for cls in CLASSES}
