import pickle

import pytest

from modfield.errors import (DomainSamplingError, FixedPointError,
                             IntegrationFailureError, StageOverflowError,
                             TrainingDivergedError)

# each error that says where it happened, with values for its fields
FIELDS = {
    IntegrationFailureError: {"t_reached": 1.5},
    DomainSamplingError: {"record": 7},
    StageOverflowError: {"stage": 2, "step_index": 8},
    FixedPointError: {"residual": 3e-9, "iterations": 50, "step_index": 4},
    TrainingDivergedError: {"epoch": 3, "batch": 1, "record": 12},
}


@pytest.mark.parametrize("cls", FIELDS, ids=lambda cls: cls.__name__)
def test_an_error_keeps_where_it_happened(cls):
    fields = FIELDS[cls]
    err = cls("it failed", **fields)
    # worker processes send their errors back pickled
    back = pickle.loads(pickle.dumps(err))
    assert type(back) is cls and str(back) == "it failed"
    assert {name: getattr(back, name) for name in fields} == fields
    # at() re-states the error, keeps the fields it does not set, and
    # leaves the original as it was
    first, *rest = fields
    moved = err.at("step 9: it failed", **{first: None})
    assert type(moved) is cls and moved is not err
    assert str(moved) == "step 9: it failed" and getattr(moved, first) is None
    assert all(getattr(moved, name) == fields[name] for name in rest)
    assert str(err) == "it failed"
    assert {name: getattr(err, name) for name in fields} == fields
    # an unset field reads None, and a field the class lacks is refused
    assert getattr(cls("bare"), first) is None
    with pytest.raises(TypeError, match=f"{cls.__name__} has no field "
                                        "'where'"):
        cls("it failed", where=0)
    with pytest.raises(TypeError):
        err.at("again", where=0)
