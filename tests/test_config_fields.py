"""Every field of the run configurations refuses a value of the wrong type.

``AllocationConfig`` and ``ExperimentSpec`` check their fields at
construction, so that a bad value fails with ``InvalidInputError`` before
any work, not with numpy's error at the first shot or with a wrong run.
This scan walks ``dataclasses.fields`` of both, so a field added without a
check fails here: every field must refuse ``2.5``, and every field that is
not a source string (a path or ``builtin:<name>``) must also refuse ``"x"``.
"""

import dataclasses

import pytest

from doubleshot.allocator import AllocationConfig
from doubleshot.errors import InvalidInputError
from doubleshot.experiments import ExperimentSpec

# the fewest arguments each class is built from
VALID = {
    AllocationConfig: {"budget": 4},
    ExperimentSpec: {
        "observable_source": "builtin:toy-fig1",
        "budgets": (8,),
        "repetitions": 2,
    },
}
SOURCE_FIELDS = {"observable_source", "state_source"}

CASES = [
    pytest.param(cls, f.name, bad, id=f"{cls.__name__}.{f.name}={bad!r}")
    for cls in VALID
    for f in dataclasses.fields(cls)
    for bad in (2.5, "x")
    if not (bad == "x" and f.name in SOURCE_FIELDS)
]


@pytest.mark.parametrize("cls", list(VALID), ids=lambda cls: cls.__name__)
def test_valid_arguments_build(cls):
    cls(**VALID[cls])


@pytest.mark.parametrize("cls, name, bad", CASES)
def test_field_refuses_a_wrong_type(cls, name, bad):
    with pytest.raises(InvalidInputError):
        cls(**{**VALID[cls], name: bad})
