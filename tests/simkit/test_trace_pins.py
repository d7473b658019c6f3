"""The kernel's event order, pinned end to end.

Runs the ``tiny`` and ``fluid`` sanitizer scenarios (seed 0, strict
insertion-order ties) and compares the full trace digest and event count
with constants.  Any change to what the facility schedules, or to the
order the queue pops it in, moves these numbers; a change that means to
do so updates the pins in the same diff and says so in CHANGES.md.

The pure-python random fallback draws a different stream, hence its own
pins.  The pins were recorded on CPython 3.11.
"""

import pytest

from repro._lazy import optional_numpy
from repro.analysis.sanitize import facility_run
from repro.analysis.scenarios import get_scenario

# scenario -> (events, sha256 of the trace), with and without numpy.
_PINS = {
    True: {
        "tiny": (3016, "5d09fe45f7077b79481f093e4d61708576e0c36f58d780339070b220474be5f0"),
        "fluid": (234, "a3444295b5e5a11dba5f8ac8ba3e3bc0ae434c33ebaaf2510d1851f9650ee407"),
    },
    False: {
        "tiny": (3059, "bc9c310a8696cb5a118e53367f52282ef9e1a35559121c373c93227774eb0a96"),
        "fluid": (234, "a3444295b5e5a11dba5f8ac8ba3e3bc0ae434c33ebaaf2510d1851f9650ee407"),
    },
}


@pytest.mark.parametrize("scenario", ["tiny", "fluid"])
def test_sanitizer_trace_is_pinned(scenario):
    trace, _state = facility_run(get_scenario(scenario))(0, None)
    assert (len(trace), trace.digest()) == _PINS[optional_numpy() is not None][scenario]
