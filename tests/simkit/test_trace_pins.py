"""The kernel's event order and the facility's end state, pinned end to end.

Runs the ``tiny``, ``frontdoor`` and ``fluid`` sanitizer scenarios (seed 0,
strict insertion-order ties) and compares the event count, the full trace
digest and the final-state digest with constants.  Any change to what the
facility schedules, or to the order the queue pops it in, moves the trace
pins; any change to what a run leaves behind moves the state pins.  A
change that means to do so updates the pins in the same diff and says so
in CHANGES.md.

The pure-python random fallback draws a different stream, hence its own
pins.  Both sets were recorded on CPython 3.11.  The pure-python pins of
all three scenarios reproduce on CPython 3.10.13 and 3.12.1 as well, e.g.
through ``python -m repro.analysis.sanitize --scenario tiny --json``,
whose ``determinism`` block prints the same event count and digests.
"""

import pytest

from repro._lazy import optional_numpy
from repro.analysis.sanitize import facility_run, state_digest
from repro.analysis.scenarios import get_scenario

# scenario -> (events, sha256 of the trace, sha256 of the final state),
# with and without numpy.
_PINS = {
    True: {
        "tiny": (3016, "5d09fe45f7077b79481f093e4d61708576e0c36f58d780339070b220474be5f0",
                 "44294991a2c440de3f8a5bc90bd0c1385759ac012b9ae5730adc273129e91fe1"),
        "frontdoor": (6365, "ec649bfa2d7884b6d2bd072ff559c389913a1fa781b7231194d3bd13da296513",
                      "51d0926dc9a6abb90b030553dbe433b45f88aa1b3c77b01c03f6b25107c88117"),
        "fluid": (238, "a19ec04dbbee3c458422c9a465130c54011ebb6d3386387002b73707fa1f53b9",
                  "33422bea8382a65940f4010ce073f100c859f5bcff3a148de674078308dc92a9"),
    },
    False: {
        "tiny": (3059, "bc9c310a8696cb5a118e53367f52282ef9e1a35559121c373c93227774eb0a96",
                 "a81d7dfdce9f07ee696a85fa8883bb230f7a0464911e29b5c61f878324131d0c"),
        "frontdoor": (6204, "bda3eaedc93f483932ce09815b02792a819a86c292083936044796bb82b63c14",
                      "8d3827955de7d436c4fe59d8e7bd5ebe57bdffe0022055b2d2b9bb1d258f0477"),
        "fluid": (238, "a19ec04dbbee3c458422c9a465130c54011ebb6d3386387002b73707fa1f53b9",
                  "33422bea8382a65940f4010ce073f100c859f5bcff3a148de674078308dc92a9"),
    },
}


@pytest.mark.parametrize("scenario", ["tiny", "frontdoor", "fluid"])
def test_sanitizer_trace_is_pinned(scenario):
    trace, state = facility_run(get_scenario(scenario))(0, None)
    assert (len(trace), trace.digest(), state_digest(state)) == \
        _PINS[optional_numpy() is not None][scenario]
