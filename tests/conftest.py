import tracemalloc

import pytest

from seedforge.gateway import Gateway

from doubles import ScriptedTextGenerator


@pytest.fixture
def gateway():
    return Gateway.mock()


@pytest.fixture
def scripted():
    """Factory: a mock gateway whose generator plays back a fixed script."""

    def make(responses, loop=False, **mock_kwargs):
        gw = Gateway.mock(**mock_kwargs)
        gw.generator = ScriptedTextGenerator(responses, loop=loop)
        return gw

    return make


@pytest.fixture
def peak():
    """peak(fn, *args, **kwargs): fn's value and the most bytes it held
    allocated at once beyond what was allocated when it was called, as
    tracemalloc sees them; numpy's buffers count."""

    def measure(fn, *args, **kwargs):
        tracemalloc.start()
        try:
            tracemalloc.reset_peak()
            base = tracemalloc.get_traced_memory()[0]
            value = fn(*args, **kwargs)
            return value, tracemalloc.get_traced_memory()[1] - base
        finally:
            tracemalloc.stop()

    return measure
