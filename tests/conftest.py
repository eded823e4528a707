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
