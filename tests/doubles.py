"""Test doubles and test-only helpers.

ScriptedTextGenerator and FlakyProvider drive the parser retry paths and
the transport retry paths; split_rendered_mc inverts
instructions.render_mc_instruction, to audit the rendered choices;
build_manifest builds any variant's manifest the way `ablate` does.
"""

import os
import tempfile
import threading

import pytest

from seedforge import ablations, pipeline
from seedforge.errors import ParseError, RetryableProviderError
from seedforge.gateway.providers import TextGenerator
from seedforge.gateway.types import GenRequest


class ScriptedTextGenerator(TextGenerator):
    """Returns a fixed sequence of responses, ignoring the prompt, and
    keeps every request it answered in `requests`.

    Raises when the script runs dry unless loop=True. Thread-safe.
    """

    remote = False

    def __init__(self, responses: list[str], loop: bool = False):
        self._responses = list(responses)
        self._loop = loop
        self._lock = threading.Lock()
        self.requests: list[GenRequest] = []

    @property
    def provider_id(self) -> str:
        return "mock:scripted"

    @property
    def calls(self) -> int:
        return len(self.requests)

    def complete(self, request: GenRequest) -> str:
        with self._lock:
            i = len(self.requests)
            if i >= len(self._responses) and not self._loop:
                raise AssertionError("scripted generator exhausted")
            self.requests.append(request)
        return self._responses[i % len(self._responses)]


class FlakyProvider:
    """Wraps any provider object; the first `failures` calls to each wrapped
    method raise RetryableProviderError, after which calls pass through."""

    def __init__(self, inner, failures: int):
        self._inner = inner
        self._remaining = failures
        self._lock = threading.Lock()
        self.attempts = 0

    def __getattr__(self, name):
        attr = getattr(self._inner, name)
        if not callable(attr):
            return attr

        def wrapper(*args, **kwargs):
            with self._lock:
                self.attempts += 1
                if self._remaining > 0:
                    self._remaining -= 1
                    raise RetryableProviderError("simulated transport failure")
            return attr(*args, **kwargs)

        return wrapper


def split_rendered_mc(instruction: str) -> tuple[str, tuple[str, ...]]:
    """Inverse of render_mc_instruction, used to audit round-trip fidelity."""
    lines = instruction.splitlines()
    head: list[str] = []
    choices: list[str] = []
    for line in lines:
        if line.startswith("- "):
            choices.append(line[2:])
        elif not choices:
            head.append(line)
        else:
            raise ParseError("question text after choice lines",
                             raw=instruction)
    if not head or not choices:
        raise ParseError("rendered question must have a question line and "
                         "choice lines", raw=instruction)
    return " ".join(" ".join(head).split()), tuple(choices)


def build_manifest(variant: str, gateway, config, source=None):
    """The variant's DatasetManifest. A generated row runs
    `pipeline.run_pipeline` in a temporary workdir, with `gateway` in
    place of the one `pipeline.build_gateway` would make, and reads back
    its manifest; a sampled row goes through `ablations.sampled_manifest`
    with `source`."""
    if ablations.VARIANT_TABLE[variant].source != ablations.GENERATED:
        return ablations.sampled_manifest(variant, source, gateway, config)
    with tempfile.TemporaryDirectory() as workdir, \
            pytest.MonkeyPatch.context() as patch:
        patch.setattr(pipeline, "build_gateway", lambda _config: gateway)
        pipeline.run_pipeline(config, workdir, variant=variant)
        return ablations.read_manifest(
            os.path.join(workdir, pipeline.MANIFEST_FILE))
