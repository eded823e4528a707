"""Client-side request throttling.

The limiter enforces a hard sliding-window bound: in any 60 second window at
most `requests_per_minute` acquisitions succeed. A token bucket with a full
burst allowance would admit up to 2x the nominal rate inside a single window
(burst at t=0 plus refill), so a timestamp log is used instead; it is exact
and costs O(limit) memory.

The clock and sleep functions are injectable so tests can drive a simulated
clock and assert wall-time behavior without actually waiting.
"""

from __future__ import annotations

import collections
import logging
import threading
import time
from typing import Callable

logger = logging.getLogger(__name__)

WINDOW_SECONDS = 60.0


class RateLimiter:
    """Sliding-window rate limiter, safe for concurrent acquire() calls.

    Args:
        requests_per_minute: maximum acquisitions in any 60 s window.
        clock: monotonic time source, seconds.
        sleep: blocking wait, seconds. Called outside the internal lock.
    """

    def __init__(
        self,
        requests_per_minute: int,
        clock: Callable[[], float] = time.monotonic,
        sleep: Callable[[float], None] = time.sleep,
    ):
        if requests_per_minute < 1:
            raise ValueError("requests_per_minute must be >= 1")
        self.limit = requests_per_minute
        self._clock = clock
        self._sleep = sleep
        self._stamps: collections.deque[float] = collections.deque()
        self._lock = threading.Lock()

    def acquire(self) -> None:
        """Block until issuing one request keeps the window under the limit."""
        while True:
            with self._lock:
                now = self._clock()
                while self._stamps and now - self._stamps[0] >= WINDOW_SECONDS:
                    self._stamps.popleft()
                if len(self._stamps) < self.limit:
                    self._stamps.append(now)
                    return
                wait = WINDOW_SECONDS - (now - self._stamps[0])
            if wait > 0:
                logger.debug("rate limit reached, sleeping %.2fs", wait)
                self._sleep(wait)

    def in_window(self) -> int:
        """Number of requests issued in the trailing window (for tests)."""
        with self._lock:
            now = self._clock()
            return sum(1 for t in self._stamps if now - t < WINDOW_SECONDS)
