"""Per-sample state machines of the three detectors, the tests' oracles.

The library defines each detector once, by its vectorized `scan`; its
`update` is that scan fed one column at a time.  The state machines below
implement the same semantics a second, independent way, one z at a time
with live state: the static chi-squared comparison, a window deque with a
running sum (`window`, `w`), and the CUSUM recursion (`s`).  The tests
hold the scans and the library's `update` to their alarm sequences and
statistics.

Each oracle subclasses its library class for the thresholds' checks and
`params`, and replaces `update` with its own recursion; `oracle` builds
the oracle of a library detector.
"""

import math
import sys
from collections import deque
from typing import Optional

from resdet import detectors
from resdet.detectors import AlarmEvent

# Running window sums are refreshed from the buffer at this cadence so
# float drift from incremental add/subtract stays bounded on long streams.
_WINDOW_REFRESH = 1024


class ChiSqDetector(detectors.ChiSqDetector):
    """Static chi-squared state machine: alarm iff z > alpha."""

    def __init__(self, alpha: float):
        super().__init__(alpha)
        self.k = 0

    def update(self, z: float) -> Optional[AlarmEvent]:
        if z < 0:
            raise ValueError(f"distance measure must be nonnegative, got {z}")
        self.k += 1
        if z > self.alpha:
            return AlarmEvent(k_star=self.k, kind=self.kind, statistic=float(z))
        return None


class WindowedChiSqDetector(detectors.WindowedChiSqDetector):
    """Sliding-window state machine; before the window fills, `w` is the partial sum."""

    def __init__(self, beta: float, ell: int):
        super().__init__(beta, ell)
        # no run fills a window longer than a deque can hold
        self.window: deque = deque(maxlen=min(self.ell, sys.maxsize))
        self.w = 0.0
        self.k = 0

    def update(self, z: float) -> Optional[AlarmEvent]:
        if z < 0:
            raise ValueError(f"distance measure must be nonnegative, got {z}")
        self.k += 1
        if len(self.window) == self.ell:
            self.w -= self.window[0]  # evicted by the append below
        self.window.append(float(z))
        self.w += float(z)
        if self.k % _WINDOW_REFRESH == 0:
            self.w = math.fsum(self.window)
        if len(self.window) == self.ell and self.w > self.beta:
            return AlarmEvent(k_star=self.k, kind=self.kind, statistic=self.w)
        return None


class CusumDetector(detectors.CusumDetector):
    """CUSUM state machine with the lagged reset (see detectors.CusumDetector)."""

    def __init__(self, tau: float, b: float):
        super().__init__(tau, b)
        self.s = 0.0
        self.k = 0

    def update(self, z: float) -> Optional[AlarmEvent]:
        if z < 0:
            raise ValueError(f"distance measure must be nonnegative, got {z}")
        if self.s > self.tau:
            event = AlarmEvent(k_star=self.k, kind=self.kind, statistic=self.s)
            self.s = 0.0
            self.k += 1
            return event
        self.s = max(0.0, self.s + float(z) - self.b)
        self.k += 1
        return None


ORACLES = {cls.kind: cls for cls in (ChiSqDetector, WindowedChiSqDetector, CusumDetector)}


def oracle(detector):
    """A fresh state machine with the thresholds of a library detector."""
    return ORACLES[detector.kind](**detector.params)


def live_statistic(detector):
    """An oracle's statistic after its last update: S, or the window sum.

    None for the static detector, whose statistic is the z it was fed.
    """
    return getattr(detector, "s", getattr(detector, "w", None))
