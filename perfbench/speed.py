"""Sample the machine's speed while a child sets up and runs its timed section.

On a shared machine the same code runs up to twice as slow from one second
to the next, and a 35 s run can sit in a slow stretch as a whole, so raw
wall times of identical runs differ by more than any useful bound.  A timer
signal every SETUP_INTERVAL_S, then every INTERVAL_S once the child calls
`sample_every(INTERVAL_S)`, runs a fixed reference loop in the measured
process itself, on the same CPU and between the same bytecodes as the code
under test, and records how long the loop took.  `take_factor` gives the mean of
REFERENCE_S / sample over a section: the section's speed relative to a
reference machine on which the loop takes REFERENCE_S.  Multiplying a wall
time by it gives the time the section would take at the reference speed.
The probe's own time is reported so that callers subtract it.

The factor must not depend on the code under test.  The garbage collector
is held off while the loop runs, so a larger heap cannot slow a sample.
prove.py interleaves the workloads and records each one's median factor in
baseline.json, and the traced run reports the raw wall time and the factor
(`speed.raw_wall_s`, `speed.factor`), so a gain in ref_wall_s that the raw
time does not share shows up.
"""

from __future__ import annotations

import gc
import signal
import time

INTERVAL_S = 0.1
# Set-up takes 0.1 to 0.6 s: at INTERVAL_S it would get one to five samples,
# too few for a factor that steadies it.  Over 60 set-up-only children each,
# scaled set-up times spread 0.091 (`edge-routes`) and 0.083 (`ad-minimal`)
# with samples every 0.01 s, 0.264 and 0.124 every 0.1 s (raw: 0.36 to 0.39).
SETUP_INTERVAL_S = 0.01
# About the fastest time of `reference_loop` on a 2-core Xeon VM with
# Python 3.11; only ratios between runs matter.
REFERENCE_S = 0.001


def reference_loop() -> int:
    """Integer tuple arithmetic like the library's affine-Weyl inner loops."""
    a = tuple(tuple((i * 7 + j * 3) % 5 - 2 for j in range(8)) for i in range(8))
    m = a
    for _ in range(10):
        m = tuple(tuple(sum(m[r][k] * a[k][c] for k in range(8)) % 97 for c in range(8)) for r in range(8))
    return m[0][0]


class SpeedProbe:
    """Context manager: samples the reference loop on SIGALRM while active."""

    def __init__(self) -> None:
        self.samples: list[float] = []
        self.spent = 0.0  # seconds spent inside the probe

    def _tick(self, signum, frame) -> None:
        # A collection started by the loop's allocations would scan the heap
        # of the code under test and put its time into the sample.
        collecting = gc.isenabled()
        gc.disable()
        start = time.perf_counter()
        reference_loop()
        took = time.perf_counter() - start
        if collecting:
            gc.enable()
        self.samples.append(took)
        self.spent += took

    def __enter__(self) -> "SpeedProbe":
        signal.signal(signal.SIGALRM, self._tick)
        self.sample_every(SETUP_INTERVAL_S)
        return self

    def sample_every(self, interval: float) -> None:
        signal.setitimer(signal.ITIMER_REAL, interval, interval)

    def __exit__(self, *exc) -> None:
        signal.setitimer(signal.ITIMER_REAL, 0)
        signal.signal(signal.SIGALRM, signal.SIG_DFL)

    def take_factor(self) -> float:
        """Speed factor of the samples since the last call; starts a new section."""
        if not self.samples:  # a section shorter than one interval
            self._tick(signal.SIGALRM, None)
        factor = sum(REFERENCE_S / s for s in self.samples) / len(self.samples)
        self.samples = []
        return factor
