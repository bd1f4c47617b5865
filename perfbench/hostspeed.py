"""Host-speed gauge: rescales wall times to a fixed host speed.

On a shared host the same computation can take half again as long for
tens of seconds at a time, when neighbours compete for the cores and
caches.  Such swings are the host's, not the program's, and they
outlast one benchmark run, so a median over the run does not remove
them.  The gauge times a fixed piece of interpreter work (``kernel``:
dicts, tuples, JSON, SHA-256 and integer work, like the program's own
mix) right before and right after every timed phase, and reports

    wall * REF_S / mean(kernel time before, kernel time after)

that is, the phase's wall time at the host speed at which the kernel
takes ``REF_S`` seconds.  The kernel is part of the benchmark, never of
the program, so a change to the program moves only the numerator.
"""

from __future__ import annotations

import hashlib
import json
import time

# the kernel's time on an uncontended 2-vCPU Linux VM with Python 3.11.7
REF_S = 0.040
KERNEL_ROUNDS = 3000


def kernel() -> int:
    acc = 0
    for i in range(KERNEL_ROUNDS):
        rec = {"port": i & 7, "bits": (i * 2654435761) & 0xFFFFFFFF,
               "q": [i, i + 1, (i, 3 * i)], "tag": "x" * (i % 13)}
        blob = json.dumps(rec, sort_keys=True)
        h = hashlib.sha256(blob.encode()).hexdigest()[:16]
        back = json.loads(blob)
        acc ^= int(h, 16) ^ len(tuple(sorted(back))) ^ sum(back["q"][:2])
        for j in range(20):
            acc = (acc * 31 + j) & 0xFFFFFFFFFFFF
    return acc


class Gauge:
    """Kernel timings around a sequence of timed phases.  Create it just
    before the first phase; call ``scale`` right after each one."""

    def __init__(self) -> None:
        self.kernel_s: list[float] = []
        self._last = self._tick()

    def _tick(self) -> float:
        t0 = time.perf_counter()
        kernel()
        dt = time.perf_counter() - t0
        self.kernel_s.append(dt)
        return dt

    def scale(self, wall_s: float) -> float:
        """The phase that just ended took wall_s seconds; return it at
        reference host speed."""
        before, self._last = self._last, self._tick()
        return wall_s * REF_S / ((before + self._last) / 2)
