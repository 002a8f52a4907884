"""Machine-speed probe: a fixed reference workload owned by the benchmark.

On a shared 2-vCPU Xeon host (Python 3.11.7) the effective CPU speed
drifted by up to 1.7x over seconds to minutes as neighbours loaded the
host: a solve at (7,16) took 1.7 ms in one minute and 3.1 ms in the next.
The probe measures that drift.  It runs interpreter-bound work similar in
kind to the package's (integer arithmetic, tuple keys, dict lookups, a BFS
and a sort) on data of its own, never the package's, so no change to the
program under test can change the probe's time.  The garbage collector is
off while it runs, so the program's live objects do not slow it.

Timings are reported scaled to the nominal probe time, that is in
"reference-speed" seconds: raw * NOMINAL_S / probe.  A faster program
still reads faster; a slower machine does not read as a slower program.
"""

import gc
import time
from collections import deque

NOMINAL_S = 0.012           # typical probe time on that 2-vCPU Xeon host
_SIDE = 40


def _grid():
    adj = {}
    for r in range(_SIDE):
        for c in range(_SIDE):
            adj[(r, c)] = tuple((r + dr, c + dc)
                                for dr, dc in ((0, 1), (1, 0), (0, -1), (-1, 0))
                                if 0 <= r + dr < _SIDE and 0 <= c + dc < _SIDE)
    return adj


_ADJ = _grid()


def _work():
    a, b = 1, 0
    for i in range(60000):
        b = (b + a * i) & 0xFFFF
        a = (a ^ b) + 1
    for _ in range(2):
        dist = {(0, 0): 0}
        queue = deque([(0, 0)])
        while queue:
            v = queue.popleft()
            d = dist[v] + 1
            for w in _ADJ[v]:
                if w not in dist:
                    dist[w] = d
                    queue.append(w)
        order = sorted(dist.items(), key=lambda kv: (kv[1], kv[0]))
    return b + len(order)


def probe_seconds():
    """Seconds one run of the reference workload takes right now."""
    enabled = gc.isenabled()
    gc.disable()
    try:
        start = time.perf_counter()
        _work()
        return time.perf_counter() - start
    finally:
        if enabled:
            gc.enable()
