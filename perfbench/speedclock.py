"""A clock that counts seconds at a fixed reference speed of the host.

The host this benchmark was built on runs the same code up to ~1.8x
slower for seconds or minutes at a time (see README.md), so plain wall
time spreads more between runs than any change worth measuring.  This
clock corrects for that.

Every ``PERIOD_S`` a SIGALRM handler times ``probe()``, a fixed piece of
interpreter-bound permutation and table code like the library's own.
The host's slowness is the probe time over ``REF_PROBE_S``.  Until the
next tick, wall time is divided by the median slowness of the last
``WINDOW`` ticks, so one interrupted probe does not skew it.  ``now()``
is the integral of that scaled time.  It excludes the time spent in the
handler itself.

The unit is "seconds on a host that runs ``probe()`` in
``REF_PROBE_S``", which is close to wall seconds on the reference host in
a fast period.

    speedclock.start()
    t0 = speedclock.now(); work(); elapsed = speedclock.now() - t0
    speedclock.stop()

Before ``start()`` and after ``stop()``, ``now()`` is plain
``time.perf_counter()``.  The clock uses SIGALRM and ITIMER_REAL, so it
must run in the main thread of a process that uses neither.
"""

from __future__ import annotations

import signal
import statistics
import time

PERIOD_S = 0.05
# Ticks, 0.15 s.  The host's slow and fast spells can be as short as a
# second; a median over a longer window lags them and under-corrects.
WINDOW = 3
# probe() time, in seconds, on the reference host (2-core shared VM,
# Python 3.11) in a fast period.
REF_PROBE_S = 0.0006

_PERM = tuple((7 * i + 3) % 61 for i in range(61))
_TABLE = tuple(tuple((a + b) % 61 for b in range(61)) for a in range(61))

_perf = time.perf_counter
_state: tuple[float, float, float] | None = None   # (reading, at perf time, scale)
_slowness: list[float] = []
_probes: list[float] = []


def probe() -> None:
    """Permutation composition, dict and set traffic, table lookups."""
    p = q = _PERM
    seen = {}
    for i in range(96):
        q = tuple([p[x] for x in q])
        seen[q] = i
    s = set(q[:30])
    s.update(q[20:])
    t = _TABLE
    for a in range(61):
        row = t[a]
        [t[row[b]] == t[b] for b in range(61)]


def _measure() -> float:
    """Time the probe; return the host's slowness, 1.0 at reference."""
    t = _perf()
    probe()
    d = _perf() - t
    _probes.append(d)
    return d / REF_PROBE_S


def _tick(signum, frame) -> None:
    global _state
    t = _perf()
    reading, at, scale = _state
    _slowness.append(_measure())
    del _slowness[:-WINDOW]
    _state = (reading + (t - at) * scale, _perf(), 1.0 / statistics.median(_slowness))


def start() -> None:
    """Probe three times, then keep probing every ``PERIOD_S``."""
    global _state
    _slowness[:] = [_measure() for _ in range(3)]
    _state = (_perf(), _perf(), 1.0 / statistics.median(_slowness))
    signal.signal(signal.SIGALRM, _tick)
    signal.setitimer(signal.ITIMER_REAL, PERIOD_S, PERIOD_S)


def stop() -> None:
    """Stop probing; ``now()`` goes back to ``time.perf_counter()``."""
    global _state
    signal.setitimer(signal.ITIMER_REAL, 0, 0)
    signal.signal(signal.SIGALRM, signal.SIG_IGN)
    _state = None


def now() -> float:
    while True:
        state = _state
        if state is None:
            return _perf()
        t = _perf()
        if state is _state:   # no tick in between, else read again
            reading, at, scale = state
            return reading + (t - at) * scale


def probe_ms_quartiles() -> list[float]:
    """Quartiles of every probe time measured so far, in milliseconds."""
    return [round(q * 1000.0, 4) for q in statistics.quantiles(_probes, n=4)]
