"""Discrete-event simulation core.

Time is kept as integer nanoseconds to make runs fully deterministic and
free of floating-point drift.  The central object is
:class:`repro.sim.engine.Simulator`; cooperating coroutine-style processes
are provided by :mod:`repro.sim.process` and one-shot synchronisation by
:mod:`repro.sim.future`.
"""

from repro.sim.engine import Event, Simulator
from repro.sim.future import Future, all_of
from repro.sim.process import Process
from repro.sim.timebase import NS, US, MS, SEC, ns_to_ms, ns_to_s, ns_to_us

__all__ = [
    "Event",
    "Simulator",
    "Future",
    "all_of",
    "Process",
    "NS",
    "US",
    "MS",
    "SEC",
    "ns_to_us",
    "ns_to_ms",
    "ns_to_s",
]
