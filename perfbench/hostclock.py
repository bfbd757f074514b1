"""A host clock that discounts how fast the shared CPU is running.

CPU time is not a steady measure of the program's work on a shared host.
Other tenants change the CPU's clock speed and share its cores, so the
same round of the same plan costs a different number of CPU seconds from
one second to the next: on the reference machine, the CPU time of
repeats of one round spread by 0.15-0.26 (distance between the quartiles
over their median).

:class:`HostClock` corrects for that.  While it runs, a profiling timer
interrupts the program after every :data:`INTERVAL_S` CPU seconds and runs
one *calibration slice*: a fixed piece of work shaped like the simulation
kernel's inner loop (a heap of event tuples, generators resumed in turn,
lookups in a dict small enough for a core's private caches; larger tables
slowed down more than the program when the host was busy).  The work is
the benchmark's own, so a change to the program does not change it.
``(REFERENCE_SLICE_S / <slice time>) ** ELASTICITY`` is the program's
speed at that moment relative to the reference machine.  The program's
CPU time between two slices is charged at the mean speed of the two, and
the slices' own time is left out.  :meth:`HostClock.now` reads the sum:
the program's CPU seconds as the reference machine would spend them.

The timer's handler runs between two bytecodes of the program and touches
none of its state, so the simulated results are the same with the clock
on or off.  The clock reads the thread's CPU time: while a profiling timer
is armed, the process's CPU clock advances only at scheduler ticks.
"""

import heapq
import signal
import time

#: CPU seconds of the program between two calibration slices.
INTERVAL_S = 0.01

#: median CPU seconds of one slice on the reference machine (a 2-core
#: Intel Xeon virtual machine, Python 3.11), taken inside a benchmark run.
REFERENCE_SLICE_S = 0.001

#: how much the program's CPU time moves per unit move of the slices'
#: (both in log terms).  The slices are short and start with cold caches,
#: so the host's load slows them more than the program.  Over nine sets of
#: 6-10 runs of the three workloads, correcting fully left spreads of
#: 0.03-0.09 between runs, and correcting by 0.8 left 0.01-0.05.
ELASTICITY = 0.8

#: work of one slice: kernel events, concurrent generators, table size.
_EVENTS = 700
_WORKERS = 16
_TABLE_BITS = 12

_KEYS = [f"/d{i % 97}/f{i:04x}" for i in range(1 << _TABLE_BITS)]
_TABLE = {key: [i, 0] for i, key in enumerate(_KEYS)}


def _worker(index):
    """A simulated client: looks up a pseudo-random entry, bumps it and
    asks for a delay, forever."""
    state = index * 2654435761 + 1
    keys, table, mask = _KEYS, _TABLE, (1 << _TABLE_BITS) - 1
    while True:
        state = (state * 1103515245 + 12345) & 0x7FFFFFFF
        entry = table[keys[state & mask]]
        entry[1] += 1
        yield (entry[0] & 7) * 0.125


def calibration_slice():
    """Run one slice of fixed work: a small event loop over the workers."""
    heap = []
    seq = 0
    for index in range(_WORKERS):
        seq += 1
        heapq.heappush(heap, (0.0, seq, _worker(index), None))
    for _ in range(_EVENTS):
        when, _seq, worker, _value = heapq.heappop(heap)
        delay = next(worker)
        seq += 1
        heapq.heappush(heap, (when + delay, seq, worker, delay))


class HostClock:
    """The program's CPU seconds at the reference machine's speed (see the
    module docstring).  Run it as a context manager; outside one, both
    readings are the thread's plain CPU time."""

    def __init__(self):
        self.running = False
        #: reference-speed and plain CPU seconds of the program up to
        #: ``_mark``, the CPU time the last slice ended at.
        self._scaled = 0.0
        self._raw = 0.0
        self._mark = 0.0
        #: program speed the last slice implied (see ``_time_slice``).
        self._speed = 1.0
        self._busy = False
        self._previous = None
        #: slices so far; a reading the handler interrupted is retried.
        self._ticks = 0
        #: speed of every slice since the clock last started.
        self.speeds = []

    def __enter__(self):
        self.speeds = []
        self._speed = self._time_slice()
        self._mark = time.thread_time()
        self._previous = signal.signal(signal.SIGPROF, self._tick)
        signal.setitimer(signal.ITIMER_PROF, INTERVAL_S, INTERVAL_S)
        self.running = True
        return self

    def __exit__(self, *exc):
        signal.setitimer(signal.ITIMER_PROF, 0, 0)
        signal.signal(signal.SIGPROF, self._previous)
        self._charge(time.thread_time(), self._speed)
        self.running = False

    def _time_slice(self):
        """Run one slice and return the program's speed it implies."""
        start = time.thread_time()
        calibration_slice()
        spent = time.thread_time() - start
        speed = (REFERENCE_SLICE_S / spent) ** ELASTICITY
        self.speeds.append(speed)
        return speed

    def _charge(self, at, speed):
        """Charge the program's CPU time from ``_mark`` to ``at`` at
        ``speed``."""
        self._raw += at - self._mark
        self._scaled += (at - self._mark) * speed
        self._mark = at

    def _tick(self, _signum, _frame):
        if self._busy:
            return
        self._busy = True
        try:
            at = time.thread_time()
            speed = self._time_slice()
            self._charge(at, (self._speed + speed) / 2)
            self._speed = speed
            self._mark = time.thread_time()
            self._ticks += 1
        finally:
            self._busy = False

    def now(self):
        """The program's host seconds so far, at the reference speed."""
        return self._read(lambda since: self._scaled + since * self._speed)

    def raw(self):
        """The program's plain CPU seconds so far, slices left out."""
        return self._read(lambda since: self._raw + since)

    def _read(self, value):
        """``value(CPU seconds since the last slice)``, read between two
        slices."""
        if not self.running:
            return time.thread_time()
        while True:
            ticks = self._ticks
            reading = value(time.thread_time() - self._mark)
            if ticks == self._ticks:
                return reading


#: the clock every :class:`~perfbench.workloads.Meter` reads.
CLOCK = HostClock()
