"""The event loop and process machinery.

:class:`Simulator` owns the virtual clock and the event heap.
:class:`Process` drives a generator: every value the generator yields must be
an :class:`~repro.sim.events.Event` (or come from ``yield from sim.sleep(d)``,
see below); the process suspends until the event is processed and is resumed
with the event's value (or has the event's exception thrown into it).  A
process is itself an event that triggers when the generator returns.

The hot loop is engineered around two observations from profiling the
paper's benchmarks (tens of millions of resumes per figure):

- a process start or a yield on an already-fired event used to cost a whole
  bootstrap/probe ``Event``; both now go through *direct resume* heap
  entries (``KIND_RESUME``) that re-enter the generator straight off the
  heap, preserving the exact (time, sequence) ordering the probe had;
- heap entries are flat ``(when, seq, kind, obj, ok, value)`` tuples, so
  scheduling allocates one tuple and nothing else;
- a process that only waits out a fresh delay (a CPU charge, a disk or
  wire service time, a collapsed transfer) does not need a ``Timeout``
  event either: :meth:`Simulator.sleep` / :meth:`Simulator.sleep_until`
  schedule a ``KIND_RESUME`` entry for the *running* process at the same
  ``(time, sequence)`` the timeout would have taken and return a
  one-element tuple for the caller to ``yield from`` at once.  The
  process's step sees the sleep marker and registers no callback; the
  heap entry re-enters the generator directly.  No event is allocated and
  no callback dispatched.

Sequence numbers are consumed exactly as in the event-based formulation
(one per schedule), so same-time tie-breaking — and therefore every
simulated result — is unchanged.
"""

import gc
from heapq import heappop, heappush
from inspect import isgenerator

from repro.sim.errors import SimError, SimInterrupt
from repro.sim.events import (
    KIND_CALL, KIND_PROCESS, KIND_RESUME, KIND_TRIGGER,
    PENDING, AllOf, AnyOf, Event, Timeout,
)

#: What a sleeping process yields (``yield from sim.sleep(d)`` yields the
#: single element of :data:`_SLEEP`): its resume is already on the heap.
SLEEPING = object()
_SLEEP = (SLEEPING,)

#: Optional tracer hook (set by :func:`repro.obs.enable`).  When ``None``
#: (the default) the kernel pays one module-global load and a ``None``
#: check per resume — nothing else.  When set, the kernel publishes the
#: currently executing :class:`Process` on ``TRACE.current`` so ambient
#: span context can follow the flow of control, and new processes inherit
#: their spawner's span context (``ctx``).  The hook never touches the
#: clock, the heap, or sequence numbers: tracing is charge-preserving.
TRACE = None


class Process(Event):
    """A running coroutine, also waitable as an event (fires at completion)."""

    __slots__ = ("generator", "name", "_waiting_on", "_pending_resume",
                 "_resume_cb", "ctx")

    def __init__(self, sim, generator, name=None):
        if not isgenerator(generator):
            raise SimError(f"Process needs a generator, got {generator!r}")
        super().__init__(sim)
        self.generator = generator
        self.name = name or getattr(generator, "__name__", "process")
        self._waiting_on = None
        # Ambient span context: spawned processes (parallel broadcasts,
        # fence fan-outs, ...) continue their spawner's active span.
        if TRACE is None:
            self.ctx = None
        else:
            parent = TRACE.current
            self.ctx = parent.ctx if parent is not None else None
        # One bound method for the process's lifetime instead of one
        # allocation per yield.
        self._resume_cb = self._resume
        # Kick off the process via a zero-delay direct resume so it starts
        # inside the event loop, after the current callback finishes.
        sim._sequence += 1
        entry = (sim.now, sim._sequence, KIND_RESUME, self, True, None)
        self._pending_resume = entry
        heappush(sim._heap, entry)

    def __repr__(self):
        return f"<Process {self.name} at t={self.sim.now:.3f}>"

    @property
    def is_alive(self):
        """True while the generator has not finished."""
        return not self.triggered

    def interrupt(self, cause=None):
        """Throw :class:`SimInterrupt` into the process at the current time.

        Interrupting a finished process is an error; interrupting a process
        that is waiting detaches it from the event it was waiting on.
        """
        if self._value is not PENDING:
            raise SimError(f"cannot interrupt finished process {self.name}")
        sim = self.sim
        sim._sequence += 1
        heappush(sim._heap,
                 (sim.now, sim._sequence, KIND_CALL, self._do_interrupt,
                  None, SimInterrupt(cause)))

    def _do_interrupt(self, exc):
        if self._value is not PENDING:
            return  # finished before the interrupt was delivered
        # Cancel a scheduled direct resume (waiting on an already-fired
        # event); the stale heap entry is skipped when it pops.
        self._pending_resume = None
        target = self._waiting_on
        if target is not None:
            callbacks = target.callbacks
            if callbacks is self._resume_cb:
                target.callbacks = None
            elif type(callbacks) is list:
                try:
                    callbacks.remove(self._resume_cb)
                except ValueError:
                    pass
            self._waiting_on = None
        self._step(False, exc)

    def _resume(self, event):
        self._waiting_on = None
        self._step(event._ok, event._value)

    def _step(self, ok, value):
        # Always published (one attribute store per resume): service code
        # uses the executing process as a client identity — e.g. the async
        # commit path's dependency tracker attributes reads and writes to
        # the op chain that issued them (RPC handlers run inline in their
        # caller's process, so one op is one process).
        self.sim.current = self
        if TRACE is not None:
            TRACE.current = self
        generator = self.generator
        try:
            if ok:
                yielded = generator.send(value)
            else:
                yielded = generator.throw(value)
        except StopIteration as stop:
            self.succeed(stop.value)
            return
        except BaseException as exc:
            if self.callbacks or isinstance(exc, SimError):
                self.fail(exc)
                return
            raise
        if yielded is SLEEPING:
            return  # Simulator.sleep already queued the resume
        if isinstance(yielded, Event):
            if not yielded._processed:
                self._waiting_on = yielded
                callbacks = yielded.callbacks
                if callbacks is None:
                    yielded.callbacks = self._resume_cb
                elif type(callbacks) is list:
                    callbacks.append(self._resume_cb)
                else:
                    yielded.callbacks = [callbacks, self._resume_cb]
            else:
                # The event fired before we yielded on it; resume directly
                # off the heap with its outcome (the original callbacks
                # already ran).
                sim = self.sim
                sim._sequence += 1
                entry = (sim.now, sim._sequence, KIND_RESUME, self,
                         yielded._ok, yielded._value)
                self._pending_resume = entry
                heappush(sim._heap, entry)
            return
        # Yielding a non-Event is a bug in the process body; fail the
        # process like any other process error so the loop keeps running
        # and waiters see the failure.
        generator.close()
        self.fail(SimError(
            f"process {self.name} yielded {yielded!r}; processes may only "
            "yield Event objects (timeout, request, process, ...)"
        ))


class Simulator:
    """Virtual clock plus a deterministic event heap.

    Heap entries are ordered by ``(time, sequence)`` where the sequence number
    is assigned at scheduling time, so same-time events are processed in
    schedule order and runs are fully reproducible.
    """

    def __init__(self):
        self.now = 0.0
        self._heap = []
        self._sequence = 0
        self._processed = 0
        #: the currently executing :class:`Process` (maintained by
        #: ``Process._step``); None before the first resume.
        self.current = None

    # -- scheduling --------------------------------------------------------

    def _schedule_event(self, event, delay=0.0):
        """Queue an already-triggered event for callback processing."""
        self._sequence += 1
        heappush(self._heap,
                 (self.now + delay, self._sequence, KIND_PROCESS, event,
                  None, None))

    def _schedule_trigger(self, event, delay, ok, value):
        """Queue a pending event to be triggered-and-processed at now+delay."""
        self._sequence += 1
        heappush(self._heap,
                 (self.now + delay, self._sequence, KIND_TRIGGER, event,
                  ok, value))

    def schedule(self, delay, callback, value=None):
        """Run ``callback(value)`` after ``delay`` virtual milliseconds."""
        self._sequence += 1
        heappush(self._heap,
                 (self.now + delay, self._sequence, KIND_CALL, callback,
                  None, value))

    # -- event constructors -------------------------------------------------

    def event(self):
        """Create a fresh pending :class:`Event`."""
        return Event(self)

    def timeout(self, delay, value=None):
        """Create an event firing ``delay`` ms from now."""
        return Timeout(self, delay, value)

    def sleep(self, delay):
        """Suspend the running process for ``delay`` ms (``yield from`` it).

        The direct-resume equivalent of ``yield sim.timeout(delay)``: the
        same heap position (``now + delay``, next sequence number) and the
        same single processed heap entry, but no :class:`Timeout` object
        and no callback dispatch.  The wait is scheduled *now*, for the
        process whose generator is executing, so the returned tuple must
        be yielded from straight away.
        """
        if delay < 0:
            raise SimError(f"negative sleep delay: {delay}")
        return self._sleep_at(self.now + delay)

    def sleep_until(self, when):
        """Like :meth:`sleep`, but wake at the absolute virtual time ``when``.

        Scheduling at the caller-computed instant (rather than
        ``now + (when - now)``) keeps collapsed multi-hop delays
        bit-identical to the hop-by-hop float accumulation they replace.
        """
        if when < self.now:
            raise SimError(
                f"sleep_until({when}) is in the past (now={self.now})")
        return self._sleep_at(when)

    def _sleep_at(self, when):
        proc = self.current
        if (proc is None or proc._pending_resume is not None
                or not proc.generator.gi_running):
            raise SimError(
                "sleep needs a running process: call it from a process "
                "body and yield from the result at once"
            )
        self._sequence += 1
        entry = (when, self._sequence, KIND_RESUME, proc, True, None)
        proc._pending_resume = entry
        heappush(self._heap, entry)
        return _SLEEP

    def process(self, generator, name=None):
        """Spawn ``generator`` as a new process, returning it."""
        return Process(self, generator, name=name)

    def all_of(self, events):
        """Event that succeeds when all ``events`` have succeeded."""
        return AllOf(self, events)

    def any_of(self, events):
        """Event that succeeds when the first of ``events`` succeeds."""
        return AnyOf(self, events)

    # -- running ------------------------------------------------------------

    def run(self, until=None):
        """Process events until the heap is empty or ``until`` is reached.

        Returns the simulation time at exit.  ``until`` is an absolute
        virtual time; events scheduled exactly at ``until`` are *not*
        processed (the clock stops at ``until``).
        """
        heap = self._heap
        pop = heappop
        processed = self._processed
        # The loop allocates millions of short-lived tuples, events and
        # generator frames; letting the cyclic collector scan them mid-run
        # costs ~20% of wall time for zero reclaim (the object graph is
        # torn down by refcounting as entries pop).  Cycles that do form
        # are collected once the loop exits.
        gc_was_enabled = gc.isenabled()
        if gc_was_enabled:
            gc.disable()
        try:
            while heap:
                if until is not None and heap[0][0] >= until:
                    self.now = until
                    return until
                entry = pop(heap)
                when, _seq, kind, obj, ok, value = entry
                self.now = when
                processed += 1
                if kind == KIND_TRIGGER:
                    obj._ok = ok
                    obj._value = value
                    obj._processed = True
                    callbacks = obj.callbacks
                    if callbacks is not None:
                        obj.callbacks = None
                        if type(callbacks) is list:
                            for callback in callbacks:
                                callback(obj)
                        else:
                            callbacks(obj)
                elif kind == KIND_PROCESS:
                    obj._processed = True
                    callbacks = obj.callbacks
                    if callbacks is not None:
                        obj.callbacks = None
                        if type(callbacks) is list:
                            for callback in callbacks:
                                callback(obj)
                        else:
                            callbacks(obj)
                elif kind == KIND_RESUME:
                    # Direct generator resume; stale entries (cancelled by
                    # an interrupt) still count as processed, like the
                    # empty probe events they replace.
                    if obj._pending_resume is entry:
                        obj._pending_resume = None
                        obj._step(ok, value)
                else:  # KIND_CALL
                    obj(value)
            return self.now
        finally:
            self._processed = processed
            if TRACE is not None:
                # Top-level code between runs must not attach spans to the
                # last process that happened to execute.
                TRACE.current = None
            if gc_was_enabled:
                gc.enable()

    def run_process(self, generator, name=None):
        """Spawn ``generator``, run to completion, and return its value.

        Convenience for tests and examples; raises if the process failed or
        the simulation starved before the process finished.
        """
        proc = self.process(generator, name=name)
        self.run()
        if not proc.triggered:
            raise SimError(f"simulation starved; {proc.name} never finished")
        if not proc.ok:
            raise proc.value
        return proc.value

    @property
    def sequence(self):
        """Heap entries scheduled so far (the last sequence number).

        Deterministic for a given model and inputs, so a run's final value
        is a host-cost figure that needs no timing.
        """
        return self._sequence

    @property
    def events_processed(self):
        """Number of events processed so far (for diagnostics)."""
        return self._processed
