"""Waitable events for the simulation kernel.

An :class:`Event` is the unit a process can ``yield`` on.  Events are
*triggered* (with a value, or a failure) and later *processed* by the event
loop, at which point the callbacks registered on them run.  The
trigger/process split keeps callback execution inside the event loop, which
makes ordering deterministic.

Hot-path invariants (relied on throughout the kernel):

- the loop is single-threaded and never preempts between yields, so event
  state transitions are atomic from the perspective of processes;
- ``callbacks`` is lazily allocated: ``None`` means "no callbacks yet" and
  saves a list allocation for the (very common) events nobody waits on or
  that exactly one process resumes through;
- heap entries are flat tuples ``(when, seq, kind, obj, ok, value)``; the
  ``kind`` tags below tell :meth:`repro.sim.kernel.Simulator.run` how to
  dispatch without allocating payload tuples or probe events.
"""

from heapq import heappush

from repro.sim.errors import SimError

PENDING = object()

#: heap-entry kinds (see ``Simulator.run``): process an already-triggered
#: event's callbacks; trigger an event with (ok, value) then process it;
#: resume a process generator directly; invoke a bare callable.
KIND_PROCESS = 0
KIND_TRIGGER = 1
KIND_RESUME = 2
KIND_CALL = 3


class Event:
    """A one-shot waitable occurrence in virtual time.

    Events start *pending*; :meth:`succeed` or :meth:`fail` schedules them for
    processing at the current simulation time.  Processes that ``yield`` an
    event are resumed when it is processed.
    """

    __slots__ = ("sim", "callbacks", "_value", "_ok", "_processed")

    def __init__(self, sim):
        self.sim = sim
        self.callbacks = None
        self._value = PENDING
        self._ok = None
        self._processed = False

    @property
    def processed(self):
        """True once the event loop has run this event's callbacks."""
        return self._processed

    @property
    def triggered(self):
        """True once :meth:`succeed` or :meth:`fail` has been called."""
        return self._value is not PENDING

    @property
    def ok(self):
        """True if the event succeeded; meaningless while pending."""
        return bool(self._ok)

    @property
    def value(self):
        """The success value or failure exception of the event."""
        if self._value is PENDING:
            raise SimError("event value is not yet available")
        return self._value

    def add_callback(self, callback):
        """Register ``callback(event)`` to run when the event is processed.

        ``callbacks`` holds None, a single callable (the overwhelmingly
        common case: one waiting process), or a list of callables.
        """
        callbacks = self.callbacks
        if callbacks is None:
            self.callbacks = callback
        elif type(callbacks) is list:
            callbacks.append(callback)
        else:
            self.callbacks = [callbacks, callback]

    def succeed(self, value=None):
        """Trigger the event successfully with ``value``."""
        if self._value is not PENDING:
            raise SimError(f"event {self!r} has already been triggered")
        self._ok = True
        self._value = value
        sim = self.sim
        sim._sequence += 1
        heappush(sim._heap,
                 (sim.now, sim._sequence, KIND_PROCESS, self, None, None))
        return self

    def fail(self, exception):
        """Trigger the event as failed with ``exception``.

        Waiting processes will have the exception thrown into them.
        """
        if self._value is not PENDING:
            raise SimError(f"event {self!r} has already been triggered")
        if not isinstance(exception, BaseException):
            raise TypeError(f"fail() needs an exception, got {exception!r}")
        self._ok = False
        self._value = exception
        sim = self.sim
        sim._sequence += 1
        heappush(sim._heap,
                 (sim.now, sim._sequence, KIND_PROCESS, self, None, None))
        return self


class Timeout(Event):
    """An event that fires after a fixed virtual-time delay.

    The constructor is the kernel's hottest allocation site, so it inlines
    the base initialiser and schedules straight onto the heap: one object,
    one tuple, no callbacks list, no payload tuple.
    """

    __slots__ = ("delay",)

    def __init__(self, sim, delay, value=None):
        when = sim.now + delay
        if delay < 0:
            raise SimError(f"negative timeout delay: {delay}")
        self.sim = sim
        self.callbacks = None
        self._value = PENDING
        self._ok = None
        self._processed = False
        self.delay = delay
        sim._sequence += 1
        heappush(sim._heap,
                 (when, sim._sequence, KIND_TRIGGER, self, True, value))


class _Condition(Event):
    """Base class for events composed of several child events."""

    __slots__ = ("events", "_remaining")

    def __init__(self, sim, events):
        super().__init__(sim)
        self.events = list(events)
        self._remaining = len(self.events)
        if not self.events:
            self.succeed([])
            return
        for event in self.events:
            if event._value is not PENDING:
                # Already-triggered children are observed via a no-delay
                # scheduled call so ordering stays inside the event loop.
                sim._sequence += 1
                heappush(sim._heap,
                         (sim.now, sim._sequence, KIND_CALL, self._observe,
                          None, event))
            else:
                event.add_callback(self._observe)

    def _observe(self, event):
        raise NotImplementedError


class AllOf(_Condition):
    """Succeeds when every child event has succeeded.

    The value is the list of child values in construction order.  Fails as
    soon as any child fails.
    """

    __slots__ = ()

    def _observe(self, event):
        if self.triggered:
            return
        if not event.ok:
            self.fail(event.value)
            return
        self._remaining -= 1
        if not self._remaining:
            self.succeed([child.value for child in self.events])


class AnyOf(_Condition):
    """Succeeds when the first child event succeeds (value = that child's).

    Fails if the first child to trigger fails.
    """

    __slots__ = ()

    def _observe(self, event):
        if self.triggered:
            return
        if event.ok:
            self.succeed(event.value)
        else:
            self.fail(event.value)
