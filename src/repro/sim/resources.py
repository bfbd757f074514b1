"""Contended resources and queues.

:class:`Resource` models anything with finite service slots (a CPU, a disk, a
link, a lock): processes ``yield`` a :class:`Request` and run once granted.
:class:`Store` is an unbounded FIFO of items with blocking ``get``.
"""

from collections import deque

from repro.sim.errors import SimError
from repro.sim.events import PENDING, Event


class Request(Event):
    """A pending claim on a :class:`Resource` slot.

    Usable as a context manager so the slot is always released::

        with resource.request() as req:
            yield req
            yield sim.timeout(service_time)
    """

    __slots__ = ("resource",)

    def __init__(self, resource):
        # Inlined Event.__init__ — requests are allocated on every resource
        # acquire, which makes this one of the kernel's hottest sites.
        self.sim = resource.sim
        self.callbacks = None
        self._value = PENDING
        self._ok = None
        self._processed = False
        self.resource = resource

    def __enter__(self):
        return self

    def __exit__(self, exc_type, exc_value, traceback):
        self.resource.release(self)
        return False


class Resource:
    """A FIFO-served pool of ``capacity`` identical slots."""

    def __init__(self, sim, capacity=1):
        if capacity < 1:
            raise SimError(f"resource capacity must be >= 1, got {capacity}")
        self.sim = sim
        self.capacity = capacity
        self.users = set()
        self.queue = deque()

    def __repr__(self):
        return (
            f"<Resource capacity={self.capacity} busy={len(self.users)} "
            f"queued={len(self.queue)}>"
        )

    @property
    def count(self):
        """Number of slots currently held."""
        return len(self.users)

    def request(self):
        """Claim a slot; the returned event fires when the slot is granted."""
        req = Request(self)
        if len(self.users) < self.capacity:
            self.users.add(req)
            req.succeed(req)
        else:
            self.queue.append(req)
        return req

    def request_nowait(self):
        """A synchronously granted :class:`Request`, or None if it would
        queue.

        The fast path for uncontended resources: the claim is granted
        without a grant event (the caller proceeds in the same loop turn
        instead of being resumed one turn later), which shaves one event
        off every idle acquire.  Release it with :meth:`release` (or use
        it as a context manager).
        """
        if len(self.users) < self.capacity and not self.queue:
            req = Request(self)
            req._ok = True
            req._value = req
            req._processed = True
            self.users.add(req)
            return req
        return None

    def claim(self):
        """:meth:`request_nowait` when a slot is free, else :meth:`request`.

        The caller yields on the claim only while it is not yet
        ``processed`` (a queued request); a free slot costs no event::

            with resource.claim() as claim:
                if not claim.processed:
                    yield claim
        """
        return self.request_nowait() or self.request()

    def release(self, request):
        """Return a slot; grants the next queued request, if any.

        Releasing an unqueued, ungranted request is an error.  Releasing a
        request that is still queued cancels it.
        """
        if request in self.users:
            self.users.remove(request)
            while self.queue:
                nxt = self.queue.popleft()
                self.users.add(nxt)
                nxt.succeed(nxt)
                return
            return
        try:
            self.queue.remove(request)
        except ValueError:
            raise SimError("release() of a request not held or queued") from None

    def acquire(self):
        """Coroutine helper: ``req = yield from resource.acquire()``."""
        req = self.request()
        yield req
        return req


class Store:
    """Unbounded FIFO of items with blocking retrieval."""

    def __init__(self, sim):
        self.sim = sim
        self.items = deque()
        self._getters = deque()

    def __len__(self):
        return len(self.items)

    def put(self, item):
        """Deposit ``item``; wakes the oldest waiting getter, if any."""
        if self._getters:
            self._getters.popleft().succeed(item)
        else:
            self.items.append(item)

    def get(self):
        """Event that fires with the next item (immediately if available)."""
        event = Event(self.sim)
        if self.items:
            event.succeed(self.items.popleft())
        else:
            self._getters.append(event)
        return event
