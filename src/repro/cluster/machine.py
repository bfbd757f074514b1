"""Simulated machines (blades, file servers, the metadata-service node)."""

from repro.net.transport import RemoteError
from repro.sim.resources import Resource


class Machine:
    """A computing element attached to the topology.

    - ``cpu`` is a :class:`Resource` with one slot per core; services charge
      compute with :meth:`compute`.
    - ``services`` maps a name to any object whose coroutine methods handle
      RPCs (see :meth:`repro.net.transport.Network.rpc`).
    - ``disks`` holds named local :class:`~repro.cluster.disk.Disk` objects.
    """

    def __init__(self, sim, network, host, cpus=2, name=None):
        self.sim = sim
        self.network = network
        self.host = host
        self.name = name or host
        self.cpu = Resource(sim, capacity=cpus)
        self.services = {}
        self.disks = {}
        self._handler_cache = {}  # (service, method) -> bound handler

    def __repr__(self):
        return f"<Machine {self.name}>"

    # -- service registry -----------------------------------------------------

    def register(self, name, service):
        """Expose ``service`` under ``name`` for incoming RPCs."""
        if name in self.services:
            raise ValueError(f"machine {self.name}: duplicate service {name!r}")
        self.services[name] = service
        self._handler_cache.clear()
        return service

    def handler(self, service, method):
        """Resolve the coroutine handler for ``service.method`` (cached)."""
        key = (service, method)
        handler = self._handler_cache.get(key)
        if handler is not None:
            return handler
        svc = self.services.get(service)
        if svc is None:
            raise RemoteError(f"machine {self.name}: no service {service!r}")
        handler = getattr(svc, method, None)
        if handler is None or not callable(handler):
            raise RemoteError(
                f"machine {self.name}: service {service!r} has no method {method!r}"
            )
        self._handler_cache[key] = handler
        return handler

    # -- local hardware ---------------------------------------------------------

    def add_disk(self, name, disk):
        """Attach a local disk under ``name``."""
        if name in self.disks:
            raise ValueError(f"machine {self.name}: duplicate disk {name!r}")
        self.disks[name] = disk
        return disk

    #: computes below this duration on an idle CPU skip queue bookkeeping
    #: (they model fixed op overheads, not contended service times).
    FAST_COMPUTE_MS = 0.2

    def compute(self, duration):
        """Occupy one CPU slot for ``duration`` ms (``yield from`` the result).

        Sub-threshold durations on an idle CPU return a direct-resume sleep
        (no generator frame, no event); contended or long computes queue
        FIFO.
        """
        if duration <= 0:
            return ()
        cpu = self.cpu
        if (
            duration < self.FAST_COMPUTE_MS
            and len(cpu.users) < cpu.capacity
            and not cpu.queue
        ):
            return self.sim.sleep(duration)
        return self._compute_queued(duration)

    def _compute_queued(self, duration):
        """Coroutine: the FIFO-queued compute path."""
        claim = self.cpu.request_nowait()
        if claim is None:
            claim = self.cpu.request()
            yield claim
        try:
            yield from self.sim.sleep(duration)
        finally:
            self.cpu.release(claim)

    # -- communication ----------------------------------------------------------

    def call(self, dst, service, method, args=(), kwargs=None,
             req_size=512, resp_size=512):
        """Coroutine: RPC from this machine to ``dst`` (zero-cost if local)."""
        return self.network.rpc(
            self, dst, service, method, args, kwargs, req_size, resp_size,
        )
