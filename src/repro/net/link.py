"""Simplex network links with latency, bandwidth and FIFO serialization."""

from repro.sim.resources import Resource


class Link:
    """One direction of a physical link.

    A transmission occupies the link for ``size / bandwidth`` (serialization
    delay, FIFO among competing senders) and is delivered ``latency`` ms
    after it leaves the wire (propagation, not occupying the link).
    """

    def __init__(self, sim, name, bandwidth, latency):
        if bandwidth <= 0:
            raise ValueError(f"link {name}: bandwidth must be positive")
        if latency < 0:
            raise ValueError(f"link {name}: latency must be >= 0")
        self.sim = sim
        self.name = name
        self.bandwidth = bandwidth  # bytes per ms
        self.latency = latency      # ms
        self._wire = Resource(sim, capacity=1)
        self.bytes_carried = 0
        self.messages_carried = 0

    def __repr__(self):
        return f"<Link {self.name} bw={self.bandwidth:.0f}B/ms lat={self.latency}ms>"

    def transmit_time(self, size):
        """Pure serialization delay for ``size`` bytes (no queueing)."""
        return size / self.bandwidth

    #: messages below this size take the uncontended fast path (their wire
    #: time is microseconds; modelling their queueing would cost far more
    #: simulation time than the fidelity is worth).
    FAST_PATH_BYTES = 64 * 1024

    def transmit(self, size):
        """Carry ``size`` bytes across this hop (``yield from`` the result).

        Completes when the message has fully arrived at the other end
        (store-and-forward: a following hop may only start then).  Small
        messages on an idle link skip the FIFO bookkeeping entirely — the
        fast path is a direct-resume sleep, no generator frame.  Note the
        carried-bytes/messages counters are credited at send time on this
        path (delivery time on the queued path); they are end-of-run
        diagnostics, not instantaneous utilization gauges.
        """
        wire = self._wire
        if size < self.FAST_PATH_BYTES and not wire.users and not wire.queue:
            self.bytes_carried += size
            self.messages_carried += 1
            return self.sim.sleep(self.transmit_time(size) + self.latency)
        return self._transmit_queued(size)

    def _transmit_queued(self, size):
        """Coroutine: the FIFO-serialized path for large/contended messages."""
        wire = self._wire
        claim = wire.request_nowait()
        if claim is None:
            claim = wire.request()
            yield claim
        try:
            yield from self.sim.sleep(self.transmit_time(size))
        finally:
            wire.release(claim)
        if self.latency:
            yield from self.sim.sleep(self.latency)
        self.bytes_carried += size
        self.messages_carried += 1

    @property
    def queued(self):
        """Number of messages waiting for the wire (diagnostics)."""
        return len(self._wire.queue)
