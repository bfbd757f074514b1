"""Disk and write-ahead-log timing models.

The disk model is deliberately simple — a FIFO device with positioning cost
plus transfer time — because the paper's phenomena live in *queueing* on these
devices, not in their internal geometry.  :class:`GroupCommitLog` captures the
one log behaviour that matters at scale: concurrent committers share a single
force (batch commit), which caps the per-operation log cost as load grows.
"""

from repro.sim.resources import Resource


class Disk:
    """A FIFO block device.

    ``seek_ms`` is charged per random I/O, ``bandwidth`` (bytes/ms) for the
    transfer, and sequential I/O skips the positioning cost.
    """

    def __init__(self, sim, name, seek_ms, bandwidth):
        self.sim = sim
        self.name = name
        self.seek_ms = seek_ms
        self.bandwidth = bandwidth
        self._device = Resource(sim, capacity=1)
        self.reads = 0
        self.writes = 0
        self.bytes_read = 0
        self.bytes_written = 0

    def __repr__(self):
        return f"<Disk {self.name}>"

    def service_time(self, size, sequential=False):
        """Device time for one I/O of ``size`` bytes, without queueing."""
        positioning = 0.0 if sequential else self.seek_ms
        return positioning + size / self.bandwidth

    def read(self, size, sequential=False):
        """Coroutine: read ``size`` bytes (FIFO queued on the device)."""
        yield from self._io(size, sequential)
        self.reads += 1
        self.bytes_read += size

    def write(self, size, sequential=False):
        """Coroutine: write ``size`` bytes (FIFO queued on the device)."""
        yield from self._io(size, sequential)
        self.writes += 1
        self.bytes_written += size

    def _io(self, size, sequential):
        claim = self._device.request_nowait()
        if claim is None:
            claim = self._device.request()
            yield claim
        try:
            yield from self.sim.sleep(self.service_time(size, sequential))
        finally:
            self._device.release(claim)

    @property
    def queued(self):
        """I/Os waiting for the device (diagnostics)."""
        return len(self._device.queue)


class GroupCommitLog:
    """A write-ahead log with batched forces.

    ``force()`` guarantees that everything appended so far is durable before
    returning.  While one force is in progress, later callers join the *next*
    batch and share its cost: a batch force costs
    ``force_ms + per_member_ms * batch_size`` on the device, bounded by
    ``group_max`` members per batch.
    """

    def __init__(self, sim, disk, force_ms, per_member_ms=0.0, group_max=8):
        if group_max < 1:
            raise ValueError("group_max must be >= 1")
        self.sim = sim
        self.disk = disk
        self.force_ms = force_ms
        self.per_member_ms = per_member_ms
        self.group_max = group_max
        self._waiters = []
        self._wake = None  # parked flusher's wake-up gate
        self._flusher_started = False
        self._inflight = 0   # members of the batch currently on the device
        self._drainers = []  # events waiting for a fully idle log
        self.forces = 0
        self.commits = 0

    def force(self):
        """Return once the current log contents are durable.

        Returns a bare one-event tuple to ``yield from``; the waiter joins
        the running flusher's next batch without a generator frame.  The
        flusher is one long-lived process parked between bursts.
        """
        done = self.sim.event()
        self._waiters.append(done)
        wake = self._wake
        if wake is not None:
            self._wake = None
            wake.succeed()
        elif not self._flusher_started:
            self._flusher_started = True
            self.sim.process(
                self._flusher(), name=f"log-flusher:{self.disk.name}"
            )
        return (done,)

    def drain(self):
        """Coroutine: wait until every force issued so far has completed.

        The barrier a journal rebuild needs: a force still in flight when
        the rebuild swaps tables would mark records durable against the
        *old* journal tail (see
        :meth:`repro.db.service.DbService.crash_and_recover`).  Forces
        issued *after* drain returns are the caller's responsibility.
        """
        while self._waiters or self._inflight:
            done = self.sim.event()
            self._drainers.append(done)
            yield done

    def _flusher(self):
        while True:
            while self._waiters:
                batch = self._waiters[: self.group_max]
                del self._waiters[: len(batch)]
                self._inflight = len(batch)
                cost = self.force_ms + self.per_member_ms * len(batch)
                size = max(1, len(batch)) * 512  # log records are tiny
                yield from self._device_force(cost, size)
                self.forces += 1
                self.commits += len(batch)
                self._inflight = 0
                for done in batch:
                    done.succeed()
            if self._drainers:
                drainers, self._drainers = self._drainers, []
                for done in drainers:
                    done.succeed()
            gate = self.sim.event()
            self._wake = gate
            yield gate

    def _device_force(self, cost, size):
        device = self.disk._device
        claim = device.request_nowait()
        if claim is None:
            claim = device.request()
            yield claim
        try:
            yield from self.sim.sleep(cost)
        finally:
            device.release(claim)
        self.disk.writes += 1
        self.disk.bytes_written += size
