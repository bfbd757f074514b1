"""Message transport and RPC over the simulated topology.

:class:`Network` moves messages hop by hop (store-and-forward) along cached
routes, and layers a synchronous RPC abstraction on top: the caller's process
blocks until the reply message has fully returned.  Service-side exceptions
deriving from :class:`Exception` are carried back in the reply and re-raised
at the caller (so e.g. filesystem errors keep POSIX semantics across nodes);
the reply transfer is still paid.

Small messages on an all-idle route take a collapsed fast path: the whole
store-and-forward traversal is one scheduled completion event (the sum of
the per-hop serialization + propagation delays, accumulated with the same
float rounding) instead of one generator and one timeout per hop: a
direct-resume ``sleep_until`` of the sending process, with no event.  Wire
occupancy is checked for every hop at *send* time rather than at the
message's arrival at each hop, and per-link counters are credited at send
time — a deliberate approximation in the same spirit as the pre-existing
small-message fast path (their wire time is negligible next to the effects
under study); a route with any busy or queued link falls back to exact
per-hop modelling.  The repository's results oracle confirms the collapse
leaves every figure's simulated results unchanged.
"""

from repro.net.link import Link

_FAST_PATH_BYTES = Link.FAST_PATH_BYTES


class RemoteError(RuntimeError):
    """An RPC failed structurally (unknown service/method)."""


class Network:
    """Store-and-forward message delivery plus RPC between machines."""

    def __init__(self, sim, topology):
        self.sim = sim
        self.topology = topology
        self.messages_sent = 0
        self.bytes_sent = 0
        self._fast_routes = {}  # (src, dst) -> [(wire, bandwidth, latency, link)]

    # -- raw transfers ---------------------------------------------------------

    def transfer(self, src_host, dst_host, size):
        """Move ``size`` bytes from ``src_host`` to ``dst_host``.

        Returns an iterable to ``yield from``; completes at full delivery.
        A zero-hop transfer (same host) costs nothing: local service calls
        do not touch the network.
        """
        key = (src_host, dst_host)
        hops = self._fast_routes.get(key)
        if hops is None:
            hops = self._fast_routes[key] = [
                (link._wire, link.bandwidth, link.latency, link)
                for link in self.topology.route(src_host, dst_host)
            ]
        self.messages_sent += 1
        self.bytes_sent += size
        if not hops:
            return ()
        if size < _FAST_PATH_BYTES:
            sim = self.sim
            # Accumulate the *absolute* arrival time hop by hop, with the
            # same float rounding the per-hop timeouts would produce.
            when = sim.now
            for wire, bandwidth, latency, _link in hops:
                if wire.users or wire.queue:
                    break
                when += size / bandwidth + latency
            else:
                for _wire, _bw, _lat, link in hops:
                    link.bytes_carried += size
                    link.messages_carried += 1
                return sim.sleep_until(when)
        return self._transfer_hops(
            [link for _wire, _bw, _lat, link in hops], size
        )

    def _transfer_hops(self, route, size):
        """Coroutine: the per-hop store-and-forward path (contended links)."""
        for link in route:
            yield from link.transmit(size)

    def rpc(self, src, dst, service, method, args=(), kwargs=None,
            req_size=512, resp_size=512):
        """Coroutine: invoke ``service.method(*args, **kwargs)`` on ``dst``.

        ``src`` and ``dst`` are :class:`repro.cluster.machine.Machine`
        objects.  Returns the handler's return value; re-raises handler
        exceptions at the caller after the reply transfer.
        """
        yield from self.transfer(src.host, dst.host, req_size)
        handler = dst.handler(service, method)
        failure = None
        value = None
        try:
            value = yield from handler(*args, **(kwargs or {}))
        except Exception as exc:  # carried back in the reply
            failure = exc
        yield from self.transfer(dst.host, src.host, resp_size)
        if failure is not None:
            raise failure
        return value
