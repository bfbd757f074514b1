"""Direct-resume sleeps: ``yield from sim.sleep(d)`` / ``sim.sleep_until(t)``.

A sleep must be indistinguishable from ``yield sim.timeout(d)`` in every
observable: wake order, clock, sequence numbers and processed-entry
count.  It only skips the ``Timeout`` object and its callback dispatch.
"""

import pytest

from repro.sim import SimError, SimInterrupt, Simulator


def _run_sleepers(use_sleep):
    """Five processes with tied and distinct delays; their wake order."""
    sim = Simulator()
    order = []

    def proc(tag, delays):
        for delay in delays:
            if use_sleep:
                yield from sim.sleep(delay)
            else:
                yield sim.timeout(delay)
            order.append((tag, sim.now))

    for tag, delays in enumerate(([3.0, 1.0], [3.0], [1.0, 3.0], [0.0, 4.0],
                                  [2.5, 1.5])):
        sim.process(proc(tag, delays))
    sim.run()
    return order, sim.sequence, sim.events_processed


def test_sleep_matches_timeout_order_sequence_and_event_count():
    assert _run_sleepers(True) == _run_sleepers(False)


@pytest.mark.parametrize("sleeper_first", [True, False])
def test_sleeper_and_timeout_waiter_wake_in_schedule_order(sleeper_first):
    sim = Simulator()
    order = []

    def sleeper():
        yield from sim.sleep(2.0)
        order.append("sleep")

    def waiter():
        yield sim.timeout(2.0)
        order.append("timeout")

    first, second = (sleeper, waiter) if sleeper_first else (waiter, sleeper)
    sim.process(first())
    sim.process(second())
    sim.run()
    expected = ["sleep", "timeout"] if sleeper_first else ["timeout", "sleep"]
    assert order == expected
    assert sim.now == 2.0


def test_sleep_until_wakes_at_the_given_instant():
    sim = Simulator()
    when = 0.1 + 0.2 + 0.3  # 0.6000000000000001, kept exactly

    def proc():
        yield from sim.sleep(1.0)
        yield from sim.sleep_until(1.0 + when)
        return sim.now

    assert sim.run_process(proc()) == 1.0 + when


def test_interrupted_sleep_delivers_one_interrupt_and_no_stale_resume():
    sim = Simulator()
    log = []

    def sleeper():
        try:
            yield from sim.sleep(10.0)
            log.append(("woke", sim.now))
        except SimInterrupt as intr:
            log.append(("interrupted", sim.now, intr.cause))
        # The stale entry at t=10 must not cut this second sleep short.
        yield from sim.sleep(20.0)
        log.append(("woke", sim.now))

    proc = sim.process(sleeper())

    def interrupter():
        yield sim.timeout(2.0)
        proc.interrupt("stop")

    sim.process(interrupter())
    sim.run()
    assert log == [("interrupted", 2.0, "stop"), ("woke", 22.0)]


def test_stale_sleep_entry_after_interrupt_never_resumes_finished_process():
    sim = Simulator()
    resumes = []

    def sleeper():
        try:
            yield from sim.sleep(5.0)
        except SimInterrupt:
            resumes.append(sim.now)
        return "done"

    proc = sim.process(sleeper())
    sim.schedule(1.0, lambda _value: proc.interrupt())
    sim.run()
    assert resumes == [1.0]
    assert proc.value == "done"
    assert sim.now == 5.0  # the stale entry popped, counted, ignored


def test_sleep_outside_a_running_process_raises():
    sim = Simulator()
    with pytest.raises(SimError):
        sim.sleep(1.0)
    with pytest.raises(SimError):
        sim.sleep_until(1.0)

    def proc():
        yield from sim.sleep(1.0)

    sim.process(proc())
    errors = []

    def callback(_value):
        # sim.current still names the last process, but no generator runs.
        try:
            sim.sleep(1.0)
        except SimError as exc:
            errors.append(exc)

    sim.schedule(0.5, callback)  # the process is asleep
    sim.schedule(2.0, callback)  # the process has finished
    sim.run()
    assert len(errors) == 2


def test_sleep_without_yielding_the_previous_one_raises():
    sim = Simulator()

    def proc():
        sim.sleep(1.0)
        yield from sim.sleep(1.0)

    with pytest.raises(SimError):
        sim.run_process(proc())


def test_negative_sleep_raises():
    sim = Simulator()

    def negative():
        yield from sim.sleep(-1.0)

    with pytest.raises(SimError):
        sim.run_process(negative())

    def past():
        yield from sim.sleep(2.0)
        yield from sim.sleep_until(1.0)

    with pytest.raises(SimError):
        sim.run_process(past())
