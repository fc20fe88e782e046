"""Order equivalence of the two-tier event queue.

The kernel keeps entries due now on a FIFO lane beside the heap, and
compacts cancelled timers out of the heap. Random programs of timers
(zero, positive and sub-ulp delays, equal due times), cancellations
(including of timers that already fired), nested scheduling from
callbacks and interleaved ``step()`` / ``run(until=...)`` / ``peek()``
calls are run on the kernel and on a heap-only reference kernel; both
must fire the same timers in the same ``(time, id)`` order, keep the
same clock, and hold the same live entries after every call.
"""

from heapq import heappop, heappush

from hypothesis import HealthCheck, given, settings, strategies as st

from repro.sim import Environment, Event
from repro.sim.kernel import _CANCELLED

# 1e-17 is below half an ulp of any time >= 1.0, so it lands on the lane
# once the clock has passed 1.0 but on the heap at time 0.
DELAYS = st.one_of(
    st.sampled_from([0.0, 0.0, 5e-324, 1e-17, 0.25, 0.5, 1.0, 1.0, 2.0]),
    st.floats(min_value=0.0, max_value=3.0, allow_nan=False),
)
CHILD = st.one_of(
    st.tuples(st.just("timer"), DELAYS),
    st.tuples(st.just("event"), st.just(0.0)),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
)
OP = st.one_of(
    st.tuples(st.just("timer"), DELAYS, st.lists(CHILD, max_size=3)),
    st.tuples(st.just("cancel"), st.integers(0, 63)),
    st.tuples(st.just("step")),
    st.tuples(st.just("run"), st.sampled_from([0.0, 1e-17, 0.3, 1.0, 2.5])),
    st.tuples(st.just("peek")),
)


class ReferenceKernel:
    """One heap ordered by (time, id); cancelled entries are skipped
    without moving the clock."""

    def __init__(self):
        self.now = 0.0
        self.heap = []
        self.eid = 0
        self.cancelled = set()

    def push(self, delay, action):
        self.eid += 1
        heappush(self.heap, (self.now + delay, self.eid, action))
        return self.eid

    def cancel(self, eid):
        self.cancelled.add(eid)  # no effect once the entry has popped

    def _skip_cancelled(self):
        while self.heap and self.heap[0][1] in self.cancelled:
            heappop(self.heap)

    def step(self):
        self._skip_cancelled()
        if not self.heap:
            return False
        self.now, _, action = heappop(self.heap)
        action()
        return True

    def run(self, until):
        while True:
            self._skip_cancelled()
            if not self.heap or self.heap[0][0] > until:
                break
            self.step()
        self.now = max(self.now, until)

    def peek(self):
        self._skip_cancelled()
        return self.heap[0][0] if self.heap else None


class Side:
    """One kernel running a program: timers fire in some order, each
    logging (label, now) and then running its children's actions."""

    def __init__(self):
        self.log = []
        self.timers = []  # label -> handle

    def schedule(self, kind, delay, children):
        label = len(self.timers)
        self.timers.append(self._push(kind, delay, lambda: self.fire(label, children)))

    def fire(self, label, children):
        self.log.append((label, self.now()))
        for kind, arg in children:
            if kind == "cancel":
                self.cancel(arg)
            else:
                self.schedule(kind, arg, [])

    def cancel(self, index):
        if self.timers:
            self._cancel(self.timers[index % len(self.timers)])


class KernelSide(Side):
    def __init__(self):
        super().__init__()
        self.env = Environment()

    def now(self):
        return self.env.now

    def _push(self, kind, delay, action):
        event = Event(self.env) if kind == "event" else self.env.timeout(delay)
        event.callbacks.append(lambda _event: action())
        if kind == "event":
            event.succeed()
        return event

    def _cancel(self, event):
        self.env.cancel(event)

    def live(self):
        """Labels of the live entries on either tier."""
        labels = {id(event): label for label, event in enumerate(self.timers)}
        entries = [entry for _, _, entry in self.env._heap] + list(self.env._lane)
        return sorted(labels[id(e)] for e in entries if e._state != _CANCELLED)


class ReferenceSide(Side):
    def __init__(self):
        super().__init__()
        self.ref = ReferenceKernel()

    def now(self):
        return self.ref.now

    def _push(self, kind, delay, action):
        return self.ref.push(delay, action)

    def _cancel(self, eid):
        self.ref.cancel(eid)

    def live(self):
        ids = {eid: label for label, eid in enumerate(self.timers)}
        return sorted(ids[eid] for _, eid, _ in self.ref.heap if eid not in self.ref.cancelled)


def apply(op, kernel, reference):
    kind = op[0]
    if kind == "timer":
        kernel.schedule("timer", op[1], op[2])
        reference.schedule("timer", op[1], op[2])
    elif kind == "cancel":
        kernel.cancel(op[1])
        reference.cancel(op[1])
    elif kind == "step":
        assert kernel.env.step() == reference.ref.step()
    elif kind == "run":
        until = kernel.env.now + op[1]
        kernel.env.run(until=until)
        reference.ref.run(until)
    else:
        assert kernel.env.peek() == reference.ref.peek()


@settings(max_examples=300, deadline=None, suppress_health_check=list(HealthCheck))
@given(st.lists(OP, max_size=40))
def test_two_tier_queue_matches_heap_order(ops):
    kernel, reference = KernelSide(), ReferenceSide()
    for op in ops:
        apply(op, kernel, reference)
        assert kernel.log == reference.log
        assert kernel.env.now == reference.ref.now
        # Compaction never drops a live entry (nor keeps a cancelled one
        # live).
        assert kernel.live() == reference.live()
    # Drain: every live timer fires exactly once, in reference order.
    while reference.ref.step():
        pass
    kernel.env.run()
    assert kernel.log == reference.log
    labels = [label for label, _ in kernel.log]
    assert len(labels) == len(set(labels))
    assert kernel.live() == [] and kernel.env.peek() is None
