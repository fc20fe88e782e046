"""The hop model: one-way sends, RPC legs and CPU holds run as kernel
callbacks ("hops") instead of helper processes.

Each hop step takes the heap slot of the process step it replaced, so
same-instant work keeps its order; a settled RPC no longer pins its call
through the timer that is still pending on the heap.
"""

import gc
import weakref

import pytest

from repro.obs.recorder import ObsRecorder
from repro.sim import Environment, Network, Node, NodeDownError, Resource, RpcError, RpcTimeout
from repro.sim.randvar import RandomStreams


def make_net(rtt=100e-6, jitter=0.0, rpc_timeout=0.5, nodes=2):
    env = Environment()
    net = Network(env, RandomStreams(seed=1), rtt=rtt, jitter=jitter, rpc_timeout=rpc_timeout)
    return env, net, [net.register(Node(env, f"n{i}")) for i in range(nodes)]


def run_call(env, call, limit=10.0):
    """Drive ``call`` from a process; returns ("ok", value) or ("err", exc)."""
    outcome = []

    def caller():
        try:
            outcome.append(("ok", (yield call)))
        except Exception as exc:  # noqa: BLE001 - the test inspects it
            outcome.append(("err", exc))

    env.run_until(env.process(caller()), limit=limit)
    return outcome[0]


class Payload:
    """A weak-referenceable payload."""


# ----------------------------------------------------------------------
# Same-instant order
# ----------------------------------------------------------------------
def test_same_instant_sends_deliver_in_issue_order():
    env, net, (a, b) = make_net()
    seen = []
    b.handle("m", lambda payload: seen.append((payload, env.now)))
    for i in range(5):
        net.send(a, b, "m", i)
    env.run()
    assert [p for p, _ in seen] == [0, 1, 2, 3, 4]
    assert len({t for _, t in seen}) == 1  # zero jitter: one arrival instant


def test_same_instant_rpcs_handled_and_answered_in_issue_order():
    env, net, (a, b) = make_net()
    handled, answered = [], []

    def handler(payload):
        handled.append(payload)
        return payload

    b.handle("m", handler)

    def caller(i):
        answered.append((yield net.rpc(a, b, "m", i)))

    for i in range(5):
        env.process(caller(i))
    env.run()
    assert handled == [0, 1, 2, 3, 4]
    assert answered == [0, 1, 2, 3, 4]


def test_rpc_result_is_an_event_processes_can_wait_on_late():
    env, net, (a, b) = make_net()
    b.handle("m", lambda payload: payload * 2)
    calls = [net.rpc(a, b, "m", i) for i in range(3)]
    results = []

    def caller():
        yield env.timeout(0.01)  # every call has settled by now
        for call in calls:
            results.append((yield call))

    env.run_until(env.process(caller()), limit=1.0)
    assert results == [0, 2, 4]
    assert all(call.processed and call.ok for call in calls)


# ----------------------------------------------------------------------
# RPC failure paths
# ----------------------------------------------------------------------
def test_rpc_timeout():
    env, net, (a, b) = make_net(rpc_timeout=0.2)

    def stuck(payload):
        yield env.timeout(5.0)

    b.handle("m", stuck)
    status, exc = run_call(env, net.rpc(a, b, "m"))
    assert status == "err" and isinstance(exc, RpcTimeout)
    assert exc.retry_after is None  # ambiguous: pacing is the caller's call
    assert env.now == pytest.approx(0.2)


def test_destination_crash_fails_fast_with_zero_retry_after():
    env, net, (a, b) = make_net(rpc_timeout=1.0)

    def slow(payload):
        yield env.timeout(0.5)
        return "late"

    b.handle("m", slow)

    def crasher():
        yield env.timeout(0.05)
        b.crash()

    env.process(crasher())
    status, exc = run_call(env, net.rpc(a, b, "m"))
    assert status == "err" and isinstance(exc, RpcTimeout)
    assert exc.retry_after == 0.0  # the node is definitely down
    assert env.now == pytest.approx(0.05)
    assert net._inflight == {}


def test_remote_handler_error_becomes_rpc_error():
    env, net, (a, b) = make_net()

    def bad(payload):
        yield env.timeout(0.001)
        raise ValueError("nope")

    b.handle("m", bad)
    status, exc = run_call(env, net.rpc(a, b, "m"))
    assert status == "err" and isinstance(exc, RpcError)
    assert isinstance(exc.cause, ValueError)


def test_late_reply_is_dropped():
    env, net, (a, b) = make_net(rpc_timeout=0.1)
    finished = []

    def slow(payload):
        yield env.timeout(0.3)
        finished.append(env.now)
        return "late"

    b.handle("m", slow)
    call = net.rpc(a, b, "m")
    status, exc = run_call(env, call)
    assert status == "err" and isinstance(exc, RpcTimeout)
    env.run()  # the handler finishes and its reply arrives after the timeout
    assert finished == [pytest.approx(0.3 + 50e-6)]
    assert not call.ok and call.value is exc
    assert call.reply is None


def test_call_from_dead_source_raises_node_down():
    env, net, (a, b) = make_net()
    b.handle("m", lambda payload: payload)
    a.crash()
    sent = net.messages_sent
    status, exc = run_call(env, net.rpc(a, b, "m"))
    assert status == "err" and isinstance(exc, NodeDownError)
    assert net.messages_sent == sent
    assert env.now == 0.0


# ----------------------------------------------------------------------
# One-way link faults
# ----------------------------------------------------------------------
def test_one_way_drop_under_link_fault():
    env, net, (a, b) = make_net()
    seen = []
    b.handle("m", seen.append)
    net.set_link_fault("n0", "n1", drop=1.0)
    for i in range(3):
        net.send(a, b, "m", i)
    env.run()
    assert seen == []
    assert net.messages_sent == 3


def test_one_way_dup_under_link_fault_is_not_reduplicated():
    env, net, (a, b) = make_net()
    seen = []
    b.handle("m", seen.append)
    net.set_link_fault("n0", "n1", dup=1.0)
    net.send(a, b, "m", "x")
    env.run()
    assert seen == ["x", "x"]
    assert net.messages_sent == 2


def test_one_way_handler_error_is_swallowed():
    env, net, (a, b) = make_net()
    seen = []

    def bad(payload):
        raise ValueError("nope")

    b.handle("bad", bad)
    b.handle("ok", seen.append)
    net.send(a, b, "bad")
    net.send(a, b, "ok", 1)
    env.run()
    assert seen == [1]


# ----------------------------------------------------------------------
# Trace context under observability
# ----------------------------------------------------------------------
def test_processes_spawned_by_handlers_inherit_the_handle_span():
    env, net, (a, b) = make_net()
    obs = ObsRecorder(env)
    net.obs = obs
    spawned = {}

    def child(label):
        spawned[label] = env._active.trace_ctx
        yield env.timeout(0.001)

    def on_send(payload):
        b.spawn(child("send"))

    def on_rpc(payload):
        b.spawn(child("rpc"))
        return "ok"

    b.handle("send", on_send)
    b.handle("rpc", on_rpc)

    def driver():
        root = obs.tracer.start_trace("request", node="client")
        obs.tracer.set_process_context(root.context)
        net.send(a, b, "send")
        yield net.rpc(a, b, "rpc")
        yield env.timeout(0.01)
        root.finish()
        return root

    root = env.run_until(env.process(driver()), limit=1.0)
    spans = {s.name: s for s in obs.tracer.spans}
    assert spawned["send"] == spans["handle:send"].context
    assert spawned["rpc"] == spans["handle:rpc"].context
    assert spans["handle:send"].parent_id == root.span_id
    assert spans["handle:rpc"].parent_id == spans["rpc:rpc"].span_id
    assert spans["rpc:rpc"].parent_id == root.span_id


# ----------------------------------------------------------------------
# Resource.use
# ----------------------------------------------------------------------
def test_use_hands_off_in_fifo_order_under_contention():
    env = Environment()
    cpu = Resource(env, capacity=1)
    done = []

    def user(label, duration):
        yield cpu.use(duration)
        done.append((label, env.now))

    def plain(label):
        req = cpu.request()
        yield req
        try:
            yield env.timeout(0.5)
        finally:
            cpu.release(req)
        done.append((label, env.now))

    env.process(user("a", 1.0))
    env.process(user("b", 2.0))
    env.process(plain("c"))
    env.process(user("d", 0.25))
    env.run()
    # A plain request() is made in the caller's own step; use() requests
    # its slot one heap entry later (the hold's first step), so "c" is
    # first in line, then the holds in the order they were issued.
    assert done == [("c", 0.5), ("a", 1.5), ("b", 3.5), ("d", 3.75)]
    assert cpu.in_use == 0 and cpu.queued == 0


def test_use_queued_count_while_waiting():
    env = Environment()
    cpu = Resource(env, capacity=1)
    for _ in range(3):
        cpu.use(1.0)
    env.run(until=0.5)
    assert cpu.in_use == 1 and cpu.queued == 2
    env.run()
    assert env.now == 3.0 and cpu.in_use == 0


# ----------------------------------------------------------------------
# Settled RPCs do not pin their calls
# ----------------------------------------------------------------------
def test_settled_rpc_timer_does_not_keep_payload_alive():
    env, net, (a, b) = make_net(rpc_timeout=1.0)
    b.handle("m", lambda payload: Payload())
    payload = Payload()
    sent = weakref.ref(payload)
    replies = []

    def caller(request):
        reply = yield net.rpc(a, b, "m", request)
        replies.append(weakref.ref(reply))

    env.process(caller(payload))
    del payload
    env.run(until=0.01)
    gc.collect()
    # The call settled long ago; its cancelled 1 s timer was compacted
    # away, so nothing is left on either tier of the queue.
    assert env.peek() is None
    assert sent() is None
    assert replies and replies[0]() is None
