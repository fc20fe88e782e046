"""Latency-modelled message network with RPC.

The network delivers messages between registered :class:`~repro.sim.node.Node`
objects after a one-way delay drawn from the configured latency model. The
default parameters are the paper's measured EC2 numbers: 107 us round-trip
with ~15 us jitter (§7, experimental setup).

Messages to crashed or partitioned nodes vanish, so RPCs complete only via
their timeout — the failure mode that Boki's quorum protocols and the
ZooKeeper-session failure detector are built around.
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass
from typing import Any, Callable, Dict, FrozenSet, Generator, Optional, Set, Union

from repro.obs.recorder import DISABLED
from repro.obs.trace import STATUS_DROPPED, STATUS_ERROR, STATUS_OK, STATUS_TIMEOUT
from repro.sim.kernel import Environment, Event, Hop
from repro.sim.node import Node
from repro.sim.randvar import RandomStreams

DEFAULT_RTT = 107e-6
DEFAULT_JITTER = 15e-6
DEFAULT_RPC_TIMEOUT = 1.0


class RpcError(Exception):
    """The remote handler raised; wraps the original exception as ``cause``."""

    def __init__(self, method: str, cause: BaseException):
        super().__init__(f"rpc {method!r} failed: {cause!r}")
        self.method = method
        self.cause = cause


class RpcTimeout(Exception):
    """No reply arrived within the RPC timeout (drop, crash, or partition).

    ``retry_after`` is an optional machine-readable pacing hint (seconds)
    for retry layers: fail-fast rejections (the destination *definitely*
    crashed mid-call) carry ``0.0`` — fail over elsewhere immediately,
    there is nothing to wait for — while ordinary (ambiguous) timeouts
    carry ``None`` and leave pacing to the caller's backoff policy.
    ``repro.resil`` treats the hint as a floor on its backoff; see
    ``repro.admission.retry_after_hint``.
    """

    def __init__(self, method: str, dst: str, timeout: float,
                 retry_after: Optional[float] = None):
        super().__init__(f"rpc {method!r} to {dst} timed out after {timeout}s")
        self.method = method
        self.dst = dst
        self.timeout = timeout
        self.retry_after = retry_after


class Message:
    """A message in flight; carries the sender's trace context so a
    request's span tree follows it across nodes (``repro.obs``).
    ``dup`` is True for a chaos-injected duplicate (never re-duplicated)."""

    __slots__ = ("msg_id", "src", "dst", "method", "payload", "trace_ctx", "dup")

    def __init__(self, msg_id: int, src: str, dst: str, method: str,
                 payload: Any = None, trace_ctx: Any = None, dup: bool = False):
        self.msg_id = msg_id
        self.src = src
        self.dst = dst
        self.method = method
        self.payload = payload
        self.trace_ctx = trace_ctx
        self.dup = dup


@dataclass
class LinkFault:
    """Per-directed-link fault probabilities (repro.chaos).

    ``drop`` and ``dup`` are per-message probabilities in [0, 1]; ``delay``
    is a fixed extra one-way latency in seconds.
    """

    drop: float = 0.0
    dup: float = 0.0
    delay: float = 0.0


class Network:
    """Connects nodes; provides one-way sends and request/response RPC."""

    def __init__(
        self,
        env: Environment,
        streams: Optional[RandomStreams] = None,
        rtt: float = DEFAULT_RTT,
        jitter: float = DEFAULT_JITTER,
        rpc_timeout: float = DEFAULT_RPC_TIMEOUT,
    ):
        self.env = env
        self.streams = streams or RandomStreams(seed=0)
        self._rng = self.streams.stream("network")
        self.rtt = rtt
        self.jitter = jitter
        self.rpc_timeout = rpc_timeout
        self.nodes: Dict[str, Node] = {}
        self._partitions: Set[FrozenSet[str]] = set()
        self._isolated: Set[str] = set()
        #: Directed (src, dst) -> LinkFault; empty unless chaos faults are
        #: installed, so the common path costs one truthiness check.
        self._link_faults: Dict[tuple, LinkFault] = {}
        #: Dedicated RNG for fault draws, created lazily on the first
        #: installed fault so fault-free simulations consume exactly the
        #: same random streams as before.
        self._chaos_rng = None
        #: In-flight RPCs (insertion-ordered), keyed by destination node
        #: name; failed fast when that node crashes.
        self._inflight: Dict[str, Dict["_Call", None]] = {}
        self._msg_ids = itertools.count(1)
        self.messages_sent = 0
        self.trace_hook: Optional[Callable[[Message], None]] = None
        #: Observability switch (repro.obs); DISABLED costs one attribute
        #: check per message.
        self.obs = DISABLED

    # ------------------------------------------------------------------
    # Topology
    # ------------------------------------------------------------------
    def register(self, node: Node) -> Node:
        if node.name in self.nodes:
            raise ValueError(f"duplicate node name {node.name!r}")
        self.nodes[node.name] = node
        node.crash_hooks.append(self._on_node_crash)
        return node

    def node(self, name: str) -> Node:
        return self.nodes[name]

    def partition(self, a: str, b: str) -> None:
        """Cut the link between two nodes (messages silently dropped)."""
        self._partitions.add(frozenset((a, b)))

    def heal(self, a: str, b: str) -> None:
        self._partitions.discard(frozenset((a, b)))

    def isolate(self, name: str) -> None:
        """Cut every link to/from ``name`` (the node itself stays up)."""
        self._isolated.add(name)

    def unisolate(self, name: str) -> None:
        self._isolated.discard(name)

    def partition_groups(self, groups) -> None:
        """Partition the given groups of node names from each other.

        Nodes within a group remain mutually connected; nodes not listed in
        any group keep all their links. Builds on pairwise
        :meth:`partition`, so :meth:`heal_all` undoes it.
        """
        groups = [list(group) for group in groups]
        for i, group_a in enumerate(groups):
            for group_b in groups[i + 1:]:
                for a in group_a:
                    for b in group_b:
                        self.partition(a, b)

    def heal_all(self) -> None:
        self._partitions.clear()
        self._isolated.clear()

    def reachable(self, a: str, b: str) -> bool:
        if not self._partitions and not self._isolated:
            return True
        if a in self._isolated or b in self._isolated:
            return False
        return frozenset((a, b)) not in self._partitions

    # ------------------------------------------------------------------
    # Fault injection (repro.chaos)
    # ------------------------------------------------------------------
    def set_link_fault(
        self,
        a: str,
        b: str,
        drop: float = 0.0,
        dup: float = 0.0,
        delay: float = 0.0,
        symmetric: bool = True,
    ) -> None:
        """Install per-message drop/dup/extra-delay faults on a link.

        Faults are directed (``a`` → ``b``); with ``symmetric=True`` the
        reverse direction gets an identical, independently-drawn fault.
        Duplication applies only to one-way sends (RPC request/reply legs
        honour drop and delay; duplicating a request would re-execute its
        handler, which is a different fault than the network can inject).
        """
        if self._chaos_rng is None:
            self._chaos_rng = self.streams.stream("chaos-net")
        self._link_faults[(a, b)] = LinkFault(drop=drop, dup=dup, delay=delay)
        if symmetric:
            self._link_faults[(b, a)] = LinkFault(drop=drop, dup=dup, delay=delay)

    def clear_link_fault(self, a: str, b: str, symmetric: bool = True) -> None:
        self._link_faults.pop((a, b), None)
        if symmetric:
            self._link_faults.pop((b, a), None)

    def clear_link_faults(self) -> None:
        self._link_faults.clear()

    def _hop_fault(self, src_name: str, dst_name: str, allow_dup: bool):
        """Decide one directed hop's fate: (dropped, duplicated, extra_delay).

        Draws from the chaos RNG only when a fault is installed on this
        directed link, in a fixed order (drop, then dup), so fault-free
        links never consume randomness.
        """
        fault = self._link_faults.get((src_name, dst_name))
        if fault is None:
            return False, False, 0.0
        rng = self._chaos_rng
        dropped = fault.drop > 0.0 and rng.random() < fault.drop
        duplicated = allow_dup and fault.dup > 0.0 and rng.random() < fault.dup
        return dropped, duplicated, fault.delay

    def _on_node_crash(self, node: Node) -> None:
        """Fail-fast: resolve in-flight RPC waits targeting a crashed node
        so callers see :class:`RpcTimeout` now instead of at the deadline."""
        calls = self._inflight.pop(node.name, None)
        if not calls:
            return
        for call in calls:
            call._destination_down()

    def one_way_delay(self) -> float:
        """One hop's latency: RTT/2 plus Gaussian jitter, floored at 1 us."""
        delay = self.rtt / 2 + self._rng.gauss(0, self.jitter / 2)
        return max(delay, 1e-6)

    # ------------------------------------------------------------------
    # Messaging
    # ------------------------------------------------------------------
    def _resolve(self, node: Union[str, Node]) -> Node:
        return node if isinstance(node, Node) else self.nodes[node]

    def send(self, src: Union[str, Node], dst: Union[str, Node], method: str, payload: Any = None) -> None:
        """One-way, best-effort message: runs the destination handler after
        the network delay; no reply, errors in the handler are swallowed."""
        src_node, dst_node = self._resolve(src), self._resolve(dst)
        if not src_node.alive:
            return
        msg = Message(next(self._msg_ids), src_node.name, dst_node.name, method, payload)
        self.messages_sent += 1
        if self.obs.enabled:
            msg.trace_ctx = self.obs.tracer.current_context()
            self.obs.metrics.counter("net.sends").incr()
        if self.trace_hook is not None:
            self.trace_hook(msg)
        _Send(self, src_node, dst_node, msg)

    def _deliver_oneway(self, hop: "_Send") -> None:
        """One step of a one-way message: leave the source, or arrive."""
        src, dst, msg = hop.src, hop.dst, hop.msg
        obs = self.obs
        if not hop.arrived:
            extra_delay = 0.0
            if self._link_faults:
                dropped, duplicated, extra_delay = self._hop_fault(
                    src.name, dst.name, allow_dup=not msg.dup
                )
                if duplicated:
                    dup_msg = Message(
                        next(self._msg_ids), msg.src, msg.dst, msg.method,
                        msg.payload, msg.trace_ctx, dup=True,
                    )
                    self.messages_sent += 1
                    _Send(self, src, dst, dup_msg)
                if dropped:
                    self._drop(msg, dst, "chaos")
                    return
            hop.arrived = True
            self.env._push(hop, self.one_way_delay() + extra_delay + dst.slowdown)
            return
        if not dst.alive or not self.reachable(src.name, dst.name):
            self._drop(msg, dst, "down" if not dst.alive else "partition")
            return
        handler = dst.handlers.get(msg.method)
        if handler is None:
            return
        span = None
        prev_ctx = None
        if obs.enabled:
            span = obs.tracer.start_span(
                f"handle:{msg.method}", parent=msg.trace_ctx, node=dst.name, kind="handler"
            )
            prev_ctx = obs.tracer.set_process_context(span.context)
        try:
            result = handler(msg.payload)
        except Exception as exc:  # noqa: BLE001 - close the span; the hop drops it
            if span is not None:
                span.finish(STATUS_ERROR, error=repr(exc))
            raise
        finally:
            if obs.enabled:
                obs.tracer.set_process_context(prev_ctx)
        if hasattr(result, "throw"):  # generator handler: run as a process
            # Created after the context was restored, so install the handle
            # span's context on it explicitly.
            proc = self.env.process(self._ignore_errors(result, span), name=f"handle:{msg.method}")
            if span is not None:
                proc.trace_ctx = span.context
        elif span is not None:
            span.finish(STATUS_OK)

    def _drop(self, msg: Message, dst: Node, reason: str) -> None:
        """Record a message lost in flight (a ``drop:`` instant when traced)."""
        obs = self.obs
        if obs.enabled:
            obs.tracer.instant(
                f"drop:{msg.method}", parent=msg.trace_ctx, node=dst.name,
                kind="net", status=STATUS_DROPPED,
                attrs={"src": msg.src, "reason": reason},
            )
            obs.metrics.counter("net.drops").incr()

    @staticmethod
    def _ignore_errors(generator: Generator, span=None) -> Generator:
        try:
            yield from generator
        except Exception as exc:  # noqa: BLE001 - best-effort delivery semantics
            if span is not None:
                span.finish(STATUS_ERROR, error=repr(exc))
        else:
            if span is not None:
                span.finish(STATUS_OK)

    def rpc(
        self,
        src: Union[str, Node],
        dst: Union[str, Node],
        method: str,
        payload: Any = None,
        timeout: Optional[float] = None,
    ) -> Event:
        """Request/response call; yield the returned event for the result.

        Raises :class:`RpcTimeout` if the reply does not arrive in time and
        :class:`RpcError` if the remote handler raised.
        """
        src_node, dst_node = self._resolve(src), self._resolve(dst)
        deadline = timeout if timeout is not None else self.rpc_timeout
        return _Call(self, src_node, dst_node, method, payload, deadline)

    def _rpc(self, call: "_Call") -> Any:
        """One step of an RPC's caller side. The first sends the request
        and arms the timer; the last returns the reply's value, or raises
        :class:`RpcTimeout` / :class:`RpcError`."""
        src, dst = call.src, call.dst
        obs = self.obs
        span = call.span
        if call.stage == 0:
            src.check_alive()
            msg = Message(next(self._msg_ids), src.name, dst.name, call.method, call.payload)
            self.messages_sent += 1
            if obs.enabled:
                # Parent = the caller's context when it called rpc(). The
                # message carries the rpc span so the server side parents
                # under it.
                prev_ctx = obs.tracer.set_process_context(call.ctx)
                span = call.span = obs.tracer.start_span(
                    f"rpc:{call.method}", node=src.name, kind="rpc", attrs={"dst": dst.name}
                )
                obs.tracer.set_process_context(prev_ctx)
                msg.trace_ctx = span.context
                obs.metrics.counter("net.rpc.calls").incr()
            if self.trace_hook is not None:
                self.trace_hook(msg)
            _Serve(self, call, msg)
            call.timer = self.env.timeout(call.timeout)
            call.timer.callbacks.append(call._wake)
            # Fail fast if the destination crashes while this call is in
            # flight (a node that is already down when the call starts still
            # waits out the full timeout, as a real client would).
            self._inflight.setdefault(dst.name, {})[call] = None
            call.stage = 1
            return None
        calls = self._inflight.get(dst.name)
        if calls is not None:
            calls.pop(call, None)
            if not calls:
                del self._inflight[dst.name]
        # Settled: the timer must not keep the call (and with it the
        # request and reply) alive, nor pop later as a no-op.
        self.env.cancel(call.timer)
        if call.reply is None:
            if span is not None:
                span.finish(STATUS_TIMEOUT, timeout=call.timeout)
                obs.metrics.counter("net.rpc.timeouts").incr()
            # Fail-fast (the destination crashed mid-call): hint 0.0 —
            # the node is definitely down, fail over now rather than
            # pacing as if it might still answer.
            raise RpcTimeout(call.method, dst.name, call.timeout,
                             retry_after=0.0 if call.down else None)
        status, value = call.reply
        if status == "err":
            if span is not None:
                span.finish(STATUS_ERROR, error=repr(value))
            raise RpcError(call.method, value)
        if span is not None:
            span.finish(STATUS_OK)
        return value

    def _serve(self, hop: "_Serve") -> None:
        """One step of an RPC's server side: the request leaves the caller,
        arrives and runs its handler, the handler's process finishes, the
        reply arrives, or the reply wakes the caller."""
        call, msg = hop.call, hop.msg
        src, dst = call.src, call.dst
        obs = self.obs
        stage = hop.stage
        if stage == 0:
            extra_delay = 0.0
            if self._link_faults:
                dropped, _, extra_delay = self._hop_fault(src.name, dst.name, allow_dup=False)
                if dropped:
                    self._drop(msg, dst, "chaos")
                    return
            hop.stage = 1
            self.env._push(hop, self.one_way_delay() + extra_delay + dst.slowdown)
            return
        if stage == 1:
            if not dst.alive or not self.reachable(src.name, dst.name):
                self._drop(msg, dst, "down" if not dst.alive else "partition")
                return
            span = None
            prev_ctx = None
            if obs.enabled:
                span = hop.span = obs.tracer.start_span(
                    f"handle:{msg.method}", parent=msg.trace_ctx, node=dst.name, kind="handler"
                )
                prev_ctx = obs.tracer.set_process_context(span.context)
            try:
                handler = dst.handler_for(msg.method)
                result = handler(msg.payload)
                if hasattr(result, "throw"):
                    # Generator handler: its process inherits the handle
                    # span's context; this hop resumes when it finishes.
                    hop.handling = self.env.process(result, name=f"handle:{msg.method}")
                    hop.handling.callbacks.append(hop._resume)
                    hop.stage = 2
                    return
                outcome = ("ok", result)
                if span is not None:
                    span.finish(STATUS_OK)
            except Exception as exc:  # noqa: BLE001 - shipped back to the caller
                outcome = ("err", exc)
                if span is not None:
                    span.finish(STATUS_ERROR, error=repr(exc))
            finally:
                if obs.enabled:
                    obs.tracer.set_process_context(prev_ctx)
        elif stage == 2:
            handling, hop.handling = hop.handling, None
            if handling._ok:
                outcome = ("ok", handling._value)
                if hop.span is not None:
                    hop.span.finish(STATUS_OK)
            else:
                outcome = ("err", handling._value)
                if hop.span is not None:
                    hop.span.finish(STATUS_ERROR, error=repr(handling._value))
        elif stage == 3:
            # The replying node must still be up, and the link back intact.
            if not dst.alive or not src.alive or not self.reachable(src.name, dst.name):
                return
            call._deliver(hop, hop.outcome)
            return
        else:
            call._wake(hop)
            return
        reply_delay = self.one_way_delay()
        if self._link_faults:
            dropped, _, extra_delay = self._hop_fault(dst.name, src.name, allow_dup=False)
            if dropped:
                if obs.enabled:
                    obs.metrics.counter("net.drops").incr()
                return
            reply_delay += extra_delay
        hop.outcome = outcome
        hop.stage = 3
        self.env._push(hop, reply_delay)


class _Send(Hop):
    """A one-way message in flight. Its first step (at the send instant)
    leaves the source: link faults, then the delay draw; its second, one
    delay later, arrives. Nothing waits on it, so it never triggers."""

    __slots__ = ("net", "src", "dst", "msg", "arrived")

    def __init__(self, net: Network, src: Node, dst: Node, msg: Message):
        Hop.__init__(self, net.env)
        self.net = net
        self.src = src
        self.dst = dst
        self.msg = msg
        self.arrived = False

    def _step(self) -> None:
        try:
            self.net._deliver_oneway(self)
        except Exception:  # noqa: BLE001 - best-effort delivery semantics
            pass


class _Call(Hop):
    """An RPC's caller side, and the event :meth:`Network.rpc` returns.

    Its first step sends the request and arms the timer. The first of
    reply, timer and destination crash to fire wakes it; the step after
    that wake-up settles it: it triggers with the reply's value or the
    call's failure. ``stage``: 0 not started, 1 in flight, 2 woken,
    3 settled.
    """

    __slots__ = ("net", "src", "dst", "method", "payload", "timeout", "ctx",
                 "stage", "span", "timer", "reply", "down")

    def __init__(self, net: Network, src: Node, dst: Node, method: str,
                 payload: Any, timeout: float):
        Hop.__init__(self, net.env)
        self.net = net
        self.src = src
        self.dst = dst
        self.method = method
        self.payload = payload
        self.timeout = timeout
        self.ctx = net.obs.tracer.current_context() if net.obs.enabled else None
        self.stage = 0
        self.span = None
        self.timer: Optional[Event] = None
        #: ("ok" | "err", value) once the reply arrived.
        self.reply = None
        #: True once the destination crashed while the call was in flight.
        self.down = False

    def _step(self) -> None:
        if self.stage == 2:
            self.stage = 3
            try:
                value = self.net._rpc(self)
            except Exception as exc:  # noqa: BLE001 - delivered to the waiter
                self.fail(exc)
            else:
                self.succeed(value)
            return
        try:
            self.net._rpc(self)
        except Exception as exc:  # noqa: BLE001 - e.g. the source is down
            self.stage = 3
            self.fail(exc)

    def _wake(self, _event: Any) -> None:
        """The reply, the timer or the destination's crash fired: the first
        of them schedules the settling step."""
        if self.stage == 1:
            self.stage = 2
            self.env._push(self)

    def _deliver(self, serve: "_Serve", outcome: tuple) -> None:
        """The reply reached the caller's node. It wins if the call has not
        settled yet; it wakes the call from the serve hop's next slot."""
        if self.stage >= 3:
            return  # late reply: dropped
        self.reply = outcome
        if self.stage == 1:
            serve.stage = 4
            self.env._push(serve)

    def _destination_down(self) -> None:
        self.down = True
        if self.stage == 1:
            wake = Event(self.env)
            wake.callbacks.append(self._wake)
            wake.succeed()


class _Serve(Hop):
    """An RPC's server side: request leg, handler, reply leg, and the
    wake-up its reply gives the caller. ``stage``: 0 leave the caller,
    1 arrive and handle, 2 the handler's process finished, 3 the reply
    arrives, 4 wake the caller."""

    __slots__ = ("net", "call", "msg", "stage", "span", "handling", "outcome")

    def __init__(self, net: Network, call: _Call, msg: Message):
        Hop.__init__(self, net.env)
        self.net = net
        self.call = call
        self.msg = msg
        self.stage = 0
        self.span = None
        self.handling: Optional[Event] = None
        self.outcome = None

    def _step(self) -> None:
        self.net._serve(self)
