"""The benchmark's three workloads: input generation, cluster set-up and
request drivers.

Every workload is built the same way:

1. all client inputs are drawn from ``random.Random`` streams seeded by
   the benchmark's ``--seed``; the cluster only ever sees those inputs
   (and the same seed for its own network jitter);
2. :meth:`Workload.build` builds and boots the cluster, preloads data
   and starts the clients, returning once the warm-up has run;
3. the caller runs the kernel through the window ``outcomes.window``.

A request that starts inside the window ``[t0, t1)`` is *attempted*; it
is *committed* if it succeeded by ``t1``. Requests still in flight at
``t1`` are counted, never dropped. Latency is virtual time; an open-loop
request is timed from its scheduled arrival.
"""

from __future__ import annotations

import hashlib
import random
from typing import Dict, Generator, Iterator, List, Optional, Tuple

from repro.admission import BATCH, AdaptiveLimiter
from repro.admission.errors import is_overload
from repro.core import BokiConfig, BokiCluster
from repro.faas.scheduling import enable_tenant_scheduling
from repro.libs.bokistore import BokiStore
from repro.resil import RetryPolicy
from repro.workloads import social as social_mod
from repro.workloads.harness import ZipfianSampler
from repro.workloads.retwis import RetwisBokiStore

OK, ERROR, SHED = "ok", "error", "shed"


class Outcomes:
    """Per-request records of one measured window.

    Each record is ``[klass, start, end, status]``; ``end`` stays None
    while the request is in flight. Only requests started inside the
    window are kept.
    """

    def __init__(self):
        self.records: List[list] = []
        self.window: Optional[Tuple[float, float]] = None
        #: Failed correctness checks: a count, the count detected inside
        #: the window, and the first few texts.
        self.violations = 0
        self.violations_in_window = 0
        self.examples: List[str] = []
        self.clock = None
        #: The first unexpected request failure, for the report.
        self.first_error: Optional[str] = None

    def open(self, klass: str, start: float) -> Optional[list]:
        window = self.window
        if window is None or not window[0] <= start < window[1]:
            return None
        record = [klass, start, None, None]
        self.records.append(record)
        return record

    def close(self, record: Optional[list], end: float, status: str) -> None:
        if record is not None and end <= self.window[1]:
            record[2] = end
            record[3] = status

    def violation(self, text: str) -> None:
        self.violations += 1
        if self.window[0] <= self.clock() <= self.window[1]:
            self.violations_in_window += 1
        if len(self.examples) < 10:
            self.examples.append(text)


class Workload:
    """Common shape: subclasses fill in ``_build`` and the request code."""

    name = ""
    #: Virtual seconds of warm-up before the window opens.
    warmup = 0.05
    #: Virtual seconds in the measured window.
    window = 1.0
    #: Latency limit (virtual seconds) that ``goodput`` counts against.
    latency_limit = 0.010
    #: Virtual seconds of window per requested host second: calibrated
    #: so one window takes about ``--seconds`` on a 2-vCPU x86 host.
    window_per_second = 0.05
    #: Optional hook ``tag(process, request_id)`` installed by the
    #: traced run; None leaves processes untouched.
    tag = None
    #: Optional hook ``configure(cluster)`` run before the cluster boots.
    configure = None

    def __init__(self, seed: int, window: Optional[float] = None):
        self.seed = seed
        if window is not None:
            self.window = window
        self.rng = random.Random(f"perfbench:{self.name}:{seed}")
        self.outcomes = Outcomes()
        self.cluster: Optional[BokiCluster] = None

    # -- set-up --------------------------------------------------------
    def build(self, run) -> None:
        """Build, boot and warm up; ``run(env, until)`` runs the warm-up."""
        self._build()
        env = self.cluster.env
        self.outcomes.clock = lambda: env.now
        t0 = env.now + self.warmup
        self.outcomes.window = (t0, t0 + self.window)
        run(env, t0)

    def _new_cluster(self, **kwargs) -> BokiCluster:
        cluster = self.cluster = BokiCluster(seed=self.seed, **kwargs)
        if self.configure is not None:
            self.configure(cluster)
        return cluster

    @classmethod
    def input_digest(cls, seed: int) -> str:
        """Digest of the first inputs the generator draws for ``seed``."""
        probe = cls(seed)
        return hashlib.sha256(repr(probe.sample_inputs()).encode()).hexdigest()[:16]

    def _client_rng(self, index: int) -> random.Random:
        return random.Random(f"perfbench:{self.name}:{self.seed}:{index}")

    def _tag(self, rid: int) -> None:
        """The calling process now runs request ``rid``."""
        if self.tag is not None:
            self.tag(self.cluster.env._active, rid)

    def _request(self, klass: str, started: float, gen: Generator) -> Generator:
        """Run one request inline in the calling process and record it."""
        env = self.cluster.env
        record = self.outcomes.open(klass, started)
        try:
            result = yield from gen
        except Exception as exc:  # noqa: BLE001 - classified, then counted
            status = SHED if is_overload(exc) else ERROR
            if status == ERROR and self.outcomes.first_error is None:
                self.outcomes.first_error = f"{klass} failed: {exc!r}"
            self.outcomes.close(record, env.now, status)
            return None
        self.outcomes.close(record, env.now, OK)
        return result


# ----------------------------------------------------------------------
# logbook: the LogBook API append/read path (Table 3 shape)
# ----------------------------------------------------------------------
class LogBookWorkload(Workload):
    """32 closed-loop clients call the LogBook API directly; each appends
    a 1 KB tagged record, then reads it back 4 times by tag. Half the
    clients sit on engines that do not index the log."""

    name = "logbook"
    clients = 32
    reads_per_append = 4
    record_bytes = 1024
    book_id = 1
    window_per_second = 0.03
    latency_limit = 0.005

    def sample_inputs(self):
        return [self._payload(self._client_rng(c), c, 0) for c in range(4)]

    def _payload(self, rng: random.Random, client: int, i: int) -> str:
        head = f"{client}:{i}:{rng.getrandbits(64):016x}:"
        return head + "x" * (self.record_bytes - len(head))

    def _build(self) -> None:
        cluster = self._new_cluster(
            num_function_nodes=8, num_storage_nodes=4, num_sequencer_nodes=3,
            index_engines_per_log=4,
        )
        cluster.boot()
        log_id = cluster.term.log_for_book(self.book_id)
        engines = list(cluster.engines.values())
        local = [e for e in engines if e.indexes(log_id)]
        remote = [e for e in engines if not e.indexes(log_id)]
        for c in range(self.clients):
            pool = local if c % 2 == 0 else remote
            engine = pool[(c // 2) % len(pool)]
            cluster.env.process(self._client(c, engine), name=f"bench-client-{c}")

    def _client(self, c: int, engine) -> Generator:
        cluster = self.cluster
        env = cluster.env
        book = cluster.logbook(self.book_id, engine=engine)
        rng = self._client_rng(c)
        tag = 100 + c
        last_seqnum = -1
        rid = c << 32
        i = 0
        while True:
            payload = self._payload(rng, c, i)
            i += 1
            rid += 1
            self._tag(rid)
            seqnum = yield from self._request(
                "write", env.now, book.append(payload, tags=[tag]))
            if seqnum is None:
                continue
            if seqnum <= last_seqnum:
                self.outcomes.violation(
                    f"client {c}: seqnum {seqnum} after {last_seqnum}")
            last_seqnum = seqnum
            for _ in range(self.reads_per_append):
                rid += 1
                self._tag(rid)
                record = yield from self._request(
                    "read", env.now, book.read_next(tag=tag, min_seqnum=seqnum))
                if record is None or record.seqnum != seqnum or record.data != payload:
                    self.outcomes.violation(
                        f"client {c}: read of {seqnum} returned "
                        f"{getattr(record, 'seqnum', None)}")


# ----------------------------------------------------------------------
# retwis: Retwis on BokiStore with an engine cache smaller than the data
# ----------------------------------------------------------------------
class RetwisWorkload(Workload):
    """64 closed-loop clients run the paper's Retwis mix on BokiStore
    over 100 preloaded users; the engine record cache holds about a
    quarter of each engine's working set."""

    name = "retwis"
    clients = 64
    users = 100
    book_id = 60
    cache_bytes = 150 << 10
    window_per_second = 0.0125
    latency_limit = 0.020
    #: The Retwis mix as counts per deck of 20 requests. Each client
    #: deals its requests from a shuffled deck, so every seed runs the
    #: mix exactly: with independent draws the ~175 tweets of a window
    #: vary by ~8% between seeds, and with them the cost of every later
    #: timeline read.
    deck = (("login", 3), ("profile", 6), ("timeline", 10), ("tweet", 1))

    def sample_inputs(self):
        rng = self._client_rng(0)
        draws = self._draws(rng)
        return [next(draws) for _ in range(8)]

    def _draws(self, rng: random.Random) -> Iterator[Tuple[str, int]]:
        """A client's requests: kinds dealt from shuffled decks, users
        uniform."""
        kinds = [kind for kind, count in self.deck for _ in range(count)]
        while True:
            rng.shuffle(kinds)
            for kind in kinds:
                yield kind, rng.randrange(self.users)

    def _build(self) -> None:
        cluster = self._new_cluster(
            num_function_nodes=8, num_storage_nodes=3, num_sequencer_nodes=3,
            config=BokiConfig(cache_bytes=self.cache_bytes),
        )
        cluster.boot()
        log_id = cluster.term.log_for_book(self.book_id)
        indexers = [e for e in cluster.engines.values() if e.indexes(log_id)]

        def store(engine) -> BokiStore:
            return BokiStore(cluster.logbook(self.book_id, engine=engine))

        loader = RetwisBokiStore(store(indexers[0]), num_users=self.users)
        cluster.drive(loader.init_users(), limit=3600.0)
        for c in range(self.clients):
            backend = RetwisBokiStore(store(indexers[c % len(indexers)]),
                                      num_users=self.users)
            cluster.env.process(self._client(c, backend),
                                name=f"bench-client-{c}")

    def _client(self, c: int, backend: RetwisBokiStore) -> Generator:
        env = self.cluster.env
        rng = self._client_rng(c)
        rid = c << 32
        for kind, user in self._draws(rng):
            rid += 1
            if kind == "login":
                gen, klass = backend.user_login(user), "read"
            elif kind == "profile":
                gen, klass = backend.user_profile(user), "read"
            elif kind == "timeline":
                gen, klass = backend.get_timeline(user), "read"
            else:
                gen = backend.new_tweet(user, f"tweet {c}:{rid} from user {user}")
                klass = "write"
            self._tag(rid)
            result = yield from self._request(klass, env.now, gen)
            if kind == "login" and result is not True:
                self.outcomes.violation(f"login of user {user} returned {result!r}")
            elif kind == "timeline" and result is not None:
                missing = [t for t in result if t is None]
                if missing:
                    self.outcomes.violation(
                        f"timeline of user {user} names {len(missing)} missing tweets")


# ----------------------------------------------------------------------
# social: multi-tenant session analytics through the gateway, open loop
# ----------------------------------------------------------------------
class SocialWorkload(Workload):
    """Poisson arrivals of the 8-tenant, 1M-user session-analytics
    population through the gateway on 4 function nodes x 8 workers, with
    resilience, admission control, tenant scheduling and monitoring on,
    plus a batch tenant offering 10 ms ``bulk-op`` work above the
    fleet's worker capacity."""

    name = "social"
    rate = 2000.0
    batch_rate = 2600.0
    batch_cost = 0.010
    window_per_second = 0.15
    warmup = 0.4
    latency_limit = 0.050
    workers = 8
    #: Batch clients drop shed work instead of retrying it: retried
    #: sheds return in waves that make the interactive tail bursty.
    batch_policy = RetryPolicy(max_attempts=1, attempt_timeout=1.0)

    def __init__(self, seed: int, window: Optional[float] = None):
        super().__init__(seed, window)
        sizes = social_mod.zipfian_tenant_sizes(8, 1_000_000)
        self._specs = [social_mod.TenantSpec(f"app-{i}", n)
                       for i, n in enumerate(sizes)]
        self._samplers = {s.name: ZipfianSampler(min(s.users, 100_000))
                          for s in self._specs}

    def sample_inputs(self):
        return self._arrivals(0.0, 0.01)[:8]

    def _arrivals(self, t_start: float, t_end: float) -> List[tuple]:
        """All arrivals in ``[t_start, t_end)``, as
        ``(time, tenant, fn, arg, book_id, priority)``."""
        rng = self.rng
        specs = self._specs
        weights = [s.users for s in specs]
        total = float(sum(weights))
        out = []
        active_users: Dict[str, List[int]] = {}
        t = t_start
        while True:
            t += rng.expovariate(self.rate)
            if t >= t_end:
                break
            x = rng.random() * total
            spec = specs[-1]
            for s, w in zip(specs, weights):
                x -= w
                if x < 0:
                    spec = s
                    break
            sampler = self._samplers[spec.name]
            active = active_users.setdefault(spec.name, [])
            if rng.random() < social_mod.REPORT_SHARE and active:
                # Reports analyse users with sessions: Zipfian over the
                # tenant's users seen so far, most recent first.
                users = [active[-1 - sampler.sample(rng) % len(active)]
                         for _ in range(social_mod.REPORT_FANOUT)]
                out.append((t, spec.name, "session.report", {"users": users},
                            social_mod._user_book(users[0]), "interactive"))
            else:
                user = sampler.sample(rng)
                active.append(user)
                out.append((t, spec.name, "session.ingest", {"user": user},
                            social_mod._user_book(user), "interactive"))
        # The batch tenant offers a steady stream (evenly spaced, seeded
        # phase), so the offered overload is the same in every run.
        gap = 1.0 / self.batch_rate
        t = t_start + gap * rng.random()
        while t < t_end:
            out.append((t, "batch", "bulk-op", None, 1, BATCH))
            t += gap
        out.sort(key=lambda a: a[0])
        return out

    def _build(self) -> None:
        cluster = self._new_cluster(
            num_function_nodes=4, num_storage_nodes=3, num_sequencer_nodes=3,
            workers_per_node=self.workers,
        )
        social_mod.build_population(cluster, 8, 1_000_000)
        cluster.register_tenant("batch", weight=1.0)
        cluster.enable_resilience()
        slots = 4 * self.workers
        cluster.enable_admission(limiter=AdaptiveLimiter(
            initial=slots, max_limit=1.25 * slots, target_latency=0.030))
        cluster.enable_monitoring()
        cluster.boot()
        enable_tenant_scheduling(cluster)
        social_mod.register_functions(cluster)
        self._observe_ingest_reads(cluster)
        env = cluster.env
        cost = self.batch_cost

        def bulk(ctx, arg):
            yield env.timeout(cost)
            return arg

        cluster.register_function("bulk-op", bulk)
        self.tenant_ok: Dict[str, int] = {}
        self.tenant_attempted: Dict[str, int] = {}
        self.ingest_seqnums: set = set()
        t_end = env.now + self.warmup + self.window
        self.lag_max = 0.0
        env.process(self._generator(self._arrivals(env.now, t_end)),
                    name="bench-arrivals")

    @staticmethod
    def _observe_ingest_reads(cluster) -> None:
        """Make ``session.ingest`` also return the record its own read-back
        saw. The program's ingest runs unchanged; only the ``read_prev`` of
        the LogBook it gets is observed (no kernel event, no random draw)."""
        ingest = cluster.gateway._functions["session.ingest"]
        logbook_for = cluster.logbook_for
        seen: Dict[int, object] = {}

        def observed_logbook_for(ctx):
            book = logbook_for(ctx)
            read_prev = book.read_prev

            def observed_read_prev(*args, **kwargs):
                record = yield from read_prev(*args, **kwargs)
                seen[ctx.call_id] = record
                return record

            book.read_prev = observed_read_prev
            return book

        def checked_ingest(ctx, arg):
            try:
                result = yield from ingest(ctx, arg)
            finally:
                record = seen.pop(ctx.call_id, None)
            return dict(result, read_back=record)

        cluster.logbook_for = observed_logbook_for
        cluster.register_function("session.ingest", checked_ingest)

    def _generator(self, arrivals: List[tuple]) -> Generator:
        env = self.cluster.env
        for rid, arrival in enumerate(arrivals, 1):
            delay = arrival[0] - env.now
            if delay > 0:
                yield env.timeout(delay)
            self.lag_max = max(self.lag_max, env.now - arrival[0])
            env.process(self._one(rid, arrival), name="bench-request")

    def _one(self, rid: int, arrival: tuple) -> Generator:
        t_sched, tenant, fn, arg, book_id, priority = arrival
        klass = {"session.ingest": "write", "session.report": "read"}.get(fn, "batch")
        in_window = self.outcomes.window[0] <= t_sched < self.outcomes.window[1]
        if in_window:
            self.tenant_attempted[tenant] = self.tenant_attempted.get(tenant, 0) + 1
        policy = self.batch_policy if priority == BATCH else None
        gen = self.cluster.invoke(fn, arg, book_id=book_id, priority=priority,
                                  tenant=tenant, policy=policy)
        self._tag(rid)
        result = yield from self._request(klass, t_sched, gen)
        if result is None:
            return
        if in_window:
            self.tenant_ok[tenant] = self.tenant_ok.get(tenant, 0) + 1
        if klass == "read":
            if result["leaks"]:
                self.outcomes.violation(f"{tenant}: {result['leaks']} cross-tenant records")
        elif klass == "write":
            # Read-your-writes: the ingest's read of its user's tail sees
            # its own last record or a later one of the same tenant.
            seqnum = result["seqnum"]
            record = result["read_back"]
            if (record is None or record.seqnum < seqnum
                    or record.data.get("tenant") != tenant
                    or seqnum in self.ingest_seqnums):
                self.outcomes.violation(
                    f"{tenant}: ingest {seqnum} read back "
                    f"{getattr(record, 'seqnum', None)}")
            self.ingest_seqnums.add(seqnum)


WORKLOADS = {w.name: w for w in (LogBookWorkload, RetwisWorkload, SocialWorkload)}
