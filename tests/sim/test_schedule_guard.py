"""Fault-free schedule guard.

The chaos goldens pin the faulty paths; this pins the fault-free one. A
short, RPC-heavy cluster run (remote engine reads, storage replication,
metalog ordering, gateway invocations contending for few worker slots)
is reduced to a digest of every virtual latency it records. Any change to
the kernel's event order — a same-instant tie broken differently, a
jitter draw taken at another step — moves some latency and so the digest.

The expected digest was recorded before the network and CPU paths were
rewritten as kernel callbacks; that rewrite keeps every callback in the
heap slot of the process step it replaced, so the digest must not move.
If a change *means* to alter the schedule, re-record it and say why.
"""

import hashlib
import json

from repro.chaos.history import History
from repro.chaos.scenarios import _drive_all, _gateway_store_clients, _register_store_fn
from repro.core.cluster import BokiCluster
from repro.workloads.microbench import append_and_read

EXPECTED_DIGEST = "d19cbae1277fce78587aec084b0f1181c4e18ee405dad7a693e843adf91c120e"


def _samples(recorder):
    return [repr(x) for x in recorder.samples]


def schedule_fingerprint() -> dict:
    """Virtual latencies and counters of two short fault-free runs."""
    # LogBook appends and reads through engines that do not index the
    # log, so every read is an engine -> engine RPC.
    logbook = BokiCluster(num_function_nodes=4, index_engines_per_log=2, seed=7)
    logbook.boot()
    runs = append_and_read(logbook, num_clients=16, duration=0.05,
                           force_remote_engine=True, warmup=0.005)

    # BokiStore operations invoked through the gateway, two worker slots
    # per node, so invocations queue for slots and CPU holds hand off.
    store = BokiCluster(num_function_nodes=2, seed=11, workers_per_node=2)
    store.boot()
    history = History(store.env)
    _register_store_fn(store)
    procs = _gateway_store_clients(store, history, num_clients=6, ops_per_client=8)
    _drive_all(store, procs, limit=60.0)

    return {
        "append": _samples(runs["append"].latencies),
        "read": _samples(runs["read"].latencies),
        "cycle": _samples(runs["cycle"].latencies),
        "logbook": [repr(logbook.env.now), logbook.net.messages_sent],
        "store": [repr(store.env.now), store.net.messages_sent],
        "history": [[op.client, op.kind, op.status, repr(op.t_invoke), repr(op.t_return)]
                    for op in history.ops],
    }


def digest(fingerprint: dict) -> str:
    blob = json.dumps(fingerprint, sort_keys=True).encode()
    return hashlib.sha256(blob).hexdigest()


def test_fault_free_schedule_is_unchanged():
    fingerprint = schedule_fingerprint()
    # Not vacuous: the run did RPC-heavy work on both clusters.
    assert len(fingerprint["read"]) > 100
    assert len(fingerprint["history"]) == 48
    assert digest(fingerprint) == EXPECTED_DIGEST
