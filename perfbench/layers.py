"""Per-layer metrics of a traced window.

Counts come from the span recorder's call counters (taken at the same
boundaries as the spans) and from the program's own counters read at the
window's edges; virtual times from the spans' virtual start/end; host
self times from the recorder's ledger.

Layers that a workload does not switch on report 0. Their host time is
therefore given as a share of the traced wall time (``*.self_share``),
and as seconds (``*.self_s``) only for layers every workload runs.
"""

from __future__ import annotations

#: Layers every workload exercises: these also report ``self_s``.
ALWAYS_ON = ["sim.kernel", "sim.network", "core.engine", "core.storage",
             "core.sequencer", "core.index", "core.cache"]
OPTIONAL = ["libs.bokistore", "faas.gateway", "faas.worker", "admission",
            "resil", "tenant", "monitor", "app"]


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def layer_metrics(rec, workload, before, after, committed: int) -> dict:
    cluster = workload.cluster
    delta = {k: after[k] - before[k] for k in before}
    ops = max(1, committed)
    n = rec.count
    selfs = rec.layer_self()
    m = {}

    # sim.kernel
    m["sim.kernel.events_per_op"] = delta["events"] / ops
    m["sim.kernel.processes_per_op"] = n("Environment.process") / ops
    m["sim.kernel.timeouts_per_op"] = n("Environment.timeout") / ops
    m["sim.kernel.background_event_share"] = _ratio(
        rec.kernel_calls_background, rec.kernel_calls)

    # sim.network
    m["sim.network.messages_per_op"] = delta["messages"] / ops
    m["sim.network.rpcs_per_op"] = n("Network.rpc") / ops
    m["sim.network.rpc_failures"] = rec.errors[rec.by_name("Network._rpc")]

    # core.engine
    append_ms = rec.mean_virtual_ms("LogBookEngine.append")
    replicate_ms = rec.mean_virtual_ms("LogBookEngine._replicate")
    reads = n("LogBookEngine.read") + n("LogBookEngine.read_range")
    m["core.engine.append_ms"] = append_ms
    m["core.engine.read_ms"] = rec.mean_virtual_ms("LogBookEngine.read")
    m["core.engine.remote_read_ratio"] = _ratio(
        n("LogBookEngine._h_engine_read") + n("LogBookEngine._h_engine_read_range"),
        reads)
    m["core.engine.append_self_s"] = rec.self_time[rec.by_name("LogBookEngine.append")]
    m["core.engine.read_self_s"] = (
        rec.self_time[rec.by_name("LogBookEngine.read")]
        + rec.self_time[rec.by_name("LogBookEngine.read_range")])

    # core.storage
    m["core.storage.replicate_wait_ms"] = replicate_ms
    m["core.storage.progress_reports_per_op"] = n("SequencerNode._h_report_progress") / ops
    m["core.storage.reads_per_op"] = n("StorageNode._h_read") / ops

    # core.sequencer: append time not spent replicating is engine CPU
    # plus waiting for the metalog to order the record.
    entries = _ratio(n("StorageNode._h_metalog_entry"), len(cluster.storage_nodes))
    m["core.sequencer.order_wait_ms"] = append_ms - replicate_ms if append_ms else 0.0
    m["core.sequencer.appends_per_entry"] = _ratio(n("LogBookEngine.append"), entries)

    # core.index / core.cache
    m["core.cache.hit_ratio"] = _ratio(
        delta["cache_hits"], delta["cache_hits"] + delta["cache_misses"])
    m["core.cache.evictions_per_op"] = delta["cache_evictions"] / ops
    m["core.index.lookups_per_read"] = _ratio(
        n("LogIndex.read_next") + n("LogIndex.read_prev") + n("LogIndex.range"), reads)

    # libs.bokistore
    hits = rec.outcomes.get("bokistore.aux_hit", 0)
    misses = rec.outcomes.get("bokistore.aux_miss", 0)
    commits = rec.outcomes.get("bokistore.txn_committed", 0)
    aborts = rec.outcomes.get("bokistore.txn_aborted", 0)
    m["libs.bokistore.replayed_records_per_read"] = _ratio(
        n("BokiStore._apply_record"), n("BokiStore.get_object"))
    m["libs.bokistore.aux_hit_ratio"] = _ratio(hits, hits + misses)
    m["libs.bokistore.txn_commit_ratio"] = _ratio(commits, commits + aborts)

    # faas: a worker slot is held from slot grant to handler return; the
    # wait before it is the exec span minus dispatch and handler time.
    fnodes = cluster.function_nodes
    handled = rec.virtual_sum("function.handler")
    execs = rec.virtual_sum("FunctionNode._h_exec")
    dispatch = fnodes[0].dispatch_overhead * n("FunctionNode._h_exec")
    slots = sum(f.workers.capacity for f in fnodes)
    m["faas.invocations_per_op"] = delta["invocations"] / ops
    # Spans cut by the window's edges can make the difference slightly
    # negative when nothing waits.
    m["faas.worker.slot_wait_share"] = max(0.0, _ratio(execs - dispatch - handled, execs))
    m["faas.worker.utilization"] = _ratio(handled + dispatch, slots * workload.window)

    # optional layers
    m["admission.shed_ratio"] = _ratio(delta["shed"], n("Gateway._h_invoke"))
    m["resil.retries_per_op"] = delta["retries"] / ops
    m["tenant.jain_index"] = jain_index(workload)
    monitor_layer = rec.layers.index("monitor")
    m["monitor.events_per_op"] = rec.kernel_calls_by_layer.get(monitor_layer, 0) / ops

    # host time
    wall = rec.wall
    for layer in ALWAYS_ON:
        m[f"{layer}.self_s"] = selfs.get(layer, 0.0)
    for layer in ALWAYS_ON + OPTIONAL:
        m[f"{layer}.self_share"] = _ratio(selfs.get(layer, 0.0), wall)
    m["bench.client.self_share"] = _ratio(selfs.get("bench.client", 0.0), wall)
    m["bench.unattributed_share"] = _ratio(selfs["unattributed"], wall)
    return m


def jain_index(workload) -> float:
    """Jain's fairness index over the tenants' success ratios (committed
    / attempted in the window); 1.0 with a single tenant."""
    attempted = getattr(workload, "tenant_attempted", None)
    if not attempted:
        return 1.0
    xs = [workload.tenant_ok.get(t, 0) / a for t, a in attempted.items() if a]
    return sum(xs) ** 2 / (len(xs) * sum(x * x for x in xs)) if xs else 1.0
