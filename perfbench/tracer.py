"""Runtime span recorder for the traced run.

The benchmark wraps each layer's public entry points (and the handlers
and background loops behind them) at class level, from its own files:
the program is not edited. Every wrapper records a span with its name,
layer, request id, parent span, host start/end and virtual start/end,
and counts its calls.

- Plain functions are timed per call.
- Generator functions are timed per resume, so time suspended in the
  kernel is excluded; one span covers all resumes.
- Self time is charged as it happens: host time always goes to the
  span on top of the host call stack. A layer's self time is therefore
  its span time minus the time its child spans cover.
- The kernel's event loop (``Environment.run``) is a ``sim.kernel``
  span, and every process's generator is a ``process.body`` span of the
  layer that spawned it (closures such as ``Resource.use``'s holder are
  that layer's code). Time in bodies spawned outside every span (during
  set-up, say) that no inner entry point covers, and time outside every
  span, is *unattributed*; the benchmark checks that it stays a small
  share of the traced wall time.
- Request ids: the benchmark tags the process running a request; a
  process spawned while a span runs inherits that span's request id and
  parent, and processes spawned outside every request are
  ``background`` (id 0).

Wrappers create no kernel event and draw no random number, so a traced
run repeats the untraced run's virtual times and event counts exactly.
Spans are kept in typed arrays and written out once, at the end.
"""

from __future__ import annotations

import functools
import inspect
import json
from array import array
from time import perf_counter
from typing import Callable, Dict, List

KERNEL = "sim.kernel"
UNATTRIBUTED = "unattributed"
BACKGROUND = 0
#: Kernel API calls, counted by the caller's layer and request.
KERNEL_API = {"Environment.process", "Environment.timeout", "Environment.event",
              "Environment.any_of", "Environment.all_of"}

#: (import path of the class, method names, layer). Generator methods
#: are detected and timed per resume.
ENTRY_POINTS = [
    ("repro.sim.kernel:Environment",
     ["run", "process", "timeout", "event", "any_of", "all_of"], KERNEL),
    ("repro.sim.sync:Resource", ["use", "request", "release"], KERNEL),
    ("repro.sim.network:Network",
     ["send", "rpc", "_deliver_oneway", "_rpc", "_serve"], "sim.network"),
    ("repro.core.engine:LogBookEngine",
     ["append", "read", "read_range", "set_auxdata", "_replicate",
      "_h_metalog_entry", "_h_index_meta", "_h_engine_read",
      "_h_engine_read_range", "_h_engine_append", "_maintenance"],
     "core.engine"),
    ("repro.core.logbook:LogBook",
     ["append", "read_next", "read_prev", "check_tail", "read_range",
      "set_auxdata", "trim"], "core.engine"),
    ("repro.core.storage:StorageNode",
     ["_h_replicate", "_h_put_aux", "_h_read", "_h_fetch_meta",
      "_h_metalog_entry", "_progress_loop"], "core.storage"),
    ("repro.core.sequencer:SequencerNode",
     ["_h_report_progress", "_h_append_trim", "_h_replicate", "_drive",
      "_h_fetch_entries"], "core.sequencer"),
    ("repro.core.index:LogIndex",
     ["add_record", "read_next", "read_prev", "range"], "core.index"),
    ("repro.core.cache:RecordCache",
     ["put_record", "put_aux", "get_record", "get_aux"], "core.cache"),
    ("repro.libs.bokistore.store:BokiStore",
     ["get_object", "update", "put", "resolve_outcome", "tail_seqnum",
      "_view_from_record", "_apply_record"], "libs.bokistore"),
    ("repro.libs.bokistore.txn:Transaction",
     ["begin", "get_object", "commit"], "libs.bokistore"),
    ("repro.faas.gateway:Gateway",
     ["external_invoke", "invoke_from", "_h_invoke", "_dispatch",
      "_invoke_with_failover"], "faas.gateway"),
    ("repro.core.cluster:BokiCluster", ["invoke"], "faas.gateway"),
    ("repro.faas.worker:FunctionNode", ["_h_exec"], "faas.worker"),
    ("repro.faas.context:FunctionContext", ["invoke"], "faas.worker"),
    ("repro.admission.controller:AdmissionController",
     ["check", "on_success", "on_downstream_overload"], "admission"),
    ("repro.admission.controller:NodeAdmission",
     ["try_enter", "exit"], "admission"),
    ("repro.resil.rpc:Resilience", ["rpc", "call_with_failover", "call"], "resil"),
    ("repro.tenant.hub:TenancyHub",
     ["on_arrival", "admission_check", "on_admit", "acquire_dispatch",
      "on_done", "observe_freshness"], "tenant"),
    ("repro.faas.scheduling:TenantScheduler", ["__call__"], "tenant"),
    ("repro.obs.monitor:MonitorHub",
     ["on_metalog_entry", "on_storage_apply", "on_append_start",
      "on_append_done", "on_append_abort", "on_invoke", "on_admission"],
     "monitor"),
    ("repro.obs.alerts:AlertManager", ["run"], "monitor"),
    ("workloads:Workload", ["_request"], "bench.client"),
    ("workloads:LogBookWorkload", ["_client"], "bench.client"),
    ("workloads:RetwisWorkload", ["_client"], "bench.client"),
    ("workloads:SocialWorkload", ["_generator", "_one"], "bench.client"),
]

#: Outcome counters: span name -> function(result) -> counter name.
CLASSIFY: Dict[str, Callable] = {
    "BokiStore._view_from_record":
        lambda r: "bokistore.aux_hit" if r is not None else "bokistore.aux_miss",
    "Transaction.commit":
        lambda r: "bokistore.txn_committed" if r else "bokistore.txn_aborted",
}


class Recorder:
    """Span store, call counters and the self-time ledger."""

    def __init__(self):
        self.active = False
        self.env = None
        self.names: List[str] = []
        self.name_layer: List[int] = []
        self.layers: List[str] = [UNATTRIBUTED]
        self._layer_ids: Dict[str, int] = {UNATTRIBUTED: 0}
        #: Self time by span name id, and time outside every span.
        self.self_time: List[float] = []
        self.outside = 0.0
        self.calls: List[int] = []
        self.errors: List[int] = []
        #: Kernel API calls: by the caller's layer id, outside every
        #: request, and in all.
        self.kernel_calls_by_layer: Dict[int, int] = {}
        self.kernel_calls_background = 0
        self.kernel_calls = 0
        self.outcomes: Dict[str, int] = {}
        #: Finished spans, one typed array per field.
        self.span_id = array("q")
        self.span_name = array("i")
        self.span_req = array("q")
        self.span_parent = array("q")
        self.span_host = array("d")   # host start, host end (pairs)
        self.span_virt = array("d")   # virtual start, virtual end (pairs)
        self._next_id = 1
        self._stack: List[list] = []
        #: ``process.body`` span name ids, by the spawning layer's id.
        self._body_ids: Dict[int, int] = {}
        self._mark = 0.0
        self._started = 0.0
        self.wall = 0.0

    # -- control -------------------------------------------------------
    def start(self, env) -> None:
        self.env = env
        self.active = True
        self._started = self._mark = perf_counter()

    def stop(self) -> None:
        now = perf_counter()
        self.outside += now - self._mark
        self.wall += now - self._started
        self.active = False

    def tag(self, process, request_id: int) -> None:
        """Mark ``process`` as running request ``request_id``."""
        process._bench_req = request_id
        process._bench_parent = 0

    # -- names ---------------------------------------------------------
    def name_id(self, name: str, layer: str) -> int:
        layer_id = self._layer_ids.get(layer)
        if layer_id is None:
            layer_id = self._layer_ids[layer] = len(self.layers)
            self.layers.append(layer)
        self.names.append(name)
        self.name_layer.append(layer_id)
        self.self_time.append(0.0)
        self.calls.append(0)
        self.errors.append(0)
        return len(self.names) - 1

    # -- spans ---------------------------------------------------------
    def open(self, name_id: int, body: bool = False) -> list:
        """A new span; a ``body`` span's parent is its process's spawner."""
        proc = self.env._active
        stack = self._stack
        if stack and not body:
            parent = stack[-1][0]
        else:
            parent = getattr(proc, "_bench_parent", 0)
        req = getattr(proc, "_bench_req", BACKGROUND)
        span_id = self._next_id
        self._next_id += 1
        self.calls[name_id] += 1
        # [id, req, name_id, parent, host_start, host_end, v_start]
        return [span_id, req, name_id, parent, 0.0, 0.0, self.env._now]

    def push(self, span: list) -> None:
        now = perf_counter()
        stack = self._stack
        if stack:
            self.self_time[stack[-1][2]] += now - self._mark
        else:
            self.outside += now - self._mark
        if not span[4]:
            span[4] = now
        stack.append(span)
        self._mark = now

    def pop(self) -> None:
        now = perf_counter()
        span = self._stack.pop()
        self.self_time[span[2]] += now - self._mark
        span[5] = now
        self._mark = now

    def close(self, span: list, failed: bool = False) -> None:
        if failed:
            self.errors[span[2]] += 1
        self.span_id.append(span[0])
        self.span_name.append(span[2])
        self.span_req.append(span[1])
        self.span_parent.append(span[3])
        self.span_host.append(span[4])
        self.span_host.append(span[5])
        self.span_virt.append(span[6])
        self.span_virt.append(self.env._now)

    def count_kernel_call(self) -> None:
        stack = self._stack
        self.kernel_calls += 1
        layer = self.name_layer[stack[-1][2]] if stack else 0
        req = getattr(self.env._active, "_bench_req", BACKGROUND)
        self.kernel_calls_by_layer[layer] = self.kernel_calls_by_layer.get(layer, 0) + 1
        if req == BACKGROUND:
            self.kernel_calls_background += 1

    def inherit(self, process) -> None:
        """A process spawned now runs on behalf of the current span."""
        active = self.env._active
        process._bench_req = getattr(active, "_bench_req", BACKGROUND)
        stack = self._stack
        process._bench_parent = (stack[-1][0] if stack
                                 else getattr(active, "_bench_parent", 0))

    # -- wrapping ------------------------------------------------------
    def install(self) -> None:
        """Patch every entry point (for the rest of the process)."""
        import importlib

        for path, methods, layer in ENTRY_POINTS:
            module_name, class_name = path.split(":")
            cls = getattr(importlib.import_module(module_name), class_name)
            if cls.__name__ == "FunctionNode":
                self._wrap_handlers(cls)
            for method in methods:
                original = cls.__dict__[method]
                name = f"{class_name}.{method}"
                wrapper = self._wrap(original, self.name_id(name, layer), name)
                setattr(cls, method, wrapper)

    def _wrap_handlers(self, cls) -> None:
        """Deployed function bodies become ``function.handler`` spans
        (layer ``app``), so worker-slot time splits from handler time."""
        original = cls.register_function
        name_id = self.name_id("function.handler", "app")
        rec = self

        @functools.wraps(original)
        def register_function(node, fn_name, handler):
            @functools.wraps(handler)
            def traced_handler(*args, **kwargs):
                return rec._drive(handler(*args, **kwargs), name_id, None)
            return original(node, fn_name, traced_handler)

        cls.register_function = register_function

    def _wrap(self, fn: Callable, name_id: int, name: str) -> Callable:
        rec = self
        classify = CLASSIFY.get(name)
        kernel = name in KERNEL_API
        spawns = name == "Environment.process"

        if inspect.isgeneratorfunction(fn):
            @functools.wraps(fn)
            def gen_wrapper(*args, **kwargs):
                return rec._drive(fn(*args, **kwargs), name_id, classify)
            return gen_wrapper

        @functools.wraps(fn)
        def wrapper(*args, **kwargs):
            if spawns:
                args, kwargs = rec._timed_body(*args, **kwargs)
            if not rec.active:
                return fn(*args, **kwargs)
            if kernel:
                rec.count_kernel_call()
            span = rec.open(name_id)
            rec.push(span)
            failed = True
            try:
                result = fn(*args, **kwargs)
                failed = False
            finally:
                rec.pop()
                rec.close(span, failed)
            if spawns:
                rec.inherit(result)
            return result
        return wrapper

    def _timed_body(self, env, generator, name=None):
        """``Environment.process`` arguments with the generator run as a
        ``process.body`` span (unless it is a span already); the process
        keeps the generator's name."""
        if (hasattr(generator, "throw")
                and getattr(generator, "gi_code", None) is not _DRIVE_CODE):
            stack = self._stack
            layer_id = self.name_layer[stack[-1][2]] if stack else 0
            body_id = self._body_ids.get(layer_id)
            if body_id is None:
                body_id = self._body_ids[layer_id] = self.name_id(
                    "process.body", self.layers[layer_id])
            name = name or getattr(generator, "__name__", None)
            generator = self._drive(generator, body_id, None, body=True)
        return (env, generator), {"name": name}

    def _drive(self, gen, name_id: int, classify, body: bool = False):
        """Run ``gen`` as a generator span, timing each resume."""
        span = None
        value = None
        error = None
        while True:
            active = self.active
            if active:
                if span is None:
                    span = self.open(name_id, body)
                self.push(span)
            try:
                if error is not None:
                    target = gen.throw(error)
                else:
                    target = gen.send(value)
            except StopIteration as stop:
                if active:
                    self.pop()
                if span is not None:
                    self.close(span)
                if classify is not None and active:
                    key = classify(stop.value)
                    self.outcomes[key] = self.outcomes.get(key, 0) + 1
                return stop.value
            except BaseException:
                if active:
                    self.pop()
                if span is not None:
                    self.close(span, failed=True)
                raise
            if active:
                self.pop()
            try:
                value = yield target
                error = None
            except GeneratorExit:
                gen.close()
                raise
            except BaseException as exc:  # noqa: BLE001 - forwarded into gen
                error = exc
                value = None

    # -- results -------------------------------------------------------
    def by_name(self, name: str) -> int:
        return self.names.index(name)

    def count(self, name: str) -> int:
        return self.calls[self.by_name(name)]

    def layer_self(self) -> Dict[str, float]:
        out = {layer: 0.0 for layer in self.layers}
        for name_id, t in enumerate(self.self_time):
            out[self.layers[self.name_layer[name_id]]] += t
        out[UNATTRIBUTED] += self.outside
        return out

    def virtual_sum(self, name: str) -> float:
        """Total virtual duration of the finished spans called ``name``."""
        return sum(self._virtual(name))

    def mean_virtual_ms(self, name: str) -> float:
        """Mean virtual duration of the finished spans called ``name``."""
        durations = self._virtual(name)
        return 1e3 * sum(durations) / len(durations) if durations else 0.0

    def _virtual(self, name: str) -> List[float]:
        name_id = self.by_name(name)
        virt = self.span_virt
        return [virt[2 * i + 1] - virt[2 * i]
                for i, nid in enumerate(self.span_name) if nid == name_id]

    def write(self, path: str) -> None:
        """Write the spans: a JSON header line, then the raw arrays."""
        header = {
            "names": self.names,
            "layers": [self.layers[i] for i in self.name_layer],
            "spans": len(self.span_id),
            "arrays": ["id:q", "name:i", "req:q", "parent:q",
                       "host:d[2]", "virtual:d[2]"],
        }
        with open(path, "wb") as fh:
            fh.write(json.dumps(header).encode() + b"\n")
            for arr in (self.span_id, self.span_name, self.span_req,
                        self.span_parent, self.span_host, self.span_virt):
                arr.tofile(fh)


_DRIVE_CODE = Recorder._drive.__code__
