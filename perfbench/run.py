"""Benchmark command: run one workload, check it, print its metrics.

Usage (from the repository root)::

    python3 perfbench/run.py --workload logbook --seed 1 --seconds 20 --trace 0

``--trace 0`` is the timed run. In one fresh process it sets the cluster
up ``SETUPS - 1`` times in forked copies (set-up time only), then once
more followed by the measured window; it prints the end-to-end metrics.

``--trace 1`` is the traced run: a shorter window is run three times,
untraced, with the benchmark's span recorder, and with the program's own
tracer (``enable_observability``); it prints the per-layer metrics.

Host times are given in reference seconds (see :class:`HostMeter`). The
window and each set-up's warm-up run in slices of virtual time with a
fixed pure-Python probe between them. A slice's wall time is divided by
the host's slowdown during the slice, as the probes on either side of it
measure it, so a slice run while the shared host is slow counts about as
the time it would have taken at the reference speed. The raw wall-clock figures are printed
too, as informational lines.

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``. A run that fails a
correctness check reports ``correct: false``. The command exits non-zero
without printing a result when a run cannot complete.
"""

from __future__ import annotations

import argparse
import heapq
import json
import math
import os
import resource
import statistics
import subprocess
import sys
import time
import traceback

HERE = os.path.dirname(os.path.abspath(__file__))
ROOT = os.path.dirname(HERE)
SRC = os.path.join(ROOT, "src")
OUT_DIR = os.path.join(os.getcwd(), ".perfbench_out")
RESULT_PREFIX = "@@perfbench "
#: The traced run measures this share of the timed run's window.
TRACE_WINDOW_SHARE = 0.25
#: Set-ups per timed run (the last one continues into the window).
SETUPS = 5
#: Largest share of the traced wall time that may fall outside every
#: layer's spans.
UNATTRIBUTED_LIMIT = 0.05
CHILD_TIMEOUT = 170.0
#: Slices of the measured window and of the warm-up in a set-up, with a
#: speed probe after each slice.
WINDOW_SLICES = 100
SETUP_SLICES = 20
#: The probe's time at the reference speed: its fast-state time on the
#: 2-vCPU x86 host the benchmark was tuned on (Python 3.11).
PROBE_REFERENCE_S = 1.8e-3
#: When the host slows the probe by a factor f, it slows the program by
#: about f ** SLOWDOWN_EXPONENT: the exponent that made host_ops_per_s and
#: setup_s most uniform over 29 runs of the three workloads on the tuning
#: host, whose probe factors ranged 0.95-1.87 (0.7-0.8 fit best; 1.0
#: over-corrected the slowest runs).
SLOWDOWN_EXPONENT = 0.75

END_TO_END = [
    ("setup_s", "s"), ("host_ops_per_s", "op/s"), ("peak_rss_mb", "MB"),
    ("goodput_ops_per_s", "op/s"), ("fail_ratio", "ratio"),
    ("p50_ms", "ms"), ("p99_ms", "ms"),
    ("write_p50_ms", "ms"), ("write_p90_ms", "ms"),
    ("read_p50_ms", "ms"), ("read_p99_ms", "ms"),
]


# ----------------------------------------------------------------------
# Parent: orchestrate child processes, check, aggregate, print
# ----------------------------------------------------------------------
def run_child(mode: str, args, window_share: float = 1.0, setups: int = 1) -> dict:
    cmd = [sys.executable, os.path.abspath(__file__), "--child", mode,
           "--workload", args.workload, "--seed", str(args.seed),
           "--seconds", str(args.seconds), "--window-share", repr(window_share),
           "--setups", str(setups)]
    # A fixed hash seed gives every child the same dict and set layout.
    proc = subprocess.run(cmd, capture_output=True, text=True,
                          timeout=CHILD_TIMEOUT,
                          env=dict(os.environ, PYTHONHASHSEED="0"))
    for line in reversed(proc.stdout.splitlines()):
        if line.startswith(RESULT_PREFIX) and proc.returncode == 0:
            return json.loads(line[len(RESULT_PREFIX):])
    sys.stderr.write(proc.stderr[-4000:])
    raise SystemExit(f"perfbench: {mode} run of {args.workload} failed "
                     f"(exit {proc.returncode})")


def timed(args) -> dict:
    main = run_child("timed", args, setups=SETUPS)
    problems = check_problems(main)
    for s in main["setups"]:
        if s["setup_counters"] != main["setup_counters"]:
            problems.append("same-seed set-ups differ: "
                            f"{s['setup_counters']} vs {main['setup_counters']}")
    if main["input_digest"] == main["next_seed_digest"]:
        problems.append("a different seed generated the same inputs")
    setups = main["setups"] + [main]
    committed = main["counts"]["committed"]
    metrics = {
        "setup_s": statistics.median(s["setup_s"] for s in setups),
        "host_ops_per_s": committed / main["window_ref_s"],
        "peak_rss_mb": main["peak_rss_mb"],
        **main["virtual"],
    }
    main["extra"]["setup_wall_s"] = statistics.median(s["setup_wall_s"] for s in setups)
    main["extra"]["host_wall_ops_per_s"] = committed / main["window_wall_s"]
    print_report(args, main, metrics, len(setups))
    return result(problems, main, {n: (metrics[n], u) for n, u in END_TO_END})


def traced(args) -> dict:
    base = run_child("timed", args, TRACE_WINDOW_SHARE)
    trace = run_child("traced", args, TRACE_WINDOW_SHARE)
    obs = run_child("obs", args, TRACE_WINDOW_SHARE)
    problems = check_problems(base)
    for label, other in (("span-recorder", trace), ("enable_observability", obs)):
        if other["fingerprint"] != base["fingerprint"]:
            problems.append(f"{label} run changed virtual metrics or event counts")
    layers = trace["layers"]
    if layers["bench.unattributed_share"] > UNATTRIBUTED_LIMIT:
        problems.append(f"{layers['bench.unattributed_share']:.1%} of the traced "
                        "wall time is outside every layer")
    layers["obs.trace_overhead_ratio"] = obs["window_ref_s"] / base["window_ref_s"]
    layers["obs.trace_rss_ratio"] = obs["peak_rss_mb"] / base["peak_rss_mb"]
    layers["bench.trace_overhead_ratio"] = trace["window_ref_s"] / base["window_ref_s"]
    metrics = {name: (value, layer_unit(name)) for name, value in layers.items()}
    print(f"perfbench {args.workload} seed={args.seed} traced window "
          f"{base['window_virtual_s']:.4f} virtual s in reference host s: "
          f"untraced {base['window_ref_s']:.2f}s, span recorder "
          f"{trace['window_ref_s']:.2f}s, enable_observability "
          f"{obs['window_ref_s']:.2f}s; {trace['spans']} spans in "
          f"{trace['spans_path']}")
    for name, (value, unit) in sorted(metrics.items()):
        print(f"  {name:42s} {value:14.6g} {unit}")
    return result(problems, base, metrics)


def layer_unit(name: str) -> str:
    """Unit of a per-layer metric, from its name's suffix."""
    for suffix, unit in (("_s", "s"), ("_ms", "ms"), ("_per_op", "1/op"),
                         ("_per_read", "1/read"), ("_per_entry", "1/entry"),
                         ("_failures", "count")):
        if name.endswith(suffix):
            return unit
    return "ratio"


def check_problems(main) -> list:
    """The workload's own failed checks and unexpected request errors."""
    problems = list(main["examples"])
    if main["violations"] > len(problems):
        problems.append(f"... {main['violations']} failed checks in all")
    if main["counts"]["errors"]:
        problems.append(f"{main['counts']['errors']} requests failed; first: "
                        f"{main['first_error']}")
    return problems


def result(problems, main, metrics) -> dict:
    for p in problems:
        print(f"CHECK FAILED: {p}")
    counts = main["counts"]
    return {
        "correct": not problems,
        "attempted": counts["attempted"],
        "failed": counts["errors"] + main["violations_in_window"],
        "metrics": {name: {"value": value, "unit": unit}
                    for name, (value, unit) in metrics.items()},
    }


def print_report(args, main, metrics, setups: int) -> None:
    c = main["counts"]
    samples = main["samples"]
    print(f"perfbench {args.workload} seed={args.seed}: window "
          f"{main['window_virtual_s']:.4f} virtual s in "
          f"{main['window_ref_s']:.2f} reference host s "
          f"({main['window_wall_s']:.2f} s wall); attempted {c['attempted']}, "
          f"committed {c['committed']}, errors {c['errors']}, shed {c['shed']}, "
          f"in flight at window end {c['in_flight']}; "
          f"generator lag {main['generator_lag_ms']:.6f} ms")
    n_of = {"p50_ms": samples["all"], "p99_ms": samples["all"],
            "write_p50_ms": samples["write"], "write_p90_ms": samples["write"],
            "read_p50_ms": samples["read"], "read_p99_ms": samples["read"],
            "goodput_ops_per_s": c["committed"], "fail_ratio": c["attempted"],
            "host_ops_per_s": c["committed"], "setup_s": setups,
            "peak_rss_mb": 1}
    for name, unit in END_TO_END:
        print(f"  {name:20s} {metrics[name]:14.6g} {unit:6s} n={n_of[name]}")
    for name, q in (("p99_ms", 0.99), ("write_p90_ms", 0.90), ("read_p99_ms", 0.99)):
        if n_of[name] * (1 - q) < 10:
            print(f"  NOTE: {name} has fewer than 10 samples beyond it")
    for name, value in sorted(main["extra"].items()):
        print(f"  {name:20s} {value:14.6g} (informational)")


# ----------------------------------------------------------------------
# Child: one process, one cluster
# ----------------------------------------------------------------------
def percentile(values, q: float) -> float:
    """Nearest-rank percentile of a sorted list (0.0 if empty)."""
    if not values:
        return 0.0
    return values[min(len(values), max(1, math.ceil(q * len(values)))) - 1]


def summarize(workload) -> dict:
    """Virtual-time metrics and request counts of the window. The overall
    percentiles cover the interactive classes (reads and writes);
    ``social``'s batch work counts in goodput and failures only."""
    t0, t1 = workload.outcomes.window
    recs = workload.outcomes.records
    status = {"ok": 0, "error": 0, "shed": 0, None: 0}
    lat = {"all": [], "write": [], "read": []}
    limit = workload.latency_limit
    within = 0
    for klass, start, end, st in recs:
        status[st] += 1
        if st == "ok":
            d = end - start
            within += d <= limit
            if klass in lat:
                lat["all"].append(d)
                lat[klass].append(d)
    for v in lat.values():
        v.sort()
    ms = 1e3
    virtual = {
        "goodput_ops_per_s": within / (t1 - t0),
        "fail_ratio": (status["error"] + status["shed"] + status[None]) / max(1, len(recs)),
        "p50_ms": ms * percentile(lat["all"], 0.50),
        "p99_ms": ms * percentile(lat["all"], 0.99),
        "write_p50_ms": ms * percentile(lat["write"], 0.50),
        "write_p90_ms": ms * percentile(lat["write"], 0.90),
        "read_p50_ms": ms * percentile(lat["read"], 0.50),
        "read_p99_ms": ms * percentile(lat["read"], 0.99),
    }
    extra = {}
    if len(lat["write"]) >= 1000:
        extra["write_p99_ms"] = ms * percentile(lat["write"], 0.99)
    return {
        "virtual": virtual,
        "extra": extra,
        "samples": {k: len(v) for k, v in lat.items()},
        "counts": {"attempted": len(recs), "committed": status["ok"],
                   "errors": status["error"], "shed": status["shed"],
                   "in_flight": status[None]},
    }


def child(args) -> dict:
    sys.path.insert(0, SRC)
    sys.path.insert(0, HERE)
    from workloads import WORKLOADS

    cls = WORKLOADS[args.workload]
    window = round(cls.window_per_second * args.seconds * args.window_share, 6)
    out = {"setups": [forked(lambda: set_up(cls(args.seed, window=window))[1])
                      for _ in range(args.setups - 1)]}
    workload = cls(args.seed, window=window)
    recorder = None
    if args.child == "traced":
        from tracer import Recorder

        recorder = Recorder()
        recorder.install()
        workload.tag = recorder.tag
    elif args.child == "obs":
        workload.configure = lambda cluster: cluster.enable_observability()

    before, setup = set_up(workload)
    out.update(setup)
    meter = HostMeter(recorder)
    meter.start()
    meter.run(workload.cluster.env, workload.outcomes.window[1], WINDOW_SLICES)
    out["window_wall_s"] = meter.wall
    out["window_ref_s"] = meter.ref
    after = snapshot(workload)
    out.update(summarize(workload))
    out["window_virtual_s"] = window
    out["peak_rss_mb"] = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0
    out["violations"] = workload.outcomes.violations
    out["violations_in_window"] = workload.outcomes.violations_in_window
    out["examples"] = workload.outcomes.examples
    out["first_error"] = workload.outcomes.first_error
    out["generator_lag_ms"] = 1e3 * getattr(workload, "lag_max", 0.0)
    out["input_digest"] = cls.input_digest(args.seed)
    out["next_seed_digest"] = cls.input_digest(args.seed + 1)
    counters = {k: after[k] - before[k] for k in ("events", "messages")}
    out["fingerprint"] = repr((out["virtual"], out["counts"], counters))
    if recorder is not None:
        from layers import layer_metrics

        out["layers"] = layer_metrics(recorder, workload, before, after,
                                      out["counts"]["committed"])
        os.makedirs(OUT_DIR, exist_ok=True)
        path = os.path.join(OUT_DIR, f"{args.workload}-seed{args.seed}.spans")
        recorder.write(path)
        out["spans"] = len(recorder.span_id)
        out["spans_path"] = os.path.relpath(path)
    return out


def probe() -> float:
    """Host time of a fixed pure-Python task shaped like the kernel's
    inner loop (heap, generator resumes, dict stores); the better of two
    tries, so one interrupt does not count as a slow host."""
    best = math.inf
    for _ in range(2):
        t = time.perf_counter()
        heap, seen = [], {}
        gen = _probe_gen()
        next(gen)
        for i in range(3000):
            heapq.heappush(heap, ((i * 7919) % 1000, i))
            seen[i & 255] = gen.send(1)
            if len(heap) > 50:
                heapq.heappop(heap)
        best = min(best, time.perf_counter() - t)
    return best


def _probe_gen():
    total = 0
    while True:
        total += yield total


def set_up(workload) -> tuple:
    """Build ``workload``; return its counters and its set-up record."""
    meter = HostMeter()
    meter.start()
    workload.build(run=lambda env, until: meter.run(env, until, SETUP_SLICES))
    counters = snapshot(workload)
    return counters, {"setup_s": meter.ref, "setup_wall_s": meter.wall,
                      "setup_counters": counters}


class HostMeter:
    """Host time of code run in slices, as wall seconds and as reference
    seconds: after each slice a probe measures the host's speed; the mean
    of the probes on either side of a slice over ``PROBE_REFERENCE_S`` is
    the host's slowdown during the slice, and the slice's wall time is
    divided by that slowdown to the power ``SLOWDOWN_EXPONENT``. Probe
    time is in neither."""

    def __init__(self, recorder=None):
        self.recorder = recorder
        self.wall = self.ref = 0.0

    def start(self) -> None:
        self._speed = probe()
        self._t = time.perf_counter()

    def mark(self) -> None:
        """End the current slice and start the next."""
        dt = time.perf_counter() - self._t
        speed = probe()
        self.wall += dt
        slowdown = (self._speed + speed) / (2 * PROBE_REFERENCE_S)
        self.ref += dt / slowdown ** SLOWDOWN_EXPONENT
        self._speed = speed
        self._t = time.perf_counter()

    def run(self, env, until: float, slices: int) -> None:
        """``env.run(until=until)`` in ``slices`` equal spans of virtual
        time; the recorder, if any, is paused while probing."""
        start = env.now
        for i in range(1, slices + 1):
            if self.recorder is not None:
                self.recorder.start(env)
            env.run(until=until if i == slices else start + (until - start) * i / slices)
            if self.recorder is not None:
                self.recorder.stop()
            self.mark()


def forked(fn):
    """Run ``fn()`` in a forked copy of this process and return its
    JSON-able result; each copy starts from the same imported state."""
    read_fd, write_fd = os.pipe()
    pid = os.fork()
    if pid == 0:
        os.close(read_fd)
        try:
            with os.fdopen(write_fd, "w") as fh:
                json.dump(fn(), fh)
        except BaseException:  # noqa: BLE001 - reported, then exit non-zero
            traceback.print_exc()
            os._exit(1)
        os._exit(0)
    os.close(write_fd)
    with os.fdopen(read_fd) as fh:
        data = fh.read()
    _, status = os.waitpid(pid, 0)
    if status != 0:
        raise RuntimeError(f"forked set-up failed (status {status})")
    return json.loads(data)


def snapshot(workload) -> dict:
    """Program counters read at the window's edges."""
    cluster = workload.cluster
    engines = list(cluster.engines.values())
    return {
        "events": cluster.env._eid,
        "messages": cluster.net.messages_sent,
        "cache_hits": sum(e.cache.hits for e in engines),
        "cache_misses": sum(e.cache.misses for e in engines),
        "cache_evictions": sum(e.cache.evictions for e in engines),
        "invocations": sum(f.invocations for f in cluster.function_nodes),
        "shed": cluster.admission.total_shed() if cluster.admission else 0,
        "retries": cluster.resil.counters["retries"] if cluster.resil else 0,
    }


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=["logbook", "retwis", "social"])
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=[0, 1], default=0)
    parser.add_argument("--child", choices=["timed", "traced", "obs"])
    parser.add_argument("--window-share", type=float, default=1.0)
    parser.add_argument("--setups", type=int, default=1)
    args = parser.parse_args(argv)
    if args.child:
        print(RESULT_PREFIX + json.dumps(child(args)))
        return 0
    if not os.path.isdir(os.path.join(SRC, "repro")):
        print(f"perfbench: no program source at {SRC}", file=sys.stderr)
        return 2
    out = traced(args) if args.trace else timed(args)
    print(json.dumps(out))
    return 0


if __name__ == "__main__":
    sys.exit(main())
