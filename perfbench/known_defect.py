"""Reproduce the nested-invocation stall noted in perfbench/README.md.

``session.report`` holds a worker slot while it invokes ``session.scan``
on the same fleet. With few worker slots per node, reports can take every
slot and wait on scans that never get one: requests are launched but none
completes. Run from the repository root::

    python3 perfbench/known_defect.py [--layers]

``--layers`` switches on resilience and admission control as well.
"""

from __future__ import annotations

import argparse
import os
import sys

#: Offered requests per virtual second (a constant-rate "diurnal" shape).
RATE = 800.0


def main() -> None:
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--layers", action="store_true")
    args = parser.parse_args()
    sys.path.insert(0, os.path.join(os.path.dirname(os.path.dirname(
        os.path.abspath(__file__))), "src"))
    from repro.core import BokiCluster
    from repro.workloads import social
    from repro.workloads.harness import DiurnalShape

    cluster = BokiCluster(num_function_nodes=2, num_storage_nodes=3,
                          num_sequencer_nodes=3, workers_per_node=2, seed=0)
    specs = social.build_population(cluster, 8, 1_000_000)
    if args.layers:
        cluster.enable_resilience()
        cluster.enable_admission()
    cluster.boot()
    social.register_functions(cluster)
    run = social.run_social(
        cluster, specs, DiurnalShape(RATE, RATE, period=1.0), duration=1.0)
    tenants = run.per_tenant().values()
    done = run.result.extra["latency_series"].points
    last = max(t for t, _ in done) if done else 0.0
    print(f"rate {RATE:.0f}/s on 2 nodes x 2 workers, layers "
          f"{'on' if args.layers else 'off'}: launched "
          f"{run.result.extra['launched']}, completed {run.result.completed} "
          f"(the last at {last:.3f} virtual s of 1.5), errors "
          f"{run.result.errors}, shed {sum(t['shed'] for t in tenants)}")


if __name__ == "__main__":
    main()
