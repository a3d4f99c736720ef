"""The repository benchmark: host throughput of both stacks.

Run from the root of a checkout::

    python3 perfbench/run.py --workload fleet-knee --seed 0 --seconds 10 \
        --trace 0

``--trace 0`` measures the end-to-end metrics with no tracing; ``--trace
1`` runs the workload once untraced and once traced and prints the
per-layer metrics (and writes the spans under ``.perfbench/``).  The last
line of standard output is one JSON object; a failed output check exits
with status 1 and names the workload, without printing it.  See
``perfbench/README.md`` for the workloads and the metrics.
"""

import argparse
import importlib
import json
import os
import pathlib
import resource
import sys

ROOT = pathlib.Path(__file__).resolve().parent.parent
WORKLOADS = ("fleet-knee", "chat-prefix", "paged-preempt", "table2-gla")

#: (name, unit) of every end-to-end metric, printed with ``--trace 0``
END_TO_END = (
    ("setup_s", "s"),
    ("host_throughput", "1/s"),
    ("peak_rss_mib", "MiB"),
)

#: (name, unit) of every per-layer metric, printed with ``--trace 1``;
#: a layer a workload never enters reads 0
PER_LAYER = (
    ("routing.assign_s", "s"),
    ("schedulers.admit_s", "s"),
    ("schedulers.admit_calls", "count"),
    ("schedulers.admit_yield", "ratio"),
    ("schedulers.prepare_iteration_s", "s"),
    ("schedulers.prepare_iteration_calls", "count"),
    ("schedulers.decode_run_s", "s"),
    ("schedulers.decode_run_calls", "count"),
    ("schedulers.hooks_s", "s"),
    ("slots.from_requests_s", "s"),
    ("memory.free_bytes_s", "s"),
    ("memory.free_bytes_calls", "count"),
    ("memory.extend_s", "s"),
    ("memory.extend_calls", "count"),
    ("memory.extend_fail_ratio", "ratio"),
    ("memory.allocate_s", "s"),
    ("memory.release_s", "s"),
    ("memory.prefix_match_s", "s"),
    ("memory.prefix_evict_s", "s"),
    ("memory.prefix_evict_calls", "count"),
    ("memory.other_s", "s"),
    ("costs.decode_s", "s"),
    ("costs.decode_calls", "count"),
    ("costs.prefill_s", "s"),
    ("costs.prefill_calls", "count"),
    ("costs.memo_hit_ratio", "ratio"),
    ("metrics.observe_s", "s"),
    ("metrics.depth_observe_s", "s"),
    ("metrics.report_s", "s"),
    ("engine.self_s", "s"),
    ("models.step_s", "s"),
    ("models.step_calls", "count"),
    ("models.step_rows", "count"),
    ("models.state_update_s", "s"),
    ("models.ffn_s", "s"),
    ("models.rms_norm_s", "s"),
    ("quant.quantize_s", "s"),
    ("quant.quantize_calls", "count"),
    ("quant.values", "count"),
    ("accuracy.task_accuracy_s", "s"),
    ("accuracy.perplexity_s", "s"),
    ("accuracy.computed_token_ratio", "ratio"),
    ("harness.self_s", "s"),
    ("setup.trace_s", "s"),
    ("setup.build_s", "s"),
    ("sim.iterations", "count"),
    ("sim.prefills", "count"),
    ("sim.preemptions", "count"),
    ("sim.cache_hit_rate", "ratio"),
    ("sim.cache_evictions", "count"),
    ("sim.goodput_rps", "1/s"),
    ("sim.ttft_p99_s", "s"),
    ("sim.mean_run_steps", "count"),
    ("host.slowdown", "ratio"),
    ("trace.wall_s", "s"),
    ("trace_overhead", "ratio"),
    ("scale.exponent", "exponent"),
)


def parse_args(argv):
    parser = argparse.ArgumentParser(description=__doc__.split("\n\n")[0])
    parser.add_argument("--workload", required=True, choices=WORKLOADS)
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), required=True)
    parser.add_argument(
        "--scale", type=float, default=1.0,
        help="multiply the workload's request or item count (smoke tests)",
    )
    return parser.parse_args(argv)


def main(argv=None) -> int:
    args = parse_args(argv)
    if not (ROOT / "src" / "repro").is_dir():
        print(f"perfbench: no source tree at {ROOT / 'src'}", file=sys.stderr)
        return 2
    # One BLAS thread: the stacks are interpreter-bound, and a second
    # thread only adds scheduling noise on a shared machine.
    for var in ("OPENBLAS_NUM_THREADS", "OMP_NUM_THREADS", "MKL_NUM_THREADS"):
        os.environ.setdefault(var, "1")
    sys.path.insert(0, str(ROOT / "src"))
    import hostclock

    harness, import_s = hostclock.timed(importlib.import_module, "harness")
    serving = harness.SERVING.get(args.workload)
    try:
        if args.trace:
            out_dir = ROOT / ".perfbench"
            out_dir.mkdir(exist_ok=True)
            if serving is not None:
                found = harness.trace_serving(
                    serving, args.seed, args.scale, out_dir
                )
            else:
                found = harness.trace_table2(args.seed, args.scale, out_dir)
            metrics = {
                name: {"value": float(found.get(name, 0.0)), "unit": unit}
                for name, unit in PER_LAYER
            }
            attempted, failed = found["attempted"], 0
        else:
            if serving is not None:
                found = harness.measure_serving(
                    serving, args.seed, args.seconds, args.scale
                )
            else:
                found = harness.measure_table2(
                    args.seed, args.seconds, args.scale
                )
            peak = resource.getrusage(resource.RUSAGE_SELF).ru_maxrss
            values = {
                "setup_s": import_s + found["setup_s"],
                "host_throughput": found["throughput"],
                "peak_rss_mib": peak / 1024,
            }
            metrics = {
                name: {"value": values[name], "unit": unit}
                for name, unit in END_TO_END
            }
            attempted, failed = found["attempted"], found["failed"]
    except harness.CheckFailed as err:
        print(f"perfbench: output check failed on {err}", file=sys.stderr)
        return 1
    print(json.dumps({
        "correct": True,
        "attempted": attempted,
        "failed": failed,
        "metrics": metrics,
    }))
    return 0


if __name__ == "__main__":
    sys.exit(main())
