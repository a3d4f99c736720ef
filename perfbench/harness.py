"""Workloads, output checks and layer plans of the repository benchmark.

Two stacks are measured.  The serving workloads (``fleet-knee``,
``chat-prefix``, ``paged-preempt``) time ``run`` on a freshly built
engine or cluster, serving an open-loop arrival schedule drawn from the
seed.  The paper-stack workload (``table2-gla``) times the scoring half
of ``repro.accuracy.table2_row`` for GLA: an fp64 teacher and an mx8SR
student on all six proxy tasks plus a 4x384 perplexity stream.

Checks run outside the timed sections and raise :class:`CheckFailed`.
"""

from __future__ import annotations

import dataclasses
import gc
import json
import math
import pathlib
import statistics
import time

import numpy as np

from repro import accuracy
from repro.accuracy import TABLE2_TASKS, SyntheticLm, Table2Row, build_items
from repro.models import base as model_base
from repro.models.base import BaseLlm
from repro.models.config import Family
from repro.models.registry import spec_for
from repro.models.state_update import StateUpdateOp
from repro.perf.system import SystemKind, build_system
from repro.quant.formats import StorageFormat
from repro.serving import (
    BlockPool,
    ClusterEngine,
    DepthSketch,
    EngineStats,
    EngineTrace,
    IterationCostModel,
    PrefixBlockPool,
    PrefixCache,
    ReferenceEngine,
    RequestStats,
    Router,
    Scheduler,
    ServingEngine,
    ServingReport,
    SharedPrefixTier,
    SloSpec,
    SlotView,
    build_cluster,
    build_scheduler,
)
from repro.serving.experiments import build_arrival_trace
from repro.serving.routing import DisaggregatedRouter
from repro.workloads.requests import Trace

import hostclock
from tracing import Tracer

HERE = pathlib.Path(__file__).resolve().parent
#: teacher values recorded by ``record_table2.py``, one entry per data seed
EXPECTED_TABLE2 = HERE / "expected_table2.json"
#: ``table2-gla`` draws its data from ``seed % TABLE2_SEEDS`` so that every
#: seed has recorded teacher values to check against
TABLE2_SEEDS = 16
#: the ``serving_slo`` trial's default SLO
SLO = SloSpec(ttft_s=2.0, tpot_s=0.018)


class CheckFailed(Exception):
    """An output check failed; the message names the workload."""


def _check(ok: bool, workload: str, what: str) -> None:
    if not ok:
        raise CheckFailed(f"{workload}: {what}")


# -- serving workloads ------------------------------------------------------


@dataclasses.dataclass(frozen=True)
class ServingWorkload:
    name: str
    n_requests: int
    #: leading slice served by both the vectorized and reference engines
    check_requests: int
    qps: float
    arrival: str
    length_dist: str
    input_len: int
    output_len: int
    scheduler: str
    capacity_gib: float | None = None
    max_batch: int = 32
    replicas: int = 0  #: 0 = one bare engine, else a cluster
    router: str = "round-robin"

    def scaled(self, scale: float) -> int:
        """Request count at ``scale``: whole 4-turn sessions, at least 8."""
        return max(8, int(self.n_requests * scale) // 4 * 4)

    def trace(self, seed: int, n_requests: int) -> Trace:
        return build_arrival_trace(
            self.qps, n_requests, seed, self.arrival, 2.0,
            self.length_dist, self.input_len, self.output_len, 0.5,
        )

    def _scheduler(self, system, spec) -> Scheduler:
        return build_scheduler(
            self.scheduler, system, spec, max_batch=self.max_batch,
            capacity_bytes=(
                None if self.capacity_gib is None
                else self.capacity_gib * 2**30
            ),
        )

    def engine(self, reference: bool = False):
        system = build_system(SystemKind.PIMBA, "small")
        spec = spec_for("Zamba2", "small")
        if not self.replicas:
            cls = ReferenceEngine if reference else ServingEngine
            return cls(system, spec, self._scheduler(system, spec))
        if not reference:
            return build_cluster(
                system, spec, self.replicas, router=self.router,
                scheduler=self.scheduler, max_batch=self.max_batch,
            )
        replicas = [
            _ReferenceReplica(system, spec, self._scheduler(system, spec))
            for _ in range(self.replicas)
        ]
        return ClusterEngine(replicas, _ReferenceLeastLoaded(replicas))


class _ReferenceReplica(ReferenceEngine):
    """The scalar reference engine, callable the way a cluster calls it."""

    def serve(self, trace: Trace, collector=None) -> EngineTrace:
        assert collector is None
        return super().serve(trace)


class _ReferenceLeastLoaded(Router):
    """Least-outstanding routing written as its plain specification.

    Each replica is a virtual single-server queue; a request goes to the
    replica with the fewest predicted finishes after its arrival (ties to
    the lowest index), starts when that replica's backlog drains, and
    occupies it for one solo prefill plus ``output_len`` decode steps at
    its mid-generation context.
    """

    name = "least-loaded"

    def __init__(self, replicas):
        super().__init__(len(replicas))
        self.costs = [r.cost for r in replicas]
        self.reset()

    def reset(self) -> None:
        self.finishes = [[] for _ in range(self.n_replicas)]

    def choose(self, request) -> int:
        now = request.arrival_s
        counts = [
            sum(1 for f in finishes if f > now) for finishes in self.finishes
        ]
        replica = counts.index(min(counts))
        cost = self.costs[replica]
        service = cost.prefill_seconds(
            1, request.input_len
        ) + request.output_len * cost.decode_seconds(
            1, request.input_len + request.output_len // 2
        )
        busy = self.finishes[replica][-1] if self.finishes[replica] else 0.0
        self.finishes[replica].append(max(now, busy) + service)
        return replica


SERVING = {
    w.name: w
    for w in (
        ServingWorkload(
            "fleet-knee", n_requests=6000, check_requests=400, qps=300.0,
            arrival="poisson", length_dist="fixed", input_len=128,
            output_len=128, scheduler="fcfs", max_batch=64, replicas=8,
            router="least-loaded",
        ),
        ServingWorkload(
            "chat-prefix", n_requests=1000, check_requests=200, qps=1.0,
            arrival="multiturn", length_dist="fixed", input_len=1024,
            output_len=64, scheduler="prefix", capacity_gib=14.0,
        ),
        ServingWorkload(
            "paged-preempt", n_requests=1000, check_requests=200, qps=4.0,
            arrival="poisson", length_dist="lognormal", input_len=128,
            output_len=384, scheduler="paged", capacity_gib=10.5,
        ),
    )
}


def _sim_counts(report: ServingReport) -> dict:
    """Simulated outcomes that must repeat exactly for a given seed."""
    return {
        "sim.iterations": report.n_iterations,
        "sim.prefills": report.n_prefills,
        "sim.preemptions": report.n_preemptions,
        "sim.cache_hit_rate": (
            report.prefix_cache_hit_rate
            if report.cache_hit_tokens or report.cache_miss_tokens
            else 0.0
        ),
        "sim.cache_evictions": report.cache_evictions,
        "sim.goodput_rps": report.goodput(SLO),
        "sim.ttft_p99_s": report.ttft_percentile(99),
    }


def _exact_counts(report: ServingReport) -> tuple:
    """Counters that ``run`` and ``serve`` must agree on at any size (the
    latency percentiles are sampled past the sketch capacity)."""
    return (
        report.n_requests, report.generated_tokens, report.n_iterations,
        report.n_prefills, report.n_preemptions, report.cache_hit_tokens,
        report.cache_miss_tokens, report.cache_evictions,
    )


def check_serving(wl: ServingWorkload, trace: Trace, report) -> None:
    """Every request completes once, decode tokens add up, and a leading
    slice is ``EngineTrace``-equal between vectorized and reference."""
    name = wl.name
    full = wl.engine().serve(trace)
    merged = full.merged() if wl.replicas else full
    ids = [t.request_id for t in merged.timings]
    _check(
        sorted(ids) == sorted(r.request_id for r in trace.requests),
        name, "not every request completed exactly once",
    )
    _check(
        sum(merged.decode_tokens) == sum(r.output_len for r in trace.requests),
        name, "decode tokens differ from the sum of output lengths",
    )
    _check(
        _exact_counts(merged.report()) == _exact_counts(report),
        name, "run() and serve() disagree on the simulated counts",
    )
    head = Trace(trace.requests[: wl.check_requests])
    fast = wl.engine().serve(head)
    slow = wl.engine(reference=True).serve(head)
    _check(fast == slow, name, "engine differs from the reference engine")


def serving_setup(wl: ServingWorkload, seed: int, n_requests: int):
    t0 = time.perf_counter()
    trace = wl.trace(seed, n_requests)
    t1 = time.perf_counter()
    engine = wl.engine()
    t2 = time.perf_counter()
    return trace, engine, t1 - t0, t2 - t1


def _timed_run(engine, trace: Trace):
    gc.collect()
    t0 = time.perf_counter()
    report = engine.run(trace)
    return report, time.perf_counter() - t0


def measure_serving(wl: ServingWorkload, seed: int, seconds: float,
                    scale: float) -> dict:
    """Set up and run repeatedly for ``seconds``; medians of the reps, in
    reference seconds (see :mod:`hostclock`)."""
    n = wl.scaled(scale)
    setups, walls, reports = [], [], []
    start = time.perf_counter()
    while not walls or time.perf_counter() - start < seconds:
        (trace, engine, _, _), setup = hostclock.timed(
            serving_setup, wl, seed, n
        )
        gc.collect()
        report, wall = hostclock.timed(engine.run, trace)
        setups.append(setup)
        walls.append(wall)
        reports.append(report)
    counts = [_sim_counts(r) for r in reports]
    _check(
        all(c == counts[0] for c in counts), wl.name,
        "repeated runs of one seed disagree",
    )
    completed = sum(r.n_requests for r in reports)
    _check(completed == n * len(reports), wl.name, "requests went missing")
    check_serving(wl, trace, reports[0])
    return {
        "setup_s": statistics.median(setups),
        "throughput": statistics.median(n / w for w in walls),
        "attempted": n * len(reports),
        "failed": n * len(reports) - completed,
    }


def serving_plan(tracer: Tracer) -> dict:
    """Wrap the serving layers; returns live state the hooks fill."""
    costs: dict[int, IterationCostModel] = {}

    def admitted(counts, args, result):
        counts["admit_yield"] += result > 0

    def extended(counts, args, result):
        counts["extend_fail"] += not result

    def run_steps(counts, args, result):
        counts["run_steps"] += len(result[1])

    def priced(counts, args, result):
        counts["cost_lookups"] += 1
        costs[id(args[0])] = args[0]

    w, tree = tracer.wrap, tracer.wrap_tree
    tree(Router, "assign", "routing.assign", span=True)
    w(DisaggregatedRouter, "assign_pairs", "routing.assign", span=True)
    for attr in ("run", "serve", "serve_stats"):
        w(ServingEngine, attr, "engine", span=True)
    for attr in ("run", "serve"):
        w(ClusterEngine, attr, "engine", span=True)
    tree(Scheduler, "admit", "schedulers.admit", span=True, hook=admitted)
    tree(Scheduler, "prepare_iteration", "schedulers.prepare_iteration",
         span=True)
    tree(Scheduler, "decode_run", "schedulers.decode_run", span=True,
         hook=run_steps)
    for attr in ("on_admit", "can_restore", "on_restore", "release"):
        tree(Scheduler, attr, "schedulers.hooks")
    tree(BlockPool, "free_bytes", "memory.free_bytes")
    tree(BlockPool, "extend", "memory.extend", hook=extended)
    tree(BlockPool, "allocate", "memory.allocate")
    w(PrefixBlockPool, "allocate_reusing", "memory.allocate")
    tree(BlockPool, "release", "memory.release")
    w(PrefixCache, "match", "memory.prefix_match")
    w(PrefixCache, "evict_lru", "memory.prefix_evict")
    for owner, attr in (
        (BlockPool, "fits"), (BlockPool, "feasible"),
        (PrefixBlockPool, "publish"), (PrefixCache, "publish"),
        (PrefixCache, "acquire"), (PrefixCache, "release"),
        (SharedPrefixTier, "publish"), (SharedPrefixTier, "resolve"),
    ):
        w(owner, attr, "memory.other")
    w(IterationCostModel, "decode_seconds", "costs.decode", hook=priced)
    w(IterationCostModel, "prefill_seconds", "costs.prefill", hook=priced)
    w(IterationCostModel, "chunk_prefill_seconds", "costs.prefill")
    w(SlotView, "from_requests", "slots.from_requests")
    w(RequestStats, "observe", "metrics.observe")
    w(DepthSketch, "observe", "metrics.depth_observe")
    w(EngineStats, "report", "metrics.report")
    w(EngineStats, "merge", "metrics.report")
    w(ServingReport, "from_timings", "metrics.report")
    return {"costs": costs}


def serving_layers(tracer: Tracer, state: dict) -> dict:
    s, n, c = tracer.layer_self_s, tracer.layer_calls, tracer.counts
    admits = n("schedulers.admit")
    extends = n("memory.extend")
    runs = n("schedulers.decode_run")
    lookups = c["cost_lookups"]
    points = sum(m.n_priced_points for m in state["costs"].values())
    return {
        "routing.assign_s": s("routing.assign"),
        "schedulers.admit_s": s("schedulers.admit"),
        "schedulers.admit_calls": admits,
        "schedulers.admit_yield": c["admit_yield"] / admits if admits else 0.0,
        "schedulers.prepare_iteration_s": s("schedulers.prepare_iteration"),
        "schedulers.prepare_iteration_calls": n("schedulers.prepare_iteration"),
        "schedulers.decode_run_s": s("schedulers.decode_run"),
        "schedulers.decode_run_calls": runs,
        "schedulers.hooks_s": s("schedulers.hooks"),
        "slots.from_requests_s": s("slots.from_requests"),
        "memory.free_bytes_s": s("memory.free_bytes"),
        "memory.free_bytes_calls": n("memory.free_bytes"),
        "memory.extend_s": s("memory.extend"),
        "memory.extend_calls": extends,
        "memory.extend_fail_ratio": (
            c["extend_fail"] / extends if extends else 0.0
        ),
        "memory.allocate_s": s("memory.allocate"),
        "memory.release_s": s("memory.release"),
        "memory.prefix_match_s": s("memory.prefix_match"),
        "memory.prefix_evict_s": s("memory.prefix_evict"),
        "memory.prefix_evict_calls": n("memory.prefix_evict"),
        "memory.other_s": s("memory.other"),
        "costs.decode_s": s("costs.decode"),
        "costs.decode_calls": n("costs.decode"),
        "costs.prefill_s": s("costs.prefill"),
        "costs.prefill_calls": n("costs.prefill"),
        "costs.memo_hit_ratio": 1.0 - points / lookups if lookups else 0.0,
        "metrics.observe_s": s("metrics.observe"),
        "metrics.depth_observe_s": s("metrics.depth_observe"),
        "metrics.report_s": s("metrics.report"),
        "engine.self_s": s("engine"),
        "sim.mean_run_steps": c["run_steps"] / runs if runs else 0.0,
    }


def trace_serving(wl: ServingWorkload, seed: int, scale: float,
                  out_dir: pathlib.Path) -> dict:
    """Untraced run, traced run, traced half-size run, then the checks."""
    n = wl.scaled(scale)
    trace, engine, trace_s, build_s = serving_setup(wl, seed, n)
    plain, wall = _timed_run(engine, trace)

    def traced(requests: Trace):
        engine = wl.engine()
        tracer = Tracer()
        state = serving_plan(tracer)
        gc.collect()
        try:
            report = tracer.call("harness", engine.run, requests)
        finally:
            tracer.unwrap()
        return tracer, state, report

    slowdown = hostclock.slowdown()
    tracer, state, report = traced(trace)
    _check(
        _sim_counts(report) == _sim_counts(plain), wl.name,
        "tracing changed the simulated outcome",
    )
    half, _, _ = traced(Trace(trace.requests[: n // 2]))
    check_serving(wl, trace, plain)
    tracer.dump(out_dir / f"{wl.name}-seed{seed}.trace.json")
    metrics = serving_layers(tracer, state)
    metrics.update(_sim_counts(plain))
    metrics.update(
        _trace_totals(wl.name, tracer, wall, half.total_self_s())
    )
    metrics["setup.trace_s"] = trace_s
    metrics["setup.build_s"] = build_s
    metrics["host.slowdown"] = slowdown
    metrics["attempted"] = n
    return metrics


def _trace_totals(name: str, tracer: Tracer, untraced_wall: float,
                  half_wall: float | None) -> dict:
    traced_wall = tracer.total_self_s()
    harness = [d for (layer, _), d in tracer.self_s.items()
               if layer == "harness"]
    _check(len(harness) == 1, name, "traced run has no single root")
    return {
        "harness.self_s": harness[0],
        "trace.wall_s": traced_wall,
        "trace_overhead": traced_wall / untraced_wall,
        "scale.exponent": (
            0.0 if half_wall is None else math.log2(traced_wall / half_wall)
        ),
    }


# -- table2-gla ---------------------------------------------------------------

#: items per proxy task: one flipped answer moves the geomean delta by
#: about 1 / (6 * TABLE2_ITEMS), far inside its 0.06 bound
TABLE2_ITEMS = 12


@dataclasses.dataclass
class Table2Inputs:
    lm: SyntheticLm
    eval_tokens: np.ndarray
    items: dict
    data_seed: int
    n_items: int

    @property
    def scored_positions(self) -> int:
        """Token positions one scoring pass scores, over both models."""
        per_model = sum(
            len(item.context) + len(choice) - 1
            for items in self.items.values()
            for item in items
            for choice in item.choices
        ) + self.eval_tokens.shape[0] * (self.eval_tokens.shape[1] - 1)
        return 2 * per_model


def table2_setup(seed: int, scale: float):
    """Model, eval stream and items, in ``table2_row``'s RNG order."""
    data_seed = seed % TABLE2_SEEDS
    n_items = max(1, round(TABLE2_ITEMS * scale))
    t0 = time.perf_counter()
    lm = SyntheticLm(Family.GLA, seed=1)
    t1 = time.perf_counter()
    rng = np.random.default_rng(data_seed)
    eval_tokens = lm.sample_stream(4, 384, rng)
    items = {task.name: build_items(lm, task, n_items, rng)
             for task in TABLE2_TASKS}
    t2 = time.perf_counter()
    inputs = Table2Inputs(lm, eval_tokens, items, data_seed, n_items)
    return inputs, t2 - t1, t1 - t0


def table2_eval(inputs: Table2Inputs) -> Table2Row:
    """The timed part of ``table2_row``: score every task, then perplexity.

    The student is built here because its stochastic-rounding stream is
    consumed by scoring: each pass needs a fresh one.
    """
    lm = inputs.lm
    student = lm.build_student("mx8SR")
    gpu, pimba = {}, {}
    for task in TABLE2_TASKS:
        items = inputs.items[task.name]
        gpu[task.name] = accuracy.task_accuracy(
            lm.teacher, items, lm.temperature
        )
        pimba[task.name] = accuracy.task_accuracy(
            student, items, lm.temperature
        )
    return Table2Row(
        model=lm.family.value,
        gpu_perplexity=accuracy.evaluate_perplexity(
            lm.teacher, inputs.eval_tokens, lm.temperature
        ),
        pimba_perplexity=accuracy.evaluate_perplexity(
            student, inputs.eval_tokens, lm.temperature
        ),
        gpu_accuracy=gpu,
        pimba_accuracy=pimba,
    )


def expected_key(inputs: Table2Inputs) -> str:
    return f"{inputs.data_seed}:{inputs.n_items}"


def check_table2(inputs: Table2Inputs, row: Table2Row,
                 expected: dict | None = None) -> None:
    """Teacher matches its recorded values; the student stays inside the
    ``benchmarks/test_table2_accuracy.py`` bounds."""
    name = "table2-gla"
    if expected is None:
        expected = json.loads(EXPECTED_TABLE2.read_text())
    want = expected.get(expected_key(inputs))
    _check(want is not None, name,
           f"no recorded teacher values for {expected_key(inputs)}")
    _check(
        abs(row.gpu_perplexity - want["perplexity"]) <= 1e-9, name,
        f"teacher perplexity {row.gpu_perplexity!r} != recorded "
        f"{want['perplexity']!r}",
    )
    for task, acc in row.gpu_accuracy.items():
        _check(
            abs(acc - want["accuracy"][task]) <= 1e-9, name,
            f"teacher accuracy on {task} {acc!r} != recorded "
            f"{want['accuracy'][task]!r}",
        )
    _check(row.pimba_perplexity < row.gpu_perplexity * 1.08, name,
           "student perplexity exceeds 1.08x the teacher's")
    _check(abs(row.geomean_delta) < 0.06, name,
           f"geomean accuracy delta {row.geomean_delta:+.4f} exceeds 0.06")
    _check(row.gpu_geomean > 0.55 and row.pimba_geomean > 0.55, name,
           "geomean accuracy at or below 0.55")


def measure_table2(seed: int, seconds: float, scale: float) -> dict:
    """One set-up, then scoring passes for ``seconds`` (at least one), in
    reference seconds (see :mod:`hostclock`)."""
    (inputs, _, _), setup = hostclock.timed(table2_setup, seed, scale)
    passes, rows = [], []
    start = time.perf_counter()
    while not passes or time.perf_counter() - start < seconds:
        gc.collect()
        row, pass_s = hostclock.timed(table2_eval, inputs)
        passes.append(pass_s)
        rows.append(row)
    _check(all(row == rows[0] for row in rows), "table2-gla",
           "repeated passes disagree")
    check_table2(inputs, rows[0])
    return {
        "setup_s": setup,
        "throughput": statistics.median(
            inputs.scored_positions / pass_s for pass_s in passes
        ),
        "attempted": _table2_attempts(inputs) * len(rows),
        "failed": 0,
    }


def _table2_attempts(inputs: Table2Inputs) -> int:
    """Items scored by both models, plus the two perplexity passes."""
    return 2 * sum(len(items) for items in inputs.items.values()) + 2


def table2_plan(tracer: Tracer) -> None:
    def rows(counts, args, result):
        counts["step_rows"] += len(args[1])

    def values(counts, args, result):
        counts["quant_values"] += np.size(args[1])

    tracer.wrap(BaseLlm, "step", "models.step", span=True, hook=rows)
    tracer.wrap(StateUpdateOp, "__call__", "models.state_update")
    tracer.wrap(model_base, "swiglu_ffn", "models.ffn")
    tracer.wrap(model_base, "rms_norm", "models.rms_norm")
    tracer.wrap_tree(StorageFormat, "quantize", "quant.quantize",
                     hook=values)
    tracer.wrap(accuracy, "task_accuracy", "accuracy.task_accuracy",
                span=True)
    tracer.wrap(accuracy, "evaluate_perplexity", "accuracy.perplexity",
                span=True)


def trace_table2(seed: int, scale: float, out_dir: pathlib.Path) -> dict:
    inputs, trace_s, build_s = table2_setup(seed, scale)
    gc.collect()
    t0 = time.perf_counter()
    plain = table2_eval(inputs)
    wall = time.perf_counter() - t0
    tracer = Tracer()
    table2_plan(tracer)
    gc.collect()
    slowdown = hostclock.slowdown()
    try:
        row = tracer.call("harness", table2_eval, inputs)
    finally:
        tracer.unwrap()
    _check(row == plain, "table2-gla", "tracing changed the scores")
    check_table2(inputs, plain)
    tracer.dump(out_dir / f"table2-gla-seed{seed}.trace.json")
    s, n, c = tracer.layer_self_s, tracer.layer_calls, tracer.counts
    steps = n("models.step")
    metrics = {
        "models.step_s": s("models.step"),
        "models.step_calls": steps,
        "models.step_rows": c["step_rows"] / steps,
        "models.state_update_s": s("models.state_update"),
        "models.ffn_s": s("models.ffn"),
        "models.rms_norm_s": s("models.rms_norm"),
        "quant.quantize_s": s("quant.quantize"),
        "quant.quantize_calls": n("quant.quantize"),
        "quant.values": c["quant_values"],
        "accuracy.task_accuracy_s": s("accuracy.task_accuracy"),
        "accuracy.perplexity_s": s("accuracy.perplexity"),
        "accuracy.computed_token_ratio": (
            c["step_rows"] / inputs.scored_positions
        ),
        "setup.trace_s": trace_s,
        "setup.build_s": build_s,
        "host.slowdown": slowdown,
        "attempted": _table2_attempts(inputs),
    }
    metrics.update(_trace_totals("table2-gla", tracer, wall, None))
    return metrics
