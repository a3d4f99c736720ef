"""Figure definitions for the CLI: sweep + assemble + render per figure.

A :class:`Figure` binds one catalog sweep to the reshaping and rendering
that turn its raw trial results into the table the paper prints.  The
benchmark tests use the same ``spec``/``assemble`` pair, so ``repro figure
fig12`` and ``pytest benchmarks/test_fig12_throughput.py`` are two views of
the identical computation (and share the identical cache entries).
"""

from __future__ import annotations

import dataclasses
from collections.abc import Callable

from repro.experiments import catalog
from repro.experiments.runner import RunReport
from repro.experiments.spec import ExperimentSpec
from repro.serving import experiments as serving_experiments


@dataclasses.dataclass(frozen=True)
class Figure:
    """One reproducible figure/table of the paper."""

    name: str
    title: str
    spec: Callable[[bool], ExperimentSpec]
    assemble: Callable[[RunReport], object]
    render: Callable[[object], tuple[list[str], list[list]]]

    def table(self, report: RunReport) -> tuple[str, list[str], list[list]]:
        """Assemble a report and return ``(title, header, rows)``."""
        header, rows = self.render(self.assemble(report))
        return self.title, header, rows


def _render_fig12(data: dict) -> tuple[list[str], list[list]]:
    header = ["scale", "model", "batch", *catalog.FIG12_SYSTEMS]
    rows = []
    for (scale, model, batch), by_system in data.items():
        values = [by_system[system] for system in catalog.FIG12_SYSTEMS]
        rows.append([scale, model, batch, *values])
    return header, rows


def _render_fig06(assembled: tuple[dict, float]) -> tuple[list[str], list[list]]:
    points, base_ppl = assembled
    header = ["format", "area overhead %", "perplexity", "vs fp64"]
    rows = [
        [fmt, area, ppl, f"{100 * (ppl / base_ppl - 1):+.1f}%"]
        for fmt, (area, ppl) in points.items()
    ]
    return header, rows


def _render_table3(data: dict) -> tuple[list[str], list[list]]:
    header = [
        "design",
        "compute mm2",
        "buffer mm2",
        "total mm2",
        "overhead %",
        "power mW",
    ]
    rows = []
    for design, d in data.items():
        rows.append(
            [
                design,
                d["compute_mm2"],
                d["buffer_mm2"],
                d["total_mm2"],
                d["overhead_pct"],
                d["power_mw"],
            ]
        )
    return header, rows


FIGURES: dict[str, Figure] = {
    "fig12": Figure(
        name="fig12",
        title="Fig. 12: normalized generation throughput (vs. GPU baseline)",
        spec=catalog.fig12_spec,
        assemble=catalog.fig12_assemble,
        render=_render_fig12,
    ),
    "fig06": Figure(
        name="fig06",
        title="Fig. 6: area vs perplexity (Mamba-2)",
        spec=catalog.fig06_spec,
        assemble=catalog.fig06_assemble,
        render=_render_fig06,
    ),
    "table3": Figure(
        name="table3",
        title="Table 3: unit area and power",
        spec=catalog.table3_spec,
        assemble=catalog.table3_assemble,
        render=_render_table3,
    ),
    "latency_throughput": Figure(
        name="latency_throughput",
        title="Latency-throughput: SLO metrics under rising load (per system)",
        spec=serving_experiments.serving_spec,
        assemble=lambda report: serving_experiments.group_by(
            report, "system", "qps"
        ),
        render=serving_experiments.serving_render,
    ),
    "scaling": Figure(
        name="scaling",
        title="Cluster scaling: goodput and TTFT p99 vs replicas (per router)",
        spec=serving_experiments.scaling_spec,
        assemble=lambda report: serving_experiments.group_by(
            report, "router", "replicas"
        ),
        render=serving_experiments.scaling_render,
    ),
    "preemption_tradeoff": Figure(
        name="preemption_tradeoff",
        title=(
            "Paged KV: goodput gained by block-granular reservation vs "
            "latency lost to preemption thrashing (per policy and load)"
        ),
        spec=serving_experiments.preemption_tradeoff_spec,
        assemble=lambda report: serving_experiments.group_by(
            report, "scheduler", "qps"
        ),
        render=serving_experiments.preemption_tradeoff_render,
    ),
    "prefix_reuse": Figure(
        name="prefix_reuse",
        title=(
            "Prefix reuse: goodput and TTFT of the radix cache vs "
            "paged-without-reuse over multi-turn chat (per session rate)"
        ),
        spec=serving_experiments.prefix_cache_spec,
        assemble=lambda report: serving_experiments.group_by(
            report, "scheduler", "qps"
        ),
        render=serving_experiments.prefix_reuse_render,
    ),
    "disaggregation": Figure(
        name="disaggregation",
        title=(
            "Prefill/decode disaggregation: split vs colocated fleets "
            "under rising prefill-heavy load (per fleet)"
        ),
        spec=serving_experiments.disaggregation_spec,
        assemble=lambda report: serving_experiments.group_by(
            report, "nodes", "qps"
        ),
        render=serving_experiments.disaggregation_render,
    ),
    "cross_replica_prefix": Figure(
        name="cross_replica_prefix",
        title=(
            "Cross-replica prefix reuse: router face-off over the shared "
            "KV tier on multi-turn chat (per replica count)"
        ),
        spec=serving_experiments.cross_replica_prefix_spec,
        assemble=lambda report: serving_experiments.group_by(
            report, "router", "replicas"
        ),
        render=serving_experiments.cross_replica_prefix_render,
    ),
    "utilization_timeline": Figure(
        name="utilization_timeline",
        title=(
            "Utilization timeline: per-window TTFT/occupancy/queue depth "
            "of the paged-vs-memory face-off at the knee"
        ),
        spec=serving_experiments.utilization_timeline_spec,
        assemble=serving_experiments.utilization_timeline_assemble,
        render=serving_experiments.utilization_timeline_render,
    ),
    "ttft_tradeoff": Figure(
        name="ttft_tradeoff",
        title=(
            "Prefill shaping: TTFT p99 vs TPOT p99 over the chunk-budget "
            "grid (per system and scheduler)"
        ),
        spec=serving_experiments.ttft_tradeoff_spec,
        assemble=lambda report: serving_experiments.group_by(
            report, "system", "scheduler", "chunk_budget"
        ),
        render=serving_experiments.ttft_tradeoff_render,
    ),
}
