"""Prefix reuse: the radix cache's goodput and TTFT win on multi-turn chat.

Multi-turn sessions re-send their growing conversation as each turn's
prompt, so the paged baseline re-prefills history it already computed.
The prefix cache serves that history from shared pool blocks and prices
only the uncached suffix — and since the ``prefix`` scheduler is
bit-exact with ``paged`` whenever no prefix hits (pinned by the
equivalence suite), every gap in this figure is attributable to reuse:

* at light load both policies meet the 0.5 s TTFT SLO on every request
  — reuse shortens prefills but attainment is already 1.0;
* at and past the saturation knee (~1 session/s), the prefix policy
  *strictly* beats paged on goodput at every load — the acceptance
  shape — because the skipped history keeps tail TTFT inside the SLO;
* the cache earns its keep: hit rate stays above 0.5 at every load
  (most prompt tokens of a deep session are history), which is the
  number the CI perf gate watches via ``prefix_cache_hit_rate``.
"""

from conftest import engine_runner, print_table, run_once

from repro.serving.experiments import (
    PREFIX_QPS_GRID,
    group_by,
    prefix_cache_spec,
    prefix_reuse_render,
)


def _reuse_curves():
    return group_by(engine_runner().run(prefix_cache_spec()), "scheduler", "qps")


def test_radix_cache_beats_paged_at_the_knee(benchmark):
    data = run_once(benchmark, _reuse_curves)
    header, rows = prefix_reuse_render(data)
    print_table(
        "Prefix reuse: radix cache vs paged-without-reuse on "
        "multi-turn chat",
        header, rows,
    )

    paged = dict(data["paged"])
    prefix = dict(data["prefix"])
    light = [q for q in PREFIX_QPS_GRID if q < 1.0]
    knee_on = [q for q in PREFIX_QPS_GRID if q >= 1.0]
    assert light and knee_on

    # The cache actually engages: over half of all prompt tokens are
    # served from shared blocks at every session rate.
    for q in PREFIX_QPS_GRID:
        assert prefix[q]["prefix_cache_hit_rate"] > 0.5
        assert prefix[q]["cache_hit_tokens"] > 0

    # The baseline never touches a cache — its payload keeps the
    # historical shape (no cache keys), so the gap below is pure reuse.
    for q in PREFIX_QPS_GRID:
        assert "cache_hit_tokens" not in paged[q]

    # Light load: the SLO never binds, both policies serve everything.
    for q in light:
        assert paged[q]["slo_attainment"] == 1.0
        assert prefix[q]["slo_attainment"] == 1.0

    # At the knee and beyond: skipping the re-prefilled history keeps
    # tail TTFT inside the SLO, so prefix strictly wins goodput at
    # every saturated load (the acceptance criterion).
    for q in knee_on:
        assert prefix[q]["goodput_rps"] > paged[q]["goodput_rps"]

    # The mechanism is latency, not throughput accounting: the cache
    # never worsens the TTFT tail at any load.
    for q in PREFIX_QPS_GRID:
        assert prefix[q]["ttft_p99_s"] <= paged[q]["ttft_p99_s"]
