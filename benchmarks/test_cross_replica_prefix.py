"""Cross-replica prefix reuse: the router face-off over the shared tier.

The shipped multi-turn corpus is replayed on prefix-caching replicas
joined by one :class:`~repro.serving.memory.SharedPrefixTier`, under a
load where a single replica misses the tight TTFT SLO on half the
turns — so the knee of the scaling curve sits at two replicas, exactly
where routing policy decides whether session history is reused, moved,
or recomputed:

* **replicas = 1** is the control: every router is the identity there
  and the tier has nobody to talk to, so all three rows coincide;
* **round-robin** scatters each session's turns and leans on the tier —
  it records the most KV transfers and the lowest local hit rate;
* **affinity** keeps every hit local (zero transfers, the single-engine
  hit rate at every fleet size) but routes blind to load, so its
  goodput flattens while the balanced routers keep scaling;
* **cache-aware** folds the priced prefix credit into the backlog
  estimate: at and past the knee it matches or beats both — the
  acceptance criterion is cache-aware >= affinity on SLO goodput.
"""

from conftest import engine_runner, print_table, run_once

from repro.serving.experiments import (
    CROSS_REPLICA_GRID,
    CROSS_REPLICA_ROUTERS,
    cross_replica_prefix_render,
    cross_replica_prefix_spec,
    group_by,
)

KNEE = 2  # replicas where one node saturates but the fleet does not


def _tier_curves():
    report = engine_runner().run(cross_replica_prefix_spec())
    return group_by(report, "router", "replicas")


def test_cache_aware_routing_wins_at_the_knee(benchmark):
    data = run_once(benchmark, _tier_curves)
    header, rows = cross_replica_prefix_render(data)
    print_table(
        "Cross-replica prefix reuse: routers over the shared KV tier "
        "on multi-turn chat",
        header,
        rows,
    )

    by = {r: dict(data[r]) for r in CROSS_REPLICA_ROUTERS}

    # One replica: routing is the identity, so every policy serves the
    # identical simulation and the tier never engages.
    base = by["round-robin"][1]
    for router in CROSS_REPLICA_ROUTERS:
        assert by[router][1]["goodput_rps"] == base["goodput_rps"]
        assert by[router][1].get("remote_hit_tokens", 0) == 0
    assert base["slo_attainment"] < 1.0  # a lone node is saturated

    # Affinity keeps every turn home: the single-engine hit rate at
    # every fleet size, and never a byte over the wire.
    pinned_rate = by["affinity"][1]["prefix_cache_hit_rate"]
    assert pinned_rate > 0.5
    for n in CROSS_REPLICA_GRID:
        assert by["affinity"][n]["prefix_cache_hit_rate"] == pinned_rate
        assert by["affinity"][n].get("kv_transfers", 0) == 0

    # Round-robin scatters sessions, so past one replica it must pull
    # history across the fleet — the priced transfers the tier exists
    # for — and its local hit rate drops below affinity's.
    for n in [n for n in CROSS_REPLICA_GRID if n >= KNEE]:
        scattered = by["round-robin"][n]
        assert scattered["remote_hit_tokens"] > 0
        assert scattered["kv_transfers"] > 0
        assert scattered["remote_prefix_hit_rate"] > 0.0
        assert scattered["prefix_cache_hit_rate"] < pinned_rate

    # The acceptance shape: cache-aware >= affinity on SLO goodput at
    # the saturation knee (strictly better there — affinity's blindness
    # to load is exactly what the warmth-priced backlog fixes), and it
    # never loses to either policy at any fleet size.
    assert (
        by["cache-aware"][KNEE]["goodput_rps"]
        > by["affinity"][KNEE]["goodput_rps"]
    )
    for n in CROSS_REPLICA_GRID:
        cache_aware = by["cache-aware"][n]
        assert cache_aware["goodput_rps"] >= by["affinity"][n]["goodput_rps"]
        assert (
            cache_aware["goodput_rps"]
            >= by["round-robin"][n]["goodput_rps"]
        )

    # And it spends the wire sparingly: a migrated session transfers
    # once and stays warm, so cache-aware moves fewer bytes than
    # round-robin while keeping the higher hit rate.
    for n in [n for n in CROSS_REPLICA_GRID if n >= KNEE]:
        assert (
            by["cache-aware"][n]["kv_transfers"]
            < by["round-robin"][n]["kv_transfers"]
        )
        assert (
            by["cache-aware"][n]["prefix_cache_hit_rate"]
            > by["round-robin"][n]["prefix_cache_hit_rate"]
        )
