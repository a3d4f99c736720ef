"""Cluster scaling: replicas behind a router convert queueing into goodput.

The data-parallel extension of the serving study: one Pimba node under
the cluster sweep's saturating load misses the TTFT SLO on most
requests; each added replica drains the queue sooner, so goodput climbs
with replica count and the TTFT tail collapses.  The least-loaded router
must scale at least as well as blind round-robin and strictly better
than affinity hashing somewhere on the grid (hashing ignores load, so
bursts pile onto hot replicas).
"""

from conftest import engine_runner, print_table, run_once

from repro.serving.experiments import (
    SCALING_REPLICA_GRID,
    group_by,
    scaling_render,
    scaling_spec,
)


def _scaling_curves():
    return group_by(engine_runner().run(scaling_spec()), "router", "replicas")


def test_goodput_scales_with_replicas(benchmark):
    data = run_once(benchmark, _scaling_curves)
    header, rows = scaling_render(data)
    print_table("Cluster scaling: goodput/TTFT vs replicas per router",
                header, rows)

    for router, points in data.items():
        by_n = dict(points)
        assert set(by_n) == set(SCALING_REPLICA_GRID)

    least = dict(data["least-loaded"])
    # The acceptance shape: goodput strictly increases with replica count
    # under the least-loaded router...
    goodputs = [least[n]["goodput_rps"] for n in SCALING_REPLICA_GRID]
    assert all(a < b for a, b in zip(goodputs, goodputs[1:]))
    # ...and the TTFT tail moves the other way.
    assert (
        least[max(SCALING_REPLICA_GRID)]["ttft_p99_s"]
        < least[1]["ttft_p99_s"]
    )

    # Every router's fleet beats its own single node.
    for router, points in data.items():
        by_n = dict(points)
        assert (
            by_n[max(SCALING_REPLICA_GRID)]["goodput_rps"]
            > by_n[1]["goodput_rps"]
        )

    # Load-aware routing beats load-blind affinity hashing somewhere on
    # the grid (hashing piles bursts onto hot replicas).
    affinity = dict(data["affinity"])
    assert any(
        least[n]["goodput_rps"] > affinity[n]["goodput_rps"]
        or least[n]["ttft_p99_s"] < affinity[n]["ttft_p99_s"]
        for n in SCALING_REPLICA_GRID[1:]
    )

    # All routers agree bit-for-bit at one replica: routing is the
    # identity there, so the curves share their anchor point.
    anchors = {
        router: dict(points)[1]["goodput_rps"]
        for router, points in data.items()
    }
    assert len(set(anchors.values())) == 1
