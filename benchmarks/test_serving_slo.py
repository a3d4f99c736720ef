"""Request-level serving: Pimba's latency-throughput curve dominates GPU's.

The request-level extension of Fig. 12's claim: under a rising Poisson
load with continuous batching at matched batch capacity, Pimba delivers
at least the GPU baseline's goodput at every offered rate, strictly more
once the GPU saturates, and lower tail latency (p99 TTFT) throughout.
"""

from conftest import engine_runner, print_table, run_once

from repro.serving.experiments import (
    SERVING_QPS_GRID,
    group_by,
    serving_render,
    serving_spec,
)


def _serving_curves():
    spec = serving_spec().with_axes(system=("GPU", "Pimba"))
    return group_by(engine_runner().run(spec), "system", "qps")


def test_pimba_dominates_gpu_latency_throughput(benchmark):
    data = run_once(benchmark, _serving_curves)
    header, rows = serving_render(data)
    print_table("Serving SLO study: GPU vs Pimba under rising load",
                header, rows)

    gpu = dict(data["GPU"])
    pimba = dict(data["Pimba"])
    assert set(gpu) == set(pimba) == set(SERVING_QPS_GRID)

    for qps in SERVING_QPS_GRID:
        # Goodput dominance at every offered rate...
        assert pimba[qps]["goodput_rps"] >= gpu[qps]["goodput_rps"]
        # ...and a uniformly better tail.
        assert pimba[qps]["ttft_p99_s"] <= gpu[qps]["ttft_p99_s"]
        assert pimba[qps]["tpot_p99_s"] <= gpu[qps]["tpot_p99_s"]

    # Past the GPU's saturation point the gap is strict and large.
    top = max(SERVING_QPS_GRID)
    assert pimba[top]["goodput_rps"] > gpu[top]["goodput_rps"] + 1.0
    assert pimba[top]["slo_attainment"] > gpu[top]["slo_attainment"]

    # Offered load is eventually turned away by both: attainment falls
    # below 100% somewhere on the grid for the GPU baseline (the SLO grid
    # actually stresses the cluster rather than idling it).
    assert min(m["slo_attainment"] for m in gpu.values()) < 0.5
