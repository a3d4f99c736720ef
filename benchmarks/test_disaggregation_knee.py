"""Prefill/decode disaggregation: where splitting the fleet wins.

Five four-node fleets serve the same prefill-heavy stream (2048-token
prompts, short answers, a tight TPOT SLO) as load rises through the
colocated fleets' saturation knee:

* three colocated controls — all-GPU, all-Pimba, and a mixed fleet —
  where every node interleaves prefill and decode, so each monolithic
  prompt stalls the resident decode batch and the TPOT tail grows with
  load;
* the paper-shaped split — GPU nodes prefilling (prefill is pure
  roofline compute, where the GPU is the match for the accelerator),
  Pimba nodes decoding (where the PIM design is fastest) — with KV
  handed off over a priced 400 Gbps link;
* the same split reversed, as the placement control.

Below the knee the interference is rare and colocation's doubled
capacity wins.  At and past the knee the split fleet keeps its decode
batches clean, and SLO goodput flips decisively: the acceptance
criterion is best-split > best-colocated goodput at both knee loads.
"""

from conftest import engine_runner, print_table, run_once

from repro.serving.experiments import (
    DISAGG_FLEETS,
    DISAGG_QPS_GRID,
    disaggregation_render,
    disaggregation_spec,
    group_by,
)

COLOCATED = tuple(f for f in DISAGG_FLEETS if ":" not in f)
SPLIT = tuple(f for f in DISAGG_FLEETS if ":" in f)
FORWARD = "GPU:prefill,GPU:prefill,Pimba:decode,Pimba:decode"
REVERSE = "Pimba:prefill,Pimba:prefill,GPU:decode,GPU:decode"

#: loads at and past the colocated fleets' saturation knee
KNEE_QPS = (12.0, 16.0)


def _fleet_curves():
    return group_by(engine_runner().run(disaggregation_spec()), "nodes", "qps")


def test_split_fleet_wins_past_the_knee(benchmark):
    data = run_once(benchmark, _fleet_curves)
    header, rows = disaggregation_render(data)
    print_table(
        "Prefill/decode disaggregation: split vs colocated four-node "
        "fleets under prefill-heavy load",
        header,
        rows,
    )

    by = {fleet: dict(data[fleet]) for fleet in DISAGG_FLEETS}

    # Handoffs and per-phase utilization exist only where phases split:
    # colocated rows never move KV and never report sided utilization.
    for fleet in COLOCATED:
        for payload in by[fleet].values():
            assert "n_handoffs" not in payload
            assert "prefill_utilization" not in payload
    for fleet in SPLIT:
        for payload in by[fleet].values():
            assert payload["n_handoffs"] > 0
            assert payload["handoff_bytes"] > 0
            assert 0.0 < payload["prefill_utilization"] <= 1.0
            assert 0.0 < payload["decode_utilization"] <= 1.0

    # The acceptance shape: at and past the knee, the best split fleet
    # beats the best colocated fleet on SLO goodput — the decode batch
    # kept clean of monolithic prefills is worth more than the capacity
    # the split gives up.
    for qps in KNEE_QPS:
        best_split = max(by[f][qps]["goodput_rps"] for f in SPLIT)
        best_colocated = max(by[f][qps]["goodput_rps"] for f in COLOCATED)
        assert best_split > best_colocated

    # Placement matters: prefill belongs on the GPU side and decode on
    # the accelerator side, not the other way around.
    for qps in KNEE_QPS:
        assert (
            by[FORWARD][qps]["goodput_rps"]
            > by[REVERSE][qps]["goodput_rps"]
        )

    # And the win is interference relief, not raw capacity: below the
    # knee (light load, no queueing to speak of) colocation's doubled
    # prefill capacity keeps it at least competitive.
    light = DISAGG_QPS_GRID[0]
    best_colocated_light = max(
        by[f][light]["slo_attainment"] for f in COLOCATED
    )
    assert best_colocated_light > 0.9
