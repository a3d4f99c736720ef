"""Prefill shaping: chunked prefill cuts the TTFT tail at a TPOT cost.

The request-level extension of the Section 5.6 blocked-execution
discussion: under a saturating load, the overlap scheduler's TTFT p99
falls *strictly* as the chunk budget shrinks (slots recycle faster, the
queue drains), while the decode tail pays a quantified TPOT price
relative to the blocked baseline — and the budget where TTFT bottoms
out differs between the GPU baseline and Pimba (PIM-side decode keeps
smaller chunks profitable for longer).
"""

from conftest import engine_runner, print_table, run_once

from repro.serving.experiments import (
    CHUNK_BUDGET_GRID,
    group_by,
    ttft_tradeoff_render,
    ttft_tradeoff_spec,
)


def _tradeoff_curves():
    report = engine_runner().run(ttft_tradeoff_spec())
    return group_by(report, "system", "scheduler", "chunk_budget")


def test_chunked_prefill_cuts_ttft_tail_at_a_tpot_cost(benchmark):
    data = run_once(benchmark, _tradeoff_curves)
    header, rows = ttft_tradeoff_render(data)
    print_table(
        "Prefill shaping: TTFT p99 / TPOT p99 / goodput vs chunk budget",
        header, rows,
    )

    budgets = list(CHUNK_BUDGET_GRID)  # descending
    systems = sorted({system for system, _ in data})
    for system in systems:
        overlap = dict(data[(system, "overlap")])
        chunked = dict(data[(system, "chunked")])
        anchor = chunked[max(budgets)]  # == blocked FCFS (tested)

        # TTFT p99 strictly improves as the budget shrinks, on every
        # system, down to the 128-token chunk (the acceptance shape).
        shrinking = [overlap[b]["ttft_p99_s"] for b in budgets if b >= 128]
        assert shrinking == sorted(shrinking, reverse=True)
        assert len(set(shrinking)) == len(shrinking)  # strictly
        assert overlap[128]["ttft_p99_s"] < anchor["ttft_p99_s"]

        # ...at a quantified TPOT cost against the blocked baseline.
        assert overlap[128]["tpot_p99_s"] > anchor["tpot_p99_s"]
        assert chunked[128]["tpot_p99_s"] > anchor["tpot_p99_s"]

        # Goodput follows the TTFT tail down.
        assert overlap[128]["goodput_rps"] > anchor["goodput_rps"]

    def best_budget(system):
        curve = dict(data[(system, "overlap")])
        return min(budgets, key=lambda b: curve[b]["ttft_p99_s"])

    # The crossover differs: shrinking past 128 still helps Pimba (its
    # PIM-side decode iterations are cheap enough to keep chunk+decode
    # fusion profitable) but hurts the GPU baseline.
    assert best_budget("Pimba") == min(budgets)
    assert best_budget("GPU") > min(budgets)
