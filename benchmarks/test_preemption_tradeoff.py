"""Paged KV reservation: goodput from tighter admission, latency from thrash.

The request-level capacity story the ROADMAP's first open item asked
for: under a tight HBM budget, full-context reservation
(`MemoryAwareScheduler`) queues requests it could physically serve,
while block-granular reservation (`PagedScheduler`) admits against
*current* block usage and pays for the extra residency with
preempt/restore thrashing as load rises.  The figure pins down both
sides of that trade:

* at light load the capacity bound never binds: the two policies make
  identical decisions and the paged pool never preempts;
* past the knee, paged reservation *strictly* beats full-context
  reservation on goodput at every load — the acceptance shape;
* the win is not free: preemptions appear and grow with load, visible
  as re-prefill work (extra prefill events) and a fatter decode tail
  (TPOT p99 above the full-context baseline).
"""

from conftest import engine_runner, print_table, run_once

from repro.serving.experiments import (
    PAGED_QPS_GRID,
    group_by,
    preemption_tradeoff_render,
    preemption_tradeoff_spec,
)


def _tradeoff_curves():
    report = engine_runner().run(preemption_tradeoff_spec())
    return group_by(report, "scheduler", "qps")


def test_paged_reservation_beats_full_context_at_a_thrashing_cost(benchmark):
    data = run_once(benchmark, _tradeoff_curves)
    header, rows = preemption_tradeoff_render(data)
    print_table(
        "Paged KV: goodput vs preemption thrashing as load rises",
        header, rows,
    )

    memory = dict(data["memory"])
    paged = dict(data["paged"])
    light = [q for q in PAGED_QPS_GRID if q <= 1.0]
    heavy = [q for q in PAGED_QPS_GRID if q > 1.0]
    assert light and heavy

    # Light load: the capacity bound never binds, so block-granular and
    # full-context reservation make identical decisions — no preemption,
    # same goodput, same tails.
    for q in light:
        assert paged[q]["n_preemptions"] == 0
        assert paged[q]["goodput_rps"] == memory[q]["goodput_rps"]
        assert paged[q]["tpot_p99_s"] == memory[q]["tpot_p99_s"]

    # Past the knee: paged reservation strictly beats full-context
    # reservation on goodput at every load (the acceptance criterion —
    # a regime where tighter reservation wins).
    for q in heavy:
        assert paged[q]["goodput_rps"] > memory[q]["goodput_rps"]

    # ...but the slack is bought with thrashing: preemptions appear,
    # each paying a recompute-style re-prefill (more prefill events than
    # the full-context policy ever issues) and fattening the decode tail.
    for q in heavy:
        assert paged[q]["n_preemptions"] > 0
        assert memory[q]["n_preemptions"] == 0
        assert paged[q]["n_prefills"] > memory[q]["n_prefills"]
        assert paged[q]["tpot_p99_s"] > memory[q]["tpot_p99_s"]

    # Thrashing intensifies with load across the heavy regime.
    assert paged[max(heavy)]["n_preemptions"] > paged[min(heavy)]["n_preemptions"]
