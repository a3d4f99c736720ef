"""Tests for request traces and the serving loop (perf + functional)."""

import math

import numpy as np
import pytest

from repro.models import Family, build_tiny, spec_for
from repro.perf.system import SystemKind, build_system
from repro.workloads.requests import (
    Batch,
    Request,
    TimedRequest,
    Trace,
    sampled_batch,
    uniform_batch,
)
from repro.workloads.serving import ServingSimulator, clamped_stride, generate_tokens


class TestRequests:
    def test_uniform_batch_shape(self):
        batch = uniform_batch(8, 1024, 512)
        assert batch.size == 8
        assert batch.max_input_len == 1024
        assert batch.generated_tokens == 8 * 512

    def test_request_validation(self):
        with pytest.raises(ValueError):
            Request(0, 0, 10)

    def test_empty_batch_rejected(self):
        with pytest.raises(ValueError):
            Batch(())

    def test_sampled_batch_reproducible(self):
        a = sampled_batch(16, np.random.default_rng(1))
        b = sampled_batch(16, np.random.default_rng(1))
        assert a == b


class TestTimedRequests:
    def test_trace_from_batch_and_properties(self):
        trace = Trace.from_batch(uniform_batch(4, 128, 32))
        assert trace.n_requests == 4
        assert trace.duration_s == 0.0
        assert trace.total_output_tokens == 4 * 32
        assert trace.requests[0].input_len == 128

    def test_offered_qps(self):
        trace = Trace(tuple(
            TimedRequest(Request(i, 8, 8), float(i)) for i in range(5)
        ))
        assert trace.duration_s == 4.0
        assert trace.offered_qps == 1.0

    def test_payload_roundtrip(self):
        trace = Trace(tuple(
            TimedRequest(Request(i, 8 + i, 4), 0.25 * i) for i in range(3)
        ))
        assert Trace.from_payload(trace.to_payload()) == trace

    def test_validation(self):
        with pytest.raises(ValueError):
            TimedRequest(Request(0, 1, 1), -0.1)
        with pytest.raises(ValueError):
            Trace((
                TimedRequest(Request(0, 1, 1), 1.0),
                TimedRequest(Request(1, 1, 1), 0.5),
            ))

    @pytest.mark.parametrize("arrival", [math.nan, math.inf, -math.inf])
    def test_non_finite_arrival_rejected(self, arrival):
        """Regression: ``nan < 0`` is false, so a NaN arrival once got
        through and hung the engine."""
        with pytest.raises(ValueError, match="finite"):
            TimedRequest(Request(0, 1, 1), arrival)

    @pytest.mark.parametrize("field", ["handoff_s", "handoff_bytes"])
    def test_non_finite_handoff_cost_rejected(self, field):
        with pytest.raises(ValueError, match="finite"):
            TimedRequest(
                Request(0, 4, 2), 0.0, prefilled_tokens=4, **{field: math.nan}
            )

    def test_duplicate_request_ids_rejected(self):
        """Regression: duplicates served silently under ``fcfs`` and
        crashed ``paged`` mid-run."""
        with pytest.raises(ValueError, match="unique"):
            Trace((
                TimedRequest(Request(0, 1, 1), 0.0),
                TimedRequest(Request(0, 2, 1), 1.0),
            ))

    def test_empty_trace_allowed(self):
        # A replica the router never dispatches to serves the empty
        # trace, so Trace must accept it (the engine returns a zero-span
        # record for it — see the engine equivalence tests).
        empty = Trace(())
        assert empty.n_requests == 0
        assert empty.duration_s == 0.0
        assert empty.offered_qps == 0.0
        assert empty.total_output_tokens == 0
        assert Trace.from_payload(empty.to_payload()) == empty
        with pytest.raises(ValueError):
            Trace.merge([])


class TestTracePartitionMerge:
    def trace(self, n=6):
        return Trace(tuple(
            TimedRequest(Request(i, 16, 4), 0.5 * i) for i in range(n)
        ))

    def test_partition_preserves_order_within_parts(self):
        parts = self.trace().partition([0, 1, 0, 1, 0, 1])
        assert [r.request_id for r in parts[0].requests] == [0, 2, 4]
        assert [r.request_id for r in parts[1].requests] == [1, 3, 5]

    def test_partition_skips_unused_labels(self):
        parts = self.trace(3).partition([2, 2, 2])
        assert set(parts) == {2}
        assert parts[2].n_requests == 3

    def test_partition_label_count_checked(self):
        with pytest.raises(ValueError, match="labels"):
            self.trace(3).partition([0, 1])

    def test_merge_restores_partition(self):
        trace = self.trace()
        parts = trace.partition([0, 1, 1, 0, 2, 0])
        assert Trace.merge(list(parts.values())) == trace

    def test_merge_orders_by_arrival(self):
        early = Trace((TimedRequest(Request(0, 8, 2), 0.0),))
        late = Trace((TimedRequest(Request(1, 8, 2), 5.0),))
        merged = Trace.merge([late, early])
        assert [r.request_id for r in merged.requests] == [0, 1]

    def test_merge_of_nothing_rejected(self):
        with pytest.raises(ValueError, match="zero traces"):
            Trace.merge([])


class TestServingSimulator:
    @pytest.fixture
    def sim(self):
        return ServingSimulator(
            build_system(SystemKind.PIMBA, "small"), spec_for("Zamba2")
        )

    def test_throughput_positive(self, sim):
        result = sim.run(uniform_batch(32, 512, 128))
        assert result.generation_throughput > 0
        assert result.total_seconds > result.decode_seconds

    def test_steps_grow_with_context_for_hybrids(self, sim):
        result = sim.run(uniform_batch(32, 512, 256))
        assert result.step_seconds[-1] > result.step_seconds[0]

    def test_latency_curve_monotone(self, sim):
        curve = sim.latency_curve(uniform_batch(16, 256, 512), (125, 256, 512))
        values = list(curve.values())
        assert values == sorted(values)
        assert set(curve) == {125, 256, 512}

    def test_bad_checkpoint_rejected(self, sim):
        with pytest.raises(ValueError):
            sim.latency_curve(uniform_batch(4, 64, 32), (64,))

    def test_oversized_stride_clamps_to_decode_range(self, sim):
        """Regression: a stride wider than the decode used to price every
        step at the first step's context; it now clamps so the anchor
        grid keeps a start and a midpoint."""
        batch = uniform_batch(8, 512, 64)
        wide = sim.run(batch, step_stride=10**6)
        clamped = sim.run(batch, step_stride=32)  # = clamped_stride value
        assert clamped_stride(10**6, 64) == 32
        assert len(wide.step_seconds) == 64
        assert wide.step_seconds == clamped.step_seconds
        # The midpoint anchor prices the later half at a longer context
        # for attention-bearing models (Zamba2 fixture).
        assert wide.step_seconds[-1] > wide.step_seconds[0]

    def test_stride_still_validated(self, sim):
        with pytest.raises(ValueError):
            sim.run(uniform_batch(2, 16, 8), step_stride=0)
        with pytest.raises(ValueError):
            clamped_stride(0, 8)

    def test_su_llm_steps_constant(self):
        sim = ServingSimulator(
            build_system(SystemKind.GPU, "small"), spec_for("RetNet")
        )
        result = sim.run(uniform_batch(16, 256, 256))
        assert result.step_seconds[0] == pytest.approx(result.step_seconds[-1])


class TestFunctionalGeneration:
    def test_greedy_generation_deterministic(self):
        model = build_tiny(Family.MAMBA2)
        prompts = np.random.default_rng(0).integers(0, 256, size=(2, 4))
        a = generate_tokens(model, prompts, 6)
        b = generate_tokens(model, prompts, 6)
        assert a.shape == (2, 6)
        np.testing.assert_array_equal(a, b)

    def test_sampled_generation_runs(self):
        model = build_tiny(Family.RETNET)
        prompts = np.zeros((1, 3), dtype=int)
        out = generate_tokens(
            model, prompts, 5, greedy=False, rng=np.random.default_rng(2)
        )
        assert out.shape == (1, 5)
        assert np.all((0 <= out) & (out < model.spec.vocab_size))

    def test_prompt_rank_checked(self):
        model = build_tiny(Family.GLA)
        with pytest.raises(ValueError):
            generate_tokens(model, np.zeros(3, dtype=int), 2)
