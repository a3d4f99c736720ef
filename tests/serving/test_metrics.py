"""SLO metrics: timings, percentiles, goodput, report payloads."""

import dataclasses
import random

import pytest

from repro.serving.cluster import ClusterTrace
from repro.serving.engine import EngineTrace
from repro.serving.metrics import (
    EngineStats,
    RequestStats,
    RequestTiming,
    RunCounters,
    ServingReport,
    SloSpec,
    percentile,
)


def timing(rid=0, arrival=0.0, admitted=0.5, first=1.0, finished=3.0,
           output_len=5):
    return RequestTiming(
        request_id=rid,
        input_len=100,
        output_len=output_len,
        arrival_s=arrival,
        admitted_s=admitted,
        first_token_s=first,
        finished_s=finished,
    )


class TestRequestTiming:
    def test_derived_metrics(self):
        t = timing()
        assert t.queue_s == 0.5
        assert t.ttft_s == 1.0
        assert t.tpot_s == pytest.approx(2.0 / 4)
        assert t.e2e_s == 3.0

    def test_single_token_tpot_is_zero(self):
        assert timing(output_len=1).tpot_s == 0.0

    def test_disordered_timestamps_rejected(self):
        with pytest.raises(ValueError, match="ordered"):
            timing(admitted=-1.0)
        with pytest.raises(ValueError, match="ordered"):
            timing(first=5.0, finished=4.0)


class TestSlo:
    def test_met_by(self):
        slo = SloSpec(ttft_s=1.5, tpot_s=0.6)
        assert slo.met_by(timing())  # ttft 1.0, tpot 0.5
        assert not slo.met_by(timing(first=2.0))  # ttft 2.0
        assert not SloSpec(1.5, 0.4).met_by(timing())

    def test_validation(self):
        with pytest.raises(ValueError):
            SloSpec(0.0, 1.0)


class TestPercentile:
    def test_interpolates(self):
        values = [1.0, 2.0, 3.0, 4.0]
        assert percentile(values, 50) == 2.5
        assert percentile(values, 100) == 4.0
        with pytest.raises(ValueError):
            percentile([], 50)


class TestServingReport:
    def make_timings(self):
        return (
            timing(rid=0, first=1.0, finished=3.0),  # meets
            timing(rid=1, arrival=1.0, admitted=1.2, first=4.0,
                   finished=6.0),  # ttft 3.0
        )

    def make_report(self):
        return ServingReport.from_timings(
            self.make_timings(),
            makespan_s=6.0,
            mean_queue_depth=0.5,
            max_queue_depth=2,
            n_iterations=10,
            n_prefills=2,
        )

    def test_aggregates(self):
        report = self.make_report()
        assert report.n_requests == 2
        assert report.generated_tokens == 10
        assert report.throughput_tokens_per_s == pytest.approx(10 / 6)
        assert report.completed_per_s == pytest.approx(2 / 6)
        assert report.ttft_percentile(50) == pytest.approx(2.0)

    def test_goodput_counts_only_slo_meeting_requests(self):
        report = self.make_report()
        slo = SloSpec(ttft_s=1.5, tpot_s=0.6)
        assert report.slo_attainment(slo) == 0.5
        assert report.goodput(slo) == pytest.approx(1 / 6)
        generous = SloSpec(ttft_s=10.0, tpot_s=10.0)
        assert report.goodput(generous) == report.completed_per_s

    def test_payload_roundtrips_to_json_scalars(self):
        import json

        payload = self.make_report().to_payload(SloSpec(1.5, 0.6))
        assert json.loads(json.dumps(payload)) == payload
        assert payload["goodput_rps"] == pytest.approx(1 / 6)
        assert payload["slo_attainment"] == 0.5
        bare = self.make_report().to_payload()
        assert "goodput_rps" not in bare

    def test_validation(self):
        with pytest.raises(ValueError, match="positive"):
            ServingReport.from_timings(
                self.make_timings(), 0.0, 0.0, 0, 0, 0
            )
        with pytest.raises(ValueError, match="non-negative"):
            ServingReport.from_timings((), -1.0, 0.0, 0, 0, 0)


class TestEmptyReport:
    """Regression: a report over zero completed requests (everything
    still queued when the record was cut) must aggregate, not crash on
    empty percentile arrays."""

    def make_empty(self):
        return ServingReport.from_timings(
            (),
            makespan_s=0.0,
            mean_queue_depth=3.0,
            max_queue_depth=5,
            n_iterations=0,
            n_prefills=0,
        )

    def test_rates_are_zero(self):
        report = self.make_empty()
        assert report.n_requests == 0
        assert report.generated_tokens == 0
        assert report.throughput_tokens_per_s == 0.0
        assert report.completed_per_s == 0.0
        slo = SloSpec(1.0, 0.01)
        assert report.slo_attainment(slo) == 0.0
        assert report.goodput(slo) == 0.0

    def test_percentiles_are_nan_not_a_crash(self):
        import math

        report = self.make_empty()
        for metric in ("ttft", "tpot", "e2e"):
            assert math.isnan(getattr(report, f"{metric}_percentile")(99))

    def test_payload_still_serializes(self):
        payload = self.make_empty().to_payload(SloSpec(1.0, 0.01))
        assert payload["n_requests"] == 0
        assert payload["goodput_rps"] == 0.0
        assert payload["max_queue_depth"] == 5


def random_counters(rng: random.Random) -> RunCounters:
    """Every declared counter, drawn at random (floats span magnitudes,
    so a merge that reorders or regroups the additions shows up)."""
    return RunCounters(
        **{
            f.name: (
                rng.uniform(0, 1) * 10 ** rng.randrange(-3, 12)
                if isinstance(f.default, float)
                else rng.randrange(10**6)
            )
            for f in dataclasses.fields(RunCounters)
        }
    )


def engine_stats(counters: RunCounters) -> EngineStats:
    return EngineStats(
        requests=RequestStats(),
        start_s=0.0,
        end_s=1.0,
        mean_queue_depth=0.0,
        max_queue_depth=0,
        n_iterations=0,
        n_prefills=0,
        **vars(counters),
    )


def engine_trace(counters: RunCounters) -> EngineTrace:
    return EngineTrace(
        timings=(),
        iteration_seconds=(),
        decode_tokens=(),
        prefill_seconds=(),
        prefill_tokens=(),
        start_s=0.0,
        end_s=1.0,
        mean_queue_depth=0.0,
        max_queue_depth=0,
        **vars(counters),
    )


class TestRunCounters:
    """Every merge adds every declared counter, field by field."""

    @staticmethod
    def fieldwise_sum(parts) -> dict:
        return {
            f.name: sum(getattr(p, f.name) for p in parts)
            for f in dataclasses.fields(RunCounters)
        }

    @pytest.mark.parametrize("seed", range(20))
    def test_merges_are_fieldwise_sums(self, seed):
        rng = random.Random(seed)
        parts = [random_counters(rng) for _ in range(rng.randint(2, 5))]
        want = self.fieldwise_sum(parts)
        assert vars(RunCounters.sum(parts)) == want
        merged = EngineStats.merge([engine_stats(c) for c in parts])
        assert vars(merged.counters()) == want
        replicas = [engine_trace(c) for c in parts]
        record = ClusterTrace(
            assignments=(), replicas=(None, *replicas), router="test"
        )
        assert vars(record.merged().counters()) == want

    @pytest.mark.parametrize("seed", range(5))
    def test_one_part_merge_is_the_identity(self, seed):
        counters = random_counters(random.Random(seed))
        stats = engine_stats(counters)
        assert EngineStats.merge([stats]) is stats
        trace = engine_trace(counters)
        record = ClusterTrace(
            assignments=(), replicas=(trace, None), router="test"
        )
        assert record.merged() is trace
        assert trace.counters() == counters
        assert stats.report().counters() == counters
