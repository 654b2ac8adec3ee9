"""Tests for the observability layer: metrics, tracing, event log."""

import json

import numpy as np
import pytest

from repro import BayesCrowd, BayesCrowdConfig
from repro.cli import main as cli_main
from repro.datasets import example_distributions, generate_synthetic, sample_dataset
from repro.obs import (
    DEFAULT_BUCKETS,
    PIPELINE_PHASES,
    EventLog,
    MetricsRegistry,
    Tracer,
    check_phases,
    read_events,
)
from repro.obs.__main__ import main as obs_main
from repro.obs.__main__ import verify_adpll, verify_selection, verify_trace


def movie_query(**kwargs):
    config = BayesCrowdConfig(
        alpha=1.0,
        budget=10,
        latency=5,
        strategy="hhs",
        m=2,
        distribution_source="uniform",
        **kwargs,
    )
    return BayesCrowd(sample_dataset(), config, distributions=example_distributions())


class TestRegistry:
    def test_counter_is_monotone(self):
        registry = MetricsRegistry()
        counter = registry.counter("tasks")
        counter.inc()
        counter.inc(4)
        assert registry.value("tasks") == 5
        with pytest.raises(ValueError):
            counter.inc(-1)

    def test_get_or_create_returns_same_instrument(self):
        registry = MetricsRegistry()
        assert registry.counter("a") is registry.counter("a")
        with pytest.raises(ValueError):
            registry.gauge("a")

    def test_histogram_buckets_are_cumulative(self):
        registry = MetricsRegistry()
        histogram = registry.histogram("lat", buckets=(0.1, 1.0))
        for value in (0.05, 0.5, 5.0):
            histogram.observe(value)
        assert histogram.count == 3
        assert histogram.cumulative_buckets() == [(0.1, 1), (1.0, 2), (float("inf"), 3)]
        assert histogram.min == 0.05 and histogram.max == 5.0

    def test_absorb_maps_types_to_instruments(self):
        registry = MetricsRegistry()
        registry.absorb(
            {
                "computations": 42,
                "hit_rate": 0.5,
                "backend": "numpy",
                "degraded": True,
                "pairs": np.int64(7),
            },
            prefix="engine_",
        )
        snapshot = registry.snapshot()
        assert snapshot["counters"]["engine_computations"] == 42
        assert snapshot["gauges"]["engine_hit_rate"] == 0.5
        assert snapshot["gauges"]["engine_degraded"] == 1.0
        assert snapshot["gauges"]["engine_pairs"] == 7.0
        assert snapshot["info"]["engine_backend"] == "numpy"

    def test_snapshot_round_trips_through_json(self):
        registry = MetricsRegistry()
        registry.counter("c").inc(3)
        registry.gauge("g").set(1.5)
        registry.histogram("h").observe(0.02)
        registry.info("backend", "numpy")
        snapshot = json.loads(registry.to_json())
        rebuilt = MetricsRegistry.from_snapshot(snapshot)
        assert rebuilt.snapshot() == registry.snapshot()

    def test_prometheus_exposition(self):
        registry = MetricsRegistry()
        registry.counter("tasks posted").inc(2)
        registry.histogram("lat", buckets=(1.0,)).observe(0.5)
        registry.info("backend", "numpy")
        text = registry.to_prometheus()
        assert "# TYPE tasks_posted counter" in text
        assert "tasks_posted 2" in text
        assert 'lat_bucket{le="1"} 1' in text
        assert 'lat_bucket{le="+Inf"} 1' in text
        assert "lat_count 1" in text
        assert '# INFO backend "numpy"' in text

    def test_check_phases_reports_missing(self):
        registry = MetricsRegistry()
        registry.histogram("phase_seconds_ctable")
        missing = check_phases(registry.snapshot())
        assert "ctable" not in missing
        assert set(missing) == set(PIPELINE_PHASES) - {"ctable"}

    def test_default_buckets_sorted(self):
        assert list(DEFAULT_BUCKETS) == sorted(DEFAULT_BUCKETS)


class TestTracer:
    def test_spans_nest_via_stack(self):
        tracer = Tracer()
        with tracer.span("outer"):
            with tracer.span("inner"):
                pass
        inner, outer = tracer.spans
        assert inner.name == "inner" and inner.parent == "outer" and inner.depth == 1
        assert outer.parent is None and outer.depth == 0
        assert outer.seconds >= inner.seconds

    def test_phase_feeds_histogram(self):
        tracer = Tracer()
        with tracer.span("round[1]", phase="round"):
            pass
        with tracer.span("round[2]", phase="round"):
            pass
        histogram = tracer.registry.get("phase_seconds_round")
        assert histogram.count == 2

    def test_record_backdates_externally_timed_span(self):
        tracer = Tracer()
        span = tracer.record("preprocess", 1.5, tasks=3)
        assert span.seconds == pytest.approx(1.5)
        assert span.end == pytest.approx(span.start + 1.5)
        assert tracer.registry.get("phase_seconds_preprocess").count == 1
        assert tracer.find("preprocess") == [span]

    def test_record_under_parent_lays_children_back_to_back(self):
        tracer = Tracer()
        parent = tracer.record("preprocess", 3.0)
        first = tracer.record("preprocess.structure", 1.0, parent=parent)
        second = tracer.record("preprocess.posteriors", 0.5, parent=parent)
        assert first.parent == second.parent == "preprocess"
        assert first.depth == second.depth == parent.depth + 1
        assert first.start == parent.start
        assert second.start == first.end
        assert second.end <= parent.end
        assert tracer.registry.get("phase_seconds_preprocess.posteriors").count == 1

    def test_spans_emit_events(self):
        events = EventLog()
        tracer = Tracer(event_log=events)
        with tracer.span("ctable"):
            pass
        (event,) = events.of_kind("span")
        assert event["name"] == "ctable"
        assert event["seconds"] >= 0.0


class TestEventLog:
    def test_jsonl_file_round_trip(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with EventLog(path) as log:
            log.emit("run_start", n_objects=5)
            log.emit("tasks_issued", tasks=[{"task_id": 1}], ids={3, 1})
        events = read_events(path)
        assert [e["event"] for e in events] == ["run_start", "tasks_issued"]
        assert [e["seq"] for e in events] == [1, 2]
        assert events[1]["ids"] == [1, 3]  # sets are coerced to sorted lists

    def test_coerces_numpy_and_arbitrary_values(self, tmp_path):
        path = tmp_path / "trace.jsonl"
        with EventLog(path) as log:
            log.emit("x", count=np.int64(3), expr=object())
        event = read_events(path)[0]
        assert event["count"] == 3
        assert isinstance(event["expr"], str)


class TestTracedRun:
    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("obs")
        trace_path = out / "trace.jsonl"
        metrics_path = out / "metrics.json"
        bc = movie_query(trace_path=trace_path, metrics_path=metrics_path)
        result = bc.run()
        return bc, result, trace_path, metrics_path

    def test_all_pipeline_phases_covered(self, traced):
        _, result, __, ___ = traced
        assert check_phases(result.metrics) == []

    def test_round_histogram_counts_rounds(self, traced):
        _, result, __, ___ = traced
        hist = result.metrics["histograms"]["phase_seconds_round"]
        assert hist["count"] == result.rounds > 0

    def test_span_nesting_matches_pipeline(self, traced):
        _, result, __, ___ = traced
        parents = {span["name"]: span["parent"] for span in result.trace}
        assert parents["preprocess"] == "run"
        assert parents["ctable"] == "run"
        assert parents["crowd"] == "run"
        assert parents["round[1]"] == "crowd"
        assert parents["run"] is None

    def test_event_log_accounts_for_every_task(self, traced):
        _, result, trace_path, __ = traced
        events = read_events(trace_path)
        issued = [
            task
            for event in events
            if event["event"] == "tasks_issued"
            for task in event["tasks"]
        ]
        assert len(issued) == result.tasks_posted
        issued_ids = {task["task_id"] for task in issued}
        answered_ids = {
            task_id
            for event in events
            if event["event"] == "answers_applied"
            for task_id in event["task_ids"]
        }
        assert answered_ids <= issued_ids
        (run_end,) = [e for e in events if e["event"] == "run_end"]
        assert run_end["tasks_posted"] == result.tasks_posted

    def test_registry_carries_engine_counters(self, traced):
        _, result, __, ___ = traced
        assert (
            result.metrics["counters"]["engine_computations"]
            == result.engine_stats["computations"]
        )

    def test_metrics_file_passes_verifier(self, traced, capsys):
        _, __, trace_path, metrics_path = traced
        assert obs_main([str(metrics_path), "--trace", str(trace_path)]) == 0
        assert "metrics ok" in capsys.readouterr().out

    def test_prometheus_suffix_selects_text_format(self, tmp_path):
        metrics_path = tmp_path / "metrics.prom"
        movie_query(metrics_path=metrics_path).run()
        text = metrics_path.read_text()
        assert "# TYPE phase_seconds_round histogram" in text


class TestPreprocessAttribution:
    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("preprocess")
        trace_path = out / "trace.jsonl"
        metrics_path = out / "metrics.json"
        dataset = generate_synthetic(n_objects=150, missing_rate=0.1, seed=5)
        config = BayesCrowdConfig(
            budget=4, latency=2, trace_path=trace_path, metrics_path=metrics_path
        )
        result = BayesCrowd(dataset, config).run()
        return result, trace_path, metrics_path

    def test_stage_spans_fit_inside_preprocess(self, traced):
        result, __, ___ = traced
        spans = {span["name"]: span for span in result.trace}
        parent = spans["preprocess"]
        stages = [spans["preprocess.structure"], spans["preprocess.posteriors"]]
        assert all(stage["parent"] == "preprocess" for stage in stages)
        assert all(stage["seconds"] > 0.0 for stage in stages)
        assert sum(stage["seconds"] for stage in stages) <= parent["seconds"]

    def test_verifier_accepts_stage_spans_and_phases(self, traced, capsys):
        __, trace_path, metrics_path = traced
        phases = ["preprocess", "preprocess.structure", "preprocess.posteriors"]
        argv = [str(metrics_path), "--trace", str(trace_path), "--phases", *phases]
        assert obs_main(argv) == 0
        assert "trace ok" in capsys.readouterr().out

    def test_verifier_rejects_stages_longer_than_preprocess(self, traced, tmp_path):
        __, trace_path, ___ = traced
        events = read_events(trace_path)
        for event in events:
            if event.get("name") == "preprocess.posteriors":
                event["seconds"] = 1e6
        bad = tmp_path / "bad.jsonl"
        bad.write_text("".join(json.dumps(event) + "\n" for event in events))
        problems = verify_trace(str(bad))
        assert any("preprocess stage spans" in problem for problem in problems)


class TestProbabilityAttribution:
    """Engine setup is timed inside the initial ``probability`` span, and
    the ADPLL work counters reach the run metrics."""

    @pytest.fixture(scope="class")
    def traced(self, tmp_path_factory):
        out = tmp_path_factory.mktemp("probability")
        trace_path = out / "trace.jsonl"
        metrics_path = out / "metrics.json"
        dataset = generate_synthetic(n_objects=200, missing_rate=0.1, seed=5)
        config = BayesCrowdConfig(
            budget=10,
            latency=5,
            alpha=0.05,
            trace_path=trace_path,
            metrics_path=metrics_path,
        )
        result = BayesCrowd(dataset, config).run()
        return result, trace_path, metrics_path

    def test_setup_span_nests_under_initial_probability(self, traced):
        result, __, ___ = traced
        (setup,) = [s for s in result.trace if s["name"] == "probability.setup"]
        initial = next(s for s in result.trace if s["name"] == "probability")
        assert setup["parent"] == "probability"
        assert initial["attrs"]["stage"] == "initial"
        assert 0.0 < setup["seconds"] <= initial["seconds"]

    def test_verifier_accepts_setup_phase(self, traced, capsys):
        __, trace_path, metrics_path = traced
        phases = [*PIPELINE_PHASES, "probability.setup"]
        argv = [str(metrics_path), "--trace", str(trace_path), "--phases", *phases]
        assert obs_main(argv) == 0
        assert "trace ok" in capsys.readouterr().out

    def test_adpll_counters_exported(self, traced):
        result, __, ___ = traced
        counters = result.metrics["counters"]
        branches = counters["engine_adpll_branches"]
        assert branches == result.engine_stats["adpll_branches"] > 0
        assert counters["engine_adpll_split_values"] == (
            result.engine_stats["adpll_split_values"]
        )
        assert 0 < counters["engine_adpll_split_values"] <= branches

    def test_probability_flag_checks_adpll_counters(self, traced, capsys):
        __, ___, metrics_path = traced
        assert obs_main([str(metrics_path), "--probability"]) == 0
        assert "ADPLL split accounting adds up" in capsys.readouterr().out

    def test_split_values_above_branches_fail_cli(self, traced, tmp_path, capsys):
        __, ___, metrics_path = traced
        snapshot = json.loads(metrics_path.read_text())
        counters = snapshot["counters"]
        counters["engine_adpll_split_values"] = counters["engine_adpll_branches"] + 1
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(snapshot))
        assert obs_main([str(bad)]) == 2
        assert "engine_adpll_split_values" in capsys.readouterr().err


class TestADPLLVerifier:
    @staticmethod
    def snapshot(branches=40, split_values=25):
        return {
            "counters": {
                "engine_adpll_branches": branches,
                "engine_adpll_split_values": split_values,
            }
        }

    def test_consistent_counters_pass(self):
        assert verify_adpll(self.snapshot(), require=True) == []
        assert verify_adpll(self.snapshot(branches=0, split_values=0)) == []

    def test_missing_counters_pass_unless_required(self):
        assert verify_adpll({"counters": {}}) == []
        problems = verify_adpll({"counters": {}}, require=True)
        assert problems and "missing" in problems[0]

    def test_split_values_cannot_exceed_branches(self):
        problems = verify_adpll(self.snapshot(split_values=41))
        assert problems and "engine_adpll_split_values" in problems[0]

    def test_negative_split_values_rejected(self):
        assert verify_adpll(self.snapshot(split_values=-1)) != []


def selection_snapshot(candidates=10, evals=6, hits=3, skipped=1, ratio=0.4):
    return {
        "counters": {
            "utility_candidates_total": candidates,
            "utility_evals_total": evals,
            "residual_cache_hits": hits,
            "utility_skipped_total": skipped,
        },
        "gauges": {"utility_batch_dedup_ratio": ratio},
    }


class TestSelectionVerifier:
    def test_consistent_counters_pass(self):
        assert verify_selection(selection_snapshot(), require=True) == []

    def test_accounting_mismatch_reported(self):
        problems = verify_selection(selection_snapshot(evals=7))
        assert len(problems) == 1
        assert "utility_evals_total" in problems[0]

    def test_missing_counters_pass_unless_required(self):
        assert verify_selection({"counters": {}}) == []
        problems = verify_selection({"counters": {}}, require=True)
        assert problems and "missing" in problems[0]

    def test_dedup_ratio_bounds(self):
        problems = verify_selection(selection_snapshot(ratio=1.5))
        assert problems and "utility_batch_dedup_ratio" in problems[0]

    def test_missing_ratio_only_required_with_flag(self):
        snapshot = selection_snapshot()
        del snapshot["gauges"]["utility_batch_dedup_ratio"]
        assert verify_selection(snapshot) == []
        assert verify_selection(snapshot, require=True) != []

    def test_real_run_passes_strict_verification(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.json"
        movie_query(metrics_path=metrics_path).run()
        assert obs_main([str(metrics_path), "--selection"]) == 0
        assert "selection ok" in capsys.readouterr().out

    def test_inconsistent_snapshot_fails_cli(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.json"
        movie_query(metrics_path=metrics_path).run()
        snapshot = json.loads(metrics_path.read_text())
        snapshot["counters"]["utility_evals_total"] += 1
        metrics_path.write_text(json.dumps(snapshot))
        assert obs_main([str(metrics_path)]) == 2
        assert "selection problem" in capsys.readouterr().err


class TestCLIFlags:
    def test_trace_and_metrics_flags(self, tmp_path, capsys):
        trace_path = tmp_path / "t.jsonl"
        metrics_path = tmp_path / "m.json"
        code = cli_main(
            [
                "--dataset", "movies",
                "--budget", "6",
                "--latency", "3",
                "--trace-out", str(trace_path),
                "--metrics-out", str(metrics_path),
            ]
        )
        assert code == 0
        out = capsys.readouterr().out
        assert str(trace_path) in out and str(metrics_path) in out
        snapshot = json.loads(metrics_path.read_text())
        assert check_phases(snapshot) == []
        assert obs_main([str(metrics_path), "--trace", str(trace_path)]) == 0

    def test_verifier_fails_on_missing_phase(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.json"
        registry = MetricsRegistry()
        registry.histogram("phase_seconds_ctable")
        metrics_path.write_text(registry.to_json())
        assert obs_main([str(metrics_path)]) == 2
        assert "missing phase histogram" in capsys.readouterr().err


def integrity_snapshot(aggregated=10, applied=8, quarantined=2, reasked=1):
    return {
        "counters": {
            "answers_aggregated": aggregated,
            "answers_applied": applied,
            "answers_quarantined": quarantined,
            "answers_reasked": reasked,
        },
        "gauges": {},
    }


class TestIntegrityVerifier:
    def test_consistent_counters_pass(self):
        from repro.obs.__main__ import verify_integrity

        assert verify_integrity(integrity_snapshot(), require=True) == []

    def test_accounting_mismatch_reported(self):
        from repro.obs.__main__ import verify_integrity

        problems = verify_integrity(integrity_snapshot(applied=9))
        assert len(problems) == 1
        assert "answers_aggregated" in problems[0]

    def test_missing_counters_pass_unless_required(self):
        from repro.obs.__main__ import verify_integrity

        assert verify_integrity({"counters": {}}) == []
        problems = verify_integrity({"counters": {}}, require=True)
        assert problems and "missing" in problems[0]

    def test_excess_reasks_reported(self):
        from repro.obs.__main__ import verify_integrity

        problems = verify_integrity(integrity_snapshot(reasked=99))
        assert problems and "answers_reasked" in problems[0]

    def test_real_run_passes_strict_verification(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.json"
        movie_query(metrics_path=metrics_path).run()
        assert obs_main([str(metrics_path), "--integrity"]) == 0
        assert "integrity ok" in capsys.readouterr().out

    def test_violated_invariant_fails_cli(self, tmp_path, capsys):
        metrics_path = tmp_path / "m.json"
        movie_query(metrics_path=metrics_path).run()
        snapshot = json.loads(metrics_path.read_text())
        snapshot["counters"]["answers_applied"] += 1
        metrics_path.write_text(json.dumps(snapshot))
        assert obs_main([str(metrics_path)]) == 2
        assert "integrity problem" in capsys.readouterr().err
