"""Tests of the benchmark itself: ``python -m pytest perfbench -q``."""

from __future__ import annotations

import json
import shutil
import subprocess
import sys
from pathlib import Path

import numpy as np
import pytest

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))
sys.path.insert(0, str(HERE.parent / "src"))

import run as bench  # noqa: E402
from runners import InProcessRunner, ServiceRunner  # noqa: E402
from spans import ROOT, SpanRecorder, layer_times  # noqa: E402
from workloads import (  # noqa: E402
    WORKLOADS,
    TimedPlatform,
    exact_skyline,
    make_dataset,
)

SPEC = json.loads((HERE.parent / "BENCHMARK.json").read_text())
TINY = 120


@pytest.fixture(autouse=True)
def _quiet_work_dir():
    yield
    assert not list((HERE.parent / ".perfbench_work").glob("*-*")), "work dir left behind"


@pytest.mark.parametrize("name", sorted(WORKLOADS))
@pytest.mark.parametrize("trace", [False, True])
def test_tiny_pass_produces_every_named_metric(name, trace):
    workload = WORKLOADS[name].scaled(TINY)
    result = bench.run_workload(workload, seed=0, seconds=0.5, trace=trace, setup_s=0.1)
    section = "per_layer" if trace else "end_to_end"
    assert set(result["metrics"]) == {m["name"] for m in SPEC[section]}
    for metric in SPEC[section]:
        assert result["metrics"][metric["name"]]["unit"] == metric["unit"]
    assert result["correct"], result
    assert result["attempted"] >= 2 and result["failed"] == 0


def test_spec_names_every_workload():
    assert [w["name"] for w in SPEC["workloads"]] == list(WORKLOADS)
    assert SPEC["paths"] == ["perfbench"]


def test_two_seeds_give_different_datasets():
    workload = WORKLOADS["paper-2000"].scaled(TINY)
    first, again = make_dataset(workload, 0, 0), make_dataset(workload, 0, 0)
    other = make_dataset(workload, 1, 0)
    assert np.array_equal(first.values, again.values)
    assert not np.array_equal(first.values, other.values)
    assert not np.array_equal(first.values, make_dataset(workload, 0, 1).values)


def _fingerprint(runner_cls, workload, tmp_path):
    dataset = make_dataset(workload, 0, 0)
    runner = runner_cls(workload, tmp_path)
    try:
        return runner.run(dataset, 0, exact_skyline(dataset.complete)).fingerprint
    finally:
        runner.close()


def test_default_seed_fingerprint_is_stable(tmp_path):
    workload = WORKLOADS["service-sessions"].scaled(TINY)
    first = _fingerprint(InProcessRunner, workload, tmp_path)
    assert first == _fingerprint(InProcessRunner, workload, tmp_path)


def test_service_session_matches_in_process_query(tmp_path):
    workload = WORKLOADS["service-sessions"].scaled(TINY)
    assert _fingerprint(ServiceRunner, workload, tmp_path) == _fingerprint(
        InProcessRunner, workload, tmp_path
    )


def test_exact_skyline_matches_reference():
    from repro.skyline.algorithms import skyline

    rng = np.random.default_rng(5)
    for _ in range(20):
        values = rng.integers(0, 4, size=(60, 3))
        assert exact_skyline(values) == skyline(values)


def test_round_time_runs_from_answers_to_next_post():
    platform = TimedPlatform(None)
    platform.posted_at = [1.0, 3.0, 6.0]
    platform.returned_at = [2.0, 4.0, 7.0]
    assert platform.round_ms(end=9.0) == [1000.0, 2000.0, 2000.0]


def test_calibration_is_fixed_work_scaled_to_the_reference():
    import time

    from calibrate import REFERENCE_S, sample, speed_factor, task

    assert task() == task()
    assert sample(time.process_time) > 0
    assert speed_factor([REFERENCE_S] * 3) == 1.0
    assert speed_factor([REFERENCE_S, 2 * REFERENCE_S, 2 * REFERENCE_S]) == 0.5


def test_self_time_subtracts_children():
    recorder = SpanRecorder()
    recorder.spans = [
        [ROOT, 0.0, 10.0, -1, 0],
        ["build_ctable", 1.0, 4.0, 0, 0],
        ["IncrementalRanker.rank", 5.0, 9.0, 0, 0],
        ["ProbabilityEngine.probability_many", 6.0, 8.0, 2, 0],
        ["post_batch", 0.0, 1.0, -1, 1],  # outside any query: ignored
    ]
    by_name, root_time, n_roots = recorder.self_times()
    layers = layer_times(by_name)
    assert (root_time, n_roots) == (10.0, 1)
    assert layers["ctable"] == 3.0
    assert layers["selection"] == 2.0
    assert layers["probability"] == 2.0
    assert layers["crowd"] == 0.0


def test_exits_nonzero_without_program_source(tmp_path):
    shutil.copy(HERE.parent / "BENCHMARK.json", tmp_path)
    shutil.copytree(HERE, tmp_path / "perfbench", ignore=shutil.ignore_patterns("__pycache__"))
    out = subprocess.run(
        SPEC["command"] + ["--workload", "paper-2000", "--seed", "0", "--seconds", "1", "--trace", "0"],
        cwd=tmp_path,
        capture_output=True,
        text=True,
        timeout=180,
    )
    assert out.returncode != 0
    assert '"correct"' not in out.stdout
