"""End-to-end BayesCrowd query benchmark with per-layer attribution.

Run from the root of a checkout::

    python3 perfbench/run.py --workload paper-2000 --seed 0 --seconds 45 --trace 0

``--trace 0`` measures the end-to-end metrics with nothing wrapped but
the crowd platform.  ``--trace 1`` runs every dataset of the same seed
twice -- untraced, then with a span around every layer's public entry
point -- and reports the per-layer metrics, the attribution of query time to
layers and the tracing overhead.  Both print a host/config stamp, a
human-readable report and, as the last line, one JSON object with the
keys ``correct``, ``attempted``, ``failed`` and ``metrics``.

End-to-end metrics (medians over the run's queries) are timed on the
CPU clock of the process that runs the program (``workloads.clock``)
and scaled to the reference host's speed: a shared virtual host runs
slower or faster in phases lasting minutes, so just before each query
the run times a fixed calibration task that calls nothing of the
program (``calibrate.py``) and multiplies that query's timings by
``REFERENCE_S / median(its samples)``.  The report prints the median
factor and the unscaled CPU and wall-clock medians of ``query_s``.

* ``query_s`` -- ``BayesCrowd`` construction (which learns the
  distributions) to the return of ``run``; for the service, the
  supervisor's run of the session inside the server.
* ``first_tasks_s`` -- query start to the first ``post_batch``; for the
  service, session open to the first ``tasks_issued`` event.
* ``round_p50_ms`` / ``round_p90_ms`` -- machine time of one crowd
  round, answers returned to the next batch posted (the last round ends
  at the result), pooled over every query; the sample count is printed.
* ``session_s`` -- the caller's whole wait: platform build to result in
  process; session open to result received for the service.
* ``setup_s`` -- interpreter start, imports and one input dataset
  (plus a server start for the service), the median of
  :data:`SETUP_REPEATS` fresh interpreters.
* ``peak_rss_mb`` and ``answer_f1`` (against the exact skyline).

Every query is checked: its fingerprint (sorted answers, per-round task
expressions, tasks posted) must match the one recorded for its dataset
in ``fingerprints.json``, and its certain answers must all be members
of the exact skyline of the complete data (the simulated crowd makes
no errors).  A failing query counts in ``failed``; it never stops the
run.
"""

from __future__ import annotations

import argparse
import gc
import json
import os
import platform
import resource
import shutil
import statistics
import subprocess
import sys
import time
from pathlib import Path
from typing import Dict, List, Optional

HERE = Path(__file__).resolve().parent
ROOT_DIR = HERE.parent
SRC = ROOT_DIR / "src"
FINGERPRINTS = HERE / "fingerprints.json"
#: set-up is measured this many times per run and reported as the median
SETUP_REPEATS = 3
#: a measuring loop stops starting queries past this multiple of its window
OVERRUN = 1.15
#: calibration samples taken before every query
CALIBRATION_SAMPLES = 2


def _require_source() -> None:
    if not (SRC / "repro" / "__init__.py").is_file():
        print(
            "perfbench: no program source at %s; run from a checkout of the repository"
            % SRC,
            file=sys.stderr,
        )
        raise SystemExit(2)
    sys.path.insert(0, str(SRC))


def _median(values: List[float]) -> float:
    return statistics.median(values) if values else 0.0


def _percentile(values: List[float], q: float) -> float:
    import numpy as np

    return float(np.percentile(values, q)) if values else 0.0


def _query_key(workload) -> str:
    """Recorded fingerprints are shared by workloads running the same query."""
    return "%s:n=%d:mr=%g:alpha=%g:B=%d:L=%d:%s" % (
        workload.kind,
        workload.n,
        workload.missing_rate,
        workload.alpha,
        workload.budget,
        workload.latency,
        workload.strategy,
    )


def load_fingerprints(workload) -> Dict[str, str]:
    if not FINGERPRINTS.is_file():
        return {}
    return json.loads(FINGERPRINTS.read_text()).get(_query_key(workload), {})


def stamp(workload, seed: int) -> dict:
    """Host and effective-default config every result is measured under."""
    import importlib.util

    import numpy as np
    from repro.core.config import BayesCrowdConfig

    defaults = BayesCrowdConfig()
    return {
        "workload": workload.name,
        "seed": seed,
        "cpu_count": os.cpu_count(),
        "python": platform.python_version(),
        "numpy": np.__version__,
        "numba": importlib.util.find_spec("numba") is not None,
        "probability_backend": defaults.probability_backend,
        "selection_batch": defaults.selection_batch,
        "ctable_prune": defaults.ctable_prune,
        "n_jobs": defaults.n_jobs,
    }


# ----------------------------------------------------------------------
# set-up
# ----------------------------------------------------------------------
def setup_probe(workload_name: str, seed: int) -> None:
    """Imports, one input dataset and (for the service) a server start.

    Prints the CPU time this interpreter used from its start, scaled to
    the reference host's speed by calibration samples taken after it.
    """
    _require_source()
    import repro.core.framework  # noqa: F401 - the import is the cost measured
    from runners import ServiceRunner
    from workloads import WORKLOADS, make_dataset

    workload = WORKLOADS[workload_name]
    make_dataset(workload, seed, 0)
    if workload.service:
        workdir = _workdir("setup")
        try:
            ServiceRunner(workload, workdir).close()
        finally:
            shutil.rmtree(workdir, ignore_errors=True)
    used = time.process_time()
    from calibrate import sample, speed_factor

    print(used * speed_factor([sample(time.process_time) for _ in range(3)]))


def measure_setup(workload_name: str, seed: int) -> float:
    """Median of :data:`SETUP_REPEATS` set-ups, each in a fresh interpreter."""
    times = []
    for _ in range(SETUP_REPEATS):
        out = subprocess.run(
            [
                sys.executable,
                str(Path(__file__).resolve()),
                "--setup-probe",
                "--workload",
                workload_name,
                "--seed",
                str(seed),
            ],
            cwd=str(ROOT_DIR),
            capture_output=True,
            text=True,
            timeout=120,
            check=True,
        )
        times.append(float(out.stdout.strip().splitlines()[-1]))
    return _median(times)


def _workdir(tag: str) -> Path:
    path = ROOT_DIR / ".perfbench_work" / ("%s-%d" % (tag, os.getpid()))
    path.mkdir(parents=True, exist_ok=True)
    return path


# ----------------------------------------------------------------------
# the closed loop
# ----------------------------------------------------------------------
def closed_loop(runner, workload, seed: int, count: int, seconds: float, recorder=None):
    """Run datasets 0 .. ``count``-1 one query at a time.

    ``count`` is sized so the loop fills ``seconds`` on the reference
    host; both sides of a comparison then see the same inputs.  A loop
    running past :data:`OVERRUN` times ``seconds`` stops early, so a much
    slower program still ends within the run's time limit.  With a
    recorder each dataset runs twice back to back, untraced and then
    with every layer wrapped, so each pair shares the host's state.
    Just before each untraced query it times :func:`calibrate.task`
    :data:`CALIBRATION_SAMPLES` times and stores the speed factor in the
    query's record.  Returns the untraced and the traced records.
    """
    from calibrate import sample, speed_factor
    from spans import install
    from workloads import clock, make_dataset

    untraced, traced = [], []
    begin = time.perf_counter()
    for index in range(count):
        if untraced and time.perf_counter() - begin > OVERRUN * seconds:
            print("loop stopped after %d of %d datasets: over %gx the window" % (index, count, OVERRUN))
            break
        dataset = make_dataset(workload, seed, index)
        # Each query starts on a collected heap, so no query pays for
        # the garbage of the one before it.
        gc.collect()
        speed = speed_factor([sample(clock) for _ in range(CALIBRATION_SAMPLES)])
        untraced.append(attempt(runner, dataset, index))
        untraced[-1].speed = speed
        if recorder is not None:
            uninstall = install(recorder)
            gc.collect()
            try:
                traced.append(attempt(runner, dataset, index, recorder))
            finally:
                uninstall()
    return untraced, traced


def attempt(runner, dataset, index: int, recorder=None):
    """One query; an exception becomes a failed record, not a crash."""
    from workloads import QueryRecord, exact_skyline

    try:
        return runner.run(dataset, index, exact_skyline(dataset.complete), recorder)
    except Exception as err:  # noqa: BLE001 - a failed query is counted
        return QueryRecord(dataset_index=index, error="%s: %s" % (type(err).__name__, err))


def check(records: list, workload, seed: int, expected: Dict[str, str]) -> List[str]:
    """One problem string per failed query (empty when all are right)."""
    from workloads import dataset_seed

    problems = []
    for record in records:
        label = "dataset %d" % record.dataset_index
        want = expected.get(str(dataset_seed(seed, record.dataset_index)))
        if record.error is not None:
            problems.append("%s: %s" % (label, record.error))
        elif want is not None and record.fingerprint != want:
            problems.append(
                "%s: fingerprint %s, recorded %s" % (label, record.fingerprint, want)
            )
        elif not record.certain_sound:
            problems.append("%s: a certain answer is not in the exact skyline" % label)
        elif record.tasks_posted > workload.budget or len(record.rounds_ms) > workload.latency:
            problems.append("%s: budget or latency exceeded" % label)
    return problems


def _make_runner(workload, workdir: Path):
    from runners import InProcessRunner, ServiceRunner

    cls = ServiceRunner if workload.service else InProcessRunner
    return cls(workload, workdir)


# ----------------------------------------------------------------------
# metrics
# ----------------------------------------------------------------------
def end_to_end(records: list, setup_s: float) -> Dict[str, tuple]:
    """The run's metrics, each query's timings scaled by its speed factor."""
    ok = [r for r in records if r.error is None]
    rounds = [r.speed * ms for r in ok for ms in r.rounds_ms]
    return {
        "query_s": (_median([r.speed * r.query_s for r in ok]), "s"),
        "first_tasks_s": (_median([r.speed * r.first_tasks_s for r in ok]), "s"),
        "round_p50_ms": (_percentile(rounds, 50), "ms"),
        "round_p90_ms": (_percentile(rounds, 90), "ms"),
        "session_s": (_median([r.speed * r.session_s for r in ok]), "s"),
        "setup_s": (setup_s, "s"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
        "answer_f1": (_median([r.answer_f1 for r in ok]), "1"),
    }


def per_layer(traced: list, untraced: list, recorder, runner) -> Dict[str, tuple]:
    """Per-query layer metrics from the traced pass."""
    from spans import layer_times

    ok = [r for r in traced if r.error is None]
    nq = max(len(ok), 1)
    by_name, root_time, _ = recorder.self_times()
    layers = layer_times(by_name)
    counters = recorder.counters

    def per_query(value):
        return value / nq

    def program(key, kind="counters"):
        return sum((r.metrics or {}).get(kind, {}).get(key, 0.0) for r in ok)

    hits = program("engine_cache_hits")
    computed = program("engine_computations")
    paired = {r.dataset_index: r.query_s for r in untraced if r.error is None}
    ratios = [r.query_s / paired[r.dataset_index] for r in ok if r.dataset_index in paired]
    service = getattr(runner, "requests", {})
    plain = [ms for route, values in service.items() if route != "GET events" for ms in values]
    n_requests = sum(len(values) for values in service.values())
    return {
        "bayesnet.learn_s": (per_query(layers["bayesnet"]), "s/query"),
        "bayesnet.inference_calls": (per_query(counters["bayesnet.inference_calls"]), "count/query"),
        "bayesnet.signature_groups": (per_query(counters["bayesnet.signature_groups"]), "count/query"),
        "ctable.build_s": (per_query(by_name.get("build_ctable", 0.0)), "s/query"),
        "ctable.pairs_tested": (per_query(counters["ctable.pairs_tested"]), "count/query"),
        "ctable.pairs_pruned": (per_query(counters["ctable.pairs_pruned"]), "count/query"),
        "ctable.open_conditions": (per_query(counters["ctable.open_conditions"]), "count/query"),
        "ctable.apply_s": (per_query(by_name.get("CTable.apply_answer", 0.0)), "s/query"),
        "ctable.apply_calls": (per_query(counters["ctable.apply_calls"]), "count/query"),
        "probability.batch_s": (per_query(layers["probability"]), "s/query"),
        "probability.calls": (per_query(counters["probability.calls"]), "count/query"),
        "probability.conditions": (per_query(counters["probability.conditions"]), "count/query"),
        "probability.computations": (per_query(counters["probability.computations"]), "count/query"),
        "probability.cache_hit_rate": (hits / (hits + computed) if hits + computed else 0.0, "1"),
        "probability.guard_fallbacks": (per_query(program("engine_guard_fallbacks")), "count/query"),
        "selection.rank_s": (per_query(by_name.get("IncrementalRanker.rank", 0.0)), "s/query"),
        "selection.objects_rescored": (per_query(counters["selection.objects_rescored"]), "count/query"),
        "selection.select_s": (
            per_query(
                sum(
                    by_name.get(name, 0.0)
                    for name in ("prefetch_round", "select_expression", "UtilityEngine.gains")
                )
            ),
            "s/query",
        ),
        "selection.utility_candidates": (per_query(counters["selection.utility_candidates"]), "count/query"),
        "selection.utility_evals": (per_query(program("utility_evals_total")), "count/query"),
        "selection.gain_dedup_ratio": (
            _median([(r.metrics or {}).get("gauges", {}).get("utility_batch_dedup_ratio", 0.0) for r in ok]),
            "1",
        ),
        "crowd.post_s": (per_query(layers["crowd"]), "s/query"),
        "crowd.tasks_posted": (per_query(counters["crowd.tasks_posted"]), "count/query"),
        "crowd.tasks_answered": (per_query(counters["crowd.tasks_answered"]), "count/query"),
        "session.journal_append_s": (per_query(layers["session"]), "s/query"),
        "session.journal_appends": (per_query(counters["session.journal_appends"]), "count/query"),
        "session.journal_bytes": (per_query(counters["session.journal_bytes"]), "bytes/query"),
        "persistence.checkpoint_s": (per_query(layers["persistence"]), "s/query"),
        "service.request_ms": (_median(plain), "ms"),
        "service.requests": (per_query(n_requests), "count/query"),
        "service.rejected": (per_query(getattr(runner, "rejected", 0)), "count/query"),
        "service.overhead_s": (
            _median([r.session_s for r in ok]) - _median([r.query_s for r in ok])
            if service
            else 0.0,
            "s",
        ),
        "obs.tracing_overhead_frac": (_median(ratios) - 1.0 if ratios else 0.0, "1"),
        "obs.attributed_frac": (sum(layers.values()) / root_time if root_time else 0.0, "1"),
    }


def cross_checks(traced: list, recorder) -> List[str]:
    """The wrappers against the program's own counters for the same queries."""
    ok = [r for r in traced if r.error is None and r.metrics]
    by_name, _, _ = recorder.self_times()

    def program(key, kind="counters"):
        return sum(r.metrics.get(kind, {}).get(key, 0.0) for r in ok)

    problems = []
    build = by_name.get("build_ctable", 0.0)
    gauge = program("ctable_seconds", "gauges")
    if abs(build - gauge) > 0.05 * gauge + 0.005 * len(ok):
        problems.append("ctable.build_s %.4f s vs ctable_seconds %.4f s" % (build, gauge))
    for ours, theirs in (
        ("probability.computations", "engine_computations"),
        ("crowd.tasks_posted", "crowd_tasks_posted"),
    ):
        if recorder.counters[ours] != program(theirs):
            problems.append(
                "%s %d vs %s %d" % (ours, recorder.counters[ours], theirs, program(theirs))
            )
    return problems


# ----------------------------------------------------------------------
# report
# ----------------------------------------------------------------------
def attribution_report(workload, recorder, metrics: Dict[str, tuple]) -> List[str]:
    from spans import LAYERS, layer_times

    by_name, root_time, n_roots = recorder.self_times()
    layers = layer_times(by_name)
    lines = ["attribution (self time per query, share of query wall time):"]
    for layer in LAYERS:
        share = layers[layer] / root_time if root_time else 0.0
        lines.append(
            "  %-12s %9.4f s  %6.1f%%   predicted: %s"
            % (layer, layers[layer] / max(n_roots, 1), 100 * share, workload.prediction(layer))
        )
    if workload.service:
        lines.append("  %-12s %9.4f s  (session_s - query_s)   predicted: %s" % (
            "service", metrics["service.overhead_s"][0], workload.prediction("service")))
    lines.append(
        "  obs.attributed_frac %.3f (target >= 0.95), obs.tracing_overhead_frac %+.3f (target <= 0.02)"
        % (metrics["obs.attributed_frac"][0], metrics["obs.tracing_overhead_frac"][0])
    )
    return lines


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", required=True)
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=10.0)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--setup-probe", action="store_true", help=argparse.SUPPRESS)
    args = parser.parse_args(argv)
    if args.setup_probe:
        setup_probe(args.workload, args.seed)
        return 0
    _require_source()
    from workloads import WORKLOADS

    if args.workload not in WORKLOADS:
        parser.error("unknown workload %r; expected one of %s" % (args.workload, ", ".join(WORKLOADS)))
    workload = WORKLOADS[args.workload]
    print(json.dumps({"stamp": stamp(workload, args.seed)}))
    setup_s = measure_setup(workload.name, args.seed) if not args.trace else 0.0
    result = run_workload(workload, args.seed, args.seconds, bool(args.trace), setup_s)
    print(json.dumps(result))
    return 0


def run_workload(workload, seed: int, seconds: float, trace: bool, setup_s: float = 0.0) -> dict:
    """Warm up, measure, check; print the report and return the result."""
    from calibrate import REFERENCE_S
    from spans import SpanRecorder, write_spans
    from workloads import WARMUP_N, make_dataset

    expected = load_fingerprints(workload)
    workdir = _workdir(workload.name)
    runner = None
    try:
        runner = _make_runner(workload, workdir)
        # Two warm-up queries on one tiny dataset pay the lazy imports and
        # first-call costs, and must agree: the same input, the same run.
        tiny = make_dataset(workload.scaled(min(WARMUP_N, workload.n)), seed, 0)
        warm = [attempt(runner, tiny, -1) for _ in range(2)]
        recorder = SpanRecorder() if trace else None
        count = workload.query_count(seconds / 2 if trace else seconds)
        untraced, traced = closed_loop(runner, workload, seed, count, seconds, recorder)
    finally:
        if runner is not None:
            runner.close()
        shutil.rmtree(workdir, ignore_errors=True)

    records = untraced + traced
    problems = check(records, workload, seed, expected)
    if warm[0].error or warm[0].fingerprint != warm[1].fingerprint:
        problems.append("warm-up: two runs of one input differ (%s)" % (warm[0].error or warm[1].error))
    attempted = len(records) + 1
    failed = len(problems)
    if trace:
        metrics = per_layer(traced, untraced, recorder, runner)
        problems += ["cross-check: " + p for p in cross_checks(traced, recorder)]
    else:
        metrics = end_to_end(untraced, setup_s)
    ok = [r for r in untraced if r.error is None]
    print(
        "%s seed %d: %d queries (%d traced), %d round samples, failed_frac %.3f"
        % (
            workload.name,
            seed,
            len(records),
            len(traced),
            sum(len(r.rounds_ms or ()) for r in untraced),
            failed / attempted,
        )
    )
    print(
        "  speed factor median %.4f (reference %.4f s);"
        " unscaled query_s median %.4f s CPU, %.4f s wall"
        % (
            _median([r.speed for r in ok]),
            REFERENCE_S,
            _median([r.query_s for r in ok]),
            _median([r.query_wall_s for r in ok]),
        )
    )
    for problem in problems:
        print("  FAILED " + problem)
    for name, (value, unit) in metrics.items():
        print("  %-30s %14.6g %s" % (name, value, unit))
    if trace:
        for line in attribution_report(workload, recorder, metrics):
            print(line)
        spans_dir = ROOT_DIR / ".perfbench_spans"
        spans_dir.mkdir(exist_ok=True)
        spans_path = spans_dir / ("%s-seed%d.jsonl" % (workload.name, seed))
        write_spans(recorder, spans_path)
        print("  %d spans written to %s" % (len(recorder.spans), spans_path.relative_to(ROOT_DIR)))
        if getattr(runner, "requests", None):
            for route, values in sorted(runner.requests.items()):
                print("  service %-22s n=%-4d p50 %.2f ms" % (route, len(values), _median(values)))
    return {
        "correct": not problems,
        "attempted": attempted,
        "failed": failed,
        "metrics": {name: {"value": value, "unit": unit} for name, (value, unit) in metrics.items()},
    }


if __name__ == "__main__":
    sys.path.insert(0, str(HERE))
    sys.exit(main())
