"""Verify exported observability artifacts (the CI bench-smoke gate).

Usage::

    python -m repro.obs metrics.json [--trace trace.jsonl] \
        [--phases preprocess ctable probability round]

Exit status 0 means the metrics snapshot registers a ``phase_seconds_*``
histogram for every required pipeline phase and (when ``--trace`` is
given) the JSONL event log parses line by line with every applied answer
accounted for by an issued task and the preprocessing stage spans
(``preprocess.structure``, ``preprocess.posteriors``) fitting inside
their ``preprocess`` span.  The stages are phases too, so
``--phases preprocess.structure preprocess.posteriors`` requires them.
"""

from __future__ import annotations

import argparse
import json
import sys
from typing import List, Optional

from .events import read_events
from .metrics import PIPELINE_PHASES, check_phases

#: Selection-phase counters every BayesCrowd run exports (batched or not).
SELECTION_COUNTERS = (
    "utility_candidates_total",
    "utility_evals_total",
    "residual_cache_hits",
    "utility_skipped_total",
)

#: Answer-integrity counters the ledger exports on every run.
INTEGRITY_COUNTERS = (
    "answers_aggregated",
    "answers_applied",
    "answers_quarantined",
)

#: Pair-accounting counters of c-table construction.
CTABLE_COUNTERS = (
    "ctable_pairs_tested",
    "ctable_pairs_pruned",
    "ctable_pair_universe",
)

#: Circuit-accounting counters of the compiled/forest probability backends.
PROBABILITY_COUNTERS = (
    "engine_circuits_compiled",
    "engine_circuit_nodes",
    "engine_propagations",
    "engine_recompiles",
    "engine_compile_fallbacks",
    "engine_forest_nodes",
    "engine_nodes_shared",
)


def verify_probability(snapshot: dict, require: bool = False) -> List[str]:
    """Problems with the compiled-backend circuit accounting (empty = ok).

    The engine exports the counters on every run (zeros when the backend
    is "adpll"); invariants: all non-negative, every recompile is a
    compile (``recompiles <= circuits_compiled``), and any compiled
    circuit has at least one node (``circuit_nodes >= circuits_compiled``
    whenever anything compiled).  With ``require=False`` snapshots that
    predate the counters pass vacuously; ``require=True`` makes their
    absence an error.
    """
    counters = snapshot.get("counters", {})
    missing = [name for name in PROBABILITY_COUNTERS if name not in counters]
    if missing:
        if require:
            return ["probability counter(s) missing: %s" % ", ".join(missing)]
        return []
    problems: List[str] = []
    if any(counters[name] < 0 for name in PROBABILITY_COUNTERS):
        problems.append("probability circuit counters must be non-negative")
    compiled = counters["engine_circuits_compiled"]
    nodes = counters["engine_circuit_nodes"]
    recompiles = counters["engine_recompiles"]
    if recompiles > compiled:
        problems.append(
            "engine_recompiles %r exceeds engine_circuits_compiled %r"
            % (recompiles, compiled)
        )
    if compiled > 0 and nodes < compiled:
        problems.append(
            "engine_circuit_nodes %r < engine_circuits_compiled %r "
            "(every circuit has at least one node)" % (nodes, compiled)
        )
    shared = snapshot.get("gauges", {}).get("engine_shared_fraction")
    if shared is not None and not 0.0 <= shared <= 1.0:
        problems.append(
            "gauge engine_shared_fraction %r outside [0, 1]" % (shared,)
        )
    if counters["engine_nodes_shared"] > 0 and counters["engine_forest_nodes"] == 0:
        problems.append(
            "engine_nodes_shared %r with an empty forest"
            % (counters["engine_nodes_shared"],)
        )
    return problems


def verify_ctable(snapshot: dict, require: bool = False) -> List[str]:
    """Problems with the c-table pair accounting (empty = consistent).

    Checks the pruning pre-pass invariant: every ordered object pair is
    either dominance-tested or pruned in bulk, i.e. ``pairs_tested +
    pairs_pruned == pair_universe == n * (n - 1)``.  With
    ``require=False`` snapshots that predate the counters pass vacuously;
    ``require=True`` makes their absence an error.
    """
    counters = snapshot.get("counters", {})
    missing = [name for name in CTABLE_COUNTERS if name not in counters]
    if missing:
        if require:
            return ["ctable counter(s) missing: %s" % ", ".join(missing)]
        return []
    problems: List[str] = []
    tested = counters["ctable_pairs_tested"]
    pruned = counters["ctable_pairs_pruned"]
    universe = counters["ctable_pair_universe"]
    if tested + pruned != universe:
        problems.append(
            "ctable_pairs_tested %r + ctable_pairs_pruned %r != "
            "ctable_pair_universe %r" % (tested, pruned, universe)
        )
    if tested < 0 or pruned < 0 or universe < 0:
        problems.append("ctable pair counters must be non-negative")
    # The n*(n-1) cross-check is only well-defined for a registry holding
    # exactly one build; multi-build registries (benches) sum counters,
    # for which only the additive invariant above holds.
    n_objects = counters.get("ctable_n_objects")
    if (
        counters.get("ctable_builds") == 1
        and n_objects is not None
        and universe != n_objects * (n_objects - 1)
    ):
        problems.append(
            "ctable_pair_universe %r != n * (n - 1) for n_objects %r"
            % (universe, n_objects)
        )
    return problems


def verify_integrity(snapshot: dict, require: bool = False) -> List[str]:
    """Problems with the answer-integrity counters (empty = consistent).

    Checks the ledger's accounting invariant: every aggregated answer is
    either applied to the c-table or quarantined, i.e.
    ``answers_quarantined + answers_applied == answers_aggregated``.
    With ``require=False`` snapshots that predate the ledger pass
    vacuously; ``require=True`` makes their absence an error.
    """
    counters = snapshot.get("counters", {})
    missing = [name for name in INTEGRITY_COUNTERS if name not in counters]
    if missing:
        if require:
            return ["integrity counter(s) missing: %s" % ", ".join(missing)]
        return []
    problems: List[str] = []
    aggregated = counters["answers_aggregated"]
    applied = counters["answers_applied"]
    quarantined = counters["answers_quarantined"]
    if quarantined + applied != aggregated:
        problems.append(
            "answers_quarantined %r + answers_applied %r != "
            "answers_aggregated %r" % (quarantined, applied, aggregated)
        )
    reasked = counters.get("answers_reasked", 0)
    if reasked > aggregated and aggregated > 0:
        problems.append(
            "answers_reasked %r exceeds answers_aggregated %r"
            % (reasked, aggregated)
        )
    if quarantined < 0 or applied < 0 or aggregated < 0:
        problems.append("integrity counters must be non-negative")
    return problems


def verify_selection(snapshot: dict, require: bool = False) -> List[str]:
    """Problems with the selection-phase counters (empty = consistent).

    Checks the accounting invariant of the batched utility scorer: every
    candidate gain request is either freshly evaluated, served by the
    dedup/cross-round cache, or skipped at zero entropy, so
    ``utility_evals_total == utility_candidates_total -
    residual_cache_hits - utility_skipped_total``.  With ``require=False``
    snapshots that predate the counters (or come from non-query runs) pass
    vacuously; ``require=True`` makes their absence an error.
    """
    counters = snapshot.get("counters", {})
    missing = [name for name in SELECTION_COUNTERS if name not in counters]
    if missing:
        if require:
            return ["selection counter(s) missing: %s" % ", ".join(missing)]
        return []
    problems: List[str] = []
    expected = (
        counters["utility_candidates_total"]
        - counters["residual_cache_hits"]
        - counters["utility_skipped_total"]
    )
    if counters["utility_evals_total"] != expected:
        problems.append(
            "utility_evals_total %r != candidates %r - cache hits %r - skipped %r"
            % (
                counters["utility_evals_total"],
                counters["utility_candidates_total"],
                counters["residual_cache_hits"],
                counters["utility_skipped_total"],
            )
        )
    ratio = snapshot.get("gauges", {}).get("utility_batch_dedup_ratio")
    if ratio is None:
        if require:
            problems.append("gauge utility_batch_dedup_ratio missing")
    elif not 0.0 <= ratio <= 1.0:
        problems.append("utility_batch_dedup_ratio %r outside [0, 1]" % ratio)
    return problems


def verify_trace(path: str) -> List[str]:
    """Problems found in a JSONL trace (empty = consistent)."""
    problems: List[str] = []
    try:
        events = read_events(path)
    except (OSError, json.JSONDecodeError) as err:
        return ["trace unreadable: %s" % err]
    if not events:
        return ["trace is empty"]
    kinds = {event.get("event") for event in events}
    for required in ("run_start", "run_end"):
        if required not in kinds:
            problems.append("trace has no %r event" % required)
    issued_ids = set()
    issued_count = 0
    for event in events:
        if event.get("event") == "tasks_issued":
            tasks = event.get("tasks", [])
            issued_count += len(tasks)
            issued_ids.update(task["task_id"] for task in tasks)
            if event.get("count") != len(tasks):
                problems.append(
                    "tasks_issued event %s count %r != %d listed tasks"
                    % (event.get("seq"), event.get("count"), len(tasks))
                )
    answered_ids = set()
    for event in events:
        if event.get("event") == "answers_applied":
            answered_ids.update(event.get("task_ids", []))
    unaccounted = answered_ids - issued_ids
    if unaccounted:
        problems.append(
            "%d answered task(s) were never issued: %s"
            % (len(unaccounted), sorted(unaccounted)[:5])
        )
    problems.extend(_preprocess_problems(events))
    for event in events:
        if event.get("event") == "run_end":
            posted = event.get("tasks_posted")
            if posted is not None and posted != issued_count:
                problems.append(
                    "run_end reports %r tasks posted but %d were issued"
                    % (posted, issued_count)
                )
    return problems


def _preprocess_problems(events: List[dict]) -> List[str]:
    """Stage spans (``preprocess.structure``, ``preprocess.posteriors``)
    must follow their ``preprocess`` span and fit inside it."""
    problems: List[str] = []
    # [parent seconds, sum of its children's seconds] per preprocess span
    groups: List[List[float]] = []
    for event in events:
        if event.get("event") != "span":
            continue
        if event.get("name") == "preprocess":
            groups.append([float(event.get("seconds", 0.0)), 0.0])
        elif event.get("parent") == "preprocess":
            if not groups:
                problems.append(
                    "span %r precedes its preprocess span" % event.get("name")
                )
                continue
            groups[-1][1] += float(event.get("seconds", 0.0))
    for parent, children in groups:
        # Offsets are rounded separately; allow for float noise only.
        if children > parent + 1e-9:
            problems.append(
                "preprocess stage spans sum to %.6f s, more than the "
                "preprocess span's %.6f s" % (children, parent)
            )
    return problems


def main(argv: Optional[List[str]] = None) -> int:
    parser = argparse.ArgumentParser(
        prog="repro.obs",
        description="Verify a metrics snapshot (and optional JSONL trace).",
    )
    parser.add_argument("metrics", help="metrics snapshot JSON path")
    parser.add_argument(
        "--trace", default=None, help="JSONL event log to cross-check"
    )
    parser.add_argument(
        "--phases", nargs="+", default=list(PIPELINE_PHASES),
        help="pipeline phases the snapshot must register",
    )
    parser.add_argument(
        "--selection", action="store_true",
        help="require the selection-phase utility counters and check "
        "their accounting invariant (evals = candidates - cache hits - "
        "skipped); without this flag the invariant is still checked "
        "whenever the counters are present",
    )
    parser.add_argument(
        "--integrity", action="store_true",
        help="require the answer-integrity ledger counters and check "
        "their accounting invariant (quarantined + applied == "
        "aggregated); without this flag the invariant is still checked "
        "whenever the counters are present",
    )
    parser.add_argument(
        "--ctable", action="store_true",
        help="require the c-table pair-accounting counters and check "
        "their invariant (pairs_tested + pairs_pruned == pair_universe "
        "== n*(n-1)); without this flag the invariant is still checked "
        "whenever the counters are present",
    )
    parser.add_argument(
        "--probability", action="store_true",
        help="require the compiled-backend circuit counters and check "
        "their accounting invariants (recompiles <= circuits_compiled, "
        "circuit_nodes >= circuits_compiled); without this flag the "
        "invariants are still checked whenever the counters are present",
    )
    parser.add_argument(
        "--journal", default=None, metavar="PATH",
        help="verify a write-ahead answer journal: per-record checksums "
        "and sequence, plus replay invariants (open header first, "
        "answers inside rounds, rounds commit in order, no task "
        "answered twice)",
    )
    args = parser.parse_args(argv)

    try:
        with open(args.metrics, "r", encoding="utf-8") as handle:
            snapshot = json.load(handle)
    except (OSError, json.JSONDecodeError) as err:
        print("cannot read metrics snapshot: %s" % err, file=sys.stderr)
        return 2
    missing = check_phases(snapshot, args.phases)
    if missing:
        print(
            "metrics schema is missing phase histogram(s): %s"
            % ", ".join("phase_seconds_%s" % phase for phase in missing),
            file=sys.stderr,
        )
        return 2
    selection_problems = verify_selection(snapshot, require=args.selection)
    if selection_problems:
        for problem in selection_problems:
            print("selection problem: %s" % problem, file=sys.stderr)
        return 2
    integrity_problems = verify_integrity(snapshot, require=args.integrity)
    if integrity_problems:
        for problem in integrity_problems:
            print("integrity problem: %s" % problem, file=sys.stderr)
        return 2
    ctable_problems = verify_ctable(snapshot, require=args.ctable)
    if ctable_problems:
        for problem in ctable_problems:
            print("ctable problem: %s" % problem, file=sys.stderr)
        return 2
    probability_problems = verify_probability(snapshot, require=args.probability)
    if probability_problems:
        for problem in probability_problems:
            print("probability problem: %s" % problem, file=sys.stderr)
        return 2
    print(
        "metrics ok: %d counters, %d gauges, %d histograms (phases: %s)"
        % (
            len(snapshot.get("counters", {})),
            len(snapshot.get("gauges", {})),
            len(snapshot.get("histograms", {})),
            ", ".join(args.phases),
        )
    )
    if args.selection:
        print("selection ok: utility counter accounting adds up")
    if args.integrity:
        print("integrity ok: quarantined + applied == aggregated")
    if args.ctable:
        print("ctable ok: pairs_tested + pairs_pruned == pair_universe")
    if args.probability:
        print("probability ok: circuit compile/propagate accounting adds up")
    if args.trace is not None:
        problems = verify_trace(args.trace)
        if problems:
            for problem in problems:
                print("trace problem: %s" % problem, file=sys.stderr)
            return 2
        print("trace ok: %s parses and accounts for every issued task" % args.trace)
    if args.journal is not None:
        from ..session.journal import journal_problems

        problems = journal_problems(args.journal)
        if problems:
            for problem in problems:
                print("journal problem: %s" % problem, file=sys.stderr)
            return 2
        print("journal ok: %s verifies and replays consistently" % args.journal)
    return 0


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
