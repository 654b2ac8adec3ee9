"""Workload definitions, inputs and correctness checks of the benchmark.

Every workload is a closed loop with one caller: the next query starts
only after the previous one returned.  A run with seed ``s`` feeds the
program a fixed sequence of datasets, dataset ``i`` drawn with seed
``s * 1000 + i``, so the same seed always gives the same inputs and a
run's medians average over several datasets instead of resting on one.
"""

from __future__ import annotations

import hashlib
import json
import time
from dataclasses import dataclass, replace
from typing import Dict, List, Optional

import numpy as np

#: objects in the tiny dataset the warm-up queries run on
WARMUP_N = 150

#: The clock every end-to-end timing reads: CPU time of this process,
#: which runs the program (in process, or as the service's server).  It
#: leaves out the time a shared virtual host hands this machine's CPUs
#: to other tenants (the kernel accounts it as steal); for the
#: single-threaded in-process queries it agrees with the wall clock on
#: an idle host.  For the service it also leaves out waits on the disk
#: (``fsync``) and the event stream's poll interval.
clock = time.process_time


#: expected share of each layer on a workload that does not say otherwise
DEFAULT_PREDICTIONS = {
    "bayesnet": "small: moves first_tasks_s and query_s",
    "crowd": "small, constant share (simulated crowd)",
    "session": "0: no journal",
    "persistence": "0: no checkpoint",
}


@dataclass(frozen=True)
class Workload:
    """One benchmark workload: a dataset family plus one query config."""

    name: str
    #: dataset generator: "synthetic" (Adult-like BN) or "nba" (stand-in)
    kind: str
    n: int
    missing_rate: float
    budget: int
    latency: int
    strategy: str
    #: run with a write-ahead journal and a per-round checkpoint
    journal: bool = False
    #: open each query as a session of the HTTP service
    service: bool = False
    #: seconds per query on the reference host (2 cores); a run of
    #: ``--seconds`` measures ``seconds / nominal_s`` queries, so compared
    #: commits see the same inputs.  In the host's slower phases a query
    #: takes up to 1.5x this and the loop stops at its time limit first
    nominal_s: float = 1.0
    alpha: float = 0.01
    why: str = ""
    #: what each layer's share of the time should be, where it differs
    #: from :data:`DEFAULT_PREDICTIONS`
    predictions: Optional[Dict[str, str]] = None

    def prediction(self, layer: str) -> str:
        return {**DEFAULT_PREDICTIONS, **(self.predictions or {})}.get(layer, "-")

    def config_kwargs(self) -> dict:
        """The query's config; every other knob keeps the program default."""
        return {
            "alpha": self.alpha,
            "budget": self.budget,
            "latency": self.latency,
            "strategy": self.strategy,
        }

    def query_count(self, seconds: float) -> int:
        """Queries a run of ``seconds`` measures: it fills the window here."""
        return max(3, round(seconds / self.nominal_s))

    def scaled(self, n: int) -> "Workload":
        """The same workload on ``n``-object datasets (used by the tests)."""
        return replace(self, n=n)


WORKLOADS: Dict[str, Workload] = {
    w.name: w
    for w in (
        Workload(
            name="paper-2000",
            kind="synthetic",
            n=2000,
            missing_rate=0.1,
            budget=100,
            latency=10,
            strategy="hhs",
            nominal_s=1.0,
            why=(
                "the paper's default query (B=100, L=10, HHS) on Adult-like "
                "data; probability and selection carry most of its time"
            ),
            predictions={
                "bayesnet": "~11% (1.1 s of 9.6 s at n=10k)",
                "ctable": "~18% (1.7 s of 9.6 s at n=10k)",
                "probability": "with selection most of the time; moves query_s, round_p50_ms",
                "selection": "with probability most of the time; moves round_*",
            },
        ),
        Workload(
            name="service-sessions",
            kind="nba",
            n=1000,
            missing_rate=0.1,
            budget=300,
            latency=30,
            strategy="ubs",
            journal=True,
            service=True,
            nominal_s=1.0,
            why=(
                "up to 30 UBS rounds on NBA-like data opened as HTTP service "
                "sessions with fsync-ed journal and checkpoints: answer "
                "writes beside the reads, through service, store and "
                "supervisor"
            ),
            predictions={
                "ctable": "~9% build (0.26 s of 2.8 s); apply_answer moves round_p90_ms",
                "probability": "large: the crowd rounds take 2.2 s of 2.8 s",
                "selection": "large: UBS scores every candidate every round",
                "session": "visible: fsync-ed appends move round_p90_ms and session_s",
                "persistence": "visible: per-round checkpoints and store writes",
                "service": "moves session_s",
            },
        ),
    )
}


def dataset_seed(seed: int, index: int) -> int:
    """Seed of the ``index``-th dataset of a run with workload seed ``seed``."""
    return seed * 1000 + index


def make_dataset(workload: Workload, seed: int, index: int):
    """The ``index``-th input dataset of a run with workload seed ``seed``."""
    from repro.datasets import generate_nba, generate_synthetic

    generate = generate_synthetic if workload.kind == "synthetic" else generate_nba
    return generate(
        n_objects=workload.n,
        missing_rate=workload.missing_rate,
        seed=dataset_seed(seed, index),
    )


def exact_skyline(values: np.ndarray) -> List[int]:
    """Skyline of a complete matrix, larger is better, duplicates kept.

    Rows are visited by descending attribute sum, so any dominator of a
    row is visited before it and the window only ever grows.
    """
    values = np.asarray(values)
    order = np.argsort(-values.sum(axis=1), kind="stable")
    window = np.empty_like(values)
    size = 0
    members = []
    for idx in order.tolist():
        row = values[idx]
        if size:
            front = window[:size]
            if ((front >= row).all(axis=1) & (front > row).any(axis=1)).any():
                continue
        window[size] = row
        size += 1
        members.append(idx)
    return sorted(members)


def f1(predicted, truth) -> float:
    predicted, truth = set(predicted), set(truth)
    if not predicted and not truth:
        return 1.0
    hits = len(predicted & truth)
    if hits == 0:
        return 0.0
    precision, recall = hits / len(predicted), hits / len(truth)
    return 2.0 * precision * recall / (precision + recall)


def certain_sound(certain, answers, truth) -> bool:
    """Are the certain answers all reported and all true skyline members?"""
    certain = set(certain)
    return certain <= set(answers) and certain <= set(truth)


def fingerprint(answers, rounds: List[List[str]], tasks_posted: int) -> str:
    """Hash of the sorted answers, per-round task expressions and task count."""
    payload = json.dumps(
        {
            "answers": sorted(int(a) for a in answers),
            "rounds": rounds,
            "tasks_posted": int(tasks_posted),
        },
        separators=(",", ":"),
    )
    return hashlib.sha256(payload.encode()).hexdigest()[:16]


class TimedPlatform:
    """Crowd platform wrapper timing every ``post_batch`` from outside.

    Records when each batch was posted and its answers returned (on
    :data:`clock`), and the batch's task expressions in order; every
    other attribute is the wrapped platform's, so checkpoints and
    recovery see the real one.
    """

    def __init__(self, inner) -> None:
        self.inner = inner
        self.posted_at: List[float] = []
        self.returned_at: List[float] = []
        self.batches: List[List[str]] = []

    def post_batch(self, tasks):
        self.posted_at.append(clock())
        self.batches.append([str(task.expression) for task in tasks])
        answers = self.inner.post_batch(tasks)
        self.returned_at.append(clock())
        return answers

    def __getattr__(self, name):
        return getattr(self.inner, name)

    def round_ms(self, end: float) -> List[float]:
        """Machine time of each round: answers returned to the next post.

        The last round ends when the query returns its result instead.
        """
        starts = self.returned_at
        ends = self.posted_at[1 : len(starts)] + [end]
        return [(e - s) * 1000.0 for s, e in zip(starts, ends)]


@dataclass
class QueryRecord:
    """What one query (or service session) showed its caller."""

    dataset_index: int
    query_s: float = 0.0
    #: the same query on the wall clock, printed for reference
    query_wall_s: float = 0.0
    #: multiplier taking this query's timings to the reference host's
    #: speed, from calibration samples taken just before it
    speed: float = 1.0
    session_s: float = 0.0
    first_tasks_s: float = 0.0
    rounds_ms: Optional[List[float]] = None
    answer_f1: float = 0.0
    #: every certain answer is an answer and in the exact skyline; with
    #: the default error-free simulated crowd this must always hold
    certain_sound: bool = False
    fingerprint: str = ""
    tasks_posted: int = 0
    #: the run's own metrics snapshot (counters/gauges), when read
    metrics: Optional[dict] = None
    error: Optional[str] = None
