"""Record the answers the benchmark checks every query against.

    python3 perfbench/record_fingerprints.py --seeds 0-31 --workers 2

Runs each distinct query of the workloads in process on every dataset a
run of ``run_seconds`` (from BENCHMARK.json) measures, for every run
seed, and writes their fingerprints to ``fingerprints.json``, keyed by
query and dataset seed; datasets already in the file are skipped.
Record them at a commit whose answers are the reference; a later commit
must then return the same answers and the same per-round task
selections.
"""

from __future__ import annotations

import argparse
import json
import multiprocessing
import shutil
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
sys.path.insert(0, str(HERE))

import run as bench  # noqa: E402


def _record(job):
    name, seed, n_datasets, done = job
    bench._require_source()
    from runners import InProcessRunner
    from workloads import WORKLOADS, dataset_seed, exact_skyline, make_dataset

    workload = WORKLOADS[name]
    workdir = bench._workdir("record-%s-%d" % (name, seed))
    runner = InProcessRunner(workload, workdir)
    out = {}
    try:
        for index in range(n_datasets):
            if str(dataset_seed(seed, index)) in done:
                continue
            dataset = make_dataset(workload, seed, index)
            record = runner.run(dataset, index, exact_skyline(dataset.complete))
            out[str(dataset_seed(seed, index))] = record.fingerprint
    finally:
        shutil.rmtree(workdir, ignore_errors=True)
    return bench._query_key(workload), out


def main() -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--seeds", default="0-31", help="inclusive range, e.g. 0-31")
    parser.add_argument("--workers", type=int, default=1)
    args = parser.parse_args()
    bench._require_source()
    from workloads import WORKLOADS

    low, high = (int(x) for x in args.seeds.split("-"))
    run_seconds = json.loads((HERE.parent / "BENCHMARK.json").read_text())["run_seconds"]
    counts = {}
    for workload in WORKLOADS.values():
        key = bench._query_key(workload)
        count = workload.query_count(run_seconds)
        if count > counts.get(key, (None, 0))[1]:
            counts[key] = (workload.name, count)
    table = json.loads(bench.FINGERPRINTS.read_text()) if bench.FINGERPRINTS.is_file() else {}
    jobs = [
        (name, seed, count, set(table.get(key, ())))
        for key, (name, count) in counts.items()
        for seed in range(low, high + 1)
    ]
    context = multiprocessing.get_context("spawn")
    with context.Pool(args.workers) as pool:
        for key, fingerprints in pool.imap_unordered(_record, jobs):
            table.setdefault(key, {}).update(fingerprints)
            print(key, len(table[key]), flush=True)
    for key in table:
        table[key] = dict(sorted(table[key].items(), key=lambda item: int(item[0])))
    bench.FINGERPRINTS.write_text(json.dumps(table, indent=1, sort_keys=True) + "\n")
    return 0


if __name__ == "__main__":
    sys.exit(main())
