"""Round-trip tests for dataset and result persistence."""

import json

import numpy as np
import pytest

from repro import BayesCrowd, BayesCrowdConfig, FaultModel, generate_nba
from repro.ctable import Relation, var_greater_const, var_greater_var
from repro.errors import CheckpointError
from repro.persistence import (
    CHECKPOINT_VERSION,
    FORMAT_VERSION,
    QueryCheckpoint,
    expression_from_json,
    expression_to_json,
    load_checkpoint,
    load_dataset,
    load_result,
    result_to_dict,
    save_checkpoint,
    save_dataset,
    save_result,
)


class TestDatasetRoundTrip:
    def test_full_round_trip(self, tmp_path, nba_small):
        path = tmp_path / "nba.npz"
        save_dataset(nba_small, path)
        loaded = load_dataset(path)
        assert np.array_equal(loaded.values, nba_small.values)
        assert np.array_equal(loaded.complete, nba_small.complete)
        assert loaded.domain_sizes == nba_small.domain_sizes
        assert loaded.attribute_names == nba_small.attribute_names
        assert loaded.name == nba_small.name

    def test_without_ground_truth(self, tmp_path, movies):
        blind = movies.__class__(
            values=movies.values, domain_sizes=movies.domain_sizes, complete=None
        )
        path = tmp_path / "blind.npz"
        save_dataset(blind, path)
        loaded = load_dataset(path)
        assert loaded.complete is None
        assert np.array_equal(loaded.mask, blind.mask)

    def test_version_check(self, tmp_path, movies):
        path = tmp_path / "m.npz"
        save_dataset(movies, path)
        # Corrupt the version.
        with np.load(path, allow_pickle=True) as archive:
            payload = {k: archive[k] for k in archive.files}
        payload["format_version"] = np.array([99])
        np.savez_compressed(path, **payload, allow_pickle=True)
        with pytest.raises(ValueError):
            load_dataset(path)

    def test_loaded_dataset_runs_a_query(self, tmp_path):
        dataset = generate_nba(n_objects=60, missing_rate=0.1, seed=1)
        path = tmp_path / "ds.npz"
        save_dataset(dataset, path)
        loaded = load_dataset(path)
        config = BayesCrowdConfig(alpha=0.1, budget=6, latency=2)
        result = BayesCrowd(loaded, config).run()
        assert result.tasks_posted <= 6


class TestResultRoundTrip:
    def _result(self):
        dataset = generate_nba(n_objects=60, missing_rate=0.1, seed=1)
        config = BayesCrowdConfig(alpha=0.1, budget=8, latency=2)
        return BayesCrowd(dataset, config).run()

    def test_round_trip(self, tmp_path):
        result = self._result()
        path = tmp_path / "result.json"
        save_result(result, path)
        loaded = load_result(path)
        assert loaded.answers == result.answers
        assert loaded.tasks_posted == result.tasks_posted
        assert loaded.rounds == result.rounds
        assert loaded.initial_answers == result.initial_answers
        assert len(loaded.history) == len(result.history)
        if result.history:
            assert loaded.history[0].objects == result.history[0].objects

    def test_dict_is_json_serializable(self):
        payload = result_to_dict(self._result())
        text = json.dumps(payload)
        assert str(FORMAT_VERSION) in text or payload["format_version"] == FORMAT_VERSION

    def test_version_check(self, tmp_path):
        path = tmp_path / "result.json"
        save_result(self._result(), path)
        data = json.loads(path.read_text())
        data["format_version"] = 99
        path.write_text(json.dumps(data))
        with pytest.raises(ValueError):
            load_result(path)

    def test_degraded_fields_round_trip(self, tmp_path):
        dataset = generate_nba(n_objects=60, missing_rate=0.1, seed=1)
        config = BayesCrowdConfig(
            alpha=0.1,
            budget=8,
            latency=3,
            backoff_base=0.0,
            faults=FaultModel(drop_rate=0.5, transient_every=2),
        )
        result = BayesCrowd(dataset, config).run()
        assert result.degraded
        path = tmp_path / "degraded.json"
        save_result(result, path)
        loaded = load_result(path)
        assert loaded.degraded
        assert loaded.fault_counts == result.fault_counts
        assert loaded.tasks_answered == result.tasks_answered
        assert [r.faults for r in loaded.history] == [
            r.faults for r in result.history
        ]
        assert [r.tasks_answered for r in loaded.history] == [
            r.tasks_answered for r in result.history
        ]

    def test_legacy_result_without_fault_fields_loads(self, tmp_path):
        path = tmp_path / "legacy.json"
        save_result(self._result(), path)
        data = json.loads(path.read_text())
        for key in ("tasks_answered", "degraded", "fault_counts", "resumed"):
            data.pop(key, None)
        for entry in data["history"]:
            for key in ("tasks_answered", "retries", "faults"):
                entry.pop(key, None)
        path.write_text(json.dumps(data))
        loaded = load_result(path)
        assert loaded.tasks_answered == loaded.tasks_posted
        assert not loaded.degraded
        assert loaded.fault_counts == {}
        for record in loaded.history:
            assert record.tasks_answered == record.tasks_posted


class TestAtomicPersistence:
    """Every save is tmp-file + ``os.replace``: a crash mid-write can
    never leave a half-written artifact under the final name, and a
    successful save leaves no stray temp files behind."""

    def test_save_result_is_atomic(self, tmp_path):
        dataset = generate_nba(n_objects=60, missing_rate=0.1, seed=1)
        result = BayesCrowd(
            dataset, BayesCrowdConfig(alpha=0.1, budget=6, latency=2)
        ).run()
        path = tmp_path / "result.json"
        save_result(result, path)
        save_result(result, path)  # overwrite in place
        assert [p.name for p in tmp_path.iterdir()] == ["result.json"]
        assert load_result(path).answers == result.answers

    def test_save_dataset_is_atomic(self, tmp_path, nba_small):
        path = tmp_path / "nba.npz"
        save_dataset(nba_small, path)
        save_dataset(nba_small, path)
        assert [p.name for p in tmp_path.iterdir()] == ["nba.npz"]
        assert np.array_equal(load_dataset(path).values, nba_small.values)


class TestExpressionJson:
    @pytest.mark.parametrize(
        "expression",
        [var_greater_const(4, 1, 2), var_greater_var(0, 1, 2)],
    )
    def test_round_trip(self, expression):
        data = json.loads(json.dumps(expression_to_json(expression)))
        assert expression_from_json(data) == expression


class TestCheckpointRoundTrip:
    def _checkpoint(self):
        return QueryCheckpoint(
            fingerprint={"dataset": "nba", "seed": 3},
            budget_left=7,
            answer_log=[
                (var_greater_const(4, 1, 2), Relation.GREATER),
                (var_greater_var(0, 1, 2), Relation.EQUAL),
            ],
            pending=[(var_greater_const(1, 1, 3), 1)],
            fault_totals={"unanswered": 2},
            degraded=True,
            rng_state={"bit_generator": "PCG64", "has_uint32": 0, "uinteger": 0,
                       "state": {"state": 1, "inc": 2}},
        )

    def test_round_trip(self, tmp_path):
        path = tmp_path / "run.ckpt.json"
        save_checkpoint(self._checkpoint(), path)
        loaded = load_checkpoint(path)
        assert loaded.fingerprint == {"dataset": "nba", "seed": 3}
        assert loaded.budget_left == 7
        assert loaded.answer_log == self._checkpoint().answer_log
        assert loaded.pending == [(var_greater_const(1, 1, 3), 1)]
        assert loaded.fault_totals == {"unanswered": 2}
        assert loaded.degraded
        assert loaded.rng_state["bit_generator"] == "PCG64"

    def test_argument_order_is_forgiving(self, tmp_path):
        path = tmp_path / "run.ckpt.json"
        save_checkpoint(path, self._checkpoint())
        assert load_checkpoint(path).budget_left == 7

    def test_missing_file_is_checkpoint_error(self, tmp_path):
        with pytest.raises(CheckpointError):
            load_checkpoint(tmp_path / "nope.json")

    def test_garbage_file_is_checkpoint_error(self, tmp_path):
        path = tmp_path / "garbage.json"
        path.write_text("{not json")
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_wrong_kind_rejected(self, tmp_path):
        path = tmp_path / "other.json"
        path.write_text(json.dumps({"kind": "something-else"}))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_version_check(self, tmp_path):
        path = tmp_path / "run.ckpt.json"
        save_checkpoint(self._checkpoint(), path)
        data = json.loads(path.read_text())
        assert data["format_version"] == CHECKPOINT_VERSION
        data["format_version"] = 99
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)

    def test_atomic_write_leaves_no_temp_files(self, tmp_path):
        path = tmp_path / "run.ckpt.json"
        save_checkpoint(self._checkpoint(), path)
        save_checkpoint(self._checkpoint(), path)  # overwrite in place
        assert [p.name for p in tmp_path.iterdir()] == ["run.ckpt.json"]


class TestCheckpointV2:
    def _checkpoint_with_ledger(self):
        from repro.crowd import AnswerLedger, WorkerReliability

        ledger = AnswerLedger(domain_sizes=[6, 4])
        ledger.observe(var_greater_var(0, 1, 0), Relation.GREATER)
        ledger.observe(
            var_greater_var(0, 1, 0), Relation.LESS, strict=True, task_id=9
        )
        reliability = WorkerReliability(prior=(4.0, 1.0))
        reliability.observe(1, True)
        reliability.observe(-1, False)
        return QueryCheckpoint(
            fingerprint={"dataset": "nba", "seed": 3},
            budget_left=5,
            answer_log=[(var_greater_var(0, 1, 0), Relation.GREATER)],
            ledger_state=ledger.state_dict(),
            reliability_state=reliability.state_dict(),
        )

    def test_v2_round_trips_ledger_and_reliability(self, tmp_path):
        from repro.crowd import AnswerLedger, WorkerReliability

        path = tmp_path / "run.ckpt.json"
        save_checkpoint(self._checkpoint_with_ledger(), path)
        loaded = load_checkpoint(path)
        assert json.loads(path.read_text())["format_version"] == CHECKPOINT_VERSION

        restored = AnswerLedger(domain_sizes=[6, 4])
        restored.load_state_dict(loaded.ledger_state)
        assert restored.answers_aggregated == 2
        assert restored.answers_quarantined == 1

        reliability = WorkerReliability.from_state_dict(loaded.reliability_state)
        assert reliability.accuracy(1) > reliability.accuracy(-1)

    def test_v1_checkpoint_still_loads(self, tmp_path):
        """A checkpoint written before the ledger existed resumes with an
        empty ledger and prior reliability (both fields None)."""
        path = tmp_path / "old.ckpt.json"
        payload = {
            "format_version": 1,
            "kind": "bayescrowd-checkpoint",
            "fingerprint": {"dataset": "nba", "seed": 3},
            "budget_left": 4,
            "answer_log": [
                [expression_to_json(var_greater_const(0, 1, 2)),
                 Relation.GREATER.value],
            ],
            "pending": [],
            "history": [],
            "fault_totals": {},
            "degraded": False,
            "rng_state": None,
            "platform_state": None,
        }
        path.write_text(json.dumps(payload))
        loaded = load_checkpoint(path)
        assert loaded.budget_left == 4
        assert loaded.answer_log == [(var_greater_const(0, 1, 2), Relation.GREATER)]
        assert loaded.ledger_state is None
        assert loaded.reliability_state is None

    def test_v3_round_trips_task_identity_and_journal_seq(self, tmp_path):
        """v3 additions: 4-tuple pending (task id + re-ask lineage), the
        journal sequence the checkpoint covers, and the session's
        task-id allocator snapshot."""
        checkpoint = QueryCheckpoint(
            fingerprint={"dataset": "nba", "seed": 3},
            budget_left=5,
            answer_log=[],
            pending=[
                (var_greater_const(1, 1, 3), 1, 9, None),
                (var_greater_var(0, 2, 1), 2, 11, 7),
            ],
            journal_seq=17,
            task_ids_state={"next_id": 12},
        )
        path = tmp_path / "run.ckpt.json"
        save_checkpoint(checkpoint, path)
        loaded = load_checkpoint(path)
        assert loaded.pending == [
            (var_greater_const(1, 1, 3), 1, 9, None),
            (var_greater_var(0, 2, 1), 2, 11, 7),
        ]
        assert loaded.journal_seq == 17
        assert loaded.task_ids_state == {"next_id": 12}

    def test_v2_pending_pairs_stay_pairs(self, tmp_path):
        """Arity preservation: a checkpoint whose pending entries are
        legacy 2-tuples round-trips them as 2-tuples, not padded."""
        checkpoint = QueryCheckpoint(
            fingerprint={"dataset": "nba", "seed": 3},
            budget_left=5,
            answer_log=[],
            pending=[(var_greater_const(1, 1, 3), 1)],
        )
        path = tmp_path / "run.ckpt.json"
        save_checkpoint(checkpoint, path)
        loaded = load_checkpoint(path)
        assert loaded.pending == [(var_greater_const(1, 1, 3), 1)]
        assert loaded.journal_seq is None
        assert loaded.task_ids_state is None

    def test_run_resumes_from_v1_checkpoint(self, tmp_path):
        """End-to-end: checkpoint a run, strip the v2 fields to mimic a
        v1 file, and resume -- the run completes with an empty ledger."""
        dataset = generate_nba(n_objects=30, missing_rate=0.4, seed=3)
        config = BayesCrowdConfig(
            budget=30, latency=5, worker_accuracy=0.95, alpha=0.1, seed=3
        )
        path = tmp_path / "run.ckpt.json"
        BayesCrowd(dataset, config).run(checkpoint_path=path)

        data = json.loads(path.read_text())
        data["format_version"] = 1
        data.pop("ledger_state", None)
        data.pop("reliability_state", None)
        path.write_text(json.dumps(data))

        result = BayesCrowd(dataset, config).run(
            checkpoint_path=path, resume=True
        )
        assert result.resumed
        counters = result.metrics["counters"]
        assert (
            counters["answers_quarantined"] + counters["answers_applied"]
            == counters["answers_aggregated"]
        )


class TestCheckpointVersionMatrix:
    """Every supported on-disk version loads under the current reader,
    and a mid-run file of each vintage resumes to completion.

    The downgrade helper strips exactly the fields each older writer
    did not know about, so the files match what v1/v2 processes really
    produced.  (The v3 round-trip across a *server* restart is covered
    by the service suite's drain/recovery test.)
    """

    @staticmethod
    def _downgrade(data, version):
        data = dict(data)
        if version <= 2:
            data.pop("journal_seq", None)
            data.pop("task_ids_state", None)
            data["pending"] = [entry[:2] for entry in data.get("pending", [])]
        if version <= 1:
            data.pop("ledger_state", None)
            data.pop("reliability_state", None)
        data["format_version"] = version
        return data

    def _mid_run_file(self, tmp_path, version):
        """Checkpoint a real run, then rewrite it as the older vintage."""
        dataset = generate_nba(n_objects=30, missing_rate=0.4, seed=3)
        config = BayesCrowdConfig(
            budget=30, latency=5, worker_accuracy=0.9, alpha=0.1, seed=3
        )
        path = tmp_path / "run.ckpt.json"
        BayesCrowd(dataset, config).run(checkpoint_path=path)
        data = self._downgrade(json.loads(path.read_text()), version)
        path.write_text(json.dumps(data))
        return dataset, config, path

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_loads_under_current_reader(self, tmp_path, version):
        dataset, config, path = self._mid_run_file(tmp_path, version)
        loaded = load_checkpoint(path)
        assert loaded.budget_left >= 0
        if version <= 2:
            assert loaded.journal_seq is None
            assert loaded.task_ids_state is None
        if version <= 1:
            assert loaded.ledger_state is None
            assert loaded.reliability_state is None

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_resumes_to_completion(self, tmp_path, version):
        dataset, config, path = self._mid_run_file(tmp_path, version)
        result = BayesCrowd(dataset, config).run(
            checkpoint_path=path, resume=True
        )
        assert result.resumed
        assert result.answers

    @pytest.mark.parametrize("version", [1, 2, 3])
    def test_resumes_on_the_forest_backend(self, tmp_path, version):
        """The fingerprint never recorded the probability backend, so a
        checkpoint of any vintage resumes on either surviving backend --
        with identical results."""
        dataset, config, path = self._mid_run_file(tmp_path, version)
        text = path.read_text()
        results = {}
        for backend in ("adpll", "forest"):
            path.write_text(text)
            config.probability_backend = backend
            results[backend] = BayesCrowd(dataset, config).run(
                checkpoint_path=path, resume=True
            )
        assert results["forest"].resumed
        assert results["forest"].answers == results["adpll"].answers

    def test_future_version_still_rejected(self, tmp_path):
        dataset, config, path = self._mid_run_file(tmp_path, 3)
        data = json.loads(path.read_text())
        data["format_version"] = CHECKPOINT_VERSION + 1
        path.write_text(json.dumps(data))
        with pytest.raises(CheckpointError):
            load_checkpoint(path)
