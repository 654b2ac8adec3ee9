"""How one query reaches the program: in process, or as a service session."""

from __future__ import annotations

import asyncio
import http.client
import json
import threading
import time
from pathlib import Path
from typing import Dict, List, Optional

from spans import ROOT, SpanRecorder, journal_bytes
from workloads import QueryRecord, TimedPlatform, Workload, certain_sound, clock, f1, fingerprint


def _finish_traced(recorder: Optional[SpanRecorder]) -> None:
    """Read journal sizes before the next query truncates the files."""
    if recorder is not None:
        recorder.add("session.journal_bytes", journal_bytes(recorder))
        recorder.journal_paths.clear()


class InProcessRunner:
    """Calls ``BayesCrowd`` directly, as a library user would."""

    def __init__(self, workload: Workload, workdir: Path) -> None:
        self.workload = workload
        self.workdir = workdir

    def run(self, dataset, index: int, truth, recorder: Optional[SpanRecorder] = None) -> QueryRecord:
        from repro.core.config import BayesCrowdConfig
        from repro.core.framework import BayesCrowd, build_default_platform

        record = QueryRecord(dataset_index=index)
        config = BayesCrowdConfig(**self.workload.config_kwargs())
        journal = checkpoint = None
        if self.workload.journal:
            journal = self.workdir / "journal.jsonl"
            checkpoint = self.workdir / "checkpoint.json"
        opened = clock()
        platform = TimedPlatform(build_default_platform(dataset, config))
        root = recorder.open(ROOT) if recorder is not None else None
        start, start_wall = clock(), time.perf_counter()
        try:
            result = BayesCrowd(dataset, config, platform=platform).run(
                checkpoint_path=checkpoint, journal_path=journal
            )
            end, record.query_wall_s = clock(), time.perf_counter() - start_wall
        finally:
            if recorder is not None:
                recorder.close(root)
        record.session_s = clock() - opened
        record.query_s = end - start
        record.first_tasks_s = (
            platform.posted_at[0] - start if platform.posted_at else record.query_s
        )
        record.rounds_ms = platform.round_ms(end)
        record.answer_f1 = f1(result.answers, truth)
        record.certain_sound = certain_sound(result.certain_answers, result.answers, truth)
        record.tasks_posted = result.tasks_posted
        record.fingerprint = fingerprint(result.answers, platform.batches, result.tasks_posted)
        record.metrics = result.metrics
        _finish_traced(recorder)
        return record

    def close(self) -> None:
        pass


class ServiceRunner:
    """Opens each query as a session of a ``QueryServer`` on localhost.

    The server runs in this process, in its own thread and event loop,
    with its store under the work directory.  One client connection is
    used sequentially: open the session, follow its NDJSON events until
    ``run_end``, fetch the result.
    """

    def __init__(self, workload: Workload, workdir: Path) -> None:
        from repro.core import framework
        from repro.service import QueryServer, ServiceSettings
        from repro.session.supervisor import SessionSupervisor

        self.workload = workload
        self.recorder: Optional[SpanRecorder] = None
        #: per-route client latencies (ms) of traced sessions
        self.requests: Dict[str, List[float]] = {}
        self.rejected = 0
        self._uploaded = set()
        self._sessions = 0
        self._platforms: Dict[str, TimedPlatform] = {}
        self._runs: Dict[str, tuple] = {}
        self._server = None
        self._exit_code = None
        settings = ServiceSettings(port=0, data_dir=workdir / "store")

        # The server builds each session's simulated platform itself;
        # wrap that factory so the rounds are timed the same way as in
        # process, and time the supervisor's run of each session.
        original_platform = framework.build_default_platform
        original_run = SessionSupervisor.run

        def timed_platform(dataset, config):
            platform = TimedPlatform(original_platform(dataset, config))
            self._platforms[threading.current_thread().name] = platform
            return platform

        def timed_run(supervisor, session_id, resume=False):
            recorder = self.recorder
            root = recorder.open(ROOT) if recorder is not None else None
            start, start_wall = clock(), time.perf_counter()
            try:
                return original_run(supervisor, session_id, resume=resume)
            finally:
                self._runs[session_id] = (start, clock(), time.perf_counter() - start_wall)
                if recorder is not None:
                    recorder.close(root)

        framework.build_default_platform = timed_platform
        SessionSupervisor.run = timed_run

        def restore() -> None:
            framework.build_default_platform = original_platform
            SessionSupervisor.run = original_run

        self._restore = restore

        async def serve() -> None:
            self._server = QueryServer(settings)
            self._exit_code = await self._server.serve_until_stopped()

        self._thread = threading.Thread(target=lambda: asyncio.run(serve()), daemon=True)
        self._thread.start()
        deadline = time.monotonic() + 60
        while self._server is None or self._server.bound_port is None:
            if time.monotonic() > deadline or not self._thread.is_alive():
                self.close()
                raise RuntimeError("the query server did not start")
            time.sleep(0.005)
        self.conn = http.client.HTTPConnection("127.0.0.1", self._server.bound_port, timeout=60)

    # ------------------------------------------------------------------
    def _request(self, method: str, path: str, route: str, payload=None):
        body = json.dumps(payload) if payload is not None else None
        headers = {"Content-Type": "application/json"} if body is not None else {}
        start = time.perf_counter()
        self.conn.request(method, path, body=body, headers=headers)
        response = self.conn.getresponse()
        data = response.read()
        self._log(route, start, response.status)
        return response.status, (json.loads(data) if data else None)

    def _log(self, route: str, start: float, status: int) -> None:
        """Count a request of a traced session: latency and refusals."""
        if self.recorder is not None:
            self.requests.setdefault(route, []).append((time.perf_counter() - start) * 1000.0)
            self.rejected += status in (429, 503)

    def _upload(self, dataset, index: int) -> str:
        dataset_id = "d%d" % index
        if dataset_id not in self._uploaded:
            payload = {
                "kind": "inline",
                "dataset_id": dataset_id,
                "name": dataset.name,
                "values": dataset.values.tolist(),
                "complete": dataset.complete.tolist(),
                "domain_sizes": [int(d) for d in dataset.domain_sizes],
                "attribute_names": list(dataset.attribute_names),
            }
            status, body = self._request("POST", "/v1/datasets", "POST /v1/datasets", payload)
            if status != 201:
                raise RuntimeError("dataset upload failed: %s %s" % (status, body))
            self._uploaded.add(dataset_id)
        return dataset_id

    def _follow_events(self, session_id: str):
        """Read the session's event stream up to ``run_end``."""
        start = time.perf_counter()
        self.conn.request("GET", "/v1/sessions/%s/events?follow=1" % session_id)
        response = self.conn.getresponse()
        events = []
        try:
            if response.status != 200:
                raise RuntimeError("events stream failed: %s" % response.status)
            while True:
                line = response.readline()
                if not line:
                    break
                event = json.loads(line)
                events.append(event)
                if event.get("event") == "run_end":
                    break
        finally:
            # The stream is close-delimited; the next request reconnects.
            response.close()
            self.conn.close()
        self._log("GET events", start, response.status)
        return events

    def run(self, dataset, index: int, truth, recorder: Optional[SpanRecorder] = None) -> QueryRecord:
        self.recorder = recorder
        try:
            return self._run(dataset, index, truth, recorder)
        finally:
            self.recorder = None

    def _run(self, dataset, index: int, truth, recorder: Optional[SpanRecorder]) -> QueryRecord:
        record = QueryRecord(dataset_index=index)
        dataset_id = self._upload(dataset, index)
        self._sessions += 1
        session_id = "s%d" % self._sessions
        payload = {
            "dataset_id": dataset_id,
            "session_id": session_id,
            "platform": "simulated",
            "config": self.workload.config_kwargs(),
        }
        opened = clock()
        status, body = self._request("POST", "/v1/sessions", "POST /v1/sessions", payload)
        if status != 202:
            raise RuntimeError("session open failed: %s %s" % (status, body))
        events = self._follow_events(session_id)
        # The stream ended at run_end or at a terminal state, so a result
        # that does not appear within seconds never will.
        deadline = time.monotonic() + 10
        while True:
            status, body = self._request(
                "GET", "/v1/sessions/%s/result" % session_id, "GET result"
            )
            if status == 200:
                break
            if status != 409 or time.monotonic() > deadline:
                raise RuntimeError("result fetch failed: %s %s" % (status, body))
            time.sleep(0.002)
        record.session_s = clock() - opened
        if body["state"] != "DONE":
            raise RuntimeError("session ended %s" % body["state"])
        result = body["result"]
        issued = [e for e in events if e.get("event") == "tasks_issued"]
        batches = [[task["expression"] for task in e["tasks"]] for e in issued]
        # The supervisor's run may still be returning when the result is
        # already readable; its timing hook records just after.
        while session_id not in self._runs and time.monotonic() < deadline:
            time.sleep(0.001)
        run_start, run_end, record.query_wall_s = self._runs.pop(session_id)
        platform = self._platforms.pop("session-%s" % session_id)
        record.query_s = run_end - run_start
        # The platform gets each batch just after its tasks_issued event
        # is written; it reads the same process clock as the opening.
        record.first_tasks_s = (
            platform.posted_at[0] - opened if platform.posted_at else record.session_s
        )
        record.rounds_ms = platform.round_ms(run_end)
        record.answer_f1 = f1(result["answers"], truth)
        record.certain_sound = certain_sound(result["certain_answers"], result["answers"], truth)
        record.tasks_posted = result["tasks_posted"]
        record.fingerprint = fingerprint(result["answers"], batches, result["tasks_posted"])
        if recorder is not None:
            status, metrics = self._request(
                "GET", "/v1/sessions/%s/metrics" % session_id, "GET metrics"
            )
            record.metrics = metrics if status == 200 else None
        _finish_traced(recorder)
        return record

    def close(self) -> None:
        """Stop the server and wait for its thread; restore the hooks."""
        try:
            if hasattr(self, "conn"):
                self.conn.close()
            if self._server is not None:
                self._server.request_stop_threadsafe("benchmark done")
            self._thread.join(timeout=60)
            if self._thread.is_alive():
                raise RuntimeError("the query server did not stop")
        finally:
            self._restore()
