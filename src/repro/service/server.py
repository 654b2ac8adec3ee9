"""The asyncio server loop: connections, signals, drain, recovery.

Lifecycle of one ``repro serve`` process::

    start --> recover() re-opens interrupted sessions from the store
          --> listen (announce "listening on http://host:port")
          --> serve keep-alive connections (bounded; excess get 503)
    SIGTERM/SIGINT
          --> stop admitting (readyz -> 503, new work -> 503)
          --> close idle keep-alive connections
          --> cooperatively cancel running sessions
          --> wait <= drain_timeout_s for them to park resumable
          --> exit 0 (all parked) / 1 (drain timeout; journal + store
              still guarantee a resumable restart -- that is the point),
              ending any connection still open (an events follower)

A second signal during drain force-exits immediately; durability never
depends on the drain finishing because every mutation hit the journal
before it was acknowledged.
"""

from __future__ import annotations

import argparse
import asyncio
import signal
import sys
from typing import Optional, Set

from ..errors import ConfigError
from .app import ServiceApp
from .http import (
    HTTPError,
    error_response,
    read_request,
    write_response,
)
from .routers import dispatch
from .settings import ServiceSettings

__all__ = ["QueryServer", "run_server", "main"]


class QueryServer:
    """One listening server bound to a :class:`ServiceApp`."""

    def __init__(self, settings: ServiceSettings, app: Optional[ServiceApp] = None) -> None:
        self.settings = settings
        self.app = app if app is not None else ServiceApp(settings)
        self._server: Optional[asyncio.AbstractServer] = None
        self._stop: Optional[asyncio.Event] = None
        self._stop_reason = "stopped"
        self._loop: Optional[asyncio.AbstractEventLoop] = None
        self.bound_port: Optional[int] = None
        #: live connection handler tasks, and the subset waiting for the
        #: next request (idle keep-alive connections)
        self._connections: Set[asyncio.Task] = set()
        self._idle: Set[asyncio.Task] = set()
        #: set once a stop begins: no connection waits for another request
        self._closing = False

    # ------------------------------------------------------------------
    async def start(self) -> None:
        self._stop = asyncio.Event()
        self._loop = asyncio.get_event_loop()
        if self.settings.recover_on_start:
            loop = asyncio.get_event_loop()
            recovered = await loop.run_in_executor(None, self.app.recover)
            if recovered:
                print(
                    "repro-service recovered %d interrupted session(s): %s"
                    % (len(recovered), ", ".join(recovered)),
                    flush=True,
                )
        self._server = await asyncio.start_server(
            self._handle_connection,
            host=self.settings.host,
            port=self.settings.port,
            limit=self.settings.max_header_bytes + 4096,
        )
        self.bound_port = self._server.sockets[0].getsockname()[1]
        print(
            "repro-service listening on http://%s:%d (data_dir=%s)"
            % (self.settings.host, self.bound_port, self.settings.root),
            flush=True,
        )

    def request_stop(self, reason: str) -> None:
        """Signal-safe stop request (idempotent)."""
        self._stop_reason = reason
        if self._stop is not None:
            self._stop.set()

    def request_stop_threadsafe(self, reason: str) -> None:
        """Stop from another thread (tests; embedding)."""
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self.request_stop, reason)

    async def serve_until_stopped(self) -> int:
        """Start, serve until a stop is requested, drain, return exit code."""
        loop = asyncio.get_event_loop()
        for signum in (signal.SIGTERM, signal.SIGINT):
            try:
                loop.add_signal_handler(
                    signum, self.request_stop, signal.Signals(signum).name
                )
            except (NotImplementedError, RuntimeError, ValueError):
                pass  # non-unix event loops / not the main thread
        await self.start()
        assert self._stop is not None
        await self._stop.wait()
        print(
            "repro-service draining (%s): refusing new work, parking sessions"
            % self._stop_reason,
            flush=True,
        )
        self._server.close()
        await self._close_connections(idle_only=True)
        parked = await loop.run_in_executor(
            None, self.app.drain, None, self._stop_reason
        )
        # Whatever still streams (an events follower) ends with the server.
        await self._close_connections(idle_only=False)
        await self._server.wait_closed()
        if parked:
            print("repro-service drained cleanly; sessions are resumable", flush=True)
            return 0
        print(
            "repro-service drain timed out after %.1fs; exiting anyway "
            "(journal guarantees resumability)" % self.settings.drain_timeout_s,
            flush=True,
        )
        return 1

    async def _close_connections(self, idle_only: bool) -> None:
        """Stop connection handlers (only idle ones with ``idle_only``).

        A cancelled handler ends as a clean close (see
        :meth:`_handle_connection`), so shutdown logs no tracebacks.
        """
        self._closing = True
        tasks = list(self._idle if idle_only else self._connections)
        for task in tasks:
            task.cancel()
        if tasks:
            await asyncio.gather(*tasks, return_exceptions=True)

    # ------------------------------------------------------------------
    async def _handle_connection(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        app = self.app
        if app.connections >= self.settings.max_connections:
            app.metrics.counter(
                "service_connections_rejected",
                "connections refused by the connection cap",
            ).inc()
            await write_response(
                writer,
                error_response(
                    HTTPError(
                        503,
                        "connection limit reached",
                        retry_after=self.settings.retry_after_s,
                    )
                ),
                keep_alive=False,
            )
            self._close(writer)
            return
        app.connections += 1
        task = asyncio.current_task()
        self._connections.add(task)
        try:
            await self._serve_requests(reader, writer)
        except (ConnectionResetError, BrokenPipeError, OSError):
            pass  # half-dead peer; nothing to salvage
        except asyncio.CancelledError:
            # Cancelled by _close_connections: a clean close.  Swallowing
            # it keeps 3.11's stream callback from logging a traceback.
            if not self._closing:
                raise
        finally:
            self._connections.discard(task)
            app.connections -= 1
            self._close(writer)

    async def _serve_requests(self, reader, writer) -> None:
        settings = self.settings
        app = self.app
        task = asyncio.current_task()
        while not self._closing:
            self._idle.add(task)
            try:
                request = await read_request(
                    reader,
                    max_header_bytes=settings.max_header_bytes,
                    max_body_bytes=settings.max_body_bytes,
                    header_timeout_s=settings.header_timeout_s,
                    body_timeout_s=settings.body_timeout_s,
                )
            except HTTPError as err:
                app.metrics.counter(
                    "service_requests_refused",
                    "requests refused at the transport layer",
                ).inc()
                await write_response(writer, error_response(err), keep_alive=False)
                return
            finally:
                self._idle.discard(task)
            if request is None:
                return  # clean close between keep-alive requests
            app.metrics.counter("service_requests", "requests received").inc()
            try:
                response = await dispatch(app, request)
            except HTTPError as err:
                response = error_response(err)
            except Exception as err:  # noqa: BLE001 - request boundary
                app.metrics.counter(
                    "service_errors", "requests that hit an unexpected error"
                ).inc()
                response = error_response(
                    HTTPError(500, "internal error: %s" % err)
                )
            app.metrics.counter(
                "service_responses_%dxx" % (response.status // 100),
                "responses by status class",
            ).inc()
            if request.method == "HEAD":
                response.stream = None
                response.body = b""
            keep_alive = (
                request.wants_keep_alive and not app.draining and not self._closing
            )
            ok, reusable = await write_response(writer, response, keep_alive)
            if not ok or not reusable:
                return

    @staticmethod
    def _close(writer: asyncio.StreamWriter) -> None:
        try:
            writer.close()
        except Exception:  # noqa: BLE001 - already-dead transport
            pass


async def _run(settings: ServiceSettings) -> int:
    server = QueryServer(settings)
    return await server.serve_until_stopped()


def run_server(settings: ServiceSettings) -> int:
    """Blocking entry point; returns the process exit code."""
    try:
        return asyncio.run(_run(settings))
    except KeyboardInterrupt:
        return 0


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro serve",
        description="Serve skyline query sessions over HTTP/JSON.",
    )
    parser.add_argument("--host", default=None, help="bind address")
    parser.add_argument("--port", type=int, default=None, help="bind port (0 = OS-assigned)")
    parser.add_argument("--data-dir", default=None, help="persistent store root")
    parser.add_argument("--max-sessions", type=int, default=None)
    parser.add_argument("--max-pending-answers", type=int, default=None)
    parser.add_argument(
        "--overflow-policy", choices=("reject", "shed-oldest"), default=None
    )
    parser.add_argument("--max-connections", type=int, default=None)
    parser.add_argument("--drain-timeout-s", type=float, default=None)
    parser.add_argument(
        "--no-recover",
        action="store_true",
        help="do not re-open interrupted sessions at startup",
    )
    parser.add_argument(
        "--no-journal-fsync",
        action="store_true",
        help="skip fsync on journal appends (tests only; weakens durability)",
    )
    return parser


def main(argv=None) -> int:
    args = build_parser().parse_args(argv)
    overrides = {}
    for field_name in (
        "host",
        "port",
        "data_dir",
        "max_sessions",
        "max_pending_answers",
        "overflow_policy",
        "max_connections",
        "drain_timeout_s",
    ):
        value = getattr(args, field_name)
        if value is not None:
            overrides[field_name] = value
    if args.no_recover:
        overrides["recover_on_start"] = False
    if args.no_journal_fsync:
        overrides["journal_fsync"] = False
    try:
        settings = ServiceSettings.from_env(**overrides)
    except ConfigError as err:
        print("config error: %s" % err, file=sys.stderr)
        return 2
    return run_server(settings)


if __name__ == "__main__":
    sys.exit(main())
