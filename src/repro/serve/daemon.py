"""The asyncio control-plane daemon.

:class:`AllocationDaemon` listens on TCP, speaks the NDJSON protocol of
:mod:`repro.serve.protocol`, and drives a :class:`ServeState` fleet.
Two serving behaviours matter beyond plain dispatch:

* **One thread owns the fleet.**  Every request handler runs to
  completion on the event-loop thread and never awaits, so no two
  handlers interleave and no rack sees two mutations at once — without
  locks.  A handoff to worker threads would buy nothing: the GIL runs
  the racks' numpy work one request at a time anyway, and the handoff
  cost more than an ``allocate`` computes (DESIGN.md §11).  Duplicate
  ``allocate`` queries are answered from the
  :class:`~repro.core.solver.PARSolver` memo cache, so a burst of them
  costs one solve.
* **Shutdown-with-checkpoint.**  ``SIGTERM``/``SIGINT`` (or the
  ``shutdown`` op) stop the listener, write a final checkpoint, and
  close the audit stream — the restartable shutdown the paper's
  always-on deployment needs.

The JSONL audit stream records every executed epoch (in
:func:`repro.sim.telemetry.record_to_dict` form, with solver-cache
counters attached) plus start/checkpoint/stop events.
"""

from __future__ import annotations

import asyncio
import contextlib
import json
import math
import signal
import threading
from pathlib import Path
from typing import Any, TextIO

from time import perf_counter

from repro.core.persistence import Field, check
from repro.errors import ConfigurationError, ReproError
from repro.obs.metrics import REGISTRY as _REGISTRY, ChildCache as _ChildCache
from repro.obs.tracing import trace
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    ProtocolError,
    Request,
    decode_message,
    encode_message,
    error_response,
    ok_response,
    parse_request,
)
from repro.serve.state import RackHost, ServeState

_REQUEST_SECONDS = _REGISTRY.histogram(
    "repro_serve_request_seconds",
    "Request latency by protocol verb (parse + dispatch)",
    labelnames=("op",),
)
_REQUESTS_TOTAL = _REGISTRY.counter(
    "repro_serve_requests_total",
    "Requests by protocol verb and outcome",
    labelnames=("op", "status"),
)
#: The request children, one per (op, status) and per op served in this
#: process, so a repeated request calls no ``labels()``.
_REQUESTS = _ChildCache(_REQUESTS_TOTAL)
_REQUEST_LATENCY = _ChildCache(_REQUEST_SECONDS)
# Registered by repro.core.solver (imported above); re-declared here to
# hold a direct reference for the cache-stats obs view.
_SOLVER_CACHE_LOOKUPS = _REGISTRY.counter(
    "repro_solver_cache_lookups_total", "Solve-cache lookups", labelnames=("result",)
)


class AllocationDaemon:
    """Serves a :class:`ServeState` fleet over TCP.

    Parameters
    ----------
    state:
        The hosted fleet (build with :meth:`ServeState.build`).
    host / port:
        Listening address; port ``0`` lets the OS pick (the bound port
        is published as :attr:`port` once started).
    audit_log:
        Optional JSONL event-stream path (appended, one event per line).
    metrics_interval_s:
        When set, a ``{"event": "metrics", "snapshot": ...}`` line is
        appended to the audit stream every interval (plus once at
        shutdown) — the always-on dump for deployments nobody scrapes.
        Requires ``audit_log``.
    """

    def __init__(
        self,
        state: ServeState,
        host: str = "127.0.0.1",
        port: int = 0,
        audit_log: str | Path | None = None,
        metrics_interval_s: float | None = None,
    ) -> None:
        if metrics_interval_s is not None:
            if not (math.isfinite(metrics_interval_s) and metrics_interval_s > 0):
                raise ConfigurationError(
                    f"metrics interval must be finite and positive, got {metrics_interval_s}"
                )
            if audit_log is None:
                raise ConfigurationError(
                    "metrics_interval_s dumps to the audit stream; "
                    "pass audit_log too"
                )
        self.state = state
        self.host = host
        self.port = port
        self.metrics_interval_s = metrics_interval_s
        self._metrics_task: asyncio.Task | None = None
        self.audit_path = None if audit_log is None else Path(audit_log)
        self.counters: dict[str, int] = {
            "requests": 0,
            "errors": 0,
            "epochs": 0,
            "checkpoints": 0,
        }
        self.op_counts: dict[str, int] = {}
        self._server: asyncio.Server | None = None
        #: Open connections: each handler task and its stream writer.
        self._connections: dict[asyncio.Task, asyncio.StreamWriter] = {}
        self._loop: asyncio.AbstractEventLoop | None = None
        self._shutdown: asyncio.Event | None = None
        self._audit_file: TextIO | None = None
        self._started = threading.Event()

    @property
    def address(self) -> tuple[str, int]:
        """The bound ``(host, port)`` — meaningful once started."""
        return (self.host, self.port)

    # ------------------------------------------------------------------
    # Lifecycle
    # ------------------------------------------------------------------
    async def start(self) -> None:
        """Bind the listener and open the audit stream."""
        self._loop = asyncio.get_running_loop()
        self._shutdown = asyncio.Event()
        if self.audit_path is not None:
            self.audit_path.parent.mkdir(parents=True, exist_ok=True)
            self._audit_file = open(self.audit_path, "a")
        self._server = await asyncio.start_server(
            self._handle_client, self.host, self.port, limit=MAX_LINE_BYTES
        )
        self.port = self._server.sockets[0].getsockname()[1]
        self._audit({"event": "serve-start", "racks": self.state.rack_names()})
        if self.metrics_interval_s is not None:
            self._metrics_task = self._loop.create_task(self._metrics_loop())
        self._started.set()

    def request_shutdown(self) -> None:
        """Ask the daemon to stop (thread-safe from signal handlers)."""
        if self._shutdown is not None:
            self._shutdown.set()

    async def run(self, install_signal_handlers: bool = True) -> None:
        """Serve until a shutdown is requested, then checkpoint and exit."""
        await self.start()
        await self.run_until_stopped(install_signal_handlers)

    async def run_until_stopped(self, install_signal_handlers: bool = True) -> None:
        """Block until shutdown; assumes :meth:`start` already ran."""
        assert self._loop is not None and self._shutdown is not None
        if install_signal_handlers:
            for sig in (signal.SIGTERM, signal.SIGINT):
                self._loop.add_signal_handler(sig, self.request_shutdown)
        try:
            await self._shutdown.wait()
        finally:
            if install_signal_handlers:
                for sig in (signal.SIGTERM, signal.SIGINT):
                    self._loop.remove_signal_handler(sig)
            await self._graceful_stop()

    async def _graceful_stop(self) -> None:
        """Stop accepting, end open connections, checkpoint, close the audit."""
        assert self._server is not None
        self._server.close()
        # Closing a connection's transport hands its handler an EOF, so
        # every handler returns normally instead of being cancelled
        # mid-read when the loop shuts down.
        handlers = list(self._connections)
        for writer in self._connections.values():
            writer.close()
        await asyncio.gather(*handlers, return_exceptions=True)
        await self._server.wait_closed()
        if self._metrics_task is not None:
            self._metrics_task.cancel()
            with contextlib.suppress(asyncio.CancelledError):
                await self._metrics_task
            self._metrics_task = None
        # Handlers never await, so no epoch or solve is mid-air here.
        if self.state.checkpoint_dir is not None:
            self._checkpoint(final=True)
        if self.metrics_interval_s is not None:
            self._audit({"event": "metrics", "snapshot": _REGISTRY.snapshot()})
        self._audit({"event": "serve-stop", "counters": dict(self.counters)})
        if self._audit_file is not None:
            self._audit_file.close()
            self._audit_file = None

    # ------------------------------------------------------------------
    # Threaded embedding (tests, notebooks)
    # ------------------------------------------------------------------
    def run_in_thread(self) -> threading.Thread:
        """Run the daemon in a daemon thread; returns once it is listening.

        Signal handlers are not installed (they only work on the main
        thread); stop the daemon with :meth:`stop_from_thread`.
        """
        thread = threading.Thread(
            target=lambda: asyncio.run(self.run(install_signal_handlers=False)),
            daemon=True,
        )
        thread.start()
        if not self._started.wait(timeout=30.0):
            raise ConfigurationError("daemon failed to start within 30 s")
        return thread

    def stop_from_thread(self) -> None:
        """Request shutdown from outside the daemon's event loop."""
        if self._loop is not None:
            self._loop.call_soon_threadsafe(self.request_shutdown)

    # ------------------------------------------------------------------
    # Connection handling
    # ------------------------------------------------------------------
    async def _handle_client(
        self, reader: asyncio.StreamReader, writer: asyncio.StreamWriter
    ) -> None:
        task = asyncio.current_task()
        assert task is not None
        self._connections[task] = writer
        try:
            while True:
                try:
                    line = await reader.readline()
                except (asyncio.LimitOverrunError, ValueError):
                    writer.write(
                        encode_message(
                            error_response(None, "message too long", "ProtocolError")
                        )
                    )
                    await writer.drain()
                    break
                if not line:
                    break
                if line.strip() == b"":
                    continue
                response = self._respond(line)
                writer.write(encode_message(response))
                await writer.drain()
        except (ConnectionResetError, BrokenPipeError):
            pass
        finally:
            del self._connections[task]
            with contextlib.suppress(Exception):
                writer.close()
                await writer.wait_closed()

    def _respond(self, line: bytes) -> dict[str, Any]:
        request_id: Any = None
        self.counters["requests"] += 1
        op = "invalid"  # until the line parses into a known verb
        start = perf_counter()
        try:
            message = decode_message(line)
            request_id = message.get("id")
            request = parse_request(message)
            op = request.op
            self.op_counts[op] = self.op_counts.get(op, 0) + 1
            result = self._dispatch(request)
            _REQUESTS[op, "ok"].inc()
            return ok_response(request_id, result)
        except ReproError as exc:
            self.counters["errors"] += 1
            _REQUESTS[op, "error"].inc()
            return error_response(request_id, str(exc), type(exc).__name__)
        except Exception as exc:  # noqa: BLE001 - daemon must not die on a bad request
            self.counters["errors"] += 1
            _REQUESTS[op, "error"].inc()
            return error_response(request_id, str(exc), type(exc).__name__)
        finally:
            _REQUEST_LATENCY[op].observe(perf_counter() - start)

    # ------------------------------------------------------------------
    # Dispatch: every handler runs to completion on the loop thread
    # ------------------------------------------------------------------
    def _dispatch(self, request: Request) -> dict[str, Any]:
        op = request.op
        if op == "ping":
            return {"pong": True}
        if op == "racks":
            return {"racks": self.state.rack_names()}
        if op == "status":
            return self._status()
        if op == "cache-stats":
            return self._cache_stats()
        if op == "metrics":
            return {
                "text": _REGISTRY.expose(),
                "families": list(_REGISTRY.families()),
            }
        if op == "allocate":
            return self._rack(request).allocate(
                *_numbers(request, budget_w=_OPTIONAL_NUMBER)
            )
        if op == "forecast":
            return self._rack(request).forecast()
        if op == "observe":
            return self._rack(request).observe(
                *_numbers(request, renewable_w=_NUMBER, demand_w=_NUMBER)
            )
        if op == "step":
            return self._step(request)
        if op == "submit":
            return self._submit(request)
        if op == "plan":
            return self._rack(request).plan()
        if op == "queue-status":
            return self._rack(request).queue_status()
        if op == "checkpoint":
            return {"checkpoint_dir": str(self._checkpoint(final=False))}
        if op == "shutdown":
            # Respond first; the event fires after this handler returns.
            assert self._loop is not None
            self._loop.call_soon(self.request_shutdown)
            return {"stopping": True}
        raise ProtocolError(f"unhandled op {op!r}")  # pragma: no cover

    def _rack(self, request: Request) -> RackHost:
        if request.rack is None:
            raise ConfigurationError(
                f"op {request.op!r} needs a 'rack'; serving "
                f"{self.state.rack_names()}"
            )
        return self.state.rack(request.rack)

    # ------------------------------------------------------------------
    # Ops
    # ------------------------------------------------------------------
    def _step(self, request: Request) -> dict[str, Any]:
        (load,) = _numbers(request, load_fraction=_OPTIONAL_NUMBER)
        if request.rack is None and self.state.coordinator is not None:
            return self._step_cluster(load)
        host = self._rack(request)
        record = host.step(load)
        self.counters["epochs"] += 1
        event = self.state.epoch_event(host, record)
        self._audit(event)
        return event

    def _step_cluster(self, load: float | None) -> dict[str, Any]:
        loads = [load] * len(self.state.racks)  # None: each rack draws its own
        records = self.state.step_cluster(loads)
        events = []
        for host, record in zip(self.state.racks.values(), records, strict=True):
            self.counters["epochs"] += 1
            event = self.state.epoch_event(host, record)
            self._audit(event)
            events.append(event)
        return {"cluster_epoch": self.state.cluster_epochs, "racks": events}

    def _submit(self, request: Request) -> dict[str, Any]:
        host = self._rack(request)
        job = request.params.get("job")
        if not isinstance(job, dict):
            raise ProtocolError("submit needs a 'job' object")
        return host.submit(job)

    def _checkpoint(self, final: bool) -> Path:
        with trace("serve.checkpoint"):
            path = self.state.checkpoint()
        self.counters["checkpoints"] += 1
        self._audit({"event": "checkpoint", "path": str(path), "final": final})
        return path

    def _status(self) -> dict[str, Any]:
        return {
            **self.state.status(),
            "address": f"{self.host}:{self.port}",
            "counters": dict(self.counters),
            "ops": dict(self.op_counts),
        }

    def _cache_stats(self) -> dict[str, Any]:
        """Solver-cache counters per rack and process-wide.

        ``coalesced`` is always 0: handlers run one at a time, so no two
        queries are ever in flight together, and a duplicate
        ``allocate`` is a memo-cache hit instead.  The key stays only
        because the perfbench ``serve-fleet`` trace reads it.
        """
        return {
            **self.state.cache_stats(),
            "coalesced": 0,
            "requests": self.counters["requests"],
            # Process-wide obs counters: one view across every rack's
            # solver.
            "obs": {
                "solver_cache_hits": _SOLVER_CACHE_LOOKUPS.labels("hit").value,
                "solver_cache_misses": _SOLVER_CACHE_LOOKUPS.labels("miss").value,
            },
        }

    # ------------------------------------------------------------------
    # Audit stream
    # ------------------------------------------------------------------
    async def _metrics_loop(self) -> None:
        """Periodic metrics snapshots into the audit stream."""
        assert self.metrics_interval_s is not None
        while True:
            await asyncio.sleep(self.metrics_interval_s)
            self._audit({"event": "metrics", "snapshot": _REGISTRY.snapshot()})

    def _audit(self, event: dict[str, Any]) -> None:
        if self._audit_file is None:
            return
        self._audit_file.write(json.dumps(event) + "\n")
        self._audit_file.flush()


#: A numeric request parameter: any JSON number, whose range the rack
#: checks (a ``ConfigurationError``); ``true`` or ``"500"`` is a
#: :class:`ProtocolError`, not a coerced 1 W or 500 W.
_NUMBER = Field(finite=False)
_OPTIONAL_NUMBER = Field(finite=False, nullable=True)


def _numbers(request: Request, **fields: Field) -> list[float | None]:
    """The named numeric parameters, in order; an absent one reads as null."""
    params = {key: request.params.get(key) for key in fields}
    try:
        return list(check(params, fields, request.op).values())
    except ConfigurationError as exc:
        raise ProtocolError(str(exc)) from None
