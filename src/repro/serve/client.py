"""Blocking client for the serving daemon.

A thin socket wrapper over the NDJSON protocol: one in-flight request
per client, correlation ids checked, server-reported failures surfaced
as :class:`ServeError`.  A concurrent caller gives each thread its own
client; the CLI, tools and tests use it directly.
"""

from __future__ import annotations

import socket
from typing import Any

from repro.errors import ReproError
from repro.serve.protocol import (
    MAX_LINE_BYTES,
    decode_message,
    encode_message,
)


class ServeError(ReproError):
    """The daemon answered a request with an error response.

    Attributes
    ----------
    error_type:
        The server-side exception class name (``ConfigurationError``,
        ``SolverError``, ...), for callers that branch on failure kind.
    """

    def __init__(self, message: str, error_type: str = "error") -> None:
        self.error_type = error_type
        super().__init__(message)


class ServeClient:
    """One TCP connection to a serving daemon.

    Parameters
    ----------
    host / port:
        The daemon's listening address.
    timeout_s:
        Per-request socket timeout; a silent daemon raises rather than
        hanging a worker forever.
    """

    def __init__(self, host: str = "127.0.0.1", port: int = 7313, timeout_s: float = 30.0) -> None:
        self.host = host
        self.port = port
        try:
            self._sock = socket.create_connection((host, port), timeout=timeout_s)
        except OSError as exc:
            raise ServeError(
                f"cannot reach daemon at {host}:{port}: {exc}", "ConnectionError"
            ) from exc
        self._file = self._sock.makefile("rwb")
        self._next_id = 0

    # ------------------------------------------------------------------
    def request(self, op: str, rack: str | None = None, **params: Any) -> dict[str, Any]:
        """Send one request and return the ``result`` payload.

        Raises
        ------
        ServeError
            When the daemon reports a failure.
        ProtocolError / OSError
            On transport or framing problems.
        """
        self._next_id += 1
        request_id = self._next_id
        message: dict[str, Any] = {"id": request_id, "op": op, **params}
        if rack is not None:
            message["rack"] = rack
        self._file.write(encode_message(message))
        self._file.flush()
        line = self._file.readline(MAX_LINE_BYTES + 1)
        if not line:
            raise ServeError("connection closed by daemon", "ConnectionError")
        response = decode_message(line)
        if response.get("id") != request_id:
            raise ServeError(
                f"response id {response.get('id')!r} does not match "
                f"request id {request_id!r}",
                "ProtocolError",
            )
        if not response.get("ok"):
            raise ServeError(
                str(response.get("error", "unknown server error")),
                str(response.get("error_type", "error")),
            )
        result = response.get("result")
        return result if isinstance(result, dict) else {}

    # ------------------------------------------------------------------
    # Convenience wrappers (one per daemon op)
    # ------------------------------------------------------------------
    def ping(self) -> dict[str, Any]:
        return self.request("ping")

    def racks(self) -> list[str]:
        return list(self.request("racks")["racks"])

    def allocate(self, rack: str, budget_w: float | None = None) -> dict[str, Any]:
        params = {} if budget_w is None else {"budget_w": budget_w}
        return self.request("allocate", rack=rack, **params)

    def forecast(self, rack: str) -> dict[str, Any]:
        return self.request("forecast", rack=rack)

    def observe(self, rack: str, renewable_w: float, demand_w: float) -> dict[str, Any]:
        return self.request(
            "observe", rack=rack, renewable_w=renewable_w, demand_w=demand_w
        )

    def step(
        self, rack: str | None = None, load_fraction: float | None = None
    ) -> dict[str, Any]:
        params = {} if load_fraction is None else {"load_fraction": load_fraction}
        return self.request("step", rack=rack, **params)

    def submit(self, rack: str, job: dict[str, Any]) -> dict[str, Any]:
        return self.request("submit", rack=rack, job=job)

    def plan(self, rack: str) -> dict[str, Any]:
        return self.request("plan", rack=rack)

    def queue_status(self, rack: str) -> dict[str, Any]:
        return self.request("queue-status", rack=rack)

    def status(self) -> dict[str, Any]:
        return self.request("status")

    def cache_stats(self) -> dict[str, Any]:
        return self.request("cache-stats")

    def metrics(self) -> dict[str, Any]:
        """Prometheus text exposition: ``{"text": ..., "families": [...]}``."""
        return self.request("metrics")

    def checkpoint(self) -> dict[str, Any]:
        return self.request("checkpoint")

    def shutdown(self) -> dict[str, Any]:
        return self.request("shutdown")

    # ------------------------------------------------------------------
    def close(self) -> None:
        try:
            self._file.close()
        finally:
            self._sock.close()

    def __enter__(self) -> "ServeClient":
        return self

    def __exit__(self, *exc_info: object) -> None:
        self.close()
