"""``repro.serve`` — the control-plane serving daemon.

GreenHetero is specified as an *online* controller (Monitor → Predictor
→ Solver → Enforcer every 15-minute epoch), but batch simulation only
exercises it offline.  This package runs the controller the way the
paper deploys it: a long-lived service that ingests telemetry and
answers allocation queries.

* :mod:`repro.serve.protocol` — the newline-delimited-JSON wire format.
* :mod:`repro.serve.state` — rack hosting, checkpoint/restore.
* :mod:`repro.serve.daemon` — the asyncio TCP daemon: one thread
  serves every rack, with graceful shutdown-with-checkpoint.
* :mod:`repro.serve.client` — a blocking client for tools and tests.

perfbench's ``serve-fleet`` workload measures this serving path end to
end (boot time, request rate, latency); ``tools/serve_smoke.py`` checks
its solver cache and its checkpoint/restore across daemon processes.
"""

from repro.serve.client import ServeClient, ServeError
from repro.serve.daemon import AllocationDaemon
from repro.serve.protocol import ProtocolError, Request
from repro.serve.state import RackHost, ServeConfig, ServeState

__all__ = [
    "AllocationDaemon",
    "ProtocolError",
    "RackHost",
    "Request",
    "ServeClient",
    "ServeConfig",
    "ServeError",
    "ServeState",
]
