"""``repro serve`` — the experiment layer over HTTP, stdlib-only.

A hand-rolled asyncio HTTP/1.1 + SSE service (no dependencies beyond
the standard library, matching the repo's SVG-backend precedent) that
exposes the declarative experiment layer:

* ``POST /v1/runs`` — submit one :class:`ExperimentSpec`; identical
  in-flight submissions share one simulation (content-hash dedup) and
  completed ones are served straight from the :class:`ResultCache`.
* ``POST /v1/plans`` — submit a :class:`Plan`; chunks of its cells run
  on the server's worker processes (the process-wide
  :class:`SweepPool`, which runs the run jobs too) through the
  fault-tolerant retry scheduler, with per-cell :class:`SweepReport`
  status.
* ``GET /v1/jobs/<id>`` — job status (and results once done).
* ``GET /v1/jobs/<id>/events`` — per-epoch :class:`RunTotals` deltas,
  mitigation events, and job lifecycle over Server-Sent Events.
* ``GET /v1/health`` — version, engines, cache/trace-store status.

The service is crash-safe: accepted jobs are journaled durably
(:mod:`~repro.server.journal`), recovered idempotently on restart, and
drained gracefully on SIGTERM — see the failure-model section of
DESIGN.md.

Module map: :mod:`~repro.server.wire` (JSON wire schema),
:mod:`~repro.server.jobs` (job table + content-hash dedup),
:mod:`~repro.server.journal` (durable job journal),
:mod:`~repro.server.hub` (SSE fan-out with per-client backpressure),
:mod:`~repro.server.http` (HTTP/1.1 framing), :mod:`~repro.server.routes`
(URL dispatch), :mod:`~repro.server.app` (the service itself).
"""

from repro.server.app import ReproServer, ServerConfig, ServerThread
from repro.server.hub import EventHub
from repro.server.jobs import Job, JobTable
from repro.server.journal import Journal, JournaledJob
from repro.server.wire import WIRE_VERSION, WireError

__all__ = [
    "WIRE_VERSION",
    "WireError",
    "EventHub",
    "Job",
    "JobTable",
    "Journal",
    "JournaledJob",
    "ReproServer",
    "ServerConfig",
    "ServerThread",
]
