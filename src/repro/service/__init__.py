"""Compiler-as-a-service: the ``repro serve`` daemon and its parts.

The paper's orchestration search is an offline compile; the service
layer turns it into a long-lived daemon so that identical requests are
cache hits instead of repeated searches:

* :mod:`~repro.service.request` — :class:`CompileRequest`, the
  canonical unit of work with its deterministic fingerprint;
* :mod:`~repro.service.store` — :class:`SolutionStore`, the
  content-addressed on-disk cache of validated solution documents;
* :mod:`~repro.service.jobs` — :class:`JobJournal`, durable JSONL job
  state that survives a daemon kill;
* :mod:`~repro.service.admission` — :class:`AdmissionController`,
  bounded queue depth and per-tenant quotas;
* :mod:`~repro.service.session` — :class:`CompileSession` /
  :class:`SessionManager`, warm search contexts and executor pools
  reused across requests;
* :mod:`~repro.service.daemon` — :class:`ReproService`, the job queue,
  the supervised lease-based runner pool, and the unix-socket
  line-delimited-JSON front end;
* :mod:`~repro.service.client` — :class:`ServeClient`, the thin client
  behind ``repro submit`` / ``repro jobs``;
* :mod:`~repro.service.events` — :class:`EventLog`, the append-only
  service event log (``events.jsonl``) plus the AD807 journal-agreement
  oracle and the per-job trace document format;
* :mod:`~repro.service.metrics_http` — :class:`MetricsHTTPServer`, the
  read-only ``/metrics`` / ``/healthz`` / ``/jobs`` HTTP exporter
  behind ``repro serve --metrics-port``.

Determinism contract: a served compile is bit-identical to the same
``repro optimize`` invocation — with any runner count, and across every
recovery path (runner crash, stall reclaim, daemon kill/restart, drain)
— and a cache hit returns the byte-exact stored solution document.

The names below load their module on first use: the client and the
offline store (``repro jobs``, ``repro cache``) never load the daemon
or the optimizer.
"""

from __future__ import annotations

from repro import _lazy_exports

#: Every public name and the module that defines it, loaded on first use.
_EXPORTS = {
    "AdmissionController": "repro.service.admission",
    "AdmissionError": "repro.service.admission",
    "CompileRequest": "repro.service.request",
    "CompileSession": "repro.service.session",
    "EventLog": "repro.service.events",
    "JobIdAllocator": "repro.service.jobs",
    "JobJournal": "repro.service.jobs",
    "JobRecord": "repro.service.jobs",
    "MetricsHTTPServer": "repro.service.metrics_http",
    "ReproService": "repro.service.daemon",
    "SUN_PATH_LIMIT": "repro.service.client",
    "ServeClient": "repro.service.client",
    "ServiceError": "repro.service.client",
    "SessionManager": "repro.service.session",
    "SolutionStore": "repro.service.store",
    "StoreEntry": "repro.service.store",
    "expected_events": "repro.service.events",
    "read_events": "repro.service.events",
    "serve": "repro.service.daemon",
    "socket_path_problem": "repro.service.client",
}

__all__ = list(_EXPORTS)
__getattr__ = _lazy_exports(__name__, _EXPORTS)
