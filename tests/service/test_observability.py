"""Tests for the service observability plane.

End-to-end request tracing (trace ids on the wire, stitched per-job
span trees, persisted trace documents), the service event log and its
AD807 agreement with the job journal, the SLO latency histograms, and
the read-only HTTP exporter (``/metrics`` / ``/healthz`` / ``/jobs``).
"""

from __future__ import annotations

import json
import urllib.request

import pytest

from repro.analysis.diagnostics import Report
from repro.analysis.service_rules import (
    check_event_log,
    check_service_state,
    check_trace_file,
)
from repro.obs import disable_tracing, enable_tracing, get_registry
from repro.obs.prom import parse_prometheus
from repro.obs.tracer import SpanRecord
from repro.service import MetricsHTTPServer, read_events
from repro.service.client import LATENCY_PREFIX
from repro.service.jobs import JOB_FORMAT, JobJournal, JobRecord
from repro.service.metrics_http import PROM_CONTENT_TYPE

from .conftest import DaemonHarness
from .test_daemon import _request


@pytest.fixture
def traced():
    """Tracing on for the test (the `repro serve` production mode)."""
    enable_tracing()
    yield
    disable_tracing()


def _http_get(port: int, path: str) -> tuple[int, str, str]:
    """GET from the exporter: (status, content-type, body)."""
    url = f"http://127.0.0.1:{port}{path}"
    try:
        with urllib.request.urlopen(url, timeout=10) as resp:
            return (
                resp.status,
                resp.headers.get("Content-Type", ""),
                resp.read().decode("utf-8"),
            )
    except urllib.error.HTTPError as exc:
        return exc.code, exc.headers.get("Content-Type", ""), (
            exc.read().decode("utf-8")
        )


class TestRequestTracing:
    def test_trace_id_echoed_on_every_wire_response(self, daemon, traced):
        submitted = daemon.client.submit(_request())
        assert submitted["trace_id"].startswith("tr-")
        daemon.client.wait(submitted["job_id"])
        status = daemon.client.status(submitted["job_id"])
        assert status["trace_id"] == submitted["trace_id"]
        result = daemon.client.result(submitted["job_id"])
        assert result["trace_id"] == submitted["trace_id"]

    def test_trace_id_is_deterministic_but_distinct_per_job(
        self, daemon, traced
    ):
        first = daemon.client.submit(_request())
        daemon.client.wait(first["job_id"])
        # The identical request is a cache hit: new job, new trace.
        second = daemon.client.submit(_request())
        assert second["source"] == "cache"
        assert second["trace_id"] != first["trace_id"]
        other = daemon.client.submit(_request(seed=11))
        assert other["trace_id"] != first["trace_id"]

    def test_stitched_trace_covers_queue_wait_lease_and_search(
        self, daemon, traced
    ):
        submitted = daemon.client.submit(_request())
        daemon.client.wait(submitted["job_id"])
        doc = daemon.client.trace(submitted["job_id"])
        assert doc["trace_id"] == submitted["trace_id"]
        spans = [SpanRecord.from_dict(s) for s in doc["spans"]]
        by_name = {}
        for span in spans:
            by_name.setdefault(span.name, []).append(span)
        root = by_name["service.job"]
        assert len(root) == 1, "exactly one root span"
        root = root[0]
        assert root.parent_id == 0
        assert dict(root.args)["trace"] == submitted["trace_id"]
        # queue wait and lease stitch directly under the root ...
        assert by_name["service.queue_wait"][0].parent_id == root.span_id
        lease = by_name["service.lease"][0]
        assert lease.parent_id == root.span_id
        # ... and the runner's search spans stitch under the lease:
        # every span is a descendant of the root through the lease.
        children: dict[int, list[SpanRecord]] = {}
        for span in spans:
            children.setdefault(span.parent_id, []).append(span)
        under_lease = set()
        frontier = [lease.span_id]
        while frontier:
            node = frontier.pop()
            for child in children.get(node, ()):
                under_lease.add(child.name)
                frontier.append(child.span_id)
        assert any(
            name.startswith(("search.", "sa.")) for name in under_lease
        ), f"search spans must stitch under the lease, got {under_lease}"
        assert len(spans) == sum(len(v) for v in children.values())

    def test_persisted_trace_is_ad808_clean_and_survives_restart(
        self, short_dir, arch, traced
    ):
        harness = DaemonHarness(short_dir / "state").start()
        try:
            submitted = harness.client.submit(_request(arch=arch))
            harness.client.wait(submitted["job_id"])
            job_id = submitted["job_id"]
        finally:
            harness.stop()
        trace_path = short_dir / "state" / "traces" / f"{job_id}.json"
        assert trace_path.exists()
        report = check_trace_file(trace_path)
        assert report.ok, report.render()
        # A restarted daemon serves the persisted document.
        harness = DaemonHarness(short_dir / "state").start()
        try:
            doc = harness.client.trace(job_id)
            assert doc["job_id"] == job_id
            assert doc["spans"]
        finally:
            harness.stop()

    def test_untraced_daemon_serves_empty_trace(self, daemon):
        submitted = daemon.client.submit(_request())
        daemon.client.wait(submitted["job_id"])
        doc = daemon.client.trace(submitted["job_id"])
        assert doc["spans"] == []


class TestEventLog:
    def test_event_log_agrees_with_journal(self, short_dir, arch, traced):
        harness = DaemonHarness(short_dir / "state").start()
        try:
            submitted = harness.client.submit(_request(arch=arch))
            harness.client.wait(submitted["job_id"])
            # A cache hit goes submit -> complete with no lease.
            harness.client.submit(_request(arch=arch))
        finally:
            harness.stop()
        state = short_dir / "state"
        report = check_event_log(
            state / "events.jsonl", state / "jobs.jsonl", Report()
        )
        assert report.ok, report.render()
        _, events = read_events(state / "events.jsonl")
        kinds = [e["kind"] for e in events]
        assert kinds.count("submit") == 2
        assert kinds.count("lease") == 1
        assert kinds.count("complete") == 2
        assert all(e["trace_id"].startswith("tr-") for e in events)

    def test_state_dir_check_covers_events_and_traces(
        self, short_dir, arch, traced
    ):
        harness = DaemonHarness(short_dir / "state").start()
        try:
            submitted = harness.client.submit(_request(arch=arch))
            harness.client.wait(submitted["job_id"])
        finally:
            harness.stop()
        report = check_service_state(short_dir / "state")
        assert report.ok, report.render()
        checked = " ".join(report.checked)
        assert "EventLog" in checked
        assert "JobTrace" in checked


class TestJournalBackCompat:
    def test_v2_journal_loads_with_none_trace_ids(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        record = {
            "job_id": "job-000001",
            "fingerprint": "f" * 16,
            "model": "m",
            "tenant": "t",
            "state": "queued",
            "source": "search",
            "attempt": 0,
            "lease_seq": 0,
        }
        with open(path, "w", encoding="utf-8") as fh:
            fh.write(json.dumps({"format": JOB_FORMAT, "version": 2}) + "\n")
            fh.write(json.dumps({"event": "queued", "job": record}) + "\n")
        journal = JobJournal(path)
        jobs = journal.open()
        journal.close()
        assert jobs["job-000001"].trace_id is None

    def test_v3_round_trips_trace_id(self, tmp_path):
        path = tmp_path / "jobs.jsonl"
        journal = JobJournal(path)
        journal.open()
        journal.record(
            "queued",
            JobRecord(
                job_id="job-000001",
                fingerprint="f" * 16,
                model="m",
                tenant="t",
                trace_id="tr-0123456789abcdef",
            ),
        )
        journal.close()
        reloaded = JobJournal(path)
        jobs = reloaded.open()
        reloaded.close()
        assert jobs["job-000001"].trace_id == "tr-0123456789abcdef"


class TestLatencyHistograms:
    def test_slo_histograms_and_quantiles_after_jobs(self, daemon, traced):
        submitted = daemon.client.submit(_request())
        daemon.client.wait(submitted["job_id"])
        hit = daemon.client.submit(_request())
        assert hit["source"] == "cache"

        snapshot = get_registry().snapshot()
        hists = snapshot.histograms
        for short in ("queue_wait", "lease_hold", "compile_wall", "e2e"):
            name = f"{LATENCY_PREFIX}{short}"
            assert hists[name]["count"] >= 1, name
        assert hists[f"{LATENCY_PREFIX}cache_hit"]["count"] == 1
        assert hists[f"{LATENCY_PREFIX}e2e"]["count"] == 2

        health = daemon.client.health()
        quantiles = health["latency"]
        assert quantiles["e2e"]["count"] == 2
        for key in ("mean", "max", "p50", "p95", "p99"):
            assert key in quantiles["e2e"]
        stats = daemon.client.stats()
        assert stats["latency"]["e2e"]["count"] == 2

    def test_per_tenant_counters(self, daemon):
        submitted = daemon.client.submit(_request(tenant="acme"))
        daemon.client.wait(submitted["job_id"])
        counters = get_registry().snapshot().counters
        assert counters["service.tenant.acme.submitted"] == 1
        assert counters["service.tenant.acme.completed"] == 1


class TestMetricsHTTPServer:
    @pytest.fixture
    def exporter(self, daemon):
        server = MetricsHTTPServer(daemon.service, port=0)
        server.start()
        yield server
        server.stop()

    def test_metrics_endpoint_serves_valid_exposition(
        self, daemon, exporter
    ):
        submitted = daemon.client.submit(_request())
        daemon.client.wait(submitted["job_id"])
        status, content_type, body = _http_get(exporter.port, "/metrics")
        assert status == 200
        assert content_type == PROM_CONTENT_TYPE
        parsed = parse_prometheus(body)
        assert parsed.counters["service.searches"] == 1
        assert parsed.histograms[f"{LATENCY_PREFIX}e2e"]["count"] == 1

    def test_healthz_and_jobs_endpoints(self, daemon, exporter):
        submitted = daemon.client.submit(_request())
        daemon.client.wait(submitted["job_id"])
        status, content_type, body = _http_get(exporter.port, "/healthz")
        assert status == 200
        assert content_type.startswith("application/json")
        health = json.loads(body)
        assert health["runners"][0]["alive"] is True
        assert "latency" in health
        status, _, body = _http_get(exporter.port, "/jobs")
        assert status == 200
        summary = json.loads(body)
        assert summary["jobs_by_state"] == {"done": 1}
        assert summary["queue_depth"] == 0
        assert summary["leases"] == []

    def test_unknown_path_404_and_writes_405(self, exporter):
        status, _, _ = _http_get(exporter.port, "/nope")
        assert status == 404
        request = urllib.request.Request(
            f"http://127.0.0.1:{exporter.port}/metrics",
            data=b"x",
            method="POST",
        )
        with pytest.raises(urllib.error.HTTPError) as exc_info:
            urllib.request.urlopen(request, timeout=10)
        assert exc_info.value.code == 405

    def test_scrape_during_load_is_coherent(self, daemon, exporter):
        import threading

        pages: list[str] = []
        stop = threading.Event()

        def scrape():
            while not stop.is_set():
                status, _, body = _http_get(exporter.port, "/metrics")
                assert status == 200
                pages.append(body)

        threads = [threading.Thread(target=scrape) for _ in range(4)]
        for t in threads:
            t.start()
        submitted = daemon.client.submit(_request())
        daemon.client.wait(submitted["job_id"])
        stop.set()
        for t in threads:
            t.join()
        for body in pages:
            if not body:
                continue
            for name, state in parse_prometheus(body).histograms.items():
                assert sum(state["counts"]) == state["count"], name

    def test_serve_wires_the_exporter(self, short_dir):
        import socket as socket_mod
        import threading
        import time

        from repro.service import ReproService, ServeClient, serve

        state = short_dir / "state"
        socket_path = str(state / "repro.sock")
        # Reserve a free TCP port for serve() to bind the exporter on.
        with socket_mod.socket() as probe:
            probe.bind(("127.0.0.1", 0))
            port = probe.getsockname()[1]

        def run():
            serve(ReproService(state), socket_path, metrics_port=port)

        thread = threading.Thread(target=run, daemon=True)
        thread.start()
        client = ServeClient(socket_path, timeout_s=60.0)
        try:
            for _ in range(200):
                try:
                    client.ping()
                    break
                except OSError:
                    time.sleep(0.05)
            else:
                raise RuntimeError("daemon did not come up")
            status, content_type, _ = _http_get(port, "/metrics")
            assert status == 200
            assert content_type == PROM_CONTENT_TYPE
            status, _, _ = _http_get(port, "/healthz")
            assert status == 200
        finally:
            client.shutdown()
            thread.join(timeout=30)
        assert not thread.is_alive()
        # serve() tears the exporter down with the daemon.
        with pytest.raises(OSError):
            with socket_mod.create_connection(("127.0.0.1", port), timeout=2):
                pass
