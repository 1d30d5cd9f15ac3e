"""ReproService end-to-end: determinism, coalescing, restart, wire ops."""

from __future__ import annotations

import json
import threading
import time
from dataclasses import replace

import pytest

from repro.framework import AtomicDataflowOptimizer, OptimizerOptions
from repro.obs import get_registry
from repro.serialize import canonical_solution_bytes, solution_to_dict
from repro.service import (
    AdmissionError,
    CompileRequest,
    ReproService,
    ServiceError,
)
from tests.service.conftest import FAST_SA, DaemonHarness


def _request(model="mobilenet_v2_bench", arch=None, tenant="default", **opt):
    from repro.config import ArchConfig

    base = dict(sa_params=FAST_SA, restarts=2, seed=3)
    base.update(opt)
    options = OptimizerOptions(**base)
    return CompileRequest(
        model=model,
        arch=arch or ArchConfig(mesh_rows=4, mesh_cols=4),
        options=options,
        tenant=tenant,
    )


def _direct_bytes(request: CompileRequest) -> bytes:
    """What `repro optimize` would produce for the same request."""
    outcome = AtomicDataflowOptimizer(
        request.graph, request.arch, replace(request.options, jobs=1)
    ).optimize()
    return canonical_solution_bytes(
        solution_to_dict(outcome, request.options.dataflow, include_search=False)
    )


def _drain(service: ReproService, job_id: str, timeout_s: float = 180.0):
    """Poll a (runnerless-client) service until the job is terminal."""
    deadline = time.monotonic() + timeout_s
    while True:
        job = service.status(job_id)
        if job["state"] in ("done", "failed", "cancelled"):
            return job
        if time.monotonic() > deadline:
            raise TimeoutError(f"job {job_id} stuck in {job['state']}")
        time.sleep(0.05)


class TestServeDeterminism:
    def test_served_equals_direct_optimize_jobs1_and_jobs4(self, short_dir, arch):
        """The headline contract on two zoo models, serial and parallel."""
        for jobs in (1, 4):
            harness = DaemonHarness(short_dir / f"state-j{jobs}").start()
            try:
                for model in ("mobilenet_v2_bench", "vgg19_bench"):
                    request = _request(model=model, arch=arch, jobs=jobs)
                    submitted = harness.client.submit(request)
                    assert submitted["source"] == "search"
                    job = harness.client.wait(submitted["job_id"])
                    assert job["state"] == "done"
                    served = harness.client.result(submitted["job_id"])
                    assert served["solution_json"].encode() == _direct_bytes(
                        request
                    ), f"{model} jobs={jobs} diverged from direct optimize"
            finally:
                harness.stop()

    def test_cache_hit_is_byte_identical(self, daemon):
        request = _request()
        first = daemon.client.submit(request)
        daemon.client.wait(first["job_id"])
        second = daemon.client.submit(request)
        assert second["state"] == "done"
        assert second["source"] == "cache"
        assert (
            daemon.client.result(first["job_id"])["solution_json"]
            == daemon.client.result(second["job_id"])["solution_json"]
        )
        stats = daemon.client.stats()
        assert stats["counters"]["service.searches"] == 1

    def test_concurrent_identical_submissions_search_once(self, daemon):
        """N identical concurrent submissions: one search, N results equal."""
        request = _request(model="vgg19_bench")
        n = 4
        results: list[dict] = [None] * n
        errors: list[Exception] = []

        def submit(i: int) -> None:
            try:
                results[i] = daemon.client.submit(request)
            except Exception as exc:  # noqa: BLE001 - collected for assert
                errors.append(exc)

        threads = [
            threading.Thread(target=submit, args=(i,)) for i in range(n)
        ]
        for t in threads:
            t.start()
        for t in threads:
            t.join()
        assert not errors
        payloads = set()
        sources = []
        for submitted in results:
            job = daemon.client.wait(submitted["job_id"])
            assert job["state"] == "done"
            sources.append(job["source"])
            payloads.add(
                daemon.client.result(submitted["job_id"])["solution_json"]
            )
        assert len(payloads) == 1  # byte-identical across all four
        assert sources.count("search") == 1
        assert daemon.client.stats()["counters"]["service.searches"] == 1

    def test_warm_daemon_second_model_then_repeat(self, daemon):
        """A daemon that has already searched reuses warm sessions."""
        first = daemon.client.submit(_request())
        daemon.client.wait(first["job_id"])
        repeat = daemon.client.submit(_request(seed=4))  # same ctx, new search
        job = daemon.client.wait(repeat["job_id"])
        assert job["state"] == "done"
        stats = daemon.client.stats()
        assert stats["counters"]["session.hits"] >= 1  # ctx was reused


class TestRestartRecovery:
    def test_queued_job_survives_kill(self, short_dir, arch):
        """A daemon killed with a queued job finishes it after restart,
        byte-identically to an uninterrupted daemon."""
        request = _request(arch=arch)
        # Uninterrupted control run on its own state dir.
        control = ReproService(short_dir / "control")
        control.start()
        control_id = control.submit(request.to_dict())["job_id"]
        _drain(control, control_id)
        control_bytes = control.result(control_id)["solution_json"]
        control.stop()

        # "Kill" a daemon whose runner never got to the job: the journal
        # records it queued, then the process dies (journal abandoned).
        killed = ReproService(short_dir / "state")
        job_id = killed.submit(request.to_dict())["job_id"]
        killed.journal.close()  # abrupt: runner never started

        revived = ReproService(short_dir / "state")
        assert revived.status(job_id)["state"] == "queued"
        revived.start()
        job = _drain(revived, job_id)
        assert job["state"] == "done"
        assert revived.result(job_id)["solution_json"] == control_bytes
        revived.stop()

    def test_running_job_resumes_from_checkpoint(self, short_dir, arch):
        """A job killed mid-search resumes from its candidate checkpoint
        and produces the identical document."""
        request = _request(arch=arch)
        expected = _direct_bytes(request)

        killed = ReproService(short_dir / "state")
        job_id = killed.submit(request.to_dict())["job_id"]
        # Simulate the kill happening mid-search: the journal shows the
        # job running, and its candidate checkpoint already holds every
        # completed candidate (the strongest resume case).
        record = killed._jobs[job_id].advanced("running")
        killed.journal.record("running", record)
        ck_path = str(short_dir / "state" / "ck" / f"{job_id}.jsonl")
        AtomicDataflowOptimizer(
            request.graph,
            request.arch,
            replace(request.options, checkpoint=ck_path),
        ).optimize()
        killed.journal.close()

        revived = ReproService(short_dir / "state")
        revived.start()
        job = _drain(revived, job_id)
        assert job["state"] == "done"
        assert revived.result(job_id)["solution_json"].encode() == expected
        revived.stop()

    def test_terminal_job_deletes_its_checkpoint(
        self, short_dir, arch, monkeypatch
    ):
        """A searched job's candidate checkpoint exists only while the
        job can still be requeued; once it is done the file is gone."""
        from repro.resilience import CheckpointJournal

        written: set[str] = set()
        append = CheckpointJournal.append

        def spy(journal, record):
            written.add(journal.path)
            append(journal, record)

        monkeypatch.setattr(CheckpointJournal, "append", spy)
        service = ReproService(short_dir / "state")
        service.start()
        try:
            job_id = service.submit(_request(arch=arch).to_dict())["job_id"]
            job = _drain(service, job_id)
        finally:
            service.stop()
        assert job["state"] == "done" and job["source"] == "search"
        ck_path = short_dir / "state" / "ck" / f"{job_id}.jsonl"
        assert written == {str(ck_path)}
        assert not ck_path.exists()

    def test_coalesced_waiters_survive_restart_as_cache_hits(
        self, short_dir, arch
    ):
        request = _request(arch=arch)
        killed = ReproService(short_dir / "state")
        primary = killed.submit(request.to_dict())["job_id"]
        waiter = killed.submit(request.to_dict())["job_id"]
        assert killed.status(waiter)["source"] == "coalesced"
        killed.journal.close()

        revived = ReproService(short_dir / "state")
        revived.start()
        jobs = {_drain(revived, j)["state"] for j in (primary, waiter)}
        assert jobs == {"done"}
        assert (
            revived.result(primary)["solution_json"]
            == revived.result(waiter)["solution_json"]
        )
        revived.stop()


class TestAdmissionIntegration:
    def test_queue_full_backpressure(self, short_dir):
        service = ReproService(short_dir / "state", max_queue_depth=2)
        try:
            service.submit(_request(model="mobilenet_v2_bench").to_dict())
            service.submit(_request(model="vgg19_bench").to_dict())
            with pytest.raises(AdmissionError) as err:
                service.submit(_request(model="resnet50_bench").to_dict())
            assert err.value.code == "queue-full"
        finally:
            service.stop()

    def test_tenant_quota_backpressure(self, short_dir):
        service = ReproService(short_dir / "state", default_quota=1)
        try:
            service.submit(_request(tenant="a").to_dict())
            with pytest.raises(AdmissionError) as err:
                service.submit(
                    _request(model="vgg19_bench", tenant="a").to_dict()
                )
            assert err.value.code == "quota-exceeded"
            # Another tenant still gets in.
            service.submit(_request(model="vgg19_bench", tenant="b").to_dict())
        finally:
            service.stop()

    def test_cache_hits_bypass_admission(self, short_dir, arch):
        service = ReproService(short_dir / "state", max_queue_depth=1)
        try:
            request = _request(arch=arch)
            job_id = service.submit(request.to_dict())["job_id"]
            service.start()
            _drain(service, job_id)
            # Saturate the queue with a different workload...
            service.submit(_request(model="vgg19_bench", seed=99).to_dict())
            # ...the cached request still gets an instant answer.
            hit = service.submit(request.to_dict())
            assert hit["state"] == "done" and hit["source"] == "cache"
        finally:
            service.stop()

    def test_cancel_releases_slot_and_fails_waiters(self, short_dir):
        service = ReproService(short_dir / "state", default_quota=2)
        try:
            request = _request(tenant="a")
            primary = service.submit(request.to_dict())["job_id"]
            waiter = service.submit(request.to_dict())["job_id"]
            cancelled = service.cancel(primary)
            assert cancelled["state"] == "cancelled"
            assert service.status(waiter)["state"] == "failed"
            assert service.admission.in_flight("a") == 0
        finally:
            service.stop()


class _StubSession:
    """A session stand-in with a scriptable ``optimize``."""

    def __init__(self, script):
        self._script = script

    def optimize(self, options):
        return self._script()


class _StubSessions:
    """SessionManager stand-in: every acquire returns the same script."""

    def __init__(self, script):
        self._session = _StubSession(script)

    def acquire(self, graph, arch, options):
        return self._session

    def release(self, session):
        pass

    def close(self):
        pass

    def __len__(self):
        return 0


class TestRunnerPool:
    def test_multi_runner_results_equal_single_runner_and_direct(
        self, short_dir, arch
    ):
        """--runners 4 == --runners 1 == repro optimize, byte for byte."""
        requests = [
            _request(arch=arch, seed=seed) for seed in (3, 4)
        ] + [_request(model="vgg19_bench", arch=arch)]
        expected = [_direct_bytes(r) for r in requests]
        for runners in (1, 4):
            service = ReproService(
                short_dir / f"state-r{runners}", runners=runners
            )
            try:
                service.start()
                ids = [
                    service.submit(r.to_dict())["job_id"] for r in requests
                ]
                for job_id, want in zip(ids, expected):
                    assert _drain(service, job_id)["state"] == "done"
                    got = service.result(job_id)["solution_json"].encode()
                    assert got == want, f"runners={runners} diverged"
            finally:
                service.stop()

    def test_stalled_lease_is_reclaimed_and_late_result_discarded(
        self, short_dir
    ):
        """A wedged runner loses its lease; its eventual result is
        superseded, and the retry owns the job."""
        wedged = threading.Event()
        proceed = threading.Event()
        calls = []

        def script():
            calls.append(threading.current_thread().name)
            if len(calls) == 1:
                wedged.set()
                proceed.wait(30)
            raise RuntimeError("search blew up")

        service = ReproService(
            short_dir / "state",
            runners=1,
            max_job_attempts=2,
            retry_backoff_s=0.001,
            heartbeat_timeout_s=0.05,
            supervise_interval_s=0.02,
        )
        service.sessions = _StubSessions(script)
        try:
            job_id = service.submit(_request().to_dict())["job_id"]
            service.start()
            assert wedged.wait(30)
            # The supervisor reclaims the stalled lease and hands the
            # job to a fresh runner, whose attempt-2 failure is final.
            job = _drain(service, job_id)
            assert job["state"] == "failed"
            assert job["attempt"] == 2
            counters = get_registry().snapshot().counters
            assert counters["service.lease.stalled"] >= 1
            assert counters["service.lease.reclaimed"] >= 1
            # Free the wedged runner: its late failure must be discarded
            # (the job is already terminal), not double-counted.
            proceed.set()
            deadline = time.monotonic() + 10
            while time.monotonic() < deadline:
                counters = get_registry().snapshot().counters
                if counters.get("service.lease.superseded", 0) >= 1:
                    break
                time.sleep(0.01)
            assert (
                get_registry().snapshot().counters["service.lease.superseded"]
                >= 1
            )
            assert service.status(job_id)["state"] == "failed"  # unchanged
        finally:
            proceed.set()
            service.stop()

    def test_failing_search_retries_to_cap_then_fails(self, short_dir):
        def script():
            raise RuntimeError("deterministically broken")

        service = ReproService(
            short_dir / "state",
            runners=2,
            max_job_attempts=3,
            retry_backoff_s=0.001,
            supervise_interval_s=0.02,
        )
        service.sessions = _StubSessions(script)
        try:
            job_id = service.submit(_request().to_dict())["job_id"]
            service.start()
            job = _drain(service, job_id)
            assert job["state"] == "failed"
            assert job["attempt"] == 3
            assert "attempt 3/3" in job["error"]
            counters = get_registry().snapshot().counters
            assert counters["service.lease.retries"] == 2
            assert counters["service.lease.issued"] == 3
        finally:
            service.stop()


class TestHealthAndDrain:
    def test_health_reports_runners_leases_and_metrics(self, daemon):
        submitted = daemon.client.submit(_request())
        daemon.client.wait(submitted["job_id"])
        health = daemon.client.health()
        assert health["draining"] is False
        assert health["runners_target"] == 1
        assert len(health["runners"]) == 1
        assert health["runners"][0]["alive"] is True
        assert health["leases"] == []  # nothing in flight any more
        assert health["lease_stats"]["issued"] >= 1
        assert health["lease_stats"]["reclaimed"] == 0
        # The metrics field is a full mergeable snapshot: a fleet
        # aggregator can fold health responses from many daemons.
        from repro.obs.metrics import MetricsRegistry, MetricsSnapshot

        snapshot = MetricsSnapshot.from_dict(health["metrics"])
        fleet = MetricsRegistry()
        fleet.merge(snapshot)
        fleet.merge(snapshot)
        assert fleet.counter("service.searches").value == 2

    def test_drain_rejects_new_work_and_stops_daemon(self, short_dir, arch):
        harness = DaemonHarness(short_dir / "state").start()
        submitted = harness.client.submit(_request(arch=arch))
        harness.client.wait(submitted["job_id"])
        summary = harness.client.drain()
        assert summary["draining"] is True
        assert summary["requeued"] == []
        harness.thread.join(timeout=30)
        assert not harness.thread.is_alive(), "daemon did not exit after drain"
        harness.thread = None

    def test_drain_requeues_running_jobs_for_successor(self, short_dir):
        """A job that cannot finish inside the drain window is journaled
        back to queued — the successor daemon picks it up."""
        wedged = threading.Event()
        proceed = threading.Event()

        def script():
            wedged.set()
            proceed.wait(30)
            raise RuntimeError("too late: the lease is gone")

        service = ReproService(
            short_dir / "state", runners=1, supervise_interval_s=0.02
        )
        service.sessions = _StubSessions(script)
        job_id = service.submit(_request().to_dict())["job_id"]
        service.start()
        assert wedged.wait(30)
        summary = service.drain(timeout_s=0.1)
        assert summary["requeued"] == [job_id]
        assert service.status(job_id)["state"] == "queued"
        with pytest.raises(AdmissionError) as err:
            service.submit(_request(seed=99).to_dict())
        assert err.value.code == "draining"
        proceed.set()
        # The successor finishes the requeued job for real.
        revived = ReproService(short_dir / "state")
        try:
            revived.start()
            job = _drain(revived, job_id)
            assert job["state"] == "done"
            assert revived.result(job_id)["solution_json"].encode() == (
                _direct_bytes(_request())
            )
        finally:
            revived.stop()

    def test_drain_is_idempotent(self, short_dir):
        service = ReproService(short_dir / "state")
        service.start()
        first = service.drain(timeout_s=5.0)
        second = service.drain(timeout_s=5.0)
        assert first["draining"] and second["draining"]
        assert second["requeued"] == []


class TestWireProtocol:
    def test_unknown_op_and_bad_json(self, daemon):
        with pytest.raises(ServiceError) as err:
            daemon.client.call("frobnicate")
        assert err.value.code == "bad-request"

    def test_unknown_job(self, daemon):
        with pytest.raises(ServiceError) as err:
            daemon.client.status("job-999999")
        assert err.value.code == "not-found"

    def test_bad_request_rejected(self, daemon):
        with pytest.raises(ServiceError) as err:
            daemon.client.submit({"model": "no-such-model"})
        assert err.value.code == "bad-request"
        with pytest.raises(ServiceError) as err:
            daemon.client.submit({"model": "vgg19_bench", "wat": 1})
        assert err.value.code == "bad-request"

    def test_result_of_unfinished_job_is_clean_error(self, short_dir, daemon):
        submitted = daemon.client.submit(_request())
        # The job may or may not have finished yet; force the error path
        # with a job we know is queued on a runnerless service.
        service = ReproService(short_dir / "aux")
        try:
            queued = service.submit(_request(seed=123).to_dict())["job_id"]
            with pytest.raises(ValueError, match="queued"):
                service.result(queued)
        finally:
            service.stop()
        daemon.client.wait(submitted["job_id"])

    def test_jobs_and_stats_ops(self, daemon):
        submitted = daemon.client.submit(_request())
        daemon.client.wait(submitted["job_id"])
        jobs = daemon.client.jobs()
        assert any(j["job_id"] == submitted["job_id"] for j in jobs)
        stats = daemon.client.stats()
        assert stats["store"]["entries"] == 1
        assert stats["jobs_by_state"]["done"] >= 1
        assert json.dumps(stats)  # JSON-serializable end to end
