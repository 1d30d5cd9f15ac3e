"""ServeClient transport policy: retries, deadlines, socket-path limits."""

from __future__ import annotations

import socket
import threading
from pathlib import Path

import pytest

from repro.resilience.timing import Deadline, backoff_for
from repro.service import SUN_PATH_LIMIT, ServeClient, socket_path_problem
from repro.service.client import WAIT_POLL_CAP_S, ServiceError


class TestBackoffLadder:
    def test_values_are_the_shared_ladder(self):
        assert backoff_for(0) == 0.0
        assert backoff_for(1, base_s=0.05) == 0.05
        assert backoff_for(2, base_s=0.05) == 0.1
        assert backoff_for(3, base_s=0.05) == 0.2

    def test_capped(self):
        assert backoff_for(50, base_s=0.05, cap_s=5.0) == 5.0

    def test_negative_attempt_waits_nothing(self):
        assert backoff_for(-3) == 0.0


class TestDeadline:
    def test_none_never_expires(self):
        deadline = Deadline(None)
        assert not deadline.expired
        assert deadline.remaining_s() is None

    def test_zero_expires_immediately(self):
        deadline = Deadline(0.0)
        assert deadline.expired
        assert deadline.remaining_s() == 0.0

    def test_positive_timeout_counts_down(self):
        deadline = Deadline(60.0)
        assert not deadline.expired
        remaining = deadline.remaining_s()
        assert 0.0 < remaining <= 60.0

    def test_reset_restarts(self):
        deadline = Deadline(0.0)
        assert deadline.expired
        deadline.reset(60.0)
        assert not deadline.expired

    def test_rejects_negative(self):
        with pytest.raises(ValueError):
            Deadline(-1.0)


class TestSocketPathLimit:
    def test_short_path_ok(self):
        assert socket_path_problem("/tmp/repro.sock") is None

    def test_long_path_reports_problem(self):
        long_path = "/tmp/" + "x" * SUN_PATH_LIMIT + "/repro.sock"
        problem = socket_path_problem(long_path)
        assert problem is not None and "sun_path" in problem

    def test_boundary(self):
        ok = "/" + "x" * (SUN_PATH_LIMIT - 2)
        too_long = "/" + "x" * (SUN_PATH_LIMIT - 1)
        assert socket_path_problem(ok) is None
        assert socket_path_problem(too_long) is not None

    def test_client_rejects_long_path_up_front(self):
        with pytest.raises(ValueError, match="sun_path"):
            ServeClient("/tmp/" + "x" * SUN_PATH_LIMIT)

    def test_pathlike_accepted(self):
        assert socket_path_problem(Path("/tmp/repro.sock")) is None


class _FlakyServer:
    """A raw unix-socket server that drops the first N responses."""

    def __init__(self, socket_path: str, drop_first: int):
        self.socket_path = socket_path
        self.drop_first = drop_first
        self.connections = 0
        self._server = socket.socket(socket.AF_UNIX, socket.SOCK_STREAM)
        self._server.bind(socket_path)
        self._server.listen(8)
        self._thread = threading.Thread(target=self._serve, daemon=True)
        self._thread.start()

    def _serve(self) -> None:
        while True:
            try:
                conn, _ = self._server.accept()
            except OSError:
                return
            with conn:
                conn.makefile("r", encoding="utf-8").readline()
                self.connections += 1
                if self.connections > self.drop_first:
                    conn.sendall(b'{"ok": true, "protocol": 2}\n')
                # else: close without answering (the dropped response)

    def close(self) -> None:
        self._server.close()
        self._thread.join(timeout=5)


class TestTransportRetries:
    def test_call_retries_through_dropped_responses(self, short_dir):
        server = _FlakyServer(str(short_dir / "flaky.sock"), drop_first=2)
        try:
            client = ServeClient(
                server.socket_path, timeout_s=5.0, retries=2, backoff_s=0.001
            )
            assert client.ping()["protocol"] == 2
            assert server.connections == 3
        finally:
            server.close()

    def test_call_gives_up_after_retry_budget(self, short_dir):
        server = _FlakyServer(str(short_dir / "flaky.sock"), drop_first=99)
        try:
            client = ServeClient(
                server.socket_path, timeout_s=5.0, retries=1, backoff_s=0.001
            )
            with pytest.raises(ServiceError) as err:
                client.ping()
            assert err.value.code == "no-response"
            assert server.connections == 2  # first try + one retry
        finally:
            server.close()

    def test_unreachable_daemon_retries_then_raises(self, short_dir):
        client = ServeClient(
            str(short_dir / "nobody.sock"), retries=1, backoff_s=0.001
        )
        with pytest.raises(OSError):
            client.ping()

    def test_rejects_negative_retries(self, short_dir):
        with pytest.raises(ValueError):
            ServeClient(str(short_dir / "a.sock"), retries=-1)


class TestWaitPolling:
    def test_pauses_stay_under_the_cap_and_done_returns_on_next_poll(
        self, monkeypatch
    ):
        import repro.service.client as client_module

        client = ServeClient("/tmp/never-connected.sock")
        states = iter(["queued"] + ["running"] * 12 + ["done"])
        polls: list[str] = []
        pauses: list[float] = []

        def status(job_id):
            polls.append(job_id)
            return {"job_id": job_id, "state": next(states)}

        monkeypatch.setattr(client, "status", status)
        monkeypatch.setattr(client_module.time, "sleep", pauses.append)
        job = client.wait("job-1", timeout_s=None)
        assert job["state"] == "done"
        assert len(polls) == 14
        # No pause after the terminal poll: the job is returned at once.
        assert len(pauses) == len(polls) - 1
        assert pauses[:3] == [0.05, 0.1, 0.2]
        assert max(pauses) <= WAIT_POLL_CAP_S == 0.2
