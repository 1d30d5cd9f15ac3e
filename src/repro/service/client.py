"""Thin client for the ``repro serve`` wire protocol.

One connection per call: connect to the unix socket, write one JSON
line, read one JSON line, disconnect.  :class:`ServiceError` carries the
daemon's machine-readable error code (``queue-full``,
``quota-exceeded``, ``bad-request``, ``not-found``, ``draining``...), so
callers can distinguish backpressure from mistakes.

Transient transport failures — a connection refused/reset mid-restart,
a response line the daemon never wrote — are retried with the shared
deterministic backoff ladder (:func:`repro.resilience.timing.backoff_for`);
every wait is bounded by a monotonic :class:`~repro.resilience.timing.Deadline`,
never by wall-clock arithmetic, so the client needs no static-analysis
suppressions.  Retrying a ``submit`` is safe by design: an identical
in-flight request coalesces, a published one is a cache hit.

This is everything ``repro submit`` / ``repro jobs`` / ``repro cache``
need — no HTTP stack, no new dependencies.
"""

from __future__ import annotations

import errno
import json
import os
import socket
import time

from repro.resilience.timing import Deadline, backoff_for
from repro.service.request import CompileRequest

#: Portable floor of the ``sockaddr_un.sun_path`` buffer (Linux allows
#: 108 bytes, the BSDs 104; both counts include the NUL terminator).
SUN_PATH_LIMIT = 104

#: Longest pause between two ``status`` polls in :meth:`ServeClient.wait`:
#: a finished job is seen at most this late.
WAIT_POLL_CAP_S = 0.2

#: Transport failures worth retrying: the daemon is restarting, its
#: listen backlog blinked, or the kernel reset us mid-handshake.  A
#: *timeout* is deliberately excluded — the daemon may be working on a
#: long search and a retry would just queue a duplicate wait.
_RETRYABLE_ERRNOS = (
    "ECONNREFUSED",
    "ECONNRESET",
    "EPIPE",
    "ENOENT",
)


def socket_path_problem(path: str | os.PathLike) -> str | None:
    """Why ``path`` cannot be a unix socket address, or None if it can.

    ``AF_UNIX`` addresses live in a fixed ~104-byte kernel buffer
    (``sun_path``); binding or connecting a longer path fails with a
    baffling ``OSError``.  Both ``repro serve`` and the clients check up
    front and turn this into a clean usage error.
    """
    raw = os.fsencode(os.fspath(path))
    if len(raw) >= SUN_PATH_LIMIT:
        return (
            f"unix socket path is {len(raw)} bytes, over the ~{SUN_PATH_LIMIT}-byte "
            f"sun_path limit; use a shorter --socket path (e.g. under /tmp)"
        )
    return None


class ServiceError(RuntimeError):
    """The daemon answered ``ok: false``; ``code`` is machine-readable."""

    def __init__(self, code: str, message: str) -> None:
        super().__init__(message)
        self.code = code


def _is_retryable_oserror(exc: OSError) -> bool:
    if isinstance(exc, socket.timeout):
        return False
    if isinstance(exc, (ConnectionError, FileNotFoundError)):
        return True
    codes = {getattr(errno, name, None) for name in _RETRYABLE_ERRNOS}
    return exc.errno in codes


class ServeClient:
    """Client of one ``repro serve`` daemon.

    Args:
        socket_path: The daemon's unix socket.
        timeout_s: Per-call socket timeout.
        retries: Transparent retries of one call on transient transport
            failure (connection refused/reset, dropped response line).
        backoff_s: Base of the deterministic exponential backoff
            between those retries.

    Raises:
        ValueError: ``socket_path`` exceeds the ``sun_path`` limit.
    """

    def __init__(
        self,
        socket_path: str,
        timeout_s: float = 30.0,
        retries: int = 2,
        backoff_s: float = 0.05,
    ) -> None:
        problem = socket_path_problem(socket_path)
        if problem is not None:
            raise ValueError(problem)
        if retries < 0:
            raise ValueError("retries must be >= 0")
        self.socket_path = socket_path
        self.timeout_s = timeout_s
        self.retries = retries
        self.backoff_s = backoff_s

    # -- transport ----------------------------------------------------------

    def call(self, op: str, **fields: object) -> dict:
        """One round trip; returns the response with ``ok`` stripped.

        Transient transport failures retry up to ``self.retries`` times
        with deterministic exponential backoff; daemon-reported errors
        (``ok: false``) never retry here — backpressure policy belongs
        to the caller (see :meth:`submit`).

        Raises:
            ServiceError: The daemon rejected the request (its error
                code is preserved) or answered garbage.
            ConnectionError / OSError: The daemon stayed unreachable
                through every retry.
        """
        attempt = 0
        while True:
            try:
                return self._call_once(op, fields)
            except ServiceError as exc:
                if exc.code != "no-response" or attempt >= self.retries:
                    raise
            except OSError as exc:
                if not _is_retryable_oserror(exc) or attempt >= self.retries:
                    raise
            attempt += 1
            time.sleep(backoff_for(attempt, base_s=self.backoff_s))

    def _call_once(self, op: str, fields: dict) -> dict:
        request = {"op": op, **fields}
        with socket.socket(socket.AF_UNIX, socket.SOCK_STREAM) as sock:
            sock.settimeout(self.timeout_s)
            sock.connect(self.socket_path)
            sock.sendall((json.dumps(request) + "\n").encode("utf-8"))
            with sock.makefile("r", encoding="utf-8") as fh:
                line = fh.readline()
        if not line:
            raise ServiceError("no-response", "daemon closed the connection")
        try:
            response = json.loads(line)
        except ValueError as exc:
            raise ServiceError("bad-response", f"unparseable response: {exc}") from exc
        if not isinstance(response, dict) or "ok" not in response:
            raise ServiceError("bad-response", f"malformed response: {response!r}")
        if not response["ok"]:
            error = response.get("error") or {}
            raise ServiceError(
                error.get("code", "unknown"),
                error.get("message", "daemon reported an error"),
            )
        response.pop("ok")
        return response

    # -- the protocol, one method per op ------------------------------------

    def ping(self) -> dict:
        return self.call("ping")

    def submit(
        self,
        request: CompileRequest | dict,
        backpressure_timeout_s: float = 0.0,
    ) -> dict:
        """Submit one compile; returns ``{"job_id", "state", "source"}``.

        With ``backpressure_timeout_s > 0``, ``queue-full`` /
        ``quota-exceeded`` rejections are retried with deterministic
        exponential backoff until the deadline — the polite way to feed
        a busy daemon.  ``draining`` is never retried: this daemon is
        going away.
        """
        doc = request.to_dict() if isinstance(request, CompileRequest) else request
        deadline = Deadline(backpressure_timeout_s)
        attempt = 0
        while True:
            try:
                return self.call("submit", request=doc)
            except ServiceError as exc:
                if exc.code not in ("queue-full", "quota-exceeded"):
                    raise
                if deadline.expired:
                    raise
            attempt += 1
            remaining = deadline.remaining_s()
            pause = backoff_for(attempt, base_s=self.backoff_s)
            if remaining is not None:
                pause = min(pause, remaining)
            time.sleep(pause)

    def status(self, job_id: str) -> dict:
        return self.call("status", job_id=job_id)["job"]

    def result(self, job_id: str) -> dict:
        """The finished job's result, ``solution_json`` byte-exact."""
        return self.call("result", job_id=job_id)

    def wait(
        self, job_id: str, timeout_s: float | None = 600.0, poll_s: float = 0.05
    ) -> dict:
        """Poll until the job is terminal; returns its final record.

        The poll interval starts at ``poll_s`` and doubles per poll up
        to :data:`WAIT_POLL_CAP_S` — a deterministic backoff that keeps
        short jobs snappy, sees a finished long one at most that late,
        and costs a long search five status calls a second.

        Raises:
            TimeoutError: Still running after ``timeout_s``.
        """
        deadline = Deadline(timeout_s)
        poll = poll_s
        while True:
            job = self.status(job_id)
            if job["state"] in ("done", "failed", "cancelled"):
                return job
            if deadline.expired:
                raise TimeoutError(
                    f"job {job_id} still {job['state']} after {timeout_s}s"
                )
            pause = poll
            remaining = deadline.remaining_s()
            if remaining is not None:
                pause = min(pause, remaining)
            time.sleep(pause)
            poll = min(poll * 2.0, WAIT_POLL_CAP_S)

    def cancel(self, job_id: str) -> dict:
        return self.call("cancel", job_id=job_id)

    def jobs(self) -> list[dict]:
        return self.call("jobs")["jobs"]

    def stats(self) -> dict:
        return self.call("stats")["stats"]

    def health(self) -> dict:
        """Runner liveness, live leases, lease stats, metrics snapshot."""
        return self.call("health")["health"]

    def trace(self, job_id: str) -> dict:
        """The job's stitched span tree: ``{job_id, trace_id, root_pid, spans}``."""
        return self.call("trace", job_id=job_id)

    def drain(self, timeout_s: float | None = 60.0) -> dict:
        """Gracefully drain the daemon (it exits once drained)."""
        return self.call("drain", timeout_s=timeout_s)

    def shutdown(self) -> dict:
        return self.call("shutdown")


__all__ = [
    "SUN_PATH_LIMIT",
    "ServeClient",
    "ServiceError",
    "socket_path_problem",
]
