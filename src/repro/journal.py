"""Append-only JSONL journal: the one primitive behind every durable log.

The candidate checkpoint (:mod:`repro.resilience.checkpoint`), the job
journal (:mod:`repro.service.jobs`) and the service event log
(:mod:`repro.service.events`) each hold a :class:`Journal` and keep only
their own header checks and record decoding.  Line 1 is the owner's
header; every further line is one record, ``json.dumps(obj,
sort_keys=True)`` plus a newline; each append is one write + flush +
``fsync``.

**The whole-line rule.**  A line is whole only when it ends in a newline.

* Bytes after the last newline are a torn tail, the write a crash
  interrupted.  :func:`read_lines` ignores them, and
  :meth:`Journal.resume` truncates them before the first append, so the
  next record starts a clean line instead of fusing onto the tear.
* A last whole line that is not a JSON object, or that its owner
  rejects, is dropped and truncated the same way.
* A bad line anywhere before the last one is corruption: it raises the
  owner's error type.  A file without a whole header line is refused.

Validators that audit a journal without opening it read it through
:func:`read_lines` and apply the same rule with their own diagnostics.
"""

from __future__ import annotations

import io
import json
import os
from dataclasses import dataclass
from typing import Any, Callable, Mapping


@dataclass(frozen=True)
class Line:
    """One whole line: 1-based ``number``, byte offsets ``start`` and
    ``end`` (just past its newline), and ``obj``, the line parsed as a
    JSON object (None when it is not one)."""

    number: int
    start: int
    end: int
    obj: dict[str, Any] | None


def _parse(raw: bytes) -> dict[str, Any] | None:
    try:
        obj = json.loads(raw.decode("utf-8"))
    except ValueError:  # JSONDecodeError and UnicodeDecodeError alike
        return None
    return obj if isinstance(obj, dict) else None


def read_lines(path: str | os.PathLike) -> list[Line]:
    """Every whole line of ``path``, parsed; a torn tail is left out."""
    with open(path, "rb") as fh:
        data = fh.read()
    lines: list[Line] = []
    start = 0
    for number, raw in enumerate(data.split(b"\n")[:-1], start=1):
        lines.append(Line(number, start, start + len(raw) + 1, _parse(raw)))
        start += len(raw) + 1
    return lines


class Journal:
    """One append-only JSONL file under the whole-line rule.

    Args:
        path: The journal file.
        noun: What the owner calls the file, for messages
            (``"job journal"`` → ``"...: not open"``, ``"corrupt job
            journal"``).
        error: The owner's error type, raised when a file is refused.
        tear: Optional fault hook, called before every :meth:`append`.
            When it returns an exception, the append writes only a
            prefix of the line, closes the journal — a process that
            died mid-``fsync`` — and raises that exception.
    """

    def __init__(
        self,
        path: str | os.PathLike,
        noun: str,
        error: type[Exception],
        tear: Callable[[], BaseException | None] | None = None,
    ) -> None:
        self.path = os.fspath(path)
        self.noun = noun
        self.error = error
        self.tear = tear
        self._fh: io.TextIOBase | None = None

    @property
    def closed(self) -> bool:
        """True when the journal cannot accept appends (never opened,
        explicitly closed, or killed by an injected torn write)."""
        return self._fh is None

    def create(self, header: Mapping[str, Any]) -> None:
        """Start a fresh journal at ``path`` (overwriting it)."""
        self._fh = open(self.path, "w", encoding="utf-8")
        self._write(json.dumps(header, sort_keys=True) + "\n")

    def read(
        self,
        check_header: Callable[[dict[str, Any]], None],
        record: Callable[[dict[str, Any]], Any] = dict,
    ) -> tuple[dict[str, Any], list[Any], int]:
        """Read the existing file under the whole-line rule; never writes.

        ``check_header`` gets the header object (``{}`` when line 1 is
        not one) and ``record`` turns each record object into the
        owner's value; either raises :class:`ValueError` with a reason
        to refuse, which reaches the caller as the owner's error type
        prefixed ``path:`` or ``path:line:``.  A refused last record is
        dropped instead.  Returns ``(header, records, keep)``, ``keep``
        being the byte length of the accepted prefix.
        """
        lines = read_lines(self.path)
        if not lines:
            raise self.error(f"{self.path}: empty {self.noun} (no whole header line)")
        header = lines[0].obj or {}
        try:
            check_header(header)
        except ValueError as exc:
            raise self.error(f"{self.path}: {exc}") from exc
        records: list[Any] = []
        keep = lines[-1].end
        for line in lines[1:]:
            try:
                if line.obj is None:
                    raise ValueError(f"not a JSON object — corrupt {self.noun}")
                records.append(record(line.obj))
            except ValueError as exc:
                if line is not lines[-1]:
                    raise self.error(f"{self.path}:{line.number}: {exc}") from exc
                keep = line.start
        return header, records, keep

    def resume(
        self,
        check_header: Callable[[dict[str, Any]], None],
        record: Callable[[dict[str, Any]], Any] = dict,
    ) -> tuple[dict[str, Any], list[Any]]:
        """:meth:`read`, cut the file back to its accepted prefix, and
        open it for appending; returns ``(header, records)``."""
        header, records, keep = self.read(check_header, record)
        if keep < os.path.getsize(self.path):
            os.truncate(self.path, keep)
        self._fh = open(self.path, "a", encoding="utf-8")
        return header, records

    def append(self, obj: Mapping[str, Any]) -> None:
        """Durably append one record: one write + flush + ``fsync``."""
        if self._fh is None:
            raise RuntimeError(f"{self.noun} is not open")
        line = json.dumps(obj, sort_keys=True)
        death = self.tear() if self.tear is not None else None
        if death is not None:
            fh, self._fh = self._fh, None  # the journal dies with the write
            fh.write(line[: max(1, len(line) // 2)])
            fh.flush()
            os.fsync(fh.fileno())
            fh.close()
            raise death
        self._write(line + "\n")

    def _write(self, text: str) -> None:
        assert self._fh is not None
        self._fh.write(text)
        self._fh.flush()
        os.fsync(self._fh.fileno())

    def close(self) -> None:
        fh, self._fh = self._fh, None
        if fh is not None:
            fh.close()


__all__ = ["Journal", "Line", "read_lines"]
