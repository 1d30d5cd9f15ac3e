"""The compile request: one unit of service work, canonically keyed.

A :class:`CompileRequest` is the service-side extraction of what
``framework.optimize`` used to take as loose arguments: a zoo model, an
architecture, and the search options — plus the tenant submitting it.
Its :meth:`~CompileRequest.fingerprint` is the deterministic request
digest from :mod:`repro.fingerprint` (graph structure + arch + decision
options), the key of the content-addressed solution store and of job
coalescing.  :func:`request_fingerprint` takes it, through a service's
:class:`FingerprintMemo` when given one, so a repeated request builds
no graph.
"""

from __future__ import annotations

import json
import threading
from collections import OrderedDict
from dataclasses import dataclass, field
from functools import cached_property
from typing import Any, Mapping

from repro.config import DEFAULT_ARCH, ArchConfig
from repro.fingerprint import (
    arch_from_dict,
    arch_to_dict,
    request_head,
)
from repro.fingerprint import request_fingerprint as digest_request
from repro.framework import OptimizerOptions
from repro.ir.graph import Graph

#: Wire-form keys of a serialized request.
_REQUEST_KEYS = frozenset({"model", "arch", "options", "tenant"})

#: Request fingerprints one :class:`FingerprintMemo` remembers, least
#: recently used first out.
FINGERPRINT_MEMO_ENTRIES = 1024


@dataclass(frozen=True)
class CompileRequest:
    """One compile: a zoo model on an architecture under search options.

    Attributes:
        model: Model-zoo name (resolved via :func:`repro.models.get_model`).
        arch: Target architecture.
        options: Search configuration; execution-only knobs (jobs,
            retries, checkpointing...) are the daemon's business and are
            excluded from the fingerprint.
        tenant: Submitting tenant, for quota accounting.  Not part of
            the fingerprint — two tenants asking the same question share
            one cache entry.
    """

    model: str
    arch: ArchConfig = field(default_factory=lambda: DEFAULT_ARCH)
    options: OptimizerOptions = field(default_factory=OptimizerOptions)
    tenant: str = "default"

    def __post_init__(self) -> None:
        if not self.model:
            raise ValueError("request needs a model name")
        if not self.tenant:
            raise ValueError("request needs a tenant name")

    @cached_property
    def graph(self) -> Graph:
        """The workload graph, built once per request object.

        Raises:
            KeyError: On an unknown model name.
        """
        from repro.models import get_model

        return get_model(self.model)

    @cached_property
    def fingerprint(self) -> str:
        """The canonical request digest (store / coalescing key)."""
        return request_fingerprint(self)

    def to_dict(self) -> dict:
        """The pure-JSON wire form (what ``repro submit`` sends)."""
        return {
            "model": self.model,
            "arch": arch_to_dict(self.arch),
            "options": self.options.to_dict(),
            "tenant": self.tenant,
        }

    @classmethod
    def from_dict(cls, doc: Mapping[str, Any]) -> "CompileRequest":
        """Rebuild a request from :meth:`to_dict` output.

        Raises:
            ValueError: On unknown keys at any level, a missing model,
                or option/arch values the dataclasses reject.
        """
        unknown = sorted(set(doc) - _REQUEST_KEYS)
        if unknown:
            raise ValueError(f"unknown request key(s): {', '.join(unknown)}")
        if "model" not in doc or not isinstance(doc["model"], str):
            raise ValueError("request needs a 'model' string")
        arch = doc.get("arch")
        options = doc.get("options")
        return cls(
            model=doc["model"],
            arch=arch_from_dict(arch) if isinstance(arch, Mapping)
            else DEFAULT_ARCH,
            options=OptimizerOptions.from_dict(options)
            if isinstance(options, Mapping)
            else OptimizerOptions(),
            tenant=doc.get("tenant", "default"),
        )


class FingerprintMemo:
    """A bounded LRU map from a request, less its graph, to its fingerprint.

    The key is :func:`~repro.fingerprint.request_head` (arch, decision
    options, grammar version) plus the model name, which stands in for
    the graph it builds; the tenant is not an input.  One memo belongs
    to one service and is guarded by its own lock.
    """

    def __init__(self) -> None:
        self._entries: OrderedDict[str, str] = OrderedDict()
        self._lock = threading.Lock()

    def __len__(self) -> int:
        with self._lock:
            return len(self._entries)

    @staticmethod
    def key(request: CompileRequest) -> str:
        """What ``request``'s fingerprint is a pure function of.

        Plain ``json.dumps`` keeps a NaN that ``canonical_json`` refuses,
        so a NaN option keys, misses and is refused by the digest with
        the error it always raised.
        """
        doc = request_head(request.arch, request.options)
        doc["model"] = request.model
        return json.dumps(doc, sort_keys=True, separators=(",", ":"))

    def get(self, key: str) -> str | None:
        with self._lock:
            fingerprint = self._entries.get(key)
            if fingerprint is not None:
                self._entries.move_to_end(key)
            return fingerprint

    def put(self, key: str, fingerprint: str) -> None:
        with self._lock:
            self._entries[key] = fingerprint
            self._entries.move_to_end(key)
            while len(self._entries) > FINGERPRINT_MEMO_ENTRIES:
                self._entries.popitem(last=False)


def request_fingerprint(
    request: CompileRequest, memo: FingerprintMemo | None = None
) -> str:
    """``request``'s fingerprint, looked up in ``memo`` first if given.

    A remembered request builds no graph.  A miss builds the graph and
    digests it; only a digest that succeeded is remembered, so a request
    the digest refuses is refused again on every submit.

    Raises:
        KeyError: On an unknown model name.
        ValueError: On options with no canonical JSON form (NaN).
    """
    if memo is None:
        return digest_request(request.graph, request.arch, request.options)
    key = memo.key(request)
    fingerprint = memo.get(key)
    if fingerprint is None:
        fingerprint = digest_request(
            request.graph, request.arch, request.options
        )
        memo.put(key, fingerprint)
    return fingerprint


__all__ = ["CompileRequest", "FingerprintMemo", "request_fingerprint"]
