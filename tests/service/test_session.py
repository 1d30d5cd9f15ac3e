"""Warm sessions and context caching: reuse without decision drift."""

from __future__ import annotations

from dataclasses import replace

import pytest

from repro.framework import AtomicDataflowOptimizer
from repro.models import get_model
from repro.obs import get_registry
from repro.pipeline import ContextCache
from repro.service import CompileSession, SessionManager


def _decisions(outcome):
    return [
        (t.label, t.accepted, t.reason, t.total_cycles) for t in outcome.traces
    ]


class TestContextCache:
    def test_hit_returns_same_object(self, arch):
        cache = ContextCache(capacity=2)
        graph = get_model("mobilenet_v2_bench")
        assert cache.get(graph, arch) is cache.get(graph, arch)
        counters = get_registry()
        assert counters.counter("context_cache.hits").value == 1
        assert counters.counter("context_cache.misses").value == 1

    def test_lru_eviction(self, arch):
        cache = ContextCache(capacity=2)
        g1 = get_model("mobilenet_v2_bench")
        g2 = get_model("vgg19_bench")
        c1 = cache.get(g1, arch)
        cache.get(g2, arch)
        cache.get(g1, arch)  # refresh g1
        cache.get(g1, arch, batch=2)  # evicts g2 (LRU)
        assert cache.get(g1, arch) is c1
        assert len(cache) == 2 + 1 - 1  # capacity respected

    def test_capacity_validation(self):
        with pytest.raises(ValueError):
            ContextCache(capacity=0)


class TestCompileSession:
    def test_warm_search_matches_cold_process(self, arch, fast_options):
        """Second search on a warm session ≡ a cold optimizer run."""
        graph = get_model("mobilenet_v2_bench")
        manager = SessionManager(capacity=2)
        try:
            session = manager.acquire(graph, arch, fast_options)
            first = session.optimize(fast_options)
            second = session.optimize(fast_options)  # warm ctx + pool
            cold = AtomicDataflowOptimizer(graph, arch, fast_options).optimize()
            assert _decisions(first) == _decisions(second) == _decisions(cold)
            assert (
                first.result.total_cycles
                == second.result.total_cycles
                == cold.result.total_cycles
            )
            assert session.searches_run == 2
        finally:
            manager.close()

    def test_warm_parallel_matches_inline(self, arch, fast_options):
        """jobs=2 on a reused pool decides like jobs=1 inline."""
        graph = get_model("mobilenet_v2_bench")
        manager = SessionManager(capacity=2)
        try:
            session = manager.acquire(graph, arch, fast_options)
            inline = session.optimize(fast_options)
            parallel = session.optimize(replace(fast_options, jobs=2))
            again = session.optimize(replace(fast_options, jobs=2))
            assert _decisions(inline) == _decisions(parallel) == _decisions(again)
        finally:
            manager.close()

    def test_mismatched_options_rejected(self, arch, fast_options):
        graph = get_model("mobilenet_v2_bench")
        manager = SessionManager(capacity=2)
        try:
            session = manager.acquire(graph, arch, fast_options)
            with pytest.raises(ValueError, match="warm for"):
                session.optimize(replace(fast_options, batch=2))
        finally:
            manager.close()

    def test_closed_session_rejects_work(self, arch, fast_options):
        graph = get_model("mobilenet_v2_bench")
        session = CompileSession(
            graph, arch, SessionManager(capacity=1).contexts.get(graph, arch)
        )
        session.close()
        with pytest.raises(RuntimeError):
            session.optimize(fast_options)


class TestSessionManager:
    def test_session_reuse(self, arch, fast_options):
        graph = get_model("mobilenet_v2_bench")
        manager = SessionManager(capacity=2)
        try:
            session = manager.acquire(graph, arch, fast_options)
            manager.release(session)
            assert manager.acquire(graph, arch, fast_options) is session
            assert len(manager) == 1
        finally:
            manager.close()

    def test_lru_eviction_closes_session(self, arch, fast_options):
        manager = SessionManager(capacity=1)
        try:
            g1 = get_model("mobilenet_v2_bench")
            g2 = get_model("vgg19_bench")
            s1 = manager.acquire(g1, arch, fast_options)
            manager.release(s1)
            manager.acquire(g2, arch, fast_options)  # evicts the idle s1
            assert len(manager) == 1
            with pytest.raises(RuntimeError):
                s1.optimize(fast_options)
        finally:
            manager.close()
