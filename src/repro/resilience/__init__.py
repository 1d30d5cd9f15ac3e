"""Resilient search execution: supervision, checkpointing, fault injection.

Long multi-restart searches over the full zoo (ResNet-1001, NASNet at
high ``--restarts``) are jobs, not function calls: workers die, candidates
hang, machines get interrupted.  This package supervises the staged
pipeline of :mod:`repro.pipeline` end to end:

* :mod:`repro.resilience.executor` — a respawnable process-pool
  supervisor with per-candidate timeouts, bounded retry with exponential
  backoff, worker-crash recovery, graceful degradation to serial
  execution, and clean ``KeyboardInterrupt`` handling;
* :mod:`repro.resilience.checkpoint` — an append-only JSONL journal of
  completed candidate solutions keyed by spec label + tiling
  fingerprint, so an interrupted search resumes without re-evaluating
  finished candidates;
* :mod:`repro.resilience.faults` — a deterministic fault-injection
  harness (kill-worker, stall-candidate, raise-in-stage, corrupt-result,
  keyed by candidate index and attempt) used by the chaos tests
  (``tests/resilience/test_chaos.py``) to prove that a search surviving
  injected faults selects a solution bit-identical to the fault-free run.

Everything here is mechanism; policy (how many retries, which timeout)
lives on :class:`repro.framework.OptimizerOptions`.
"""

from __future__ import annotations

from repro.resilience.checkpoint import (
    CHECKPOINT_FORMAT,
    CheckpointError,
    CheckpointJournal,
)
from repro.resilience.executor import (
    ResilientExecutor,
    RetryPolicy,
    TaskReport,
)
from repro.resilience.faults import (
    FAULT_KINDS,
    SERVICE_FAULT_KINDS,
    FaultPlan,
    FaultSpec,
    InjectedFault,
    InjectedRunnerDeath,
    ServiceFaultPlan,
    ServiceFaultSpec,
)
from repro.resilience.timing import Deadline, backoff_for

__all__ = [
    "CHECKPOINT_FORMAT",
    "CheckpointError",
    "CheckpointJournal",
    "Deadline",
    "FAULT_KINDS",
    "FaultPlan",
    "FaultSpec",
    "InjectedFault",
    "InjectedRunnerDeath",
    "ResilientExecutor",
    "RetryPolicy",
    "SERVICE_FAULT_KINDS",
    "ServiceFaultPlan",
    "ServiceFaultSpec",
    "TaskReport",
    "backoff_for",
]
