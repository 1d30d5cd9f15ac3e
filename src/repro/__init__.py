"""Atomic Dataflow: graph-level workload orchestration for scalable DNN
accelerators.

A from-scratch reproduction of Zheng et al., *Atomic Dataflow based
Graph-Level Workload Orchestration for Scalable DNN Accelerators*
(HPCA 2022).  Quickstart::

    from repro import models, optimize

    outcome = optimize(models.get_model("resnet50_bench"), batch=1)
    print(outcome.result.latency_ms, outcome.result.pe_utilization)

The public surface: :mod:`repro.models` (workloads), :func:`optimize` /
:class:`AtomicDataflowOptimizer` (the paper's framework),
:mod:`repro.baselines` (LS / CNN-P / IL-Pipe / Rammer comparators),
:class:`repro.config.ArchConfig` (the machine model), and
:mod:`repro.obs` (span tracing, metrics, and Perfetto export).  Each
name loads its module on first use, so ``import repro.<x>`` loads only
what ``x`` needs.
"""

from __future__ import annotations

import importlib
from typing import Any, Callable, Mapping

__version__ = "1.0.0"


def _lazy_exports(package: str, table: Mapping[str, str]) -> Callable[[str], Any]:
    """The PEP 562 ``__getattr__`` of ``package`` (this one,
    :mod:`repro.analysis`, :mod:`repro.service`): ``table`` maps each
    exported name to the module defining it, or a submodule's name to
    that submodule, imported on first use."""

    def __getattr__(name: str) -> Any:
        if name not in table:
            raise AttributeError(f"module {package!r} has no attribute {name!r}")
        module = table[name]
        imported = importlib.import_module(module)
        return imported if module == f"{package}.{name}" else getattr(imported, name)

    return __getattr__


#: Every public name and the module that defines it, loaded on first use.
_EXPORTS = {
    "ArchConfig": "repro.config",
    "AtomicDataflowOptimizer": "repro.framework",
    "CandidateTrace": "repro.pipeline",
    "DEFAULT_ARCH": "repro.config",
    "EnergyBreakdown": "repro.metrics",
    "EnergyConfig": "repro.config",
    "EngineConfig": "repro.config",
    "HbmConfig": "repro.config",
    "NocConfig": "repro.config",
    "OptimizationOutcome": "repro.framework",
    "OptimizerOptions": "repro.framework",
    "PROTOTYPE_ARCH": "repro.config",
    "RunResult": "repro.metrics",
    "SearchContext": "repro.pipeline",
    "SearchStats": "repro.metrics",
    "UtilizationReport": "repro.metrics",
    "baselines": "repro.baselines",
    "models": "repro.models",
    "obs": "repro.obs",
    "report": "repro.report",
    "serialize": "repro.serialize",
    "optimize": "repro.framework",
}

__all__ = list(_EXPORTS)
__getattr__ = _lazy_exports(__name__, _EXPORTS)
