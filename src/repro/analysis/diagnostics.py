"""Diagnostic framework: rules, findings, and machine-readable reports.

Every static check in :mod:`repro.analysis` is a *rule* with a stable id,
a fixed severity, and a one-line description, registered in a global
registry so tooling (CLI, docs, tests) can enumerate the rule set.  A
check run produces :class:`Diagnostic` findings collected into a
:class:`Report`, which renders either as human-readable text or as a
machine-readable JSON document for CI consumption.

Rule id conventions:

* ``AD1xx`` — :class:`~repro.atoms.dag.AtomicDAG` well-formedness;
* ``AD2xx`` — :class:`~repro.scheduling.rounds.Schedule` legality;
* ``AD3xx`` — placement (atom-engine mapping) legality;
* ``AD4xx`` — buffering feasibility;
* ``LINT0xx`` — codebase AST lint rules.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field
from enum import Enum


class Severity(Enum):
    """How bad a finding is.

    ERROR findings invalidate the artifact (or fail CI); WARNING findings
    flag suspicious-but-legal constructs.
    """

    ERROR = "error"
    WARNING = "warning"

    def __str__(self) -> str:
        return self.value


@dataclass(frozen=True)
class Rule:
    """One registered static-analysis rule.

    Attributes:
        rule_id: Stable identifier (e.g. ``"AD203"``).
        severity: Severity of every finding the rule emits.
        tier: ``"artifact"`` (Tier A validators), ``"lint"`` (Tier B), or
            ``"static"`` (Tier C interprocedural passes).
        description: One-line summary used in docs and ``--list-rules``.
    """

    rule_id: str
    severity: Severity
    tier: str
    description: str


_REGISTRY: dict[str, Rule] = {}


def register_rule(
    rule_id: str, severity: Severity, tier: str, description: str
) -> Rule:
    """Register a rule id; duplicate registration must be identical.

    Raises:
        ValueError: On conflicting re-registration or bad tier.
    """
    if tier not in ("artifact", "lint", "static"):
        raise ValueError(f"unknown rule tier {tier!r}")
    rule = Rule(rule_id, severity, tier, description)
    existing = _REGISTRY.get(rule_id)
    if existing is not None and existing != rule:
        raise ValueError(f"conflicting registration for rule {rule_id}")
    _REGISTRY[rule_id] = rule
    return rule


def all_rules() -> tuple[Rule, ...]:
    """Every registered rule, sorted by id."""
    return tuple(_REGISTRY[k] for k in sorted(_REGISTRY))


def get_rule(rule_id: str) -> Rule:
    """Look up one rule.

    Raises:
        KeyError: For unregistered ids.
    """
    return _REGISTRY[rule_id]


@dataclass(frozen=True)
class Diagnostic:
    """One finding of one rule.

    Attributes:
        severity: Finding severity (inherited from the rule).
        rule_id: The rule that fired.
        location: Where — ``"atom 17"``, ``"round 3"``, ``"engine 5"``, or
            ``"path.py:42"`` for lint findings.
        message: Human-readable explanation of the violation.
    """

    severity: Severity
    rule_id: str
    location: str
    message: str

    def render(self) -> str:
        """One-line text form: ``error AD203 @ round 3: ...``."""
        return f"{self.severity} {self.rule_id} @ {self.location}: {self.message}"

    def to_dict(self) -> dict[str, str]:
        """JSON-serializable form."""
        return {
            "severity": str(self.severity),
            "rule_id": self.rule_id,
            "location": self.location,
            "message": self.message,
        }


@dataclass
class Report:
    """Accumulated findings of one analysis run.

    Attributes:
        diagnostics: All findings, in emission order.
        checked: Free-form labels of what was analyzed (artifact names,
            file paths) so an empty report is distinguishable from a run
            that analyzed nothing.
    """

    diagnostics: list[Diagnostic] = field(default_factory=list)
    checked: list[str] = field(default_factory=list)

    def emit(self, rule_id: str, location: str, message: str) -> Diagnostic:
        """Record one finding of a registered rule and return it.

        Raises:
            KeyError: When ``rule_id`` was never registered.
        """
        rule = get_rule(rule_id)
        diag = Diagnostic(
            severity=rule.severity,
            rule_id=rule_id,
            location=location,
            message=message,
        )
        self.diagnostics.append(diag)
        return diag

    def mark_checked(self, label: str) -> None:
        """Record that an artifact/file was analyzed."""
        self.checked.append(label)

    def extend(self, other: Report) -> None:
        """Fold another report's findings and coverage into this one."""
        self.diagnostics.extend(other.diagnostics)
        self.checked.extend(other.checked)

    @property
    def errors(self) -> tuple[Diagnostic, ...]:
        return tuple(
            d for d in self.diagnostics if d.severity is Severity.ERROR
        )

    @property
    def warnings(self) -> tuple[Diagnostic, ...]:
        return tuple(
            d for d in self.diagnostics if d.severity is Severity.WARNING
        )

    @property
    def ok(self) -> bool:
        """True when no ERROR-severity finding was recorded."""
        return not self.errors

    def fired_rule_ids(self) -> frozenset[str]:
        """The distinct rule ids that produced findings."""
        return frozenset(d.rule_id for d in self.diagnostics)

    def by_rule(self, rule_id: str) -> tuple[Diagnostic, ...]:
        """All findings of one rule."""
        return tuple(d for d in self.diagnostics if d.rule_id == rule_id)

    def render(self) -> str:
        """Multi-line human-readable summary."""
        lines = [d.render() for d in self.diagnostics]
        lines.append(
            f"{len(self.checked)} artifact(s) checked: "
            f"{len(self.errors)} error(s), {len(self.warnings)} warning(s)"
        )
        return "\n".join(lines)

    def to_json(self, indent: int | None = 2) -> str:
        """Machine-readable JSON document (the CI artifact format)."""
        return json.dumps(
            {
                "ok": self.ok,
                "checked": list(self.checked),
                "num_errors": len(self.errors),
                "num_warnings": len(self.warnings),
                "diagnostics": [d.to_dict() for d in self.diagnostics],
            },
            indent=indent,
        )


class ArtifactValidationError(ValueError):
    """Raised when a validated pipeline artifact has ERROR findings.

    Attributes:
        report: The full report, for programmatic inspection.
    """

    def __init__(self, report: Report) -> None:
        self.report = report
        super().__init__(report.render())


def assert_valid(report: Report) -> Report:
    """Raise when a report carries errors; return it otherwise.

    Raises:
        ArtifactValidationError: When ``report.ok`` is false.
    """
    if not report.ok:
        raise ArtifactValidationError(report)
    return report
