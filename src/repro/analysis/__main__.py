"""CLI: ``python -m repro.analysis`` — static verification entry point.

Modes (first match wins):

* ``--self-check`` — seed one violation per rule and require exactly
  that rule to fire, and require the shared clean artifacts and the
  ``repro`` source tree to pass (:mod:`repro.analysis.selfcheck`);
* ``--artifact solution.json --model NAME`` — Tier-A validation of a
  serialized solution document;
* ``--journal FILE.jsonl`` — journal validation, dispatched by header:
  job journals get AD802 + AD804-806, checkpoint journals AD601;
* ``--static [paths...]`` — Tier-C interprocedural determinism/worker
  analysis (LINT007–LINT013) against the ratchet baseline
  (``--baseline``, default ``tools/static_baseline.json`` when present;
  ``--update-baseline`` rewrites it from the current findings);
* ``[paths...]`` — Tier-B lint of files/directories (default: the
  installed ``repro`` package).

Exit status: 0 when no ERROR findings, 1 otherwise, 2 on usage errors.
"""

from __future__ import annotations

import argparse
import os
import sys
from pathlib import Path

from repro.analysis.diagnostics import Report
from repro.analysis.lint import lint_paths
from repro.config import parse_mesh

#: Baseline auto-discovered for ``--static`` when ``--baseline`` is absent.
DEFAULT_BASELINE = Path("tools/static_baseline.json")

#: The installed ``repro`` package: the default lint and ``--static`` scope.
PACKAGE_DIR = Path(__file__).parent.parent


def build_parser(prog: str = "repro.analysis") -> argparse.ArgumentParser:
    """Construct the analysis CLI parser (``prog`` names it in usage text)."""
    parser = argparse.ArgumentParser(
        prog=prog,
        description="Static verification: artifact validators + lint rules.",
    )
    parser.add_argument(
        "paths",
        nargs="*",
        help="files/directories to lint (default: the repro package)",
    )
    parser.add_argument(
        "--self-check",
        action="store_true",
        help="verify the analysis subsystem itself (CI gate)",
    )
    parser.add_argument(
        "--artifact",
        metavar="JSON",
        help="validate a serialized solution document (Tier A)",
    )
    parser.add_argument(
        "--model",
        help="zoo model the --artifact solution targets",
    )
    parser.add_argument(
        "--journal",
        metavar="JSONL",
        help="validate a journal: job journals (AD802/AD804-806) or "
        "checkpoint journals (AD601), sniffed from the header",
    )
    parser.add_argument(
        "--store",
        metavar="DIR",
        help="validate a solution store or serve state directory "
        "(Tier A, AD801/AD802)",
    )
    parser.add_argument(
        "--mesh",
        type=parse_mesh,
        default=(8, 8),
        help="engine grid of the --artifact target (default 8x8)",
    )
    parser.add_argument(
        "--static",
        action="store_true",
        help="run the Tier-C interprocedural passes (LINT007-LINT013)",
    )
    parser.add_argument(
        "--baseline",
        metavar="JSON",
        help="ratchet baseline for --static (default: "
        "tools/static_baseline.json when it exists)",
    )
    parser.add_argument(
        "--update-baseline",
        action="store_true",
        help="rewrite the --static baseline from current findings",
    )
    parser.add_argument(
        "--json",
        action="store_true",
        help="emit the machine-readable JSON report",
    )
    parser.add_argument(
        "--list-rules",
        action="store_true",
        help="print every registered rule and exit",
    )
    return parser


def _finish(report: Report, as_json: bool) -> int:
    from repro.obs.metrics import get_registry

    registry = get_registry()
    for diag in report.diagnostics:
        registry.counter(f"check.findings.{diag.rule_id}").inc()
    try:
        print(report.to_json() if as_json else report.render())
    except BrokenPipeError:
        # Reader (e.g. `| head`) closed the pipe early; silence the
        # interpreter's shutdown flush and keep the real exit status.
        os.dup2(os.open(os.devnull, os.O_WRONLY), sys.stdout.fileno())
    return 0 if report.ok else 1


def _run_static(args: argparse.Namespace) -> int:
    """``--static`` / ``--update-baseline`` mode."""
    from repro.analysis.static import (
        ModuleLoadError,
        run_static_analysis,
        save_baseline,
    )

    paths = [Path(p) for p in args.paths] or [PACKAGE_DIR]
    missing = [p for p in paths if not p.exists()]
    if missing:
        for p in missing:
            print(f"no such path: {p}", file=sys.stderr)
        return 2
    baseline = (
        Path(args.baseline)
        if args.baseline
        else (DEFAULT_BASELINE if DEFAULT_BASELINE.exists() else None)
    )
    try:
        result = run_static_analysis(list(paths), baseline_path=baseline)
    except (ModuleLoadError, ValueError) as exc:
        print(str(exc), file=sys.stderr)
        return 2
    if args.update_baseline:
        target = Path(args.baseline) if args.baseline else DEFAULT_BASELINE
        save_baseline(target, result.unsuppressed)
        print(
            f"baseline updated: {target} "
            f"({len(result.unsuppressed)} entrie(s))"
        )
        return 0
    timing = ", ".join(
        f"{name} {seconds:.2f}s"
        for name, seconds in sorted(result.pass_seconds.items())
    )
    print(
        f"static: {timing}; {len(result.suppressed)} suppressed, "
        f"{len(result.baselined)} baselined",
        file=sys.stderr,
    )
    return _finish(result.report, args.json)


def main(argv: list[str] | None = None, prog: str = "repro.analysis") -> int:
    """CLI entry point."""
    args = build_parser(prog).parse_args(argv)

    # Each mode imports the checkers it runs, so --list-rules, --journal
    # and --store never load the optimizer.
    if args.list_rules:
        from repro.analysis.catalog import all_rules

        for rule in all_rules():
            print(
                f"{rule.rule_id:<9}{rule.severity!s:<9}{rule.tier:<10}"
                f"{rule.description}"
            )
        return 0

    if args.self_check:
        from repro.analysis.selfcheck import run_self_check

        passed, transcript = run_self_check()
        print(transcript)
        return 0 if passed else 1

    if args.static or args.update_baseline:
        return _run_static(args)

    if args.store:
        from repro.analysis.service_rules import check_service_state

        if not Path(args.store).exists():
            print(f"no such store: {args.store}", file=sys.stderr)
            return 2
        return _finish(check_service_state(args.store), args.json)

    if args.journal:
        from repro.analysis.resilience_rules import check_checkpoint_journal
        from repro.analysis.tempering_rules import check_tempering_journal
        from repro.analysis.service_rules import (
            check_event_log,
            check_job_journal,
            check_job_leases,
            is_job_journal,
        )

        if not Path(args.journal).exists():
            print(f"no such journal: {args.journal}", file=sys.stderr)
            return 2
        if is_job_journal(args.journal):
            report = check_job_journal(args.journal)
            check_job_leases(args.journal, report)
            events = Path(args.journal).parent / "events.jsonl"
            if events.exists():
                check_event_log(events, args.journal, report)
            return _finish(report, args.json)
        report = check_checkpoint_journal(args.journal)
        check_tempering_journal(args.journal, report)
        return _finish(report, args.json)

    if args.artifact:
        if not args.model:
            print("--artifact requires --model", file=sys.stderr)
            return 2
        from repro.analysis.outcome import validate_solution_file
        from repro.config import ArchConfig
        from repro.models import get_model

        rows, cols = args.mesh
        try:
            report = validate_solution_file(
                args.artifact,
                get_model(args.model),
                ArchConfig(mesh_rows=rows, mesh_cols=cols),
            )
        except FileNotFoundError:
            print(f"no such artifact: {args.artifact}", file=sys.stderr)
            return 2
        except (KeyError, ValueError) as exc:
            # Unknown model name / not a solution document.
            print(str(exc), file=sys.stderr)
            return 2
        return _finish(report, args.json)

    paths = [Path(p) for p in args.paths] or [PACKAGE_DIR]
    missing = [p for p in paths if not p.exists()]
    if missing:
        for p in missing:
            print(f"no such path: {p}", file=sys.stderr)
        return 2
    return _finish(lint_paths(list(paths)), args.json)


if __name__ == "__main__":
    sys.exit(main())
