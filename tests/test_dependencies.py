"""The package's dependencies: what it imports, and in which direction.

``pyproject.toml`` declares NumPy as the only runtime dependency.  Every
module under ``src/repro`` is parsed with :mod:`ast` and each absolute
import must name the standard library, NumPy, or ``repro`` itself, so the
declared list cannot drift from the code again.

Inside the package, :data:`LAYERS` is the one declaration of the layer
order (DESIGN.md "Layers" states it in prose), and every import statement
— top-level, function-local or under ``TYPE_CHECKING`` — must point
down it.  The import-set tests run commands in fresh interpreters and
check that each loads only what it runs.
"""

from __future__ import annotations

import ast
import importlib
import json
import os
import subprocess
import sys
from pathlib import Path

import pytest

import repro

ALLOWED = frozenset(sys.stdlib_module_names) | {"numpy", "repro"}

PACKAGE = Path(repro.__file__).parent

#: The layers of ``repro``, lowest first; each entry is a package or
#: module relative to ``repro`` (``repro`` itself is the root package,
#: whose own code is only the lazy-export helper).  A module belongs to
#: its longest matching entry.  An import may point only at a lower
#: layer: entries on one layer do not import each other, and no import
#: points up, however lazily it runs.  Imports within one entry (inside
#: the ``atoms`` package, say) are free.  Each ``analysis`` checker sits
#: just above the layer it checks.
LAYERS = (
    "repro",
    "config intmath obs journal metrics analysis analysis.diagnostics",
    "ir resilience analysis.lint analysis.static analysis.timeline_rules",
    "models fingerprint engine noc memory",
    "atoms",
    "scheduling analysis.dag_rules",
    "mapping buffering exec analysis.schedule_rules analysis.mapping_rules",
    "sim",
    "search analysis.buffer_rules",
    "analysis.artifacts analysis.tempering_rules",
    "pipeline",
    "framework baselines report analysis.trace_rules analysis.resilience_rules",
    "serialize",
    "analysis.outcome",
    "service",
    "analysis.service_rules",
    "bench analysis.catalog analysis.selfcheck",
    "analysis.__main__",
    "cli",
    "__main__",
)

#: Packages whose init is a lazy ``{name: module}`` export table.
LAZY_PACKAGES = ("repro", "repro.analysis", "repro.service")

_LAYER_OF = {unit: i for i, layer in enumerate(LAYERS) for unit in layer.split()}


def _imported_roots(path: Path) -> set[str]:
    roots: set[str] = set()
    for node in ast.walk(ast.parse(path.read_text(), filename=str(path))):
        if isinstance(node, ast.Import):
            roots.update(alias.name.split(".")[0] for alias in node.names)
        elif isinstance(node, ast.ImportFrom) and node.level == 0:
            roots.add(node.module.split(".")[0])
    return roots


def test_package_imports_only_stdlib_numpy_and_itself():
    modules = sorted(PACKAGE.rglob("*.py"))
    assert len(modules) > 50
    stray = {
        str(path.relative_to(PACKAGE)): sorted(_imported_roots(path) - ALLOWED)
        for path in modules
    }
    assert {k: v for k, v in stray.items() if v} == {}


# ---------------------------------------------------------------------------
# Layer order
# ---------------------------------------------------------------------------


def _sources() -> dict[str, str]:
    """Every module's source text, by dotted name."""
    sources = {}
    for path in sorted(PACKAGE.rglob("*.py")):
        parts = ("repro", *path.relative_to(PACKAGE).with_suffix("").parts)
        if parts[-1] == "__init__":
            parts = parts[:-1]
        sources[".".join(parts)] = path.read_text()
    return sources


def _unit(module: str) -> str | None:
    """The :data:`LAYERS` entry ``module`` belongs to (None: unplaced)."""
    if module == "repro":
        return "repro"
    rel = module.removeprefix("repro.")
    matches = [u for u in _LAYER_OF if rel == u or rel.startswith(u + ".")]
    return max(matches, key=len, default=None)


def _targets(node: ast.AST, modules: dict[str, str]) -> list[str]:
    """The ``repro`` modules one import statement loads names from.

    ``from P import n`` points at ``P.n`` when that is a module, else at
    the module ``P``'s lazy export table names for ``n``, else at ``P``.
    """
    if isinstance(node, ast.Import):
        return [a.name for a in node.names if a.name.split(".")[0] == "repro"]
    if not isinstance(node, ast.ImportFrom) or node.level or not (
        node.module == "repro" or node.module.startswith("repro.")
    ):
        return []
    exports = getattr(importlib.import_module(node.module), "_EXPORTS", {})
    targets = []
    for alias in node.names:
        submodule = f"{node.module}.{alias.name}"
        if submodule in modules:
            targets.append(submodule)
        else:
            targets.append(exports.get(alias.name, node.module))
    return targets


def layer_violations(sources: dict[str, str]) -> list[str]:
    """Every import in ``sources`` that does not point down
    :data:`LAYERS`, as ``module:line imports target (...)`` lines.

    A bare ``import`` of a :data:`LAZY_PACKAGES` package is refused
    outright: it would hide which of the table's modules the code uses.
    """
    problems = []
    for module, source in sources.items():
        unit = _unit(module)
        for node in ast.walk(ast.parse(source, filename=module)):
            if isinstance(node, ast.Import):
                problems += [
                    f"{module}:{node.lineno} imports {a.name} (a lazy package)"
                    for a in node.names
                    if a.name in LAZY_PACKAGES
                ]
            for target in _targets(node, sources):
                to = _unit(target)
                if to is None or to == unit or _LAYER_OF[to] < _LAYER_OF[unit]:
                    continue
                problems.append(
                    f"{module}:{node.lineno} imports {target} "
                    f"(layer {_LAYER_OF[unit]} {unit} -> "
                    f"layer {_LAYER_OF[to]} {to})"
                )
    return problems


def test_every_module_has_a_layer_and_every_entry_a_module():
    modules = _sources()
    assert [m for m in modules if _unit(m) is None] == []
    assert sorted(set(_LAYER_OF) - {_unit(m) for m in modules}) == []


def test_every_import_points_down_the_layers():
    assert layer_violations(_sources()) == []


def test_an_upward_function_local_import_is_caught():
    """The mutation the check exists for: a lazy import, inside a
    function, from the atomic DAG up to the search pipeline."""
    sources = _sources()
    sources["repro.atoms.dag"] += (
        "\n\ndef _upward():\n    from repro.pipeline import SearchContext\n"
    )
    problems = layer_violations(sources)
    assert len(problems) == 1
    assert problems[0].startswith("repro.atoms.dag:")
    assert "imports repro.pipeline" in problems[0]


def test_a_bare_import_of_a_lazy_package_is_caught():
    sources = _sources()
    sources["repro.analysis.selfcheck"] += "\n\nimport repro\n"
    problems = layer_violations(sources)
    assert len(problems) == 1
    assert problems[0].startswith("repro.analysis.selfcheck:")
    assert problems[0].endswith("imports repro (a lazy package)")


# ---------------------------------------------------------------------------
# Import sets: each command loads only what it runs
# ---------------------------------------------------------------------------

#: Optimizer modules no client, store or rule-listing command loads.
OPTIMIZER = frozenset(
    {"repro.framework", "repro.pipeline", "repro.serialize", "repro.service.daemon"}
)

#: Runs ``python -m repro ARGS`` (or ``-c CODE``) in this interpreter and
#: writes its exit code and loaded modules to the file named first.
_PROBE = """
import json, runpy, sys
out, args = sys.argv[1], sys.argv[2:]
code = 0
sys.argv = ["repro", *args]
try:
    if args[0] == "-c":
        exec(args[1])
    else:
        runpy.run_module("repro", run_name="__main__", alter_sys=True)
except SystemExit as exc:
    code = exc.code
with open(out, "w") as f:
    json.dump({"code": code, "modules": sorted(sys.modules)}, f)
"""


def _probe(tmp_path: Path, *args: str) -> tuple[int, set[str], str]:
    """Exit code, loaded ``repro``/``numpy`` modules and stdout of
    ``python -m repro *args`` (or ``-c CODE``) in a fresh interpreter."""
    out = tmp_path / "modules.json"
    env = dict(os.environ)
    env["PYTHONPATH"] = os.pathsep.join(
        p for p in (str(PACKAGE.parent), env.get("PYTHONPATH")) if p
    )
    run = subprocess.run(
        [sys.executable, "-c", _PROBE, str(out), *args],
        env=env, cwd=tmp_path, check=True, capture_output=True, text=True,
        timeout=120,
    )
    doc = json.loads(out.read_text())
    modules = {
        m for m in doc["modules"]
        if m in ("repro", "numpy") or m.startswith("repro.")
    }
    return doc["code"], modules, run.stdout


def test_journal_import_loads_nothing_else(tmp_path):
    _, modules, _ = _probe(tmp_path, "-c", "import repro.journal")
    assert modules == {"repro", "repro.journal"}


def test_list_rules_lists_every_rule_without_the_optimizer(tmp_path):
    code, modules, out = _probe(tmp_path, "check", "--list-rules")
    assert code == 0
    assert len(out.splitlines()) == 47
    assert modules & OPTIMIZER == set()


def test_all_rules_through_the_package_is_complete(tmp_path):
    code = "import repro.analysis as a; print(len(a.all_rules()))"
    _, modules, out = _probe(tmp_path, "-c", code)
    assert out.strip() == "47"
    assert modules & OPTIMIZER == set()


@pytest.mark.parametrize(
    "argv, exit_code",
    [
        (("cache", "--store", "{tmp}/store", "ls"), 0),
        (("jobs", "--socket", "{tmp}/missing.sock", "--stats"), 1),
    ],
    ids=["cache-ls", "jobs-stats"],
)
def test_client_commands_do_not_load_the_optimizer(tmp_path, argv, exit_code):
    args = [a.format(tmp=tmp_path) for a in argv]
    code, modules, _ = _probe(tmp_path, *args)
    assert code == exit_code
    assert modules & OPTIMIZER == set()


# ---------------------------------------------------------------------------
# The lazy export tables
# ---------------------------------------------------------------------------


@pytest.mark.parametrize("package", LAZY_PACKAGES)
def test_every_exported_name_resolves(package):
    module = importlib.import_module(package)
    assert module.__all__ == list(module._EXPORTS)
    for name in module.__all__:
        assert getattr(module, name) is not None, name
    with pytest.raises(AttributeError):
        getattr(module, "no_such_name")
