"""Positive and negative cases for every Tier-B lint rule (LINT001-006)."""

from __future__ import annotations

import textwrap

from repro.analysis import lint_source

FUTURE = "from __future__ import annotations\n"


def fired(source, path="src/repro/mod.py", **kw):
    src = textwrap.dedent(source)
    return lint_source(src, path, **kw).fired_rule_ids()


class TestLINT001FloatEquality:
    def test_eq_against_float_literal(self):
        assert fired(FUTURE + "ok = cost == 1.5\n") == {"LINT001"}

    def test_neq_and_negative_literal(self):
        assert fired(FUTURE + "bad = -2.0 != cost\n") == {"LINT001"}

    def test_integer_equality_allowed(self):
        assert fired(FUTURE + "ok = cost == 3\n") == frozenset()

    def test_float_ordering_allowed(self):
        assert fired(FUTURE + "ok = cost < 1.5\n") == frozenset()

    def test_tolerance_helper_exempt(self):
        src = FUTURE + textwrap.dedent(
            """
            def cost_is_close(a):
                return a == 1.5
            """
        )
        assert fired(src) == frozenset()

    def test_non_tolerance_function_not_exempt(self):
        src = FUTURE + textwrap.dedent(
            """
            def evaluate(a):
                return a == 1.5
            """
        )
        assert fired(src) == {"LINT001"}


class TestLINT002DagMutation:
    def test_subscript_assignment(self):
        assert fired(FUTURE + "dag.atoms[0] = atom\n") == {"LINT002"}

    def test_mutator_call(self):
        assert fired(FUTURE + "dag.costs.append(c)\n") == {"LINT002"}

    def test_augmented_assignment(self):
        assert fired(FUTURE + "dag.succ_ptr[1] += 2\n") == {"LINT002"}

    def test_edge_bytes_update(self):
        assert fired(FUTURE + "dag.succ_bytes.fill(0)\n") == {"LINT002"}

    def test_atoms_package_exempt(self):
        src = FUTURE + "dag.pred_ids[0] = 0\n"
        assert (
            fired(src, path="src/repro/atoms/builder.py") == frozenset()
        )
        assert fired(src, in_atoms_pkg=True) == frozenset()

    def test_reading_flat_arrays_allowed(self):
        assert fired(FUTURE + "n = int(dag.pred_ids[0])\n") == frozenset()

    def test_csr_array_write(self):
        assert fired(FUTURE + "dag.pred_bytes[3] = 0\n") == {"LINT002"}

    def test_column_read_allowed(self):
        src = FUTURE + "rows = dag.succ_ids[dag.succ_ptr[0]:dag.succ_ptr[1]]\n"
        assert fired(src) == frozenset()

    def test_unrelated_attribute_allowed(self):
        assert fired(FUTURE + "self.results.append(r)\n") == frozenset()


class TestLINT003FutureImport:
    def test_missing_future_import(self):
        assert fired("x = 1\n") == {"LINT003"}

    def test_present_future_import(self):
        assert fired(FUTURE + "x = 1\n") == frozenset()

    def test_docstring_only_module_exempt(self):
        assert fired('"""Just a docstring."""\n') == frozenset()

    def test_syntax_error_reported_not_raised(self):
        report = lint_source("def broken(:\n", "src/repro/mod.py")
        assert report.fired_rule_ids() == {"LINT003"}
        assert "parse" in report.diagnostics[0].message


class TestLINT004BareExcept:
    def test_bare_except(self):
        src = FUTURE + textwrap.dedent(
            """
            try:
                risky()
            except:
                pass
            """
        )
        assert fired(src) == {"LINT004"}

    def test_typed_except_allowed(self):
        src = FUTURE + textwrap.dedent(
            """
            try:
                risky()
            except ValueError:
                pass
            """
        )
        assert fired(src) == frozenset()


class TestLINT005MutableDefaults:
    def test_list_default(self):
        assert fired(FUTURE + "def f(seen=[]):\n    pass\n") == {"LINT005"}

    def test_dict_call_default(self):
        assert fired(FUTURE + "def f(cache=dict()):\n    pass\n") == {
            "LINT005"
        }

    def test_kwonly_set_default(self):
        assert fired(FUTURE + "def f(*, s={1}):\n    pass\n") == {"LINT005"}

    def test_none_default_allowed(self):
        assert fired(FUTURE + "def f(seen=None):\n    pass\n") == frozenset()

    def test_tuple_default_allowed(self):
        assert fired(FUTURE + "def f(seen=()):\n    pass\n") == frozenset()


class TestLINT006DirectSimulatorConstruction:
    def test_direct_construction_flagged(self):
        assert fired(FUTURE + "sim = SystemSimulator(arch, dag)\n") == {
            "LINT006"
        }

    def test_attribute_construction_flagged(self):
        src = FUTURE + "sim = repro.sim.SystemSimulator(arch, dag)\n"
        assert fired(src) == {"LINT006"}

    def test_sim_package_exempt(self):
        src = FUTURE + "sim = SystemSimulator(arch, dag)\n"
        assert fired(src, path="src/repro/sim/simulator.py") == frozenset()

    def test_pipeline_evaluation_stage_exempt(self):
        src = FUTURE + "sim = SystemSimulator(arch, dag)\n"
        assert fired(src, path="src/repro/pipeline.py") == frozenset()

    def test_benchmarks_and_tests_exempt(self):
        src = FUTURE + "sim = SystemSimulator(arch, dag)\n"
        assert fired(src, path="benchmarks/_common.py") == frozenset()
        assert fired(src, path="tests/sim/test_simulator.py") == frozenset()

    def test_override_beats_path_inference(self):
        src = FUTURE + "sim = SystemSimulator(arch, dag)\n"
        assert fired(
            src, path="benchmarks/_common.py", may_build_simulator=False
        ) == {"LINT006"}

    def test_context_helper_allowed(self):
        src = FUTURE + "sim = ctx.simulator(dag, strategy)\n"
        assert fired(src) == frozenset()


class TestLocations:
    def test_location_includes_path_and_line(self):
        report = lint_source(FUTURE + "x = cost == 1.5\n", "pkg/mod.py")
        [diag] = report.diagnostics
        assert diag.location == "pkg/mod.py:2"
