"""Tests for the end-to-end optimization framework."""

import pytest

from repro import AtomicDataflowOptimizer, OptimizerOptions, optimize
from repro.atoms.generation import SAParams
from repro.config import ArchConfig, EngineConfig
from repro.models import resnet50


@pytest.fixture(scope="module")
def arch():
    return ArchConfig(
        mesh_rows=2,
        mesh_cols=2,
        engine=EngineConfig(pe_rows=8, pe_cols=8, buffer_bytes=64 * 1024),
    )


@pytest.fixture(scope="module")
def net():
    return resnet50(input_size=64)


FAST_SA = SAParams(max_iterations=15)


class TestOptimizerOptions:
    def test_invalid_choices_rejected(self):
        with pytest.raises(ValueError):
            OptimizerOptions(atom_generation="magic")
        with pytest.raises(ValueError):
            OptimizerOptions(scheduler="quantum")
        with pytest.raises(ValueError):
            OptimizerOptions(mapping="random")
        with pytest.raises(ValueError):
            OptimizerOptions(batch=0)


class TestOptimize:
    def test_outcome_is_consistent(self, net, arch):
        opt = AtomicDataflowOptimizer(
            net, arch,
            OptimizerOptions(scheduler="greedy", sa_params=FAST_SA),
        )
        outcome = opt.optimize()
        outcome.schedule.validate(outcome.dag, arch.num_engines)
        assert set(outcome.placement) == set(range(outcome.dag.num_atoms))
        assert outcome.result.strategy == "AD"

    def test_deterministic_given_seed(self, net, arch):
        def run():
            return AtomicDataflowOptimizer(
                net, arch,
                OptimizerOptions(scheduler="greedy", seed=11, sa_params=FAST_SA),
            ).optimize().result.total_cycles

        assert run() == run()

    def test_never_worse_than_even_tiling(self, net, arch):
        # The even-split candidate is always evaluated, so the SA arm
        # cannot make the framework regress below it.
        from repro.atoms.generation import layer_sequential_tiling

        opt = AtomicDataflowOptimizer(
            net, arch,
            OptimizerOptions(scheduler="greedy", sa_params=FAST_SA),
        )
        outcome = opt.optimize()
        even = opt._evaluate_tiling(
            layer_sequential_tiling(opt.graph, arch.num_engines), None, "AD"
        )
        assert outcome.result.total_cycles <= even.result.total_cycles

    def test_batch_option(self, net, arch):
        opt = AtomicDataflowOptimizer(
            net, arch,
            OptimizerOptions(scheduler="greedy", batch=2, sa_params=FAST_SA),
        )
        outcome = opt.optimize()
        assert outcome.result.batch == 2
        assert outcome.dag.batch == 2

    def test_yx_dataflow_runs(self, net, arch):
        outcome = AtomicDataflowOptimizer(
            net, arch,
            OptimizerOptions(scheduler="greedy", dataflow="yx", sa_params=FAST_SA),
        ).optimize()
        assert outcome.result.total_cycles > 0

    def test_convenience_wrapper(self, net, arch):
        outcome = optimize(net, arch, scheduler="greedy", sa_params=FAST_SA)
        assert outcome.result.total_cycles > 0


class TestAblationArms:
    def test_even_generation_arm(self, net, arch):
        outcome = AtomicDataflowOptimizer(
            net, arch,
            OptimizerOptions(atom_generation="even", scheduler="greedy"),
        ).optimize()
        assert outcome.tiling_energy is None

    def test_zigzag_mapping_arm_not_better(self, net, arch):
        base = AtomicDataflowOptimizer(
            net, arch,
            OptimizerOptions(scheduler="greedy", seed=5, sa_params=FAST_SA),
        ).optimize()
        zz = AtomicDataflowOptimizer(
            net, arch,
            OptimizerOptions(
                scheduler="greedy", mapping="zigzag", seed=5, sa_params=FAST_SA
            ),
        ).optimize()
        assert base.result.total_cycles <= zz.result.total_cycles * 1.02

    def test_dp_not_worse_than_greedy(self, net, arch):
        greedy = AtomicDataflowOptimizer(
            net, arch,
            OptimizerOptions(scheduler="greedy", seed=5, sa_params=FAST_SA),
        ).optimize()
        dp = AtomicDataflowOptimizer(
            net, arch,
            OptimizerOptions(scheduler="dp", seed=5, sa_params=FAST_SA),
        ).optimize()
        assert dp.result.total_cycles <= greedy.result.total_cycles * 1.05


class TestValidateOption:
    """`validate=True` runs the repro.analysis checkers on every artifact."""

    def test_validated_run_matches_plain_run(self, net, arch):
        opts = dict(scheduler="greedy", seed=3, sa_params=FAST_SA)
        plain = AtomicDataflowOptimizer(
            net, arch, OptimizerOptions(**opts)
        ).optimize()
        checked = AtomicDataflowOptimizer(
            net, arch, OptimizerOptions(validate=True, **opts)
        ).optimize()
        assert checked.result.total_cycles == plain.result.total_cycles

    def test_validated_exact_scheduler_cost_crosscheck(self, arch):
        from repro.ir import GraphBuilder

        b = GraphBuilder(name="tiny_exact")
        x = b.input(16, 16, 8)
        c1 = b.conv(x, 8, kernel=3, name="c1")
        b.conv(c1, 8, kernel=1, name="c2")
        outcome = AtomicDataflowOptimizer(
            b.build(), arch,
            OptimizerOptions(
                scheduler="exact", validate=True, sa_params=FAST_SA
            ),
        ).optimize()
        assert outcome.result.total_cycles > 0

    def test_outcome_revalidates_cleanly(self, net, arch):
        from repro.analysis import validate_outcome

        outcome = AtomicDataflowOptimizer(
            net, arch,
            OptimizerOptions(scheduler="greedy", seed=3, sa_params=FAST_SA),
        ).optimize()
        report = validate_outcome(outcome, arch)
        assert report.ok

    def test_validation_reads_only_the_arrays(self, net, arch):
        from repro.analysis import validate_outcome

        outcome = AtomicDataflowOptimizer(
            net, arch,
            OptimizerOptions(
                scheduler="greedy", seed=3, sa_params=FAST_SA, validate=True
            ),
        ).optimize()
        assert validate_outcome(outcome, arch).ok
        # No validator derives the atom objects from the columns.
        assert "atoms" not in vars(outcome.dag)
