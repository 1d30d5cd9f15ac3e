"""Negative-path tests: one minimally-broken DAG per AD1xx rule.

Every corruption lands on the CSR edge arrays or per-atom columns that
the later stages read, in a copy made with ``dataclasses.replace`` (or a
deep copy), and is constructed so *only* the rule under test fires —
e.g. an edge added to the succ side alone leaves the Kahn toposort over
the pred side (AD103) unaffected, and a seeded cycle carries the same
payload on both sides so AD104 stays silent.
"""

from __future__ import annotations

from dataclasses import replace

import numpy as np

from repro.analysis import check_dag
from repro.analysis.selfcheck import with_edges
from repro.atoms.dag import csr_rows, row_owners

from tests.analysis.conftest import build_tiny_dag, corrupted


def fired(dag):
    return check_dag(dag).fired_rule_ids()


def edges(dag):
    """``(producers, consumers, bytes)`` of every edge, from the pred side."""
    return dag.pred_ids, row_owners(dag.pred_ptr), dag.pred_bytes


class TestCleanDag:
    def test_no_findings(self, tiny_dag):
        report = check_dag(tiny_dag)
        assert report.ok
        assert not report.diagnostics
        assert report.checked  # analyzed something

    def test_batched_dag_clean(self):
        assert fired(build_tiny_dag(batch=2)) == frozenset()


class TestAD101IndexAlignment:
    def test_shortened_costs_array(self, tiny_dag):
        dag = corrupted(tiny_dag)
        dag.costs.pop()
        assert fired(dag) == {"AD101"}

    def test_extra_preds_entry(self, tiny_dag):
        ptr = tiny_dag.pred_ptr
        assert fired(replace(tiny_dag, pred_ptr=np.append(ptr, ptr[-1]))) == {
            "AD101"
        }

    def test_shortened_column(self, tiny_dag):
        dag = replace(tiny_dag, atom_dram_bytes=tiny_dag.atom_dram_bytes[:-1])
        assert fired(dag) == {"AD101"}

    def test_decreasing_ptr(self, tiny_dag):
        ptr = tiny_dag.succ_ptr.copy()
        ptr[1] = ptr[-1] + 1
        assert fired(replace(tiny_dag, succ_ptr=ptr)) == {"AD101"}

    def test_ids_outrun_ptr(self, tiny_dag):
        dag = replace(tiny_dag, pred_ids=np.append(tiny_dag.pred_ids, 0))
        assert fired(dag) == {"AD101"}


class TestAD102Mirroring:
    def test_succ_without_pred(self, tiny_dag):
        # The succ side's first edge now points at the last atom (layer
        # c3), which reads only layer c2 on the pred side.
        succ_ids = tiny_dag.succ_ids.copy()
        succ_ids[0] = tiny_dag.num_atoms - 1
        assert fired(replace(tiny_dag, succ_ids=succ_ids)) == {"AD102"}

    def test_pred_out_of_range(self, tiny_dag):
        pred_ids = tiny_dag.pred_ids.copy()
        pred_ids[-1] = tiny_dag.num_atoms
        assert fired(replace(tiny_dag, pred_ids=pred_ids)) == {"AD102"}


class TestAD103Acyclicity:
    def test_two_atom_cycle(self, tiny_dag):
        # Atom 2 (layer c2) already depends on atom 0 (layer c1); add the
        # reverse edge on both sides with one payload so only the cycle
        # itself is illegal.
        producers, consumers, nbytes = edges(tiny_dag)
        assert 0 in producers[consumers == 2]
        dag = with_edges(
            tiny_dag,
            np.append(producers, 2),
            np.append(consumers, 0),
            np.append(nbytes, 1),
        )
        assert fired(dag) == {"AD103"}

    def test_succ_side_cannot_hide_a_cycle(self, tiny_dag):
        # The reverse edge on the pred side alone: Kahn reads only that
        # side, so the cycle is found next to the mirroring mismatch.
        producers, consumers, nbytes = edges(tiny_dag)
        pred_ptr, pred_ids, pred_bytes = csr_rows(
            np.append(consumers, 0),
            np.append(producers, 2),
            np.append(nbytes, 1),
            tiny_dag.num_atoms,
        )
        dag = replace(
            tiny_dag, pred_ptr=pred_ptr, pred_ids=pred_ids, pred_bytes=pred_bytes
        )
        assert fired(dag) == {"AD102", "AD103"}


class TestAD104EdgeBytes:
    def test_phantom_entry(self, tiny_dag):
        # The succ side carries a payload the pred side does not.
        succ_bytes = tiny_dag.succ_bytes.copy()
        succ_bytes[0] += 7
        assert fired(replace(tiny_dag, succ_bytes=succ_bytes)) == {"AD104"}

    def test_missing_entry(self, tiny_dag):
        # One edge carries no payload, on both sides alike.
        producers, consumers, nbytes = edges(tiny_dag)
        nbytes = nbytes.copy()
        nbytes[0] = 0
        assert fired(with_edges(tiny_dag, producers, consumers, nbytes)) == {
            "AD104"
        }


class TestAD105BatchIsomorphism:
    def test_edge_dropped_from_second_sample(self):
        dag = build_tiny_dag(batch=2)
        producers, consumers, nbytes = edges(dag)
        # Sample 1's first edge, removed from both sides alike.
        drop = np.flatnonzero(dag.atom_sample[consumers] == 1)[0]
        assert dag.atom_sample[producers[drop]] == 1
        keep = np.arange(len(producers)) != drop
        dag = with_edges(dag, producers[keep], consumers[keep], nbytes[keep])
        assert fired(dag) == {"AD105"}

    def test_cross_sample_edge(self):
        dag = build_tiny_dag(batch=2)
        producers, consumers, nbytes = edges(dag)
        # Sample 1's first edge reads sample 0's copy of its producer.
        moved = np.flatnonzero(dag.atom_sample[consumers] == 1)[0]
        producers = producers.copy()
        producers[moved] -= dag.num_atoms // 2
        dag = with_edges(dag, producers, consumers, nbytes)
        assert fired(dag) == {"AD105"}


class TestAD106Coverage:
    def test_uncovered_output(self, tiny_dag):
        """One atom's region loses its last output channel."""
        bounds = tiny_dag.atom_bounds.copy()
        bounds[-1, 5] -= 1
        assert fired(replace(tiny_dag, atom_bounds=bounds)) == {"AD106"}

    def test_overcovered_output(self):
        """Every layer's first atom, in both samples, grows one row into
        its neighbour's."""
        dag = build_tiny_dag(batch=2)
        bounds = dag.atom_bounds.copy()
        bounds[dag.atom_tile == 0, 1] += 1
        assert fired(replace(dag, atom_bounds=bounds)) == {"AD106"}
