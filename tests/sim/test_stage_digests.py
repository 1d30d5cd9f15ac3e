"""Pinned digests of the atomic DAG, the schedules and the placement.

The sibling of ``test_sim_equivalence.py``: that file pins what the
simulator reports, this one pins what it is fed.  Each case pins sha256
digests of

* the DAG's arrays — each atom's pred and succ CSR rows, every edge's
  ``(producer, consumer, bytes)`` in sorted order, each atom's DRAM input
  bytes, id, region and weight key;
* the Rounds of ``schedule_pruned`` (lookahead 1), ``schedule_greedy`` and
  ``layer_sequential_schedule``;
* ``optimized_placement`` of the pruned schedule.

Any change to DAG construction, scheduling or mapping that moves one of
them must re-record the digests deliberately.  The cases follow the
simulator file: two batch-2 zoo models on the default 8x8 mesh, a 2x2
torus, and an engine buffer only as large as the biggest atom output.
No stage before the simulator reads the buffer size, so ``tinybuf``
shares ``mesh8x8``'s DAG, schedules and placement, and its digests.
"""

from __future__ import annotations

import functools
import hashlib
import json
from dataclasses import replace

import numpy as np
import pytest

from repro.atoms.dag import row_owners
from repro.atoms.generation import layer_sequential_tiling
from repro.config import DEFAULT_ARCH
from repro.mapping import optimized_placement
from repro.models import get_model
from repro.pipeline import SearchContext
from repro.scheduling import (
    layer_sequential_schedule,
    schedule_greedy,
    schedule_pruned,
)

#: (model, case) -> digests of (dag, pruned, greedy, layer-sequential,
#: placement).
DIGESTS = {
    ("resnet50_bench", "mesh8x8"): (
        "0d5143ce75a7e7c7d44dcbbdda102c75b5e8e2fe1f0187807dbc7c2e18b6e03e",
        "51d55b1114e83d017ba40f746a732b236226c7ab686cd076fe478d679812132d",
        "c5bd1cb3ce82cae189a80060ca532a5b98aed0b6302623fe46556756e2d3ad8b",
        "bd3cacc93263eea78f6c39bd1516bf5698d5169235dfc9218753a6d5011efd1a",
        "716979d3e614fdac55e192b3cc0797a5d87a91fc2618e1daa50f6cdcc01b88a1",
    ),
    ("resnet50_bench", "tinybuf"): (
        "0d5143ce75a7e7c7d44dcbbdda102c75b5e8e2fe1f0187807dbc7c2e18b6e03e",
        "51d55b1114e83d017ba40f746a732b236226c7ab686cd076fe478d679812132d",
        "c5bd1cb3ce82cae189a80060ca532a5b98aed0b6302623fe46556756e2d3ad8b",
        "bd3cacc93263eea78f6c39bd1516bf5698d5169235dfc9218753a6d5011efd1a",
        "716979d3e614fdac55e192b3cc0797a5d87a91fc2618e1daa50f6cdcc01b88a1",
    ),
    ("resnet50_bench", "torus2x2"): (
        "06ca8b8f00f01afae59a6bd3cc3ec78ba20f35704f9184d5a089396f72de155d",
        "fe3b46d1dd8ed91ddeb921e75217cc8211694b2d9dae21e1f4827a42ed43b250",
        "3d493d45a9216e4f89b379efc7b23ad252a98aeb54ff7131d9ae38e5784b26bc",
        "3c44bc6619ff6bd5e63f6f804716a7aac457459f47a235dd4c49932e0d1b0632",
        "fdba77b3dfb43b175c90ccf91a99ef244324b7f038797d01ea55846b2a16eeae",
    ),
    ("nasnet_bench", "mesh8x8"): (
        "a69792680e9e773e29d94ff0d5e19f8741a973be21412a388e27fb1ca114ed34",
        "f4e198c051191ed079bd8a3a192c26fb8bc4e0bdc29a0f1a855825c4664017be",
        "607615f94b263586f139eb534aa855ae083d12632362e5d60b3803f751fd6e78",
        "cce53131d4fe5d9c4e59ae99a75cd6a09119bb6526a5a187eb49b856e0d300a3",
        "0c66e32b4a48171b43c10fb41aaa383161c3d9459ac80cab3ce5c648641b8fbb",
    ),
    ("nasnet_bench", "tinybuf"): (
        "a69792680e9e773e29d94ff0d5e19f8741a973be21412a388e27fb1ca114ed34",
        "f4e198c051191ed079bd8a3a192c26fb8bc4e0bdc29a0f1a855825c4664017be",
        "607615f94b263586f139eb534aa855ae083d12632362e5d60b3803f751fd6e78",
        "cce53131d4fe5d9c4e59ae99a75cd6a09119bb6526a5a187eb49b856e0d300a3",
        "0c66e32b4a48171b43c10fb41aaa383161c3d9459ac80cab3ce5c648641b8fbb",
    ),
    ("nasnet_bench", "torus2x2"): (
        "e54e0d91b1ed2dfa957ef187d7a46848f1fec0579063ae89181fa0bd54f1efe4",
        "3515c30b8e2b02db694b1553ca11ff3a009a2b715fe1a15491c5eaeefa7bea03",
        "cdf829c76e0f0906cfde4b032465a4ea16d0e02b7bacb5fb74cea0729256fd67",
        "18f33f460b7f366d16ea199c60584b5a5f0456bac381dc7da7ca7b9e46e666aa",
        "6a02805d5c6d253e0c7ee0e820ec54e14e2bd5671fb9a88e096950b1dfd8f46d",
    ),
}


def _digest(doc) -> str:
    return hashlib.sha256(json.dumps(doc, sort_keys=True).encode()).hexdigest()


def _rows(ptr, values) -> list:
    """One list per CSR row."""
    flat, bounds = values.tolist(), ptr.tolist()
    return [flat[lo:hi] for lo, hi in zip(bounds, bounds[1:])]


def _dag_doc(dag) -> dict:
    consumers = row_owners(dag.pred_ptr)
    return {
        "preds": _rows(dag.pred_ptr, dag.pred_ids),
        "succs": _rows(dag.succ_ptr, dag.succ_ids),
        "edge_bytes": sorted(
            zip(
                dag.pred_ids.tolist(),
                consumers.tolist(),
                dag.pred_bytes.tolist(),
            )
        ),
        "dram_input_bytes": dag.atom_dram_bytes.tolist(),
        "atoms": np.column_stack(
            (dag.atom_sample, dag.atom_layer, dag.atom_tile, dag.atom_bounds)
        ).tolist(),
        "weight_keys": [
            None if wk is None else list(wk)
            for wk in map(dag.weight_key, range(dag.num_atoms))
        ],
    }


def _rounds_doc(schedule) -> list:
    return [[r.index, list(r.atom_indices)] for r in schedule.rounds]


@functools.lru_cache(maxsize=2)
def _digests(model: str, torus: bool) -> tuple[str, ...]:
    arch = DEFAULT_ARCH
    if torus:
        arch = replace(
            arch.with_mesh(2, 2), noc=replace(arch.noc, topology="torus")
        )
    ctx = SearchContext.create(get_model(model), arch, batch=2)
    dag = ctx.build_dag(layer_sequential_tiling(ctx.graph, ctx.num_engines))
    n = ctx.num_engines
    pruned = schedule_pruned(dag, n, lookahead=1)
    placement = optimized_placement(dag, ctx.mesh, pruned)
    return (
        _digest(_dag_doc(dag)),
        _digest(_rounds_doc(pruned)),
        _digest(_rounds_doc(schedule_greedy(dag, n))),
        _digest(_rounds_doc(layer_sequential_schedule(dag, n))),
        _digest(sorted(placement.items())),
    )


@pytest.mark.parametrize("model,case", sorted(DIGESTS))
def test_stages_match_pinned_digests(model, case):
    assert _digests(model, case == "torus2x2") == DIGESTS[(model, case)]
