"""The layered benchmark's wrappers still find every entry point they wrap.

``perfbench/layers.py`` times each layer by replacing an attribute it
reads with ``vars(owner)[attr]``; renaming or deleting one of those
entry points breaks the benchmark, not the program, so this guard keeps
the tier-1 suite watching them.  It loads the module from its file and
writes nothing under ``perfbench/``.
"""

from __future__ import annotations

import importlib.util
import sys
from pathlib import Path

LAYERS = Path(__file__).resolve().parents[1] / "perfbench" / "layers.py"


def test_every_wrapped_entry_point_is_defined_on_its_owner(monkeypatch):
    monkeypatch.setattr(sys, "dont_write_bytecode", True)
    spec = importlib.util.spec_from_file_location("_perfbench_layers", LAYERS)
    assert spec is not None and spec.loader is not None
    layers = importlib.util.module_from_spec(spec)
    monkeypatch.setitem(sys.modules, spec.name, layers)  # for its dataclasses
    spec.loader.exec_module(layers)
    table = layers._patch_table()
    assert table
    missing = [
        f"{getattr(owner, '__name__', owner)}.{attr}"
        for owner, attr, *_ in table
        if attr not in vars(owner)
    ]
    assert missing == []
