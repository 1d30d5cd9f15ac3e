"""2D-mesh network-on-chip topology with dimension-ordered (XY) routing.

Models the TILE64-style static network the paper adopts: single-cycle hops
between adjacent engines, a full-crossbar switch per engine, data travelling
X-first then Y.  Deadlock freedom of XY routing means we never model retries;
credit-based flow control appears as link serialization in
:mod:`repro.noc.traffic`.
"""

from __future__ import annotations

from dataclasses import dataclass
from functools import lru_cache

import numpy as np


@dataclass(frozen=True)
class Mesh2D:
    """An ``rows x cols`` grid of engines joined by bidirectional mesh links.

    Engines are indexed ``0 .. rows*cols-1`` in row-major order.  Links are
    identified by directed ``(from_engine, to_engine)`` pairs between
    adjacent engines.

    Attributes:
        rows: Grid rows.
        cols: Grid columns.
    """

    rows: int
    cols: int

    def __post_init__(self) -> None:
        if self.rows <= 0 or self.cols <= 0:
            raise ValueError("mesh dimensions must be positive")

    @property
    def num_engines(self) -> int:
        return self.rows * self.cols

    def coords(self, engine: int) -> tuple[int, int]:
        """(row, col) of an engine index.

        Raises:
            ValueError: When the index is out of range.
        """
        if not 0 <= engine < self.num_engines:
            raise ValueError(f"engine {engine} out of range")
        return divmod(engine, self.cols)

    def engine_at(self, row: int, col: int) -> int:
        """Engine index at grid coordinates."""
        if not (0 <= row < self.rows and 0 <= col < self.cols):
            raise ValueError(f"coordinates ({row}, {col}) out of range")
        return row * self.cols + col

    def hop_distance(self, src: int, dst: int) -> int:
        """Shortest NoC hops between two engines (Manhattan distance).

        This is the ``D(i, j)`` of the paper's TransferCost formula.
        """
        r1, c1 = self.coords(src)
        r2, c2 = self.coords(dst)
        return abs(r1 - r2) + abs(c1 - c2)

    def route(self, src: int, dst: int) -> tuple[tuple[int, int], ...]:
        """Directed links traversed under XY routing (X first, then Y)."""
        r1, c1 = self.coords(src)
        r2, c2 = self.coords(dst)
        links: list[tuple[int, int]] = []
        cur_r, cur_c = r1, c1
        step_c = 1 if c2 > c1 else -1
        while cur_c != c2:
            nxt = self.engine_at(cur_r, cur_c + step_c)
            links.append((self.engine_at(cur_r, cur_c), nxt))
            cur_c += step_c
        step_r = 1 if r2 > r1 else -1
        while cur_r != r2:
            nxt = self.engine_at(cur_r + step_r, cur_c)
            links.append((self.engine_at(cur_r, cur_c), nxt))
            cur_r += step_r
        return tuple(links)

    def zigzag_order(self) -> tuple[int, ...]:
        """Engines in boustrophedon (zig-zag) order, the paper's Fig. 7
        placement baseline: left-to-right on even rows, right-to-left on odd.
        """
        order: list[int] = []
        for r in range(self.rows):
            cols = range(self.cols) if r % 2 == 0 else range(self.cols - 1, -1, -1)
            order.extend(self.engine_at(r, c) for c in cols)
        return tuple(order)

    @lru_cache(maxsize=None)
    def _distance_row(self, src: int) -> tuple[int, ...]:
        return tuple(self.hop_distance(src, d) for d in range(self.num_engines))

    def distance_matrix(self) -> tuple[tuple[int, ...], ...]:
        """Full pairwise hop-distance matrix."""
        return tuple(self._distance_row(s) for s in range(self.num_engines))

    def distance_array(self) -> np.ndarray:
        """Cached read-only ``(num_engines, num_engines)`` int64 hop matrix.

        Built through :meth:`hop_distance`, so topology subclasses (the
        torus) get a correct matrix for free.  The mapping/NoC hot paths
        fancy-index this instead of calling ``hop_distance`` per pair.
        """
        return _distance_array(self)

    def route_table(self) -> tuple[np.ndarray, np.ndarray, int]:
        """Cached CSR table of every route's directed-link identities.

        Returns ``(link_ids, offsets, num_links)``: the links of the route
        ``src -> dst`` are ``link_ids[offsets[k]:offsets[k + 1]]`` with
        ``k = src * num_engines + dst``, each entry a dense id of one
        directed link.  Built through :meth:`route`, so subclasses that
        re-route (the torus) are covered.
        """
        return _route_table(self)


@lru_cache(maxsize=None)
def _distance_array(mesh: Mesh2D) -> np.ndarray:
    n = mesh.num_engines
    dist = np.array(
        [mesh._distance_row(s) for s in range(n)], dtype=np.int64
    )
    dist.setflags(write=False)
    return dist


@lru_cache(maxsize=None)
def _route_table(mesh: Mesh2D) -> tuple[np.ndarray, np.ndarray, int]:
    n = mesh.num_engines
    ids: dict[tuple[int, int], int] = {}
    flat: list[int] = []
    offsets = np.zeros(n * n + 1, dtype=np.int64)
    for src in range(n):
        for dst in range(n):
            for link in mesh.route(src, dst):
                flat.append(ids.setdefault(link, len(ids)))
            offsets[src * n + dst + 1] = len(flat)
    link_ids = np.asarray(flat, dtype=np.int64)
    link_ids.setflags(write=False)
    offsets.setflags(write=False)
    return link_ids, offsets, len(ids)
