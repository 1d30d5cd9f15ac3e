"""Property-based tests (hypothesis) on core invariants.

Covers: tile-grid coverage/disjointness, dependency-cover correctness, mesh
metric properties, schedule validity under arbitrary engine counts, buffer
conservation, and cost-model monotonicity.
"""

from hypothesis import given, settings
from hypothesis import strategies as st

from repro.analysis import check_dag
from repro.atoms import TileSize, build_atomic_dag, grid_for, uniform_tiling
from repro.config import EngineConfig
from repro.engine import EngineCostModel, get_dataflow
from repro.ir import Conv2D, GraphBuilder, Region, TensorShape
from repro.ir.transforms import fuse_elementwise
from repro.memory import EngineBuffer
from repro.noc import Mesh2D
from repro.scheduling import schedule_greedy

dims = st.integers(min_value=1, max_value=24)
tile_dims = st.integers(min_value=1, max_value=30)


@st.composite
def shapes_and_tiles(draw):
    shape = TensorShape(draw(dims), draw(dims), draw(dims))
    tile = TileSize(draw(tile_dims), draw(tile_dims), draw(tile_dims), draw(tile_dims))
    return shape, tile


class TestTileGridProperties:
    @given(shapes_and_tiles())
    @settings(max_examples=200)
    def test_grid_covers_exactly(self, st_pair):
        shape, tile = st_pair
        grid = grid_for(shape, tile)
        total = sum(r.num_elements for r in grid.regions())
        assert total == shape.num_elements

    # O(n^2) pairwise check: a 24^3 all-ones grid is ~1.4M intersect
    # calls, which sits right at hypothesis' 200ms default deadline on a
    # loaded CI box — the deadline flakes, the property does not.
    @given(shapes_and_tiles())
    @settings(max_examples=100, deadline=None)
    def test_tiles_disjoint(self, st_pair):
        shape, tile = st_pair
        grid = grid_for(shape, tile)
        regions = grid.regions()
        for i, a in enumerate(regions):
            for b in regions[i + 1:]:
                assert not a.intersects(b)

    @given(
        shapes_and_tiles(),
        st.tuples(dims, dims, dims, dims, dims, dims),
    )
    @settings(max_examples=200)
    def test_covering_equals_brute_force(self, st_pair, bounds):
        shape, tile = st_pair
        grid = grid_for(shape, tile)
        h1, h2, w1, w2, c1, c2 = bounds
        h = tuple(sorted((h1 % shape.height, h2 % shape.height)))
        w = tuple(sorted((w1 % shape.width, w2 % shape.width)))
        c = tuple(sorted((c1 % shape.channels, c2 % shape.channels)))
        query = Region(h, w, c)
        brute = {
            i for i in range(grid.num_tiles) if grid.region(i).intersects(query)
        }
        assert set(grid.tiles_covering(query)) == brute


class TestMeshProperties:
    @given(st.integers(1, 6), st.integers(1, 6), st.data())
    @settings(max_examples=100)
    def test_metric_axioms(self, rows, cols, data):
        m = Mesh2D(rows, cols)
        n = m.num_engines
        a = data.draw(st.integers(0, n - 1))
        b = data.draw(st.integers(0, n - 1))
        c = data.draw(st.integers(0, n - 1))
        assert m.hop_distance(a, a) == 0
        assert m.hop_distance(a, b) == m.hop_distance(b, a)
        assert m.hop_distance(a, c) <= m.hop_distance(a, b) + m.hop_distance(b, c)
        assert (m.hop_distance(a, b) == 0) == (a == b)

    @given(st.integers(1, 5), st.integers(1, 5), st.data())
    @settings(max_examples=100)
    def test_route_length_is_distance(self, rows, cols, data):
        m = Mesh2D(rows, cols)
        a = data.draw(st.integers(0, m.num_engines - 1))
        b = data.draw(st.integers(0, m.num_engines - 1))
        assert len(m.route(a, b)) == m.hop_distance(a, b)


class TestScheduleProperties:
    @given(
        st.integers(1, 12),
        st.integers(2, 10),
        st.integers(1, 8),
    )
    @settings(max_examples=30, deadline=None)
    def test_greedy_schedule_always_valid(self, engines, tile_h, tile_c):
        b = GraphBuilder(name="prop")
        x = b.input(12, 12, 8)
        c1 = b.conv(x, 8, kernel=3, name="c1")
        c2 = b.conv(c1, 8, kernel=3, name="c2")
        s = b.conv(x, 8, kernel=1, name="proj")
        b.add(c2, s, name="join")
        g = fuse_elementwise(b.build()).graph
        cm = EngineCostModel(
            EngineConfig(pe_rows=8, pe_cols=8), get_dataflow("kc")
        )
        tiling = uniform_tiling(g, TileSize(tile_h, 12, 8, tile_c))
        dag = build_atomic_dag(g, tiling, cm)
        schedule = schedule_greedy(dag, engines)
        schedule.validate(dag, engines)  # raises on any violation

    @given(st.integers(1, 4))
    @settings(max_examples=10, deadline=None)
    def test_batched_dag_valid_and_scaled(self, batch):
        b = GraphBuilder(name="prop2")
        x = b.input(8, 8, 8)
        c1 = b.conv(x, 8, kernel=3, name="c1")
        b.conv(c1, 8, kernel=3, name="c2")
        g = fuse_elementwise(b.build()).graph
        cm = EngineCostModel(
            EngineConfig(pe_rows=8, pe_cols=8), get_dataflow("kc")
        )
        tiling = uniform_tiling(g, TileSize(4, 4, 8, 8))
        d1 = build_atomic_dag(g, tiling, cm, batch=1)
        dn = build_atomic_dag(g, tiling, cm, batch=batch)
        report = check_dag(dn)
        assert report.checked and not report.diagnostics
        assert dn.num_atoms == batch * d1.num_atoms


class TestBufferProperties:
    @given(
        st.lists(
            st.tuples(st.integers(0, 50), st.integers(1, 200)),
            min_size=1,
            max_size=40,
        )
    )
    @settings(max_examples=100)
    def test_store_release_conserves_bytes(self, ops):
        buf = EngineBuffer(capacity_bytes=2000)
        shadow: dict[int, int] = {}
        for key, size in ops:
            if buf.contains(key):
                freed = buf.release(key)
                assert freed == shadow.pop(key)
            else:
                try:
                    buf.store(key, size)
                    shadow[key] = size
                except Exception:
                    pass
            assert buf.used_bytes == sum(shadow.values())
            assert 0 <= buf.used_bytes <= buf.capacity_bytes


class TestCostModelProperties:
    @given(
        st.integers(1, 16),
        st.integers(1, 16),
        st.integers(1, 64),
    )
    @settings(max_examples=100)
    def test_bigger_region_never_cheaper(self, h, w, co):
        cm = EngineCostModel(
            EngineConfig(pe_rows=8, pe_cols=8), get_dataflow("kc")
        )
        op = Conv2D(64, kernel=(3, 3), padding=(1, 1))
        x = (TensorShape(16, 16, 16),)
        small = cm.cost(op, x, Region((0, h - 1), (0, w - 1), (0, co - 1)))
        full = cm.cost(op, x, Region((0, 15), (0, 15), (0, 63)))
        assert small.cycles <= full.cycles
        assert small.macs <= full.macs

    @given(st.integers(1, 16), st.integers(1, 64))
    @settings(max_examples=100)
    def test_utilization_bounded(self, hw, co):
        cm = EngineCostModel(
            EngineConfig(pe_rows=8, pe_cols=8), get_dataflow("yx")
        )
        op = Conv2D(64, kernel=(3, 3), padding=(1, 1))
        x = (TensorShape(16, 16, 16),)
        cost = cm.cost(op, x, Region((0, hw - 1), (0, hw - 1), (0, co - 1)))
        assert 0.0 < cost.pe_utilization <= 1.0


class TestFunctionalEquivalenceProperties:
    @given(
        st.integers(6, 14),   # input size
        st.integers(1, 6),    # tile h
        st.integers(1, 6),    # tile w
        st.integers(1, 8),    # tile co
        st.sampled_from([1, 2]),   # stride
        st.sampled_from([1, 3]),   # kernel
    )
    @settings(max_examples=25, deadline=None)
    def test_atomwise_equals_direct_on_random_tilings(
        self, size, th, tw, tc, stride, kernel
    ):
        import numpy as np

        from repro.exec import execute_atomwise, execute_graph, random_weights
        from repro.scheduling import schedule_greedy

        b = GraphBuilder(name="prop_exec")
        x = b.input(size, size, 4)
        c1 = b.conv(x, 8, kernel=kernel, stride=stride, name="c1")
        c2 = b.conv(c1, 8, kernel=3, name="c2")
        s = b.conv(c1, 8, kernel=1, name="proj")
        b.add(c2, s, name="join")
        g = b.build()

        rng = np.random.default_rng(3)
        weights = random_weights(g, rng)
        feeds = {
            g.sources()[0]: rng.standard_normal((size, size, 4))
        }
        direct = execute_graph(g, feeds, weights)

        cm = EngineCostModel(
            EngineConfig(pe_rows=8, pe_cols=8), get_dataflow("kc")
        )
        tiling = uniform_tiling(g, TileSize(th, tw, 8, tc))
        dag = build_atomic_dag(g, tiling, cm)
        schedule = schedule_greedy(dag, 4)
        atomwise = execute_atomwise(dag, feeds, weights, schedule=schedule)
        for layer, expected in direct.items():
            np.testing.assert_allclose(
                atomwise[layer], expected, rtol=1e-9, atol=1e-9
            )
