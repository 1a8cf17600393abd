"""Tests for the visibility-map output structure."""

from __future__ import annotations

import math

import pytest

from repro.envelope.engine import HAVE_NUMPY
from repro.envelope.visibility import VisibilityResult, VisiblePart
from repro.geometry.segments import ImageSegment
from repro.hsr import result as result_mod
from repro.hsr.result import (
    _VERTEX_QUANTUM,
    HsrStats,
    VisibilityMap,
    VisibleSegment,
    _k_of_blocks,
)


def vm_with(*segs):
    vm = VisibilityMap()
    for s in segs:
        vm.add_segment(VisibleSegment(*s))
    return vm


class TestVisibleSegment:
    def test_point_flag(self):
        assert VisibleSegment(0, 1.0, 2.0, 1.0, 2.0).is_point
        assert not VisibleSegment(0, 1.0, 2.0, 3.0, 2.0).is_point

    def test_width(self):
        assert VisibleSegment(0, 1.0, 0.0, 4.0, 0.0).width == 3.0


class TestVisibilityMap:
    def test_empty(self):
        vm = VisibilityMap()
        assert vm.n_segments == 0
        assert vm.k == 0
        assert vm.visible_edges() == set()
        assert "0 visible segments" in vm.summary()

    def test_add_edge_result(self):
        vm = VisibilityMap()
        seg = ImageSegment(0.0, 0.0, 10.0, 10.0, 3)
        res = VisibilityResult([VisiblePart(2.0, 6.0)], [(2.0, 2.0)], 1)
        vm.add_edge_result(3, seg, res)
        assert vm.visible_edges() == {3}
        [(a, b)] = vm.edge_intervals(3)
        assert (a, b) == (2.0, 6.0)
        s = vm.segments[0]
        assert math.isclose(s.za, 2.0) and math.isclose(s.zb, 6.0)

    def test_vertical_edge_stored_as_point(self):
        vm = VisibilityMap()
        seg = ImageSegment(5.0, 1.0, 5.0, 9.0, 7)
        res = VisibilityResult([VisiblePart(5.0, 5.0)], [], 1)
        vm.add_edge_result(7, seg, res)
        assert vm.segments[0].is_point
        assert vm.segments[0].za == 9.0  # the top endpoint

    def test_k_counts_vertices_and_edges(self):
        # Two connected segments: 3 vertices + 2 edges = 5.
        vm = vm_with((0, 0.0, 0.0, 1.0, 1.0), (1, 1.0, 1.0, 2.0, 0.0))
        assert vm.k == 5

    def test_k_dedups_shared_vertices(self):
        # The same map twice: vertices dedup, edges count twice.
        vm = vm_with((0, 0.0, 0.0, 1.0, 1.0), (1, 0.0, 0.0, 1.0, 1.0))
        assert len(vm.vertices()) == 2
        assert vm.k == 4

    def test_total_visible_length(self):
        vm = vm_with((0, 0.0, 0.0, 3.0, 4.0))
        assert math.isclose(vm.total_visible_length(), 5.0)


class TestComparison:
    def test_same_maps(self):
        a = vm_with((0, 0.0, 0.0, 1.0, 0.0))
        b = vm_with((0, 0.0, 0.0, 1.0, 0.0))
        assert a.approx_same(b)
        assert a.difference_report(b) == []

    def test_split_interval_still_same(self):
        a = vm_with((0, 0.0, 0.0, 2.0, 2.0))
        b = vm_with((0, 0.0, 0.0, 1.0, 1.0), (0, 1.0, 1.0, 2.0, 2.0))
        assert a.approx_same(b)

    def test_different_extents(self):
        a = vm_with((0, 0.0, 0.0, 1.0, 0.0))
        b = vm_with((0, 0.0, 0.0, 1.5, 0.0))
        assert not a.approx_same(b)
        assert len(a.difference_report(b)) == 1

    def test_missing_edge(self):
        a = vm_with((0, 0.0, 0.0, 1.0, 0.0))
        b = VisibilityMap()
        assert not a.approx_same(b)

    def test_tolerance(self):
        a = vm_with((0, 0.0, 0.0, 1.0, 0.0))
        b = vm_with((0, 1e-9, 0.0, 1.0, 0.0))
        assert a.approx_same(b, tol=1e-6)
        assert not a.approx_same(b, tol=1e-12)


class TestHsrStats:
    def test_as_row(self):
        st = HsrStats(n_edges=10, k=5, ops=100, extra={"foo": 1.0})
        row = st.as_row()
        assert row["n"] == 10
        assert row["k"] == 5
        assert row["foo"] == 1.0


def _ties() -> list[float]:
    """Coordinates ``v`` with ``v / q`` exactly halfway between two
    integers, both parities and signs: ``round`` and ``np.rint`` must
    both pick the even neighbour."""
    q = _VERTEX_QUANTUM
    out = [v for v in ((k + 0.5) * q for k in range(-40, 40)) if (v / q) % 1 == 0.5]
    assert len(out) > 20
    return out


def _rows_map(rows) -> VisibilityMap:
    """A map of ``rows`` added as one row block (numpy), else one
    segment at a time."""
    if not HAVE_NUMPY:
        return vm_with(*rows)
    vm = VisibilityMap()
    vm.add_block(_block(rows))
    return vm


def _scalar_k(rows) -> int:
    return vm_with(*rows).k


def _block(rows):
    """The ``(5, m)`` row block of ``(edge, ya, za, yb, zb)`` rows."""
    import numpy as np

    blk = np.empty((5, len(rows)))
    if rows:
        edge, *coords = zip(*rows)
        blk[:4] = coords
        blk[4].view(np.int64)[:] = edge
    return blk


class TestKOnRows:
    """``k`` of a row-block map is counted on the block
    (:func:`repro.hsr.result._k_of_blocks`); it must equal the scalar
    count over the set of rounded vertex tuples."""

    def _check(self, rows, monkeypatch=None):
        rows = [tuple(r) for r in rows]
        if HAVE_NUMPY:
            assert _k_of_blocks([_block(rows)]) == _scalar_k(rows)
        assert _rows_map(rows).k == _scalar_k(rows)

    def test_half_quantum_ties(self):
        ties = _ties()
        rows = [(i, y, z, y + 1.0, z) for i, (y, z) in enumerate(zip(ties, ties[::-1]))]
        rows += [(99, t, 0.0, t, 0.0) for t in ties]  # point rows on ties
        self._check(rows)

    def test_signed_zeros(self):
        q = _VERTEX_QUANTUM
        rows = [
            (0, -0.0, 0.0, 1.0, 1.0),
            (1, 0.0, -0.0, 1.0, 1.0),
            (2, -0.3 * q, 0.4 * q, -0.0, -0.0),  # rounds to -0.0
            (3, -0.0, -0.0, -0.0, -0.0),  # a point row
        ]
        self._check(rows)
        assert _rows_map(rows).k == 2 + 3

    def test_points_and_duplicate_endpoints(self):
        rows = [
            (0, 0.0, 0.0, 1.0, 1.0),
            (1, 1.0, 1.0, 2.0, 0.0),
            (1, 1.0, 1.0, 2.0, 0.0),  # a duplicate row
            (2, 2.0, 0.0, 2.0, 0.0),  # a point on a vertex
            (3, 5.0, 5.0, 5.0, 7.0),  # a vertical's point
            (4, 1.0000004, 1.0, 3.0, 3.0),  # snaps onto (1, 1)
        ]
        self._check(rows)

    def test_empty_rows(self):
        assert _rows_map([]).k == 0

    def test_non_finite_row_raises_as_before(self):
        for bad, exc in ((math.nan, ValueError), (math.inf, OverflowError),
                         (1e303, OverflowError)):  # v / q overflows
            vm = _rows_map([(0, 0.0, 0.0, 1.0, 1.0), (1, 0.0, bad, 1.0, 1.0)])
            with pytest.raises(exc):
                vm.k
            with pytest.raises(exc):
                _scalar_k([(0, 0.0, 0.0, 1.0, 1.0), (1, 0.0, bad, 1.0, 1.0)])

    def test_mixed_construction_takes_the_scalar_count(self, monkeypatch):
        calls = []
        monkeypatch.setattr(
            result_mod, "_k_of_blocks", lambda blocks: calls.append(1)
        )
        vm = _rows_map([(0, 0.0, 0.0, 1.0, 1.0)])
        vm.add_segment(VisibleSegment(1, 1.0, 1.0, 2.0, 0.0))
        assert vm.k == 5 and not calls
        vm = _rows_map([(0, 0.0, 0.0, 1.0, 1.0)])
        vm.k  # noqa: B018 - counted on the block (with numpy)
        assert calls == ([1] if HAVE_NUMPY else [])

    @pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
    @pytest.mark.parametrize("algorithm", ["sequential", "direct", "persistent"])
    @pytest.mark.parametrize(
        "case", ["fractal9@0", "fractal17@30", "fractal33@135", "valley",
                 "delaunay", "lattice", "dem", "flyover2"]
    )
    def test_parity_matrix(self, case, algorithm):
        from repro.hsr import ParallelHSR, SequentialHSR
        from tests.test_ordering import _parity_terrain

        terrain = _parity_terrain(case)
        hsr = (
            SequentialHSR()
            if algorithm == "sequential"
            else ParallelHSR(mode=algorithm)
        )
        res = hsr.run(terrain)
        rows = [tuple(s) for s in res.visibility_map.segments]
        assert res.k == res.stats.k == _scalar_k(rows)


@pytest.mark.skipif(not HAVE_NUMPY, reason="numpy not installed")
class TestRowBlocks:
    """A map built from ``(5, m)`` row blocks (:meth:`VisibilityMap.add_block`)
    builds its segments on first access, in insertion order."""

    ROWS = [
        (0, 0.0, 0.0, 1.0, 1.0),
        (7, 1.0, 1.0, 2.0, 0.0),
        (-1, 2.0, 0.0, 2.0, 0.0),  # a point row; a synthetic source
        (2**40, -0.0, 3.5, 0.25, -0.0),
    ]

    def test_lazy_segments_equal_the_eager_tuples(self):
        vm = VisibilityMap()
        vm.add_block(_block(self.ROWS[:2]))
        vm.add_block(_block(self.ROWS[2:]))
        assert vm._pending and vm.n_segments == 4
        segs = vm.segments
        assert not vm._pending
        assert segs == [VisibleSegment(*r) for r in self.ROWS]
        assert all(type(s) is VisibleSegment for s in segs)
        for s in segs:
            assert type(s.edge) is int
            assert all(type(v) is float for v in s[1:])
        assert repr(segs) == repr(vm_with(*self.ROWS).segments)  # -0.0 kept
        assert vm.segments is segs  # built once

    def test_add_after_a_block_keeps_insertion_order(self):
        vm = VisibilityMap()
        vm.edge_intervals(0)  # an edge index that must follow the block
        vm.add_block(_block(self.ROWS[:2]))
        vm.add_segment(VisibleSegment(*self.ROWS[2]))
        vm.add_block(_block(self.ROWS[3:]))
        seg = ImageSegment(0.0, 0.0, 10.0, 10.0, 3)
        vm.add_edge_result(3, seg, VisibilityResult([VisiblePart(2.0, 6.0)], [], 1))
        want = [VisibleSegment(*r) for r in self.ROWS]
        want.append(VisibleSegment(3, *seg.visible_piece(2.0, 6.0)))
        assert vm.segments == want
        assert vm.edge_intervals(7) == [(1.0, 2.0)]
        assert vm.k == _scalar_k(want)

    def test_k_on_the_block_equals_the_vertex_count(self, monkeypatch):
        rows = self.ROWS + [(3, 0.5e-6, 1.5e-6, 2.5e-6, 2.5e-6)]
        vm = VisibilityMap()
        vm.add_block(_block(rows))
        calls = []
        real = result_mod._k_of_blocks
        monkeypatch.setattr(
            result_mod, "_k_of_blocks", lambda b: calls.append(1) or real(b)
        )
        proper = sum(1 for r in rows if r[1] != r[3])
        assert vm.k == len(vm_with(*rows).vertices()) + proper
        assert calls == [1] and vm._pending  # counted without the tuples

    def test_k_falls_back_when_a_quotient_is_not_finite(self):
        for bad, exc in ((math.nan, ValueError), (1e303, OverflowError)):
            rows = [(0, 0.0, 0.0, 1.0, 1.0), (1, 0.0, bad, 1.0, 1.0)]
            assert _k_of_blocks([_block(rows)]) is None
            vm = VisibilityMap()
            vm.add_block(_block(rows))
            with pytest.raises(exc):
                vm.k  # noqa: B018 - the scalar count over vertices()
        rows = [(0, 0.0, 1e-290, 1.0, 1.0)]  # finite, if tiny
        vm = VisibilityMap()
        vm.add_block(_block(rows))
        assert vm.k == _scalar_k(rows) == 3

    def test_block_is_kept_read_only_and_checked(self):
        import numpy as np

        blk = _block(self.ROWS)
        vm = VisibilityMap()
        vm.add_block(blk)
        with pytest.raises(ValueError):
            blk[0, 0] = 9.0
        assert vm.segments[0] == VisibleSegment(*self.ROWS[0])
        for bad in (np.zeros((4, 2)), np.zeros((5, 2), np.float32), np.zeros(5)):
            with pytest.raises(ValueError, match="row block"):
                vm.add_block(bad)
        vm.add_block(np.empty((5, 0)))
        assert vm.n_segments == len(self.ROWS)

    @pytest.mark.parametrize("algorithm", ["sequential", "direct", "persistent"])
    def test_runs_hand_over_one_block(self, algorithm, monkeypatch):
        from repro.envelope import _ccore
        from repro.hsr import ParallelHSR, SequentialHSR
        from repro.terrain.generators import fractal_terrain

        if algorithm != "sequential" and not _ccore.COMPILED_DEFAULT:
            pytest.skip("Phase 2 hands over a block only from the compiled core")

        def hsr(engine):
            if algorithm == "sequential":
                return SequentialHSR(engine=engine)
            return ParallelHSR(mode=algorithm, engine=engine)

        blocks = []
        add_block = VisibilityMap.add_block
        monkeypatch.setattr(
            VisibilityMap,
            "add_block",
            lambda vm, rows: blocks.append(rows) or add_block(vm, rows),
        )
        terrain = fractal_terrain(size=9, seed=3)
        res = hsr("numpy").run(terrain)
        vmap = res.visibility_map
        assert len(blocks) == 1 and blocks[0].shape == (5, vmap.n_segments)
        ref = hsr("python").run(terrain)
        assert res.k == ref.k
        assert vmap.segments == ref.visibility_map.segments
