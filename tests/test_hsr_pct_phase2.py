"""Unit tests for Phase 1 (PCT) and Phase 2 (prefix propagation) —
the structural guts of the parallel algorithm."""

from __future__ import annotations

import pytest

from repro.envelope.build import build_envelope
from repro.envelope.visibility import visible_parts
from repro.errors import HsrError
from repro.hsr.pct import build_pct
from repro.hsr.phase2 import run_phase2
from repro.ordering.separator import SeparatorTree
from repro.ordering.sweep import front_to_back_order
from repro.pram.tracker import PramTracker
from repro.terrain.generators import fractal_terrain, valley_terrain


@pytest.fixture(scope="module")
def scene():
    terrain = fractal_terrain(size=9, seed=19)
    order = front_to_back_order(terrain)
    tree = SeparatorTree(order)
    segs = terrain.image_segments()
    return terrain, order, tree, segs


class TestPhase1:
    def test_node_envelopes_are_subtree_envelopes(self, scene):
        terrain, order, tree, segs = scene
        pct = build_pct(tree, segs)
        # Spot-check every node at three levels including the root.
        levels = list(tree.levels())
        for level in (levels[0], levels[len(levels) // 2], levels[-1]):
            for node in level:
                subtree_segs = [
                    segs[order[i]] for i in range(node.lo, node.hi)
                ]
                want = build_envelope(subtree_segs).envelope
                got = pct.envelope_of(node)
                assert got.approx_equal(want, eps=1e-7), (
                    f"node [{node.lo},{node.hi}) envelope mismatch"
                )

    def test_root_is_horizon(self, scene):
        terrain, order, tree, segs = scene
        from repro.hsr.sequential import SequentialHSR

        pct = build_pct(tree, segs)
        horizon = SequentialHSR().final_profile(terrain)
        assert pct.envelope_of(tree.root).approx_equal(horizon, eps=1e-7)

    def test_ops_accounted(self, scene):
        _, _, tree, segs = scene
        pct = build_pct(tree, segs)
        assert pct.ops >= tree.n_leaves

    def test_sharing_measurement(self, scene):
        _, _, tree, segs = scene
        pct = build_pct(tree, segs, measure_sharing=True)
        assert pct.layer_sharing
        for depth, frac in pct.layer_sharing:
            assert 0.0 <= frac <= 1.0

    def test_engine_equivalence(self, scene):
        # The batched numpy layers against the python engine's
        # per-node merges: identical profiles and ops.
        _, _, tree, segs = scene
        a = build_pct(tree, segs, engine="numpy")
        b = build_pct(tree, segs, engine="python")
        assert a.ops == b.ops
        for node in tree.nodes():
            assert a.envelope_of(node).pieces == b.envelope_of(node).pieces


class TestPhase2:
    def test_leaf_inherited_profiles_are_prefixes(self, scene):
        """The defining invariant: at the leaf in order position i,
        visibility is computed against P_{i-1} — the envelope of all
        earlier segments."""
        terrain, order, tree, segs = scene
        pct = build_pct(tree, segs)
        ph2 = run_phase2(pct, segs, mode="direct")
        for i, edge in enumerate(order):
            prefix = [segs[order[j]] for j in range(i)]
            want = visible_parts(
                segs[edge], build_envelope(prefix).envelope
            )
            got = ph2.visibility[edge]
            assert len(got.parts) == len(want.parts), f"leaf {i}"
            for gp, wp in zip(got.parts, want.parts):
                assert abs(gp.ya - wp.ya) <= 1e-7
                assert abs(gp.yb - wp.yb) <= 1e-7

    def test_modes_agree(self, scene):
        _, order, tree, segs = scene
        pct = build_pct(tree, segs)
        results = {
            mode: run_phase2(pct, segs, mode=mode)
            for mode in ("direct", "persistent", "acg")
        }
        base = results["direct"]
        for mode in ("persistent", "acg"):
            other = results[mode]
            for edge in order:
                a, b = base.visibility[edge], other.visibility[edge]
                assert len(a.parts) == len(b.parts), (mode, edge)

    def test_unknown_mode(self, scene):
        _, _, tree, segs = scene
        pct = build_pct(tree, segs)
        with pytest.raises(HsrError):
            run_phase2(pct, segs, mode="warp")

    def test_layer_stats_recorded(self, scene):
        _, _, tree, segs = scene
        pct = build_pct(tree, segs)
        ph2 = run_phase2(pct, segs, mode="persistent")
        assert len(ph2.layers) == tree.height
        assert sum(l.merges for l in ph2.layers) == sum(
            1 for n in tree.nodes() if not n.is_leaf
        )
        assert ph2.ops == sum(l.ops for l in ph2.layers)

    def test_persistent_allocates_nodes(self, scene):
        _, _, tree, segs = scene
        pct = build_pct(tree, segs)
        ph2 = run_phase2(pct, segs, mode="persistent")
        assert ph2.nodes_allocated > 0
        assert ph2.pieces_materialised == 0

    def test_direct_materialises_pieces(self, scene):
        _, _, tree, segs = scene
        pct = build_pct(tree, segs)
        ph2 = run_phase2(pct, segs, mode="direct")
        assert ph2.pieces_materialised > 0
        assert ph2.nodes_allocated == 0

    def test_sharing_stats(self, scene):
        _, _, tree, segs = scene
        pct = build_pct(tree, segs)
        ph2 = run_phase2(pct, segs, mode="persistent", measure_sharing=True)
        mid = [l for l in ph2.layers if l.total_nodes > 0]
        assert mid, "expected at least one layer with node stats"
        assert any(l.shared_nodes > 0 for l in mid)

    def test_crossings_counted(self):
        terrain = valley_terrain(rows=8, cols=8, seed=20)
        order = front_to_back_order(terrain)
        tree = SeparatorTree(order)
        segs = terrain.image_segments()
        pct = build_pct(tree, segs)
        ph2 = run_phase2(pct, segs, mode="direct")
        # An amphitheatre has many profile crossings.
        assert ph2.crossings > 0

    def test_tracker_depth_additive_over_layers(self, scene):
        _, _, tree, segs = scene
        pct = build_pct(tree, segs)
        tracker = PramTracker()
        run_phase2(pct, segs, mode="persistent", tracker=tracker)
        # One parallel region per layer: depth is at most layers × the
        # deepest merge, far below total work.
        assert tracker.depth < tracker.work
        assert tracker.depth <= tree.height * 64
