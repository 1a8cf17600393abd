"""Tests for the compiled PCT kernels: the per-job kernels of
``repro_merge_layer`` and the whole-phase calls ``repro_pct_build`` and
``repro_phase2_run`` built from them.

Contract under test: with the optional C extension built, Phase 1
(``build_pct``) and Phase 2's ``direct`` and ``persistent`` modes each
run as one compiled call, and are *bit-exact* against the scalar
reference (``engine="python"``): the same pieces, ``ops`` and
crossings per merge; the same visible parts, crossings and ``ops`` per
leaf; and the same visibility map and row block, ``k``, ``stats.ops``,
``stats.extra`` (``nodes_allocated`` and ``pieces_materialised``
included), tracker work and depth and layer stats per run.  The rope
mode cuts the Python rope's chunks: the same pieces, chunk boundaries
and fresh slot counts per splice.  ``acg`` reads the CSR-backed PCT
and stays bit-identical.  A post-condition fault (``ST_FAULT``) or an
injected ``raise`` plan at ``pct_merge`` / ``phase2_merge`` recovers
through the guard, bit-exactly.
"""

from __future__ import annotations

import math

import numpy as np
import pytest
from hypothesis import given, settings
from hypothesis import strategies as st

from repro.config import HsrConfig
from repro.envelope import _ccore
from repro.envelope.build import build_envelope
from repro.envelope.chain import Envelope, Piece
from repro.envelope.flat_splice import segment_lanes
from repro.envelope.merge import merge_envelopes
from repro.envelope.splice import splice_merge
from repro.envelope.visibility import visible_parts
from repro.geometry.segments import ImageSegment
from repro.hsr.parallel import ParallelHSR
from repro.hsr.pct import build_pct, level_bases, level_spans
from repro.hsr.phase2 import _size_locate_cost, _size_locate_costs, run_phase2
from repro.ordering.separator import SeparatorTree
from repro.ordering.sweep import front_to_back_order
from repro.persistence import rope
from repro.pram.tracker import PramTracker
from repro.reliability import faultinject as fi
from repro.reliability import guard
from repro.scenarios.instances import dem_terrain_for, terrain_for
from repro.terrain.model import Terrain

needs_ccore = pytest.mark.skipif(
    not _ccore.HAVE_CCORE,
    reason="optional compiled core not built in this environment",
)

PYTHON = HsrConfig(engine="python")
COMPILED = HsrConfig(engine="numpy", use_compiled_insert=True)
NUMPY = HsrConfig(engine="numpy", use_compiled_insert=False)


@pytest.fixture(autouse=True)
def _clean_state(monkeypatch):
    fi.clear()
    guard.reset_ambient()
    monkeypatch.setattr(guard, "GUARDED_DISPATCH", True)
    yield
    fi.clear()
    guard.reset_ambient()


# -- the kernel against the scalar sweeps ----------------------------------

#: Coordinates on a coarse grid, so breakpoints are shared and heights
#: tie, plus small offsets that land within or just past eps.
_coord = st.one_of(
    st.integers(0, 8).map(float),
    st.floats(0.0, 8.0, allow_nan=False, width=32),
)
_nudge = st.sampled_from([0.0, 0.0, 5e-10, -5e-10, 2e-9, -2e-9])


@st.composite
def _segment(draw, source):
    y = draw(_coord)
    w = draw(st.one_of(st.just(0.0), st.integers(1, 4).map(float), _coord))
    za = draw(_coord) + draw(_nudge)
    zb = draw(_coord) + draw(_nudge)
    src = draw(st.sampled_from([source, source, -1]))
    return ImageSegment(y, za, y + w, zb, src)


@st.composite
def _envelope(draw, base):
    """A valid envelope (empty, or the python build of a few segments,
    vertical ones included — they contribute nothing)."""
    n = draw(st.integers(0, 6))
    segs = [draw(_segment(base + i)) for i in range(n)]
    if not segs:
        return Envelope.empty()
    return build_envelope(segs, engine="python").envelope


def _block(*envs):
    """A ``(5, n)`` layer block holding ``envs`` back to back, and the
    offset of each."""
    pieces = [p for e in envs for p in e.pieces]
    blk = np.empty((5, max(1, len(pieces))))
    for k, p in enumerate(pieces):
        blk[:4, k] = p[:4]
        blk[4].view(np.int64)[k] = p.source
    offs = np.cumsum([0] + [e.size for e in envs])
    return blk, offs.tolist()


def _pieces(lanes_, a, n):
    src = lanes_[4].view(np.int64)
    return [
        Piece(*(float(lanes_[f, k]) for f in range(4)), int(src[k]))
        for k in range(a, a + n)
    ]


def _crossings(core, a, n):
    x = core.take(_ccore.L_XING)
    q = x[2:].view(np.int64)
    return [
        (float(x[0, k]), float(x[1, k]), int(q[0, k]), int(q[1, k]))
        for k in range(a, a + n)
    ]


_NO_LANES = segment_lanes([ImageSegment(0.0, 0.0, 1.0, 0.0, 0)])


@needs_ccore
@settings(max_examples=300, deadline=None)
@given(
    a=_envelope(0),
    b=_envelope(100),
    eps=st.sampled_from([1e-9, 0.0, 1e-3]),
)
def test_merge_sweep_matches_merge_envelopes(a, b, eps):
    core = _ccore.Core()
    blk, (oa, ob, _) = _block(a, b)
    jobs = np.array([[0, oa, a.size, ob, b.size]], np.int64)
    res = _ccore.merge_layer(core, _ccore.MODE_PCT, blk, _NO_LANES, jobs, eps, True)
    ref = merge_envelopes(a, b, eps=eps)
    ops, ncross, off, n = res[0].tolist()
    assert _pieces(core.take(_ccore.L_PROF), off, n) == ref.envelope.pieces
    assert ops == ref.ops
    assert _crossings(core, 0, ncross) == [tuple(c) for c in ref.crossings]


@needs_ccore
@settings(max_examples=200, deadline=None)
@given(
    env=_envelope(0),
    other=_envelope(100),
    segs=st.lists(_segment(200), min_size=1, max_size=4),
    eps=st.sampled_from([1e-9, 0.0, 1e-3]),
)
def test_phase2_mode_matches_splice_merge_and_visible_parts(env, other, segs, eps):
    """A Phase-2 call reads its inherited profile from the context: a
    first call loads ``env`` there (a merge into the empty profile
    copies it verbatim), a second splices ``other`` into it and queries
    each segment against it."""
    core = _ccore.Core()
    lanes = segment_lanes(segs)
    blk, _ = _block(env)
    load = np.array([[0, 0, 0, 0, env.size]], np.int64)
    res = _ccore.merge_layer(core, _ccore.MODE_PHASE2, blk, lanes, load, eps, True)
    _, _, at, n = res[0].tolist()
    assert n == env.size
    blk, _ = _block(other)
    jobs = np.array(
        [[0, at, n, 0, other.size]] + [[1, at, n, i, 0] for i in range(len(segs))],
        np.int64,
    )
    res = _ccore.merge_layer(core, _ccore.MODE_PHASE2, blk, lanes, jobs, eps, True)

    ref = splice_merge(env, other, eps=eps)
    ops, ncross, off, size = res[0].tolist()
    got = _pieces(core.take(_ccore.L_PROF), off, size)
    assert got == ref.envelope.pieces
    assert (ops, ncross) == (ref.ops, len(ref.crossings))
    assert _crossings(core, 0, ncross) == [tuple(c) for c in ref.crossings]
    assert size == (ref.materialised or env.size)

    parts = core.take(_ccore.L_PARTS)
    vx = core.take(_ccore.L_VX)
    rows = core.take(_ccore.L_ROWS)
    x = 0
    for seg, (ops, ncross, p, np_) in zip(segs, res[1:].tolist()):
        vis = visible_parts(seg, env, eps=eps)
        assert ops == vis.ops
        assert list(zip(parts[0, p:p + np_].tolist(), parts[1, p:p + np_].tolist())) == [
            tuple(part) for part in vis.parts
        ]
        assert list(zip(vx[0, x:x + ncross].tolist(), vx[1, x:x + ncross].tolist())) == (
            vis.crossings
        )
        x += ncross
        clipped = [tuple(seg.visible_piece(q.ya, q.yb)) for q in vis.parts]
        assert [tuple(rows[:4, k].tolist()) for k in range(p, p + np_)] == clipped
        assert rows[4, p:p + np_].view(np.int64).tolist() == [seg.source] * np_


EPS_FUZZ = 1e-9


@st.composite
def _chain(draw, base):
    """A valid envelope of up to 150 pieces — several rope chunks — on
    a coarse grid: sorted, non-overlapping pieces, some touching, some
    with gaps between, some synthetic (source -1).  Spans range from a
    sliver to the whole grid, so splices cut into the middle of a rope
    as well as cover it."""
    n = draw(st.integers(0, 150))
    rng = np.random.default_rng(draw(st.integers(0, 2**32 - 1)))
    step = draw(st.sampled_from([0.5, 0.125, 0.01]))
    shift = draw(st.integers(0, 120)) * 0.5 + draw(_nudge)
    ys = np.cumsum(rng.integers(1, 3, 2 * n)) * step + shift
    ya, yb = ys[0::2], ys[1::2]
    touch = rng.random(n) < 0.5
    yb[:-1] = np.where(touch[:-1], ya[1:], yb[:-1])
    z = np.round(rng.uniform(0.0, 8.0, (2, n)) * 2) / 2
    src = np.where(rng.random(n) < 0.1, -1, base + np.arange(n))
    return Envelope([
        Piece(float(a), float(za), float(b), float(zb), int(s))
        for a, b, za, zb, s in zip(ya, yb, z[0], z[1], src)
    ])


def _version(core, off, n):
    """The pieces and chunk lengths of the context version whose spine
    is ``L_SPINE`` entries ``[off, off + n)``."""
    spine = core.take(_ccore.L_SPINE).view(np.int64)
    arena = core.take(_ccore.L_PROF)
    pieces, lengths = [], []
    for c in range(off, off + n):
        at, k = int(spine[0, c]), int(spine[1, c])
        pieces += _pieces(arena, at, k)
        lengths.append(k)
    return pieces, lengths


def _splice(rope_, env):
    """``rope_splice_merge`` plus its fresh slot count."""
    before = rope.allocation_count()
    new, res = rope.rope_splice_merge(rope_, env, eps=EPS_FUZZ)
    return new, res, rope.allocation_count() - before


@needs_ccore
@settings(max_examples=200, deadline=None)
@given(
    envs=st.tuples(_chain(0), _chain(1000), _chain(2000)),
    segs=st.lists(_segment(5000), min_size=1, max_size=4),
)
def test_rope_mode_matches_the_python_rope(envs, segs):
    """Three splices into the empty version (the third one next to the
    leaf queries) against ``rope_splice_merge`` / ``rope_visible_parts``:
    pieces, chunk boundaries, version sizes, fresh slots, ``ops`` and
    crossings agree after every call."""
    core = _ccore.Core()
    lanes = segment_lanes(segs)
    blk, offs = _block(*envs)
    ref = rope.EMPTY
    at, n = 0, 0
    for i, env in enumerate(envs):
        jobs = [[0, at, n, offs[i], env.size]]
        if i == 2:
            jobs += [[1, at, n, k, 0] for k in range(len(segs))]
        res = _ccore.merge_layer(
            core, _ccore.MODE_ROPE, blk, lanes, np.array(jobs, np.int64), EPS_FUZZ, True
        )
        if i == 2:
            parts = core.take(_ccore.L_PARTS)
            rows = core.take(_ccore.L_ROWS)
            for seg, (ops, _ncross, p, np_, _, _) in zip(segs, res[1:].tolist()):
                vis = rope.rope_visible_parts(ref, seg, eps=EPS_FUZZ)
                assert ops == vis.ops
                got = list(zip(parts[0, p:p + np_].tolist(), parts[1, p:p + np_].tolist()))
                assert got == [tuple(part) for part in vis.parts]
                clipped = [tuple(seg.visible_piece(q.ya, q.yb)) for q in vis.parts]
                assert [tuple(rows[:4, k].tolist()) for k in range(p, p + np_)] == clipped
        ref, merge, fresh = _splice(ref, env)
        ops, ncross, at, n, total, slots = res[0].tolist()
        pieces, lengths = _version(core, at, n)
        assert pieces == ref.to_pieces()
        assert lengths == [len(c) for c in ref.chunks]
        assert total == ref.total
        assert slots == fresh
        assert (ops, ncross) == (merge.ops, len(merge.crossings))


def test_vectorised_locate_cost_matches_the_scalar_charge():
    sizes = [0, 1, 2, 3, 6, 7, 8, 255, 256, 511, 512, 4095, 10**6, 2**40 - 1]
    got = _size_locate_costs(np.array(sizes, np.int64)).tolist()
    assert got == [_size_locate_cost(n) for n in sizes]


@needs_ccore
def test_nan_window_faults():
    bad = Envelope([Piece(0.0, math.nan, 2.0, 1.0, 0)])
    other = Envelope([Piece(1.0, 0.0, 3.0, 0.0, 1)])
    blk, (oa, ob, _) = _block(bad, other)
    jobs = np.array([[0, oa, 1, ob, 1]], np.int64)
    with pytest.raises(_ccore.CCoreFault):
        _ccore.merge_layer(_ccore.Core(), _ccore.MODE_PCT, blk, _NO_LANES, jobs, 1e-9, False)


# -- whole runs ---------------------------------------------------------------


@pytest.mark.parametrize("n", [1, 2, 3, 7, 100, 1025])
def test_level_spans_match_the_tree_nodes(n):
    """The layer arrays and bases the phases index with describe the
    nodes :class:`SeparatorTree` builds, and its height needs no
    nodes."""
    tree = SeparatorTree(list(range(n)))
    levels = list(tree.levels())
    assert tree.height == len(levels) == len(level_spans(n))
    for (lo, hi), level in zip(level_spans(n), levels):
        assert lo.tolist() == [node.lo for node in level]
        assert hi.tolist() == [node.hi for node in level]
    bases = level_bases(n)
    assert bases == [level[0].index for level in levels] + [2 * n - 1]


def _run_signature(res):
    ph2 = res.phase2
    return (
        res.visibility_map.segments,
        res.k,
        res.stats.ops,
        res.stats.extra,
        ph2.layers,
        {e: (v.parts, v.crossings, v.ops) for e, v in ph2.visibility.items()},
        list(ph2.visibility),
    )


def _terrain(family, size):
    if family == "dem":
        return dem_terrain_for({"path": "data/dem_tile.asc", "format": "esri-ascii"})
    return terrain_for(
        dict(family=family, size=size, seed=23, observer=0.0, occlusion=1.2)
    )


CASES = [
    (family, size)
    for family in ("fractal", "valley", "shielded_basin")
    for size in (9, 17, 33)
] + [("dem", 0)]


def _spy_phases(monkeypatch):
    """Record every compiled call of a run: ``("pct",)`` per
    :func:`_ccore.pct_build`, ``("phase2", mode)`` per
    :func:`_ccore.phase2_run` and ``("layer", mode)`` per
    :func:`_ccore.merge_layer`."""
    calls = []
    pct_build, phase2_run, merge_layer = (
        _ccore.pct_build, _ccore.phase2_run, _ccore.merge_layer
    )
    monkeypatch.setattr(
        _ccore, "pct_build", lambda *a: calls.append(("pct",)) or pct_build(*a)
    )
    monkeypatch.setattr(
        _ccore,
        "phase2_run",
        lambda core, m, *a: calls.append(("phase2", m)) or phase2_run(core, m, *a),
    )
    monkeypatch.setattr(
        _ccore,
        "merge_layer",
        lambda core, m, *a: calls.append(("layer", m)) or merge_layer(core, m, *a),
    )
    return calls


def _assert_compiled_run_bit_exact(family, size, mode, kernel, monkeypatch):
    """One Phase-1 call and one ``kernel``-mode Phase-2 call, every leaf
    answered in C, and the run bit-exact with the python engine —
    the row block included."""
    terrain = _terrain(family, size)
    order = front_to_back_order(terrain)
    calls = _spy_phases(monkeypatch)
    ta, tb = PramTracker(), PramTracker()
    got = ParallelHSR(mode=mode, config=COMPILED).run(terrain, order=order, tracker=ta)
    ref = ParallelHSR(mode=mode, config=PYTHON).run(terrain, order=order, tracker=tb)
    assert calls == [("pct",), ("phase2", kernel)]
    rows = got.phase2.rows
    assert rows is not None
    assert list(zip(rows[4].view(np.int64).tolist(), *rows[:4].tolist())) == [
        tuple(seg) for seg in ref.visibility_map.segments
    ]
    assert _run_signature(got) == _run_signature(ref)
    assert got.phase2.crossings == ref.phase2.crossings
    assert got.phase2.pieces_materialised == ref.phase2.pieces_materialised
    assert got.pct.total_profile_pieces() == ref.pct.total_profile_pieces()
    assert (ta.work, ta.depth) == (tb.work, tb.depth)
    assert not got.reliability.degraded
    return got, ref


@needs_ccore
@pytest.mark.parametrize("family,size", CASES, ids=[f"{f}-{s}" for f, s in CASES])
def test_direct_bit_exact_against_python(family, size, monkeypatch):
    got, ref = _assert_compiled_run_bit_exact(
        family, size, "direct", _ccore.MODE_PHASE2, monkeypatch
    )
    assert got.phase2.pieces_materialised == ref.phase2.pieces_materialised > 0


@needs_ccore
@pytest.mark.parametrize("family,size", CASES, ids=[f"{f}-{s}" for f, s in CASES])
def test_persistent_bit_exact_against_python(family, size, monkeypatch):
    got, ref = _assert_compiled_run_bit_exact(
        family, size, "persistent", _ccore.MODE_ROPE, monkeypatch
    )
    assert got.phase2.nodes_allocated == ref.phase2.nodes_allocated > 0
    assert all(layer.inherited_pieces == 0 for layer in got.phase2.layers)


@needs_ccore
@pytest.mark.parametrize(
    "mode,kwargs",
    [("acg", {}), ("persistent", {"measure_sharing": True}),
     ("persistent", {"engine": "python"}),
     ("persistent", {"config": NUMPY})],
    ids=["acg", "measure-sharing", "python", "core-off"],
)
def test_python_rope_keeps_its_runs(mode, kwargs, monkeypatch):
    """ACG, the sharing meter, the python engine and a switched-off
    core keep the Python rope (the reference), with the same results."""
    calls = _spy_phases(monkeypatch)
    terrain = _terrain("valley", 9)
    order = front_to_back_order(terrain)
    got = ParallelHSR(mode=mode, **kwargs).run(terrain, order=order)
    assert not [call for call in calls if call[0] != "pct"]
    assert got.phase2.rows is None
    sharing = kwargs.get("measure_sharing", False)
    ref = ParallelHSR(mode=mode, measure_sharing=sharing, config=PYTHON).run(
        terrain, order=order
    )
    assert _run_signature(got) == _run_signature(ref)


@needs_ccore
@pytest.mark.parametrize("size", [9, 33])
def test_faulting_pct_reruns_on_the_reference(size):
    # A repeating plan faults the phase call of every build, and each
    # fault reruns Phase 1 on the reference; the third fault
    # quarantines the site, after which a build takes the reference
    # outright.  A clean compiled build and every faulted or
    # quarantined one match the reference per node, on ops and on
    # tracker work and depth (charged once), and a recovered build
    # holds no layer block, so Phase 2 takes its reference too.
    terrain = _terrain("fractal", size)
    tree = SeparatorTree(front_to_back_order(terrain))
    segs = terrain.image_segments()
    tr = PramTracker()
    ref = build_pct(tree, segs, engine="python", tracker=tr)

    def assert_reference(pct, tracker):
        assert pct.ops == ref.ops
        assert (tracker.work, tracker.depth) == (tr.work, tr.depth)
        for node in tree.nodes():
            assert pct.envelope_of(node).pieces == ref.envelope_of(node).pieces

    tc = PramTracker()
    clean = build_pct(tree, segs, config=COMPILED, tracker=tc)
    assert clean.block is not None
    assert all(layer is not None for layer in clean.layers)
    assert_reference(clean, tc)
    with guard.reliability_run() as rep:
        with fi.inject("pct_merge", "raise", nth=1, repeat=True) as plan:
            for _ in range(guard.FAULT_THRESHOLD + 1):
                tg = PramTracker()
                got = build_pct(tree, segs, config=COMPILED, tracker=tg)
                assert got.block is None
                assert got.layers == [None] * tree.height
                assert_reference(got, tg)
    assert rep.sites["pct_merge"].quarantined
    assert plan.fired == guard.FAULT_THRESHOLD


@needs_ccore
@pytest.mark.parametrize("mode", ["persistent", "acg"])
def test_rope_modes_read_the_csr_pct_bit_identically(mode):
    terrain = _terrain("fractal", 17)
    tree = SeparatorTree(front_to_back_order(terrain))
    segs = terrain.image_segments()
    outs = []
    for cfg in (COMPILED, PYTHON):
        pct = build_pct(tree, segs, engine=cfg.engine, config=cfg)
        ph2 = run_phase2(pct, segs, mode=mode, engine=cfg.engine, config=cfg)
        outs.append(
            (
                ph2.ops,
                ph2.crossings,
                ph2.nodes_allocated,
                ph2.layers,
                {e: tuple(v) for e, v in ph2.visibility.items()},
            )
        )
    assert outs[0] == outs[1]


# -- guard recovery -------------------------------------------------------------


class _FaultingLib:
    """``_ccore.lib`` with ``repro_merge_layer`` answering ``ST_FAULT``
    on its ``nth`` call in ``mode`` — a post-condition failure of one
    level of the D&C envelope build (``tests/test_reliability.py``)."""

    def __init__(self, lib, mode, nth):
        self._lib = lib
        self._mode = mode
        self._left = nth

    def __getattr__(self, name):
        return getattr(self._lib, name)

    def repro_merge_layer(self, ctx, mode, *args):
        if mode == self._mode:
            self._left -= 1
            if self._left == 0:
                return _ccore.ST_FAULT
        return self._lib.repro_merge_layer(ctx, mode, *args)


#: The C entry of each guarded phase call.
PHASE_ENTRIES = {"pct_merge": "repro_pct_build", "phase2_merge": "repro_phase2_run"}


class _FaultingPhase:
    """``_ccore.lib`` with the phase entry ``entry`` answering
    ``ST_FAULT`` — a post-condition failure.  ``when="before"`` answers
    without running the call; ``when="after"`` runs the real call
    first, so the context and the result rows hold the whole phase's
    state when the fault comes back, and the caller must discard all
    of it."""

    def __init__(self, lib, entry, when):
        self._lib = lib
        self._entry = entry
        self._when = when
        self.calls = 0

    def __getattr__(self, name):
        real = getattr(self._lib, name)
        if name != self._entry:
            return real

        def faulting(*args):
            self.calls += 1
            if self._when == "after":
                assert real(*args) == _ccore.ST_DONE
            return _ccore.ST_FAULT

        return faulting


def _assert_recovered(terrain, site, mode="direct"):
    order = front_to_back_order(terrain)
    tg, tr = PramTracker(), PramTracker()
    got = ParallelHSR(mode=mode, config=COMPILED).run(terrain, order=order, tracker=tg)
    with fi.suppressed():
        ref = ParallelHSR(mode=mode, config=PYTHON).run(terrain, order=order, tracker=tr)
    assert _run_signature(got) == _run_signature(ref)
    assert got.phase2.nodes_allocated == ref.phase2.nodes_allocated
    # A Phase-2 rerun from the root charges the tracker once.
    assert (tg.work, tg.depth) == (tr.work, tr.depth)
    assert got.reliability.sites[site].count == 1


@needs_ccore
@pytest.mark.parametrize("site", ["pct_merge", "phase2_merge"])
@pytest.mark.parametrize("when", ["before", "after"])
def test_kernel_fault_recovers_bit_exact(site, when, monkeypatch):
    lib = _FaultingPhase(_ccore.lib, PHASE_ENTRIES[site], when)
    monkeypatch.setattr(_ccore, "lib", lib)
    _assert_recovered(_terrain("fractal", 17), site)
    assert lib.calls == 1


@needs_ccore
@pytest.mark.parametrize("site", ["pct_merge", "phase2_merge"])
def test_raise_plan_recovers_bit_exact(site, monkeypatch):
    """``<site>:raise:2``: a run trips each phase's site once, so the
    first run's call is clean and the second run's raises."""
    calls = _spy_phases(monkeypatch)
    terrain = _terrain("valley", 17)
    with fi.inject(site, "raise", nth=2) as plan:
        first = ParallelHSR(mode="direct", config=COMPILED).run(terrain)
        assert not first.reliability.degraded
        _assert_recovered(terrain, site)
    assert plan.fired == 1
    # A plan armed at pct_merge keeps Phase 2 on its reference (see
    # compiled_enabled); the second Phase 1 raised before its call.
    if site == "pct_merge":
        assert calls == [("pct",)]
    else:
        assert calls == [("pct",), ("phase2", _ccore.MODE_PHASE2), ("pct",)]


@needs_ccore
@pytest.mark.parametrize("when", ["before", "after"])
def test_rope_kernel_fault_reruns_bit_exact(when, monkeypatch):
    """A faulting rope phase call reruns Phase 2 from the root on the
    Python rope, and charges the tracker once."""
    lib = _FaultingPhase(_ccore.lib, "repro_phase2_run", when)
    monkeypatch.setattr(_ccore, "lib", lib)
    _assert_recovered(_terrain("fractal", 17), "phase2_merge", "persistent")
    assert lib.calls == 1


@needs_ccore
def test_rope_raise_plan_recovers_bit_exact(monkeypatch):
    calls = _spy_phases(monkeypatch)
    terrain = _terrain("valley", 17)
    with fi.inject("phase2_merge", "raise", nth=2) as plan:
        first = ParallelHSR(mode="persistent", config=COMPILED).run(terrain)
        assert not first.reliability.degraded
        _assert_recovered(terrain, "phase2_merge", "persistent")
    assert plan.fired == 1
    assert calls.count(("phase2", _ccore.MODE_ROPE)) == 1  # the second run's faulted


@needs_ccore
def test_kernel_fault_strict_mode_raises(monkeypatch):
    from repro.errors import KernelFault

    monkeypatch.setattr(guard, "GUARDED_DISPATCH", False)
    monkeypatch.setattr(
        _ccore, "lib", _FaultingPhase(_ccore.lib, "repro_phase2_run", "after")
    )
    with pytest.raises(KernelFault) as exc:
        ParallelHSR(mode="direct", config=COMPILED).run(_terrain("fractal", 9))
    assert exc.value.site == "phase2_merge"


def _side_by_side(n, nan_at):
    """``n`` touching unit segments, the one at ``nan_at`` with a NaN
    height."""
    return [
        ImageSegment(float(i), math.nan if i == nan_at else 1.0, i + 1.0, 2.0, i)
        for i in range(n)
    ]


@needs_ccore
def test_pct_build_checks_its_merges():
    """Phase 1's own post-condition: a NaN height reaches the merge of
    its leaf, which faults after the leaves and merges before it were
    written to the context; the guard reruns the phase on the
    reference."""
    segs = _side_by_side(16, 11)
    tree = SeparatorTree(list(range(16)))
    core = _ccore.Core()
    with pytest.raises(_ccore.CCoreFault):
        _ccore.pct_build(core, segment_lanes(segs), 1e-9)
    assert core.take(_ccore.L_PROF).shape[1] > 1
    with guard.reliability_run() as rep:
        got = build_pct(tree, segs, config=COMPILED)
    assert rep.sites["pct_merge"].count == 1
    assert got.block is None
    ref = build_pct(tree, segs, engine="python")
    assert got.ops == ref.ops
    for node in tree.nodes():
        assert repr(got.envelope_of(node)) == repr(ref.envelope_of(node))


@needs_ccore
@pytest.mark.parametrize("mode", [_ccore.MODE_PHASE2, _ccore.MODE_ROPE])
def test_phase2_run_checks_its_merges(mode):
    """Phase 2's own post-condition: a NaN height in the root's left
    child's PCT profile faults the root's merge, which runs after the
    whole left subtree wrote its leaves to the context.  A second call
    on the same handle starts from a clean context: its results equal
    a fresh handle's."""
    terrain = _terrain("fractal", 9)
    tree = SeparatorTree(front_to_back_order(terrain))
    pct = build_pct(tree, terrain.image_segments(), config=COMPILED)
    blk, off, ln = pct.block
    bad = blk.copy()
    assert ln[1] > 0
    bad[1, off[1]] = math.nan
    core = _ccore.Core()
    with pytest.raises(_ccore.CCoreFault):
        _ccore.phase2_run(core, mode, (bad, off, ln), pct.lanes, 1e-9)
    assert core.take(_ccore.L_PARTS).shape[1] > 0

    def outputs(core):
        res, leaf = _ccore.phase2_run(core, mode, pct.block, pct.lanes, 1e-9)
        taken = [core.take(w) for w in (_ccore.L_PARTS, _ccore.L_VX, _ccore.L_ROWS)]
        return [a.tobytes() for a in (res, leaf, *taken)]

    assert outputs(core) == outputs(_ccore.Core())


@needs_ccore
@pytest.mark.parametrize("mode", ["direct", "persistent"])
def test_one_compiled_call_per_phase(mode, monkeypatch):
    calls = _spy_phases(monkeypatch)
    terrain = _terrain("fractal", 17)
    for _ in range(2):
        ParallelHSR(mode=mode, config=COMPILED).run(terrain)
    kernel = _ccore.MODE_PHASE2 if mode == "direct" else _ccore.MODE_ROPE
    assert calls == [("pct",), ("phase2", kernel)] * 2


@pytest.mark.parametrize("mode", ["direct", "persistent"])
def test_core_off_takes_the_reference(mode, monkeypatch):
    """Without the core (or with it switched off) both phases run the
    Python reference from image segments, with the same results."""
    calls = []
    for name in ("pct_build", "phase2_run", "merge_layer"):
        monkeypatch.setattr(_ccore, name, lambda *a, name=name: calls.append(name))
    lanes = []
    real_lanes = Terrain.image_lanes
    monkeypatch.setattr(
        Terrain, "image_lanes", lambda self, *a: lanes.append(a) or real_lanes(self, *a)
    )
    terrain = _terrain("fractal", 9)
    order = front_to_back_order(terrain)
    got = ParallelHSR(mode=mode, config=NUMPY).run(terrain, order=order)
    ref = ParallelHSR(mode=mode, config=PYTHON).run(terrain, order=order)
    assert not calls and not lanes
    assert got.phase2.rows is None
    assert got.pct.block is None
    assert all(layer is None for layer in got.pct.layers)
    assert _run_signature(got) == _run_signature(ref)
