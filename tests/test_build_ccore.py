"""The compiled Lemma 3.1 envelope build against the reference recursion.

With the optional core built, ``build_envelope`` on the numpy engine
runs one ``repro_merge_layer(MODE_PCT)`` call per recursion level,
bottom-up, with crossings recorded.  Contract under test: the same
envelope pieces (sources included), the same crossing list in the
reference's post-order, the same ``ops`` and the same tracker work and
depth as ``engine="python"`` — whether the build is given segments or
their ``(y1, z1, y2, z2, source)`` lanes.
"""

from __future__ import annotations

import random

import numpy as np
import pytest

from repro.config import HsrConfig
from repro.envelope import _ccore
from repro.envelope.build import build_envelope
from repro.envelope.flat_splice import segment_lanes
from repro.geometry.segments import ImageSegment
from repro.hsr.pct import level_spans
from repro.pram.tracker import PramTracker
from repro.scenarios.instances import segments_for, terrain_for
from repro.terrain.generators import fractal_terrain

needs_ccore = pytest.mark.skipif(
    not _ccore.HAVE_CCORE,
    reason="optional compiled core not built in this environment",
)

COMPILED = HsrConfig(engine="numpy", use_compiled_insert=True)


def _eps_ties(m=200, seed=11):
    """Endpoints and heights on a coarse grid nudged by 0, sub-eps and
    just-past-eps offsets: shared breakpoints, coincident pieces and
    near-tangent crossings."""
    rng = random.Random(seed)
    nudge = (0.0, 0.0, 5e-10, -5e-10, 2e-9, -2e-9)
    out = []
    for i in range(m):
        y1 = rng.randrange(40) * 0.5 + rng.choice(nudge)
        y2 = y1 + rng.randrange(1, 8) * 0.5 + rng.choice(nudge)
        z1 = rng.randrange(10) * 0.5 + rng.choice(nudge)
        z2 = rng.choice((z1, z1 + rng.choice(nudge), rng.randrange(10) * 0.5))
        out.append(ImageSegment(y1, z1, y2, z2, i))
    return out


def _mixed():
    """Verticals interleaved with ordinary segments: dropping them
    before the split keeps the reference's recursion shape."""
    segs = segments_for({"family": "e9", "m": 300, "seed": 5})
    vert = segments_for({"family": "vertical", "m": 100, "seed": 5})
    out = []
    for k, seg in enumerate(segs):
        out.append(seg)
        if k % 3 == 0:
            out.append(vert[k // 3]._replace(source=1000 + k))
    return out


def _terrain(family, size, azimuth=0.0):
    def make():
        if family == "fractal":
            terrain = fractal_terrain(size=size, seed=3)
            return terrain.rotated(azimuth) if azimuth else terrain
        return terrain_for({"family": family, "size": size, "seed": 2})

    return make


#: name -> a segment list, or a terrain (its image segments and lanes).
CASES = {
    "e9-1024": lambda: segments_for({"family": "e9", "m": 1024, "seed": 17}),
    "e9-4096": lambda: segments_for({"family": "e9", "m": 4096, "seed": 17}),
    "wide-strip": lambda: segments_for({"family": "wide-strip", "m": 2048, "seed": 29}),
    "fractal-0": _terrain("fractal", 33),
    "fractal-37": _terrain("fractal", 33, 37.0),
    "fractal-90": _terrain("fractal", 33, 90.0),
    "plateau": _terrain("plateau", 8),
    "constant_plateau": _terrain("constant_plateau", 8),
    "lattice_plateau": _terrain("lattice_plateau", 8),
    "coincident": lambda: segments_for({"family": "coincident", "m": 40, "seed": 3}),
    "eps-ties": _eps_ties,
    "mixed": _mixed,
    "all-vertical": lambda: segments_for({"family": "vertical", "m": 40, "seed": 3}),
    "empty": lambda: [],
    "single": lambda: [ImageSegment(0.0, 1.0, 2.0, 3.0, 7)],
}


def _sig(res):
    return res.envelope.pieces, res.crossings, res.ops


def _inputs(case):
    """``(segments, lanes)`` of a case; a terrain's lanes are its own
    :meth:`image_lanes`, as a viewshed session passes them."""
    made = CASES[case]()
    if isinstance(made, list):
        return made, tuple(map(np.asarray, segment_lanes(made)))
    return made.image_segments(), made.image_lanes()


@needs_ccore
@pytest.mark.parametrize("given", ["segments", "lanes"])
@pytest.mark.parametrize("case", list(CASES))
def test_compiled_build_matches_the_reference(case, given, monkeypatch):
    segs, lanes = _inputs(case)
    calls = []
    real = _ccore.merge_layer
    monkeypatch.setattr(
        _ccore, "merge_layer", lambda *a: calls.append(a[1]) or real(*a)
    )
    tg, tr = PramTracker(), PramTracker()
    if given == "segments":
        got = build_envelope(segs, config=COMPILED, tracker=tg)
    else:
        got = build_envelope(None, lanes=lanes, config=COMPILED, tracker=tg)
    ref = build_envelope(segs, engine="python", tracker=tr)
    assert got.envelope.pieces == ref.envelope.pieces
    assert got.crossings == ref.crossings
    assert got.ops == ref.ops
    assert (tg.work, tg.depth) == (tr.work, tr.depth)
    m = sum(not s.is_vertical for s in segs)
    # One compiled call per recursion level: the core answered.
    assert calls == [_ccore.MODE_PCT] * (len(level_spans(m)) if m else 0)


def test_python_engine_reads_lanes():
    """The reference rebuilds the segments of given lanes."""
    segs, lanes = _inputs("fractal-37")
    got = build_envelope(None, lanes=lanes, engine="python")
    assert _sig(got) == _sig(build_envelope(segs, engine="python"))


@pytest.mark.parametrize(
    "config",
    [HsrConfig(engine="python"), HsrConfig(engine="numpy", use_compiled_insert=False)],
    ids=["python", "core-off"],
)
def test_reference_runs_without_the_core(config, monkeypatch):
    """The python engine, or the core switched off, never calls it."""
    calls = []
    monkeypatch.setattr(_ccore, "merge_layer", lambda *a: calls.append(a))
    segs, lanes = _inputs("e9-1024")
    got = build_envelope(None, lanes=lanes, config=config)
    assert not calls
    assert _sig(got) == _sig(build_envelope(segs, engine="python"))
