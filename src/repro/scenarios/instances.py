"""Materialise scenario instances and run their consumers.

This module is the *only* code behind the spec: one materialiser per
workload kind (``terrain`` / ``segments`` / ``dem-file`` /
``flyover``), one signature runner per kind for the parity role, and
one timed-callable builder per bench ``op``.  Adding a scenario never
adds code here — only a new family or op does (see
``docs/SCENARIOS.md``).

Everything numpy-adjacent (terrain generators, the flat kernels)
imports lazily inside the materialisers, so the spec machinery — and
the ``repro scenarios`` CLI — works on the pure-python leg; actually
*running* a numpy-engine config still requires numpy, exactly like
every other front door.

The segment families here are the single source of truth for the
bench workloads too: :mod:`repro.bench.envelope_bench` imports
:func:`e9_segments` / :func:`wide_strip_segments` from this module
(seeds 17 / 29, unchanged from the recorded rows).
"""

from __future__ import annotations

import random
from typing import Any, Callable, Optional

from repro.config import HsrConfig
from repro.errors import ScenarioError
from repro.geometry.segments import ImageSegment
from repro.scenarios.spec import Scenario, ScenarioInstance, ScenarioSpec

__all__ = [
    "e9_segments",
    "wide_strip_segments",
    "coincident_segments",
    "vertical_segments",
    "segments_for",
    "terrain_for",
    "observers_for",
    "dem_terrain_for",
    "flyover_terrains",
    "config_of",
    "parity_signature",
    "check_parity",
    "bench_callables",
    "iter_bench_rows",
]


# ---------------------------------------------------------------------------
# Segment families (pure python; shared with repro.bench.envelope_bench)


def e9_segments(m: int, seed: int = 17) -> list[ImageSegment]:
    """The E9 workload family: random segments over a wide strip whose
    live profile stays small (scan-bound inserts)."""
    rng = random.Random(seed)
    out = []
    for i in range(m):
        y1 = rng.uniform(0, 1000)
        out.append(
            ImageSegment(
                y1,
                rng.uniform(0, 100),
                y1 + rng.uniform(1, 60),
                rng.uniform(0, 100),
                i,
            )
        )
    return out


def wide_strip_segments(m: int, seed: int = 29) -> list[ImageSegment]:
    """Churny wide-strip family: the strip scales with ``m`` so the
    live profile holds Θ(m) pieces — the regime where a tuple splice
    pays Θ(profile) copying per edge."""
    rng = random.Random(seed)
    span = 8.0 * m
    out = []
    for i in range(m):
        y1 = rng.uniform(0, span)
        out.append(
            ImageSegment(
                y1,
                rng.uniform(0, 100),
                y1 + rng.uniform(1, 60),
                rng.uniform(0, 100),
                i,
            )
        )
    return out


def coincident_segments(m: int, seed: int = 3) -> list[ImageSegment]:
    """Coincident ridges: every segment inserted twice (same lanes,
    same source) — the hardest eps-tie workload for the scans."""
    rng = random.Random(seed)
    base = []
    for i in range(m):
        y1 = rng.uniform(0.0, 100.0 - 0.5)
        y2 = rng.uniform(y1 + 0.5, 100.0)
        base.append(
            ImageSegment(
                y1, rng.uniform(0.0, 50.0), y2, rng.uniform(0.0, 50.0), i
            )
        )
    return [s for s in base for _ in (0, 1)]


def vertical_segments(m: int, seed: int = 3) -> list[ImageSegment]:
    """Measure-zero verticals only: the profile must never change."""
    rng = random.Random(seed)
    out = []
    for i in range(m):
        y = rng.uniform(0.0, 100.0)
        z1 = rng.uniform(0.0, 50.0)
        out.append(ImageSegment(y, z1, y, z1 + rng.uniform(0.5, 10.0), i))
    return out


_SEGMENT_FAMILIES: dict[str, Callable[[int, int], list[ImageSegment]]] = {
    "e9": e9_segments,
    "wide-strip": wide_strip_segments,
    "coincident": coincident_segments,
    "vertical": vertical_segments,
}


def segments_for(params: dict[str, Any]) -> list[ImageSegment]:
    family = params.get("family")
    try:
        gen = _SEGMENT_FAMILIES[family]
    except KeyError:
        raise ScenarioError(
            f"unknown segment family {family!r};"
            f" known: {sorted(_SEGMENT_FAMILIES)}"
        ) from None
    return gen(int(params["m"]), int(params.get("seed", 0)))


# ---------------------------------------------------------------------------
# Terrain families (numpy imported lazily)


def terrain_for(params: dict[str, Any]):
    """Materialise a terrain workload instance.

    ``family`` selects the generator; ``size`` maps to the fractal
    ``size`` or ``rows = cols`` for the grid families; ``observer``
    (degrees) rotates the terrain — the observer-placement axis.  The
    ``*_plateau`` families are the degenerate adversarial grids
    promoted from one-off tests: ``constant_plateau`` is an all-ties
    heightfield, ``lattice_plateau`` additionally drops the xy jitter
    (exact collinear/coincident-y lattice).
    """
    import numpy as np

    from repro.terrain.generators import (
        GENERATORS,
        fractal_terrain,
        grid_terrain_from_heights,
    )

    family = params.get("family")
    size = int(params.get("size", 9))
    seed = int(params.get("seed", 0))
    if family == "fractal":
        terrain = fractal_terrain(size=size, seed=seed)
    elif family == "constant_plateau":
        terrain = grid_terrain_from_heights(
            np.full((size, size), 5.0), jitter_seed=seed
        )
    elif family == "lattice_plateau":
        terrain = grid_terrain_from_heights(
            np.full((size, size), 5.0), jitter_seed=None
        )
    elif family in ("valley", "ridge", "plateau"):
        terrain = GENERATORS[family](rows=size, cols=size, seed=seed)
    elif family == "shielded_basin":
        terrain = GENERATORS[family](
            rows=size,
            cols=size,
            seed=seed,
            occlusion=float(params.get("occlusion", 1.0)),
        )
    else:
        raise ScenarioError(
            f"unknown terrain family {family!r}; known: fractal,"
            " valley, ridge, plateau, shielded_basin,"
            " constant_plateau, lattice_plateau"
        )
    observer = float(params.get("observer", 0.0))
    return terrain.rotated(observer) if observer else terrain


def observers_for(terrain, params: dict[str, Any]) -> list[tuple]:
    """``points`` seeded observers ``(x, y, z)`` drawn uniformly over
    the terrain's xy bounds and height range (the ``points`` op)."""
    rng = random.Random(int(params.get("seed", 0)))
    x0, y0, x1, y1 = terrain.xy_bounds()
    z0, z1 = terrain.height_range()
    return [
        (rng.uniform(x0, x1), rng.uniform(y0, y1), rng.uniform(z0, z1))
        for _ in range(int(params.get("points", 32)))
    ]


def dem_terrain_for(params: dict[str, Any]):
    """Load the DEM-tile workload through the real ingestion path."""
    from importlib import resources

    path = params.get("path")
    if not path:
        raise ScenarioError("dem-file scenarios need a fixed 'path'")
    fmt = params.get("format", "esri-ascii")
    ref = resources.files("repro.scenarios") / str(path)
    try:
        text = ref.read_text()
    except (OSError, FileNotFoundError) as exc:
        raise ScenarioError(f"dem tile {path!r}: {exc}") from exc
    if fmt == "esri-ascii":
        import io

        from repro.terrain.dem import dem_to_terrain

        terrain = dem_to_terrain(io.StringIO(text))
    elif fmt == "json":
        import tempfile

        from repro.terrain.io import load_terrain_json

        with tempfile.NamedTemporaryFile(
            "w", suffix=".json", delete=False
        ) as tmp:
            tmp.write(text)
        try:
            terrain = load_terrain_json(tmp.name)
        finally:
            import os

            os.unlink(tmp.name)
    else:
        raise ScenarioError(
            f"unknown dem format {fmt!r}; known: esri-ascii, json"
        )
    observer = float(params.get("observer", 0.0))
    return terrain.rotated(observer) if observer else terrain


def flyover_terrains(params: dict[str, Any]) -> list:
    """The moving-observer flyover: one base terrain observed from
    ``frames`` evenly spaced azimuths across ``sweep`` degrees.  Each
    frame re-runs the incremental insert loop from its own viewpoint."""
    frames = int(params.get("frames", 3))
    if frames < 1:
        raise ScenarioError("flyover needs frames >= 1")
    sweep = float(params.get("sweep", 90.0))
    base = terrain_for(params)
    out = []
    for i in range(frames):
        az = i * sweep / frames
        out.append(base.rotated(az) if az else base)
    return out


# ---------------------------------------------------------------------------
# Config variants and parity signatures


def config_of(cfg: dict[str, Any]) -> HsrConfig:
    """An :class:`HsrConfig` from a spec config table (drops ``id``)."""
    fields = {k: v for k, v in cfg.items() if k != "id"}
    return HsrConfig(**fields)


def _run_signature(terrain, config: HsrConfig, mode: Optional[str] = None):
    """The signature of one HSR run: ``SequentialHSR`` when ``mode`` is
    ``None`` or ``"sequential"``, else ``ParallelHSR`` with that
    Phase-2 ``mode``."""
    if mode in (None, "sequential"):
        from repro.hsr.sequential import SequentialHSR

        res = SequentialHSR(config=config).run(terrain)
    else:
        from repro.hsr.parallel import ParallelHSR

        res = ParallelHSR(mode=mode, config=config).run(terrain)
    return (
        res.stats.k,
        res.stats.ops,
        res.stats.extra,
        tuple(res.order),
        res.visibility_map.segments,
    )


def _insert_loop(segments, config: HsrConfig):
    """The generic front-to-back insert loop under ``config`` —
    mirrors ``SequentialHSR._insert_loop`` for bare segment lists.
    Returns ``(profile, ops, record)``, ``record`` holding each
    insert's visible parts."""
    if config.resolved_engine() == "numpy":
        from repro.envelope.flat_splice import insert_run, segment_lanes
        from repro.envelope.visibility import VisiblePart

        run = insert_run(segment_lanes(segments), eps=config.eps, config=config)
        off = run.offsets.tolist()
        ya, yb = run.rows[[0, 2]].tolist()
        record = [
            tuple(VisiblePart(ya[j], yb[j]) for j in range(off[i], off[i + 1]))
            for i in range(len(segments))
        ]
        return run.profile.to_envelope(), run.ops, record
    from repro.envelope.chain import Envelope
    from repro.envelope.splice import insert_segment

    env = Envelope.empty()
    ops = 0
    record = []
    for seg in segments:
        res = insert_segment(env, seg, eps=config.eps)
        env = res.envelope
        ops += res.ops
        record.append(tuple(res.visibility.parts))
    return env, ops, record


def _segments_signature(segments, config: HsrConfig):
    env, ops, record = _insert_loop(segments, config)
    return (ops, tuple(record), tuple(env.pieces))


def parity_signature(inst: ScenarioInstance, cfg: dict[str, Any]):
    """Run ``inst`` under one config variant; the returned value is
    equality-comparable across variants (bit-exact parity contract).
    A terrain, DEM or flyover instance with a ``mode`` param runs
    ``ParallelHSR`` in that Phase-2 mode (``SequentialHSR`` for
    ``"sequential"``), else ``SequentialHSR``."""
    params = inst.params()
    config = config_of(cfg)
    mode = params.get("mode")
    kind = inst.scenario.workload
    if kind == "terrain":
        return _run_signature(terrain_for(params), config, mode)
    if kind == "segments":
        return _segments_signature(segments_for(params), config)
    if kind == "dem-file":
        return _run_signature(dem_terrain_for(params), config, mode)
    if kind == "flyover":
        return tuple(
            _run_signature(frame, config, mode)
            for frame in flyover_terrains(params)
        )
    raise ScenarioError(f"unknown workload kind {kind!r}")


def check_parity(inst: ScenarioInstance) -> None:
    """Assert every config variant of ``inst`` produces the identical
    signature as the scenario's first (reference) config."""
    configs = inst.scenario.configs
    if len(configs) < 2:
        raise ScenarioError(
            f"scenario {inst.name!r} has fewer than 2 configs"
        )
    reference = parity_signature(inst, configs[0])
    for cfg in configs[1:]:
        got = parity_signature(inst, cfg)
        assert got == reference, (
            f"{inst.instance_id}: config {cfg['id']!r} diverges from"
            f" reference {configs[0]['id']!r}"
        )


# ---------------------------------------------------------------------------
# Bench rows


def bench_callables(
    scenario: Scenario, inst: ScenarioInstance, *, canary: bool = False
) -> tuple[dict[str, Callable[[], Any]], int, int]:
    """``(callables, m, env_size)`` for one bench instance.

    ``callables`` maps the scenario's two config ids (baseline first)
    to zero-argument timed bodies for
    ``envelope_bench._time_interleaved``.  ``canary=True`` replaces
    the variant config with the *baseline* config — the deliberate
    slowdown the perf gate's CI canary leg must catch.
    """
    params = inst.params()
    base_cfg, var_cfg = scenario.configs
    configs = {
        base_cfg["id"]: config_of(base_cfg),
        var_cfg["id"]: config_of(base_cfg if canary else var_cfg),
    }
    op = scenario.op
    if op == "build":
        from repro.envelope.build import build_envelope

        segs = segments_for(params)
        m = len(segs)
        env_size = build_envelope(
            segs, config=configs[var_cfg["id"]]
        ).envelope.size
        fns = {
            label: (lambda c=c: build_envelope(segs, config=c))
            for label, c in configs.items()
        }
    elif op == "insert":
        segs = segments_for(params)
        m = len(segs)
        env_size = _insert_loop(segs, configs[var_cfg["id"]])[0].size
        fns = {
            label: (lambda c=c: _insert_loop(segs, c))
            for label, c in configs.items()
        }
    elif op == "run":
        from repro.hsr.sequential import SequentialHSR

        kind = scenario.workload
        terrain = (
            dem_terrain_for(params)
            if kind == "dem-file"
            else terrain_for(params)
        )
        m = terrain.n_edges
        env_size = SequentialHSR(config=configs[var_cfg["id"]]).run(
            terrain
        ).stats.k
        fns = {
            label: (
                lambda c=c: SequentialHSR(config=c).run(terrain)
            )
            for label, c in configs.items()
        }
    elif op == "parallel":
        from repro.hsr.parallel import ParallelHSR

        terrain = terrain_for(params)
        mode = params.get("mode", "direct")
        m = terrain.n_edges
        env_size = ParallelHSR(mode=mode, config=configs[var_cfg["id"]]).run(
            terrain
        ).stats.k
        fns = {
            label: (
                lambda c=c: ParallelHSR(mode=mode, config=c).run(terrain)
            )
            for label, c in configs.items()
        }
    elif op == "flyover":
        from repro.hsr.sequential import SequentialHSR

        frames = flyover_terrains(params)
        m = frames[0].n_edges
        env_size = sum(
            SequentialHSR(config=configs[var_cfg["id"]]).run(f).stats.k
            for f in frames
        )

        def loop(c):
            for f in frames:
                SequentialHSR(config=c).run(f)

        fns = {
            label: (lambda c=c: loop(c)) for label, c in configs.items()
        }
    elif op == "points":
        from repro.hsr.queries import visible_many

        terrain = terrain_for(params)
        observers = observers_for(terrain, params)
        m = terrain.n_edges
        env_size = sum(
            visible_many(terrain, observers, config=configs[var_cfg["id"]])
        )
        fns = {
            label: (lambda c=c: visible_many(terrain, observers, config=c))
            for label, c in configs.items()
        }
    else:  # pragma: no cover - spec validation rejects unknown ops
        raise ScenarioError(f"unknown bench op {op!r}")
    return fns, m, env_size


def iter_bench_rows(
    spec: ScenarioSpec,
    *,
    repeats: int,
    time_fn: Callable[[dict, int], dict[str, float]],
    max_m: Optional[int] = None,
):
    """Yield ``BENCH_envelope.json``-shaped rows for every bench
    scenario instance, timed through ``time_fn`` (pass
    ``envelope_bench._time_interleaved`` so the PR-8 GC hygiene
    applies).  ``max_m`` skips instances whose declared size factor
    exceeds it (quick mode).  Scenarios flagged ``requires_ccore``
    are skipped on installs without the compiled core — recording the
    row there would time a silent cascade fallback, and the perf gate
    skips the same rows symmetrically."""
    from repro.envelope import _ccore

    for scenario in spec.by_role("bench"):
        if scenario.requires_ccore and not _ccore.HAVE_CCORE:
            continue
        base_id, var_id = scenario.config_ids()
        for inst in scenario.instances():
            declared = inst.factor("m", inst.factor("size"))
            if (
                max_m is not None
                and isinstance(declared, (int, float))
                and declared > max_m
            ):
                continue
            fns, m, env_size = bench_callables(scenario, inst)
            best = time_fn(fns, repeats)
            yield dict(
                workload=f"scenario:{scenario.name}",
                m=m,
                env_size=env_size,
                python_ms=best[base_id] * 1e3,
                numpy_ms=best[var_id] * 1e3,
                speedup=best[base_id] / best[var_id],
            )
