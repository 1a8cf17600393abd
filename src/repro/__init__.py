"""repro — output-size sensitive parallel hidden-surface removal for terrains.

A production-quality reproduction of:

    Neelima Gupta and Sandeep Sen,
    "An Improved Output-size Sensitive Parallel Algorithm for
    Hidden-Surface Removal for Terrains", IPPS 1998.

Top-level convenience API (full API in the subpackages)::

    from repro import HsrConfig, ParallelHSR, generate_terrain

    terrain = generate_terrain("fractal", n_points=500, seed=7)
    config = HsrConfig(engine="numpy")   # compiled core when built
    result = ParallelHSR(config=config).run(terrain)
    print(result.visibility_map.summary())

and the query service façade::

    from repro import ViewshedSession

    session = ViewshedSession(terrain, config=config)
    parts = session.query_batch([(0.0, 5.0, 32.0, 5.0), ...])
    flags = session.points_visible([(10.0, 4.0, 9.0), ...])

Everything configurable goes through one frozen
:class:`~repro.config.HsrConfig` threaded through every front door
(algorithms, queries, sessions, the ``repro serve`` CLI); see
``docs/API.md`` for the full façade and the migration table.

Subpackages
-----------
``repro.geometry``       geometry kernel (points, segments, hulls, predicates)
``repro.envelope``       upper-profile algebra
``repro.persistence``    persistent chunked-rope profile store
``repro.pram``           simulated CREW PRAM (work/depth, scheduling)
``repro.terrain``        TIN model, generators, triangulation, DEM, I/O
``repro.ordering``       front-to-back ordering & separator tree
``repro.hsr``            the paper's algorithm + baselines
``repro.service``        batched viewshed query service (sessions + server)
``repro.render``         SVG / ASCII rendering of visibility maps
``repro.bench``          experiment harness reproducing every paper claim
"""

from repro._version import __version__

__all__ = [
    "__version__",
    # configuration (the one knob object)
    "HsrConfig",
    "DEFAULT_CONFIG",
    # terrain
    "Terrain",
    "generate_terrain",
    # algorithms
    "ParallelHSR",
    "SequentialHSR",
    "NaiveHSR",
    "VisibilityMap",
    # queries
    "point_visible",
    "visible_many",
    "VisibilityOracle",
    "batch_visible_parts",
    # service
    "ViewshedSession",
    "ViewshedServer",
    # infrastructure
    "PramTracker",
    "Envelope",
    "ReliabilityReport",
    "reliability_run",
    "validate_terrain",
    "validate_segments",
]

# Re-exports resolved lazily to keep `import repro` cheap; the heavy
# modules (terrain generators, hsr pipeline) load on first access.
_LAZY = {
    "HsrConfig": ("repro.config", "HsrConfig"),
    "DEFAULT_CONFIG": ("repro.config", "DEFAULT_CONFIG"),
    "Terrain": ("repro.terrain", "Terrain"),
    "generate_terrain": ("repro.terrain", "generate_terrain"),
    "ParallelHSR": ("repro.hsr", "ParallelHSR"),
    "SequentialHSR": ("repro.hsr", "SequentialHSR"),
    "NaiveHSR": ("repro.hsr", "NaiveHSR"),
    "VisibilityMap": ("repro.hsr", "VisibilityMap"),
    "point_visible": ("repro.hsr.queries", "point_visible"),
    "visible_many": ("repro.hsr.queries", "visible_many"),
    "VisibilityOracle": ("repro.hsr.queries", "VisibilityOracle"),
    "batch_visible_parts": (
        "repro.envelope.flat_visibility",
        "batch_visible_parts",
    ),
    "ViewshedSession": ("repro.service", "ViewshedSession"),
    "ViewshedServer": ("repro.service", "ViewshedServer"),
    "PramTracker": ("repro.pram", "PramTracker"),
    "Envelope": ("repro.envelope", "Envelope"),
    "ReliabilityReport": ("repro.reliability", "ReliabilityReport"),
    "reliability_run": ("repro.reliability", "reliability_run"),
    "validate_terrain": ("repro.reliability", "validate_terrain"),
    "validate_segments": ("repro.reliability", "validate_segments"),
}


def __getattr__(name: str):
    try:
        module_name, attr = _LAZY[name]
    except KeyError:
        raise AttributeError(
            f"module 'repro' has no attribute {name!r}"
        ) from None
    import importlib

    module = importlib.import_module(module_name)
    value = getattr(module, attr)
    globals()[name] = value
    return value


def __dir__():
    return sorted(set(globals()) | set(_LAZY))
