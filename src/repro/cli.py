"""Command-line interface: ``python -m repro <command>``.

Commands
--------
``generate``   synthesize a terrain and save it (JSON/OBJ)
``run``        hidden-surface removal on a terrain file or generator
``render``     SVG / ASCII rendering of a scene's visible image
``bench``      alias for ``python -m repro.bench``
``serve``      batched viewshed query service (JSON lines over TCP)
``scenarios``  inspect the declarative workload matrix (repro.scenarios)
``perf-gate``  CI perf-regression gate over the pinned bench rows
``info``       library version and experiment inventory
"""

from __future__ import annotations

import argparse
import json
import sys
from pathlib import Path
from typing import Optional, Sequence

from repro._version import __version__

__all__ = ["main", "build_parser"]


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(
        prog="repro",
        description=(
            "Output-size sensitive parallel hidden-surface removal for"
            " terrains (Gupta & Sen, IPPS 1998 reproduction)."
        ),
    )
    parser.add_argument(
        "--version", action="version", version=f"repro {__version__}"
    )
    sub = parser.add_subparsers(dest="command", required=True)

    gen = sub.add_parser("generate", help="synthesize a terrain file")
    gen.add_argument("kind", help="generator family (see repro.terrain)")
    gen.add_argument("output", type=Path, help=".json or .obj path")
    gen.add_argument("--seed", type=int, default=0)
    gen.add_argument("--size", type=int, default=None, help="fractal size")
    gen.add_argument("--rows", type=int, default=None)
    gen.add_argument("--cols", type=int, default=None)
    gen.add_argument("--n-points", type=int, default=None)
    gen.add_argument("--occlusion", type=float, default=None)

    run = sub.add_parser("run", help="hidden-surface removal")
    run.add_argument(
        "terrain", help="terrain file (.json/.obj) or generator kind"
    )
    run.add_argument("--seed", type=int, default=0)
    run.add_argument(
        "--algorithm",
        choices=["parallel", "sequential", "naive", "zbuffer"],
        default="parallel",
    )
    run.add_argument(
        "--mode",
        choices=["direct", "persistent", "acg"],
        default="persistent",
        help="phase-2 engine (parallel algorithm only)",
    )
    run.add_argument(
        "--engine",
        choices=["auto", "python", "numpy"],
        default="auto",
        help=(
            "envelope merge kernel: 'numpy' for batched array sweeps,"
            " 'python' for the pure reference sweep, 'auto' (default)"
            " picks numpy when available; results are identical"
        ),
    )
    run.add_argument("--azimuth", type=float, default=0.0)
    run.add_argument("--json", action="store_true", help="machine output")
    run.add_argument("--svg", type=Path, default=None)

    rend = sub.add_parser("render", help="render a terrain's visible image")
    rend.add_argument("terrain", help="terrain file or generator kind")
    rend.add_argument("--seed", type=int, default=0)
    rend.add_argument("--azimuth", type=float, default=0.0)
    rend.add_argument("--svg", type=Path, default=None)
    rend.add_argument("--width", type=int, default=78)
    rend.add_argument("--height", type=int, default=22)

    bench = sub.add_parser("bench", help="run the experiment suite")
    bench.add_argument("experiments", nargs="*", default=[])
    bench.add_argument("--full", action="store_true")
    bench.add_argument(
        "--output",
        type=Path,
        default=None,
        help=(
            "JSON output path for the 'envelope' comparison (default:"
            " BENCH_envelope.json in the current directory)"
        ),
    )

    srv = sub.add_parser(
        "serve", help="batched viewshed query service (repro.service)"
    )
    srv.add_argument(
        "terrain", help="terrain file (.json/.obj) or generator kind"
    )
    srv.add_argument("--seed", type=int, default=0)
    srv.add_argument("--host", default="127.0.0.1")
    srv.add_argument("--port", type=int, default=8642)
    srv.add_argument(
        "--engine", choices=["auto", "python", "numpy"], default="auto"
    )
    srv.add_argument("--max-batch", type=int, default=256)
    srv.add_argument(
        "--coalesce-ms",
        type=float,
        default=1.0,
        help="gathering window for query coalescing (0 = drain-only)",
    )

    scn = sub.add_parser(
        "scenarios",
        help="inspect the declarative scenario matrix (repro.scenarios)",
    )
    scn_sub = scn.add_subparsers(dest="scenarios_command", required=True)
    scn_list = scn_sub.add_parser(
        "list", help="one line per scenario: instances, configs, roles"
    )
    scn_list.add_argument(
        "--spec",
        type=Path,
        default=None,
        help="spec file (.json/.toml); default: the packaged matrix",
    )
    scn_show = scn_sub.add_parser(
        "show", help="expand one scenario into its concrete instances"
    )
    scn_show.add_argument("name", help="scenario name (see 'list')")
    scn_show.add_argument("--spec", type=Path, default=None)

    gate = sub.add_parser(
        "perf-gate",
        help=(
            "re-time the pinned scenario bench rows and fail on"
            " speedup regression vs the recorded baseline"
        ),
    )
    gate.add_argument(
        "--spec", type=Path, default=None, help="scenario spec file"
    )
    gate.add_argument(
        "--baseline",
        type=Path,
        default=None,
        help="recorded bench JSON (default: BENCH_envelope.json)",
    )
    gate.add_argument(
        "--tolerance",
        type=float,
        default=0.15,
        help="allowed fractional drop below the recorded speedup",
    )
    gate.add_argument("--repeats", type=int, default=5)
    gate.add_argument(
        "--canary",
        action="store_true",
        help=(
            "inject a deliberate regression (variant config replaced"
            " by the baseline config); the gate must FAIL — CI runs"
            " this leg to prove the gate has teeth"
        ),
    )

    sub.add_parser("info", help="version + experiment inventory")
    return parser


def _load_terrain(spec: str, seed: int):
    from repro.terrain import (
        GENERATORS,
        generate_terrain,
        load_terrain_json,
        load_terrain_obj,
    )

    path = Path(spec)
    if path.suffix == ".json" and path.exists():
        return load_terrain_json(path)
    if path.suffix == ".obj" and path.exists():
        return load_terrain_obj(path)
    if spec in GENERATORS:
        kwargs = {"seed": seed}
        return generate_terrain(spec, **kwargs)
    from repro.errors import TerrainError

    hint = (
        " — synthetic generators need numpy (install the 'numpy'"
        " extra) or pass a terrain file"
        if not GENERATORS
        else ""
    )
    # A ReproError, not SystemExit: main() turns it into the one-line
    # `error:` contract with exit code 2 (no traceback).
    raise TerrainError(
        f"{spec!r} is neither an existing terrain file nor a"
        f" generator kind (known: {sorted(GENERATORS)}){hint}"
    )


def _cmd_generate(args: argparse.Namespace) -> int:
    from repro.terrain import (
        generate_terrain,
        save_terrain_json,
        save_terrain_obj,
    )

    kwargs: dict[str, object] = {"seed": args.seed}
    for key in ("size", "rows", "cols", "n_points", "occlusion"):
        value = getattr(args, key)
        if value is not None:
            kwargs[key] = value
    terrain = generate_terrain(args.kind, **kwargs)
    if args.output.suffix == ".obj":
        save_terrain_obj(terrain, args.output)
    else:
        save_terrain_json(terrain, args.output)
    print(f"wrote {args.output}: {terrain}")
    return 0


def _cmd_run(args: argparse.Namespace) -> int:
    from repro.hsr import NaiveHSR, ParallelHSR, SequentialHSR
    from repro.pram import PramTracker
    from repro.render import render_visibility_svg

    terrain = _load_terrain(args.terrain, args.seed)
    if args.azimuth:
        terrain = terrain.rotated(args.azimuth)

    engine = None if args.engine == "auto" else args.engine
    from repro.envelope.engine import resolve_engine
    from repro.errors import EnvelopeError

    try:
        resolve_engine(engine)
    except EnvelopeError as exc:  # e.g. --engine numpy without numpy
        raise SystemExit(f"error: {exc}") from None
    tracker: Optional[PramTracker] = None
    if args.algorithm == "parallel":
        tracker = PramTracker()
        result = ParallelHSR(mode=args.mode, engine=engine).run(
            terrain, tracker=tracker
        )
    elif args.algorithm == "sequential":
        result = SequentialHSR(engine=engine).run(terrain)
    elif args.algorithm == "naive":
        result = NaiveHSR().run(terrain)
    else:
        # Imported lazily: the z-buffer baseline is the one algorithm
        # that hard-requires numpy.
        from repro.hsr.zbuffer import ZBufferHSR

        result = ZBufferHSR().run(terrain)

    if args.svg is not None:
        render_visibility_svg(result.visibility_map, args.svg)

    if args.json:
        payload = {
            "algorithm": args.algorithm,
            "n": terrain.n_edges,
            "k": result.k,
            "visible_edges": len(result.visibility_map.visible_edges()),
            "seconds": result.stats.wall_time_s,
        }
        if tracker is not None:
            payload["work"] = tracker.work
            payload["depth"] = tracker.depth
        print(json.dumps(payload))
    else:
        print(f"terrain: {terrain}")
        print(result.visibility_map.summary())
        print(f"wall time: {result.stats.wall_time_s:.3f}s")
        if tracker is not None:
            print(
                f"PRAM cost: work={tracker.work:.0f}"
                f" depth={tracker.depth:.0f}"
            )
        if args.svg is not None:
            print(f"wrote {args.svg}")
    return 0


def _cmd_render(args: argparse.Namespace) -> int:
    from repro.hsr import SequentialHSR
    from repro.render import ascii_visibility, render_visibility_svg

    terrain = _load_terrain(args.terrain, args.seed)
    if args.azimuth:
        terrain = terrain.rotated(args.azimuth)
    result = SequentialHSR().run(terrain)
    print(
        ascii_visibility(
            result.visibility_map, width=args.width, height=args.height
        )
    )
    if args.svg is not None:
        render_visibility_svg(result.visibility_map, args.svg)
        print(f"wrote {args.svg}")
    return 0


def _cmd_serve(args: argparse.Namespace) -> int:
    import asyncio

    from repro.config import HsrConfig
    from repro.service import ViewshedSession, serve

    terrain = _load_terrain(args.terrain, args.seed)
    config = HsrConfig(engine=None if args.engine == "auto" else args.engine)
    session = ViewshedSession(terrain, config=config)
    try:
        asyncio.run(
            serve(
                session,
                host=args.host,
                port=args.port,
                max_batch=args.max_batch,
                coalesce_ms=args.coalesce_ms,
            )
        )
    except KeyboardInterrupt:
        pass
    return 0


def _load_spec_arg(spec_path: Optional[Path]):
    from repro.scenarios import default_spec, load_spec

    return load_spec(spec_path) if spec_path is not None else default_spec()


def _cmd_scenarios(args: argparse.Namespace) -> int:
    spec = _load_spec_arg(args.spec)
    if args.scenarios_command == "list":
        print(f"spec: {spec.source}")
        for s in spec.scenarios:
            print(
                f"  {s.name:<20} {s.workload:<9}"
                f" {s.n_instances:>3} instances x"
                f" {len(s.configs)} configs"
                f"  roles={','.join(sorted(s.roles))}"
                + (f"  op={s.op}" if s.op else "")
                + (f"  pinned={list(s.pinned)}" if s.pinned else "")
            )
        return 0
    # show
    s = spec.scenario(args.name)
    print(f"{s.name}: workload={s.workload} roles={sorted(s.roles)}")
    if s.fixed:
        print(f"  fixed: {s.fixed}")
    print(f"  configs: {s.config_ids()}")
    if s.pinned:
        print(f"  pinned: {list(s.pinned)}")
    for inst in s.instances():
        print(f"  {inst.instance_id}")
    return 0


def _cmd_perf_gate(args: argparse.Namespace) -> int:
    from repro.scenarios.perfgate import DEFAULT_BASELINE, run_perf_gate

    spec = _load_spec_arg(args.spec) if args.spec is not None else None
    report = run_perf_gate(
        spec,
        baseline=(
            args.baseline if args.baseline is not None else DEFAULT_BASELINE
        ),
        repeats=args.repeats,
        tolerance=args.tolerance,
        canary=args.canary,
    )
    print(report.format())
    return 0 if report.passed else 1


def _cmd_info(_args: argparse.Namespace) -> int:
    from repro.bench.experiments import ALL_EXPERIMENTS
    from repro.terrain import GENERATORS

    print(f"repro {__version__}")
    print(f"terrain generators: {', '.join(sorted(GENERATORS))}")
    print(f"experiments: {', '.join(ALL_EXPERIMENTS)}")
    print("docs: README.md, docs/ARCHITECTURE.md, docs/BENCHMARKS.md")
    return 0


def _dispatch(args: argparse.Namespace) -> int:
    if args.command == "generate":
        return _cmd_generate(args)
    if args.command == "run":
        return _cmd_run(args)
    if args.command == "render":
        return _cmd_render(args)
    if args.command == "bench":
        from repro.bench.__main__ import main as bench_main

        argv_out = (
            ["--output", str(args.output)]
            if args.output is not None
            else []
        )
        return bench_main(
            list(args.experiments)
            + (["--full"] if args.full else [])
            + argv_out
        )
    if args.command == "serve":
        return _cmd_serve(args)
    if args.command == "scenarios":
        return _cmd_scenarios(args)
    if args.command == "perf-gate":
        return _cmd_perf_gate(args)
    if args.command == "info":
        return _cmd_info(args)
    raise SystemExit(2)  # pragma: no cover - argparse enforces choices


def main(argv: Optional[Sequence[str]] = None) -> int:
    """Parse and dispatch; a :class:`~repro.errors.ReproError` exits
    nonzero with a one-line message (no traceback), and any guarded-
    dispatch degradation is summarised on stderr either way."""
    args = build_parser().parse_args(argv)
    from repro.errors import ReproError
    from repro.reliability import reliability_run

    with reliability_run() as report:
        try:
            rc = _dispatch(args)
        except ReproError as exc:
            print(f"error: {exc}", file=sys.stderr)
            if report.degraded:
                print(report.summary(), file=sys.stderr)
            return 2
    if report.degraded:
        print(report.summary(), file=sys.stderr)
    return rc


if __name__ == "__main__":  # pragma: no cover
    sys.exit(main())
