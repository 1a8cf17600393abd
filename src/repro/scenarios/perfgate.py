"""CI perf-regression gate over the pinned scenario bench rows.

The gate re-times every *pinned* bench instance of the spec (the
``pinned`` levels of each bench-role scenario) and compares the fresh
baseline/variant **speedup ratio** against the ratio recorded in
``BENCH_envelope.json``.  Ratios, not milliseconds: a CI runner two
times slower than the recording machine slows both configs alike, so
the ratio is the machine-robust signal — it only collapses when the
variant config genuinely regressed relative to its baseline.

A fresh ratio more than ``tolerance`` (default 15%) below the
recorded one fails the gate (exit 1 via the CLI), and so does a run
that gated no row at all (every pinned scenario skipped, e.g. all of
them need the compiled core and it is not built): it would pass
without having timed anything, and its canary could not fail.  A
missing baseline row or malformed spec is a configuration error, not a
regression — :class:`~repro.errors.ScenarioError`, exit 2.

``canary=True`` deliberately injects a ~1x "slowdown" by timing the
baseline config against itself in the variant slot; CI runs this leg
and *requires it to fail*, proving the gate can actually catch a
regression on that runner.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from pathlib import Path
from typing import Optional

from repro.errors import ScenarioError
from repro.scenarios.spec import ScenarioSpec, default_spec

__all__ = ["GateRow", "GateReport", "run_perf_gate", "DEFAULT_BASELINE"]

DEFAULT_BASELINE = Path("BENCH_envelope.json")

#: Fraction below the recorded speedup at which a pinned row fails.
DEFAULT_TOLERANCE = 0.15


@dataclass(frozen=True)
class GateRow:
    """One pinned instance: recorded vs fresh speedup ratio."""

    workload: str  # "scenario:<name>"
    instance_id: str
    m: int
    recorded_speedup: float
    fresh_speedup: float
    floor: float  # recorded * (1 - tolerance)

    @property
    def ok(self) -> bool:
        return self.fresh_speedup >= self.floor


@dataclass
class GateReport:
    """Outcome of one gate run; ``passed`` is the CI verdict."""

    rows: list[GateRow] = field(default_factory=list)
    tolerance: float = DEFAULT_TOLERANCE
    canary: bool = False
    #: Pinned scenarios not gateable on this install (e.g. they need
    #: the optional compiled core and it isn't built here).
    skipped: list[str] = field(default_factory=list)

    @property
    def passed(self) -> bool:
        """Every gated row holds its floor — and at least one row was
        gated: a run that skipped them all proves nothing."""
        return bool(self.rows) and all(r.ok for r in self.rows)

    @property
    def failures(self) -> list[GateRow]:
        return [r for r in self.rows if not r.ok]

    def format(self) -> str:
        head = "perf gate (%s): %d pinned row%s, tolerance %d%%" % (
            "CANARY — must fail" if self.canary else "clean",
            len(self.rows),
            "" if len(self.rows) == 1 else "s",
            round(self.tolerance * 100),
        )
        lines = [head]
        for r in self.rows:
            lines.append(
                "  %-6s %-42s m=%-6d recorded %.2fx  fresh %.2fx"
                "  floor %.2fx"
                % (
                    "ok" if r.ok else "FAIL",
                    r.instance_id,
                    r.m,
                    r.recorded_speedup,
                    r.fresh_speedup,
                    r.floor,
                )
            )
        for name in self.skipped:
            lines.append(
                "  skip   %s — needs the compiled core"
                " (not built on this install)" % name
            )
        if not self.rows:
            lines.append("  nothing gated on this install")
        lines.append(
            "verdict: %s" % ("PASS" if self.passed else "FAIL")
        )
        return "\n".join(lines)


def _have_ccore() -> bool:
    try:
        from repro.envelope import _ccore
    except ImportError:  # pragma: no cover - envelope always imports
        return False
    return bool(_ccore.HAVE_CCORE)


def _load_baseline_rows(baseline: Path) -> list[dict]:
    import json

    try:
        data = json.loads(Path(baseline).read_text())
    except OSError as exc:
        raise ScenarioError(f"{baseline}: {exc}") from exc
    except json.JSONDecodeError as exc:
        raise ScenarioError(
            f"{baseline}: not valid JSON (line {exc.lineno}: {exc.msg})"
        ) from exc
    rows = data.get("rows") if isinstance(data, dict) else None
    if not isinstance(rows, list):
        raise ScenarioError(
            f"{baseline}: not a recorded bench file (missing 'rows')"
        )
    return rows


def run_perf_gate(
    spec: Optional[ScenarioSpec] = None,
    *,
    baseline: Path = DEFAULT_BASELINE,
    repeats: int = 5,
    tolerance: float = DEFAULT_TOLERANCE,
    canary: bool = False,
) -> GateReport:
    """Re-time the spec's pinned bench rows against ``baseline``.

    Returns a :class:`GateReport`; raises :class:`ScenarioError` when
    the baseline lacks a pinned row (record with
    ``python -m repro bench envelope --full`` first) or the spec has
    no pinned rows at all.
    """
    # Import inside so the spec layer stays importable without numpy.
    from repro.bench.envelope_bench import _time_interleaved
    from repro.scenarios.instances import bench_callables

    if spec is None:
        spec = default_spec()
    if not (0.0 < tolerance < 1.0):
        raise ScenarioError(
            f"tolerance must be in (0, 1), got {tolerance!r}"
        )
    pinned = spec.pinned_rows()
    if not pinned:
        raise ScenarioError(
            "spec has no pinned bench rows — nothing to gate"
            + (f" ({spec.source})" if spec.source else "")
        )
    recorded = _load_baseline_rows(baseline)
    by_key = {
        (r.get("workload"), r.get("m")): r
        for r in recorded
        if isinstance(r, dict)
    }
    report = GateReport(tolerance=tolerance, canary=canary)
    for scenario, inst in pinned:
        if scenario.requires_ccore and not _have_ccore():
            # Recorded on a compiled install, ungateable here: the
            # variant config would silently fall back to the cascade
            # and the collapsed ratio would false-alarm.
            if scenario.name not in report.skipped:
                report.skipped.append(scenario.name)
            continue
        fns, m, _env_size = bench_callables(
            scenario, inst, canary=canary
        )
        workload = f"scenario:{scenario.name}"
        rec = by_key.get((workload, m))
        if rec is None:
            raise ScenarioError(
                f"{baseline}: no recorded row for {workload} m={m} —"
                " re-record with 'python -m repro bench envelope"
                " --full' before gating"
            )
        base_id, var_id = scenario.config_ids()
        best = _time_interleaved(fns, repeats)
        fresh = best[base_id] / best[var_id]
        rec_speedup = float(rec["speedup"])
        report.rows.append(
            GateRow(
                workload=workload,
                instance_id=inst.instance_id,
                m=m,
                recorded_speedup=rec_speedup,
                fresh_speedup=fresh,
                floor=rec_speedup * (1.0 - tolerance),
            )
        )
    return report
