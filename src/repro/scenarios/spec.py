"""Declarative scenario spec: the factorial workload matrix as data.

One spec file (JSON, or TOML on Python >= 3.11) declares every
workload the reproduction exercises — terrain family x observer
placement x input size x engine/:class:`~repro.config.HsrConfig`
variant — and three consumers expand the same spec:

* the pytest parity suites (``tests/test_scenarios.py`` plus the thin
  wrappers in ``tests/test_envelope_flat_splice.py`` /
  ``tests/test_adversarial.py``),
* the ``scenario:*`` bench rows of
  :mod:`repro.bench.envelope_bench`, and
* the CI perf-regression gate (:mod:`repro.scenarios.perfgate`).

No scenario carries code: a scenario is a name, a workload kind, a
dict of *crossed factors* (each factor a list of levels; the expansion
is their full Cartesian product), a dict of *fixed* parameters, and a
list of :class:`~repro.config.HsrConfig` variants.  Expansion is
deterministic: factor names are iterated in sorted order and level
order is preserved exactly as declared (declare ``m`` ascending and
the instances come out ascending), in the crossed-design-matrix style
of ``experimentator``'s ``design.py``.

Schema (see ``docs/SCENARIOS.md`` for the narrative version)::

    {
      "format": "repro-scenarios",
      "version": 1,
      "scenarios": {
        "<name>": {
          "workload": "terrain" | "segments" | "dem-file" | "flyover",
          "roles":    ["parity"] and/or ["bench"],
          "cross":    {"<factor>": [level, ...], ...},
          "fixed":    {"<param>": value, ...},          # optional
          "configs":  [{"id": "...", <HsrConfig field>: ...}, ...],
          "op":       "build" | "insert" | "run" | "parallel"
                      | "flyover" | "points",            # bench
          "pinned":   [<m or n_edges level>, ...],      # perf gate
          "requires_ccore": true,                       # optional
        }
      }
    }
"""

from __future__ import annotations

import itertools
import json
from dataclasses import dataclass, field
from pathlib import Path
from typing import Any, Iterator, Optional, Union

from repro.errors import ScenarioError

__all__ = [
    "Scenario",
    "ScenarioInstance",
    "ScenarioSpec",
    "load_spec",
    "default_spec",
    "DEFAULT_SPEC_RESOURCE",
]

SPEC_FORMAT = "repro-scenarios"

#: Name of the packaged default spec file (the single source of truth
#: for "what workloads exist").
DEFAULT_SPEC_RESOURCE = "default_scenarios.json"

_WORKLOADS = frozenset({"terrain", "segments", "dem-file", "flyover"})
_ROLES = frozenset({"parity", "bench"})
_OPS = frozenset({"build", "insert", "run", "parallel", "flyover", "points"})
_SCENARIO_KEYS = frozenset(
    {
        "workload",
        "roles",
        "cross",
        "fixed",
        "configs",
        "op",
        "pinned",
        "requires_ccore",
    }
)
#: HsrConfig field names accepted in a config variant (plus "id").
_CONFIG_FIELDS = frozenset(
    {
        "engine",
        "eps",
        "use_compiled_insert",
    }
)


@dataclass(frozen=True)
class ScenarioInstance:
    """One concrete workload: a scenario name plus a full factor
    assignment (one level per crossed factor, fixed params merged in).

    The instance is *config-free*: parity runs every config variant of
    its scenario over the same instance and asserts identical results;
    the bench times the scenario's two configs against each other.
    """

    scenario: "Scenario"
    factors: tuple[tuple[str, Any], ...]  # sorted by factor name

    @property
    def name(self) -> str:
        return self.scenario.name

    def factor(self, key: str, default: Any = None) -> Any:
        for k, v in self.factors:
            if k == key:
                return v
        return self.scenario.fixed.get(key, default)

    def params(self) -> dict[str, Any]:
        """Fixed params overlaid with this instance's factor levels."""
        out = dict(self.scenario.fixed)
        out.update(self.factors)
        return out

    @property
    def instance_id(self) -> str:
        inner = ",".join(f"{k}={v}" for k, v in self.factors)
        return f"{self.name}[{inner}]"

    def __str__(self) -> str:  # pytest ids
        return self.instance_id


@dataclass(frozen=True)
class Scenario:
    """One named entry of the spec; see the module docstring schema."""

    name: str
    workload: str
    roles: frozenset[str]
    cross: tuple[tuple[str, tuple[Any, ...]], ...]  # sorted by factor
    fixed: dict[str, Any] = field(default_factory=dict)
    configs: tuple[dict[str, Any], ...] = ()
    op: Optional[str] = None
    pinned: tuple[Any, ...] = ()
    #: The scenario only makes sense with the optional compiled insert
    #: core present (a config relies on its default-on dispatch): bench
    #: recording and the perf gate skip it on no-compiler installs.
    requires_ccore: bool = False

    def instances(self) -> list[ScenarioInstance]:
        """Deterministic full-factorial expansion.

        Factors iterate in sorted-name order; within a factor the
        declared level order is preserved.  The output order is the
        Cartesian product in that (sorted, declared) order — stable
        across processes and Python versions.
        """
        names = [k for k, _ in self.cross]
        level_lists = [levels for _, levels in self.cross]
        out = []
        for combo in itertools.product(*level_lists):
            out.append(
                ScenarioInstance(self, tuple(zip(names, combo)))
            )
        return out

    def config_ids(self) -> list[str]:
        return [c["id"] for c in self.configs]

    @property
    def n_instances(self) -> int:
        n = 1
        for _, levels in self.cross:
            n *= len(levels)
        return n


@dataclass(frozen=True)
class ScenarioSpec:
    """A validated spec: an ordered mapping of scenarios."""

    scenarios: tuple[Scenario, ...]
    source: Optional[str] = None  # path or resource, for messages

    def names(self) -> list[str]:
        return [s.name for s in self.scenarios]

    def scenario(self, name: str) -> Scenario:
        for s in self.scenarios:
            if s.name == name:
                return s
        raise ScenarioError(
            f"unknown scenario {name!r}"
            + (f" in {self.source}" if self.source else "")
            + f"; known: {self.names()}"
        )

    def by_role(self, role: str) -> list[Scenario]:
        if role not in _ROLES:
            raise ScenarioError(
                f"unknown role {role!r}; known: {sorted(_ROLES)}"
            )
        return [s for s in self.scenarios if role in s.roles]

    def pinned_rows(self) -> list[tuple[Scenario, ScenarioInstance]]:
        """The (scenario, instance) pairs the perf gate re-times: the
        bench scenarios whose size factor is listed in ``pinned``."""
        out = []
        for s in self.by_role("bench"):
            if not s.pinned:
                continue
            for inst in s.instances():
                if inst.factor("m", inst.factor("size")) in s.pinned:
                    out.append((s, inst))
        return out

    def iter_instances(
        self, role: Optional[str] = None
    ) -> Iterator[ScenarioInstance]:
        scenarios = self.by_role(role) if role else list(self.scenarios)
        for s in scenarios:
            yield from s.instances()

    @staticmethod
    def from_data(
        data: Any, *, source: Optional[str] = None
    ) -> "ScenarioSpec":
        """Validate raw (JSON/TOML-decoded) data into a spec."""
        where = f"{source}: " if source else ""
        if not isinstance(data, dict) or data.get("format") != SPEC_FORMAT:
            raise ScenarioError(
                f"{where}not a {SPEC_FORMAT} spec (missing"
                f" 'format': '{SPEC_FORMAT}')"
            )
        raw = data.get("scenarios")
        if not isinstance(raw, dict) or not raw:
            raise ScenarioError(
                f"{where}missing or empty 'scenarios' table"
            )
        scenarios = []
        for name, entry in raw.items():
            scenarios.append(_parse_scenario(name, entry, where))
        return ScenarioSpec(tuple(scenarios), source=source)


def _parse_scenario(name: str, entry: Any, where: str) -> Scenario:
    ctx = f"{where}scenario {name!r}"
    if not isinstance(entry, dict):
        raise ScenarioError(f"{ctx}: entry must be a table, got {entry!r}")
    unknown = set(entry) - _SCENARIO_KEYS
    if unknown:
        raise ScenarioError(
            f"{ctx}: unknown keys {sorted(unknown)};"
            f" known: {sorted(_SCENARIO_KEYS)}"
        )
    workload = entry.get("workload")
    if workload not in _WORKLOADS:
        raise ScenarioError(
            f"{ctx}: workload must be one of {sorted(_WORKLOADS)},"
            f" got {workload!r}"
        )
    roles = entry.get("roles", ["parity"])
    if (
        not isinstance(roles, list)
        or not roles
        or not set(roles) <= _ROLES
    ):
        raise ScenarioError(
            f"{ctx}: roles must be a non-empty subset of"
            f" {sorted(_ROLES)}, got {roles!r}"
        )
    cross = entry.get("cross", {})
    if not isinstance(cross, dict):
        raise ScenarioError(f"{ctx}: 'cross' must be a table of factors")
    for fname, levels in cross.items():
        if not isinstance(levels, list) or not levels:
            raise ScenarioError(
                f"{ctx}: factor {fname!r} must be a non-empty list of"
                f" levels, got {levels!r}"
            )
    fixed = entry.get("fixed", {})
    if not isinstance(fixed, dict):
        raise ScenarioError(f"{ctx}: 'fixed' must be a table")
    overlap = set(cross) & set(fixed)
    if overlap:
        raise ScenarioError(
            f"{ctx}: {sorted(overlap)} appear in both 'cross' and"
            " 'fixed'"
        )
    configs = entry.get("configs", [])
    if not isinstance(configs, list):
        raise ScenarioError(f"{ctx}: 'configs' must be a list of tables")
    seen_ids: set[str] = set()
    for cfg in configs:
        if not isinstance(cfg, dict) or "id" not in cfg:
            raise ScenarioError(
                f"{ctx}: each config needs an 'id' field, got {cfg!r}"
            )
        if cfg["id"] in seen_ids:
            raise ScenarioError(
                f"{ctx}: duplicate config id {cfg['id']!r}"
            )
        seen_ids.add(cfg["id"])
        bad = set(cfg) - _CONFIG_FIELDS - {"id"}
        if bad:
            raise ScenarioError(
                f"{ctx}: config {cfg['id']!r} has unknown HsrConfig"
                f" fields {sorted(bad)}"
            )
    op = entry.get("op")
    if "bench" in roles:
        if op not in _OPS:
            raise ScenarioError(
                f"{ctx}: bench scenarios need 'op' in {sorted(_OPS)},"
                f" got {op!r}"
            )
        if len(configs) != 2:
            raise ScenarioError(
                f"{ctx}: bench scenarios need exactly 2 configs"
                f" (baseline, variant), got {len(configs)}"
            )
    elif op is not None and op not in _OPS:
        raise ScenarioError(
            f"{ctx}: unknown op {op!r}; known: {sorted(_OPS)}"
        )
    if "parity" in roles and len(configs) < 2:
        raise ScenarioError(
            f"{ctx}: parity scenarios need >= 2 configs to compare"
        )
    pinned = entry.get("pinned", [])
    if not isinstance(pinned, list):
        raise ScenarioError(f"{ctx}: 'pinned' must be a list of levels")
    requires_ccore = entry.get("requires_ccore", False)
    if not isinstance(requires_ccore, bool):
        raise ScenarioError(
            f"{ctx}: 'requires_ccore' must be a boolean,"
            f" got {requires_ccore!r}"
        )
    return Scenario(
        name=name,
        workload=workload,
        roles=frozenset(roles),
        cross=tuple(
            sorted((k, tuple(v)) for k, v in cross.items())
        ),
        fixed=dict(fixed),
        configs=tuple(dict(c) for c in configs),
        op=op,
        pinned=tuple(pinned),
        requires_ccore=requires_ccore,
    )


def load_spec(path: Union[str, Path]) -> ScenarioSpec:
    """Load and validate a spec file (``.json``, or ``.toml`` on
    Python >= 3.11).  Every defect raises :class:`ScenarioError` with
    the path in context — the CLI turns that into a one-line
    ``error:`` and exit code 2."""
    p = Path(path)
    try:
        text = p.read_text()
    except OSError as exc:
        raise ScenarioError(f"{p}: {exc}") from exc
    if p.suffix == ".toml":
        try:
            import tomllib
        except ImportError as exc:  # pragma: no cover - py3.10 only
            raise ScenarioError(
                f"{p}: TOML specs need Python >= 3.11 (tomllib);"
                " use JSON instead"
            ) from exc
        try:
            data = tomllib.loads(text)
        except tomllib.TOMLDecodeError as exc:
            raise ScenarioError(f"{p}: not valid TOML ({exc})") from exc
    else:
        try:
            data = json.loads(text)
        except json.JSONDecodeError as exc:
            raise ScenarioError(
                f"{p}: not valid JSON (line {exc.lineno}, column"
                f" {exc.colno}: {exc.msg})"
            ) from exc
    return ScenarioSpec.from_data(data, source=str(p))


def default_spec() -> ScenarioSpec:
    """The packaged default matrix (``default_scenarios.json``)."""
    from importlib import resources

    ref = resources.files("repro.scenarios") / DEFAULT_SPEC_RESOURCE
    data = json.loads(ref.read_text())
    return ScenarioSpec.from_data(data, source=DEFAULT_SPEC_RESOURCE)
