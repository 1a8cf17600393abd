"""Documentation checks: relative links in the markdown docs resolve,
the bench figures the README table, the BENCHMARKS.md guard-overhead
bullet, the ``phase2-rope`` ratio quote and the ``bench-points`` ratio
match the recorded file, and the BENCHMARKS.md row-kind table names
exactly the recorded row kinds.

The CI ``docs`` job runs this module on its own; it also rides along
in tier-1 (stdlib only, no numpy, milliseconds).  Inline markdown
links (``[text](target)``) in ``README.md`` and ``docs/*.md`` must
point at files that exist; external schemes and in-page anchors are
skipped, as are GitHub web-UI paths (the ``../../actions/...`` badge
idiom) that intentionally resolve outside the repository.
"""

from __future__ import annotations

import json
import re
from pathlib import Path

import pytest

REPO_ROOT = Path(__file__).resolve().parent.parent

#: ``[text](target)`` inline links, tolerating titles after the URL.
_LINK_RE = re.compile(r"\[[^\]]*\]\(\s*([^)\s]+)(?:\s+\"[^\"]*\")?\s*\)")

_SKIP_PREFIXES = ("http://", "https://", "mailto:", "#")


def _doc_files() -> list[Path]:
    docs = [REPO_ROOT / "README.md"]
    docs += sorted((REPO_ROOT / "docs").glob("*.md"))
    return [p for p in docs if p.exists()]


def _links(md: Path) -> list[str]:
    # Strip fenced code blocks first: ``[x](y)`` inside them is code.
    text = re.sub(r"```.*?```", "", md.read_text(), flags=re.S)
    return _LINK_RE.findall(text)


def test_docs_exist():
    assert (REPO_ROOT / "docs" / "ARCHITECTURE.md").exists()
    assert (REPO_ROOT / "docs" / "BENCHMARKS.md").exists()


@pytest.mark.parametrize("md", _doc_files(), ids=lambda p: p.name)
def test_relative_links_resolve(md: Path):
    broken = []
    for target in _links(md):
        if target.startswith(_SKIP_PREFIXES):
            continue
        path = target.split("#", 1)[0]
        if not path:
            continue
        resolved = (md.parent / path).resolve()
        try:
            resolved.relative_to(REPO_ROOT)
        except ValueError:
            # Outside the repo: the GitHub badge/actions idiom —
            # not checkable from a working tree.
            continue
        if not resolved.exists():
            broken.append(target)
    assert not broken, f"broken relative links in {md.name}: {broken}"


def test_readme_points_at_docs():
    readme = (REPO_ROOT / "README.md").read_text()
    assert "docs/ARCHITECTURE.md" in readme
    assert "docs/BENCHMARKS.md" in readme


def _readme_table(header: str) -> list[str]:
    lines = (REPO_ROOT / "README.md").read_text().splitlines()
    start = lines.index(header) + 2  # skip the header and the rule
    rows = []
    for line in lines[start:]:
        if not line.startswith("|"):
            break
        rows.append(line)
    return rows


def test_readme_sequential_table_matches_bench_file():
    """The README's sequential table quotes the recorded ``sequential``
    rows of ``BENCH_envelope.json``; re-recording without regenerating
    the table fails here."""
    rows = json.loads((REPO_ROOT / "BENCH_envelope.json").read_text())["rows"]
    expected = [
        f"| {r['m']} | {r['python_ms']:.1f} | {r['numpy_ms']:.1f}"
        f" | {r['speedup']:.1f}× |"
        for r in rows
        if r["workload"] == "sequential"
    ]
    assert expected, "no sequential rows recorded"
    assert _readme_table("| m | python_ms | numpy_ms | speedup |") == expected


def test_benchmarks_guard_overhead_matches_bench_file():
    """The guard-overhead figures quoted in ``docs/BENCHMARKS.md`` are
    the recorded m=8192 ``sequential-guard-ablation`` rows (overhead =
    guards-on / guards-off − 1)."""
    rows = json.loads((REPO_ROOT / "BENCH_envelope.json").read_text())["rows"]
    quoted = {}
    for r in rows:
        if r["m"] == 8192 and r["workload"].startswith("sequential-guard-ablation"):
            overhead = (r["numpy_ms"] / r["python_ms"] - 1.0) * 100.0
            quoted[r["workload"]] = f"{overhead:+.1f}%"
    assert len(quoted) == 2, "no m=8192 guard-ablation rows recorded"
    expected = (
        f"cost **{quoted['sequential-guard-ablation']}** (E9) and"
        f" **{quoted['sequential-guard-ablation-wide']}** (wide-strip)"
        " at m=8192"
    )
    text = " ".join((REPO_ROOT / "docs" / "BENCHMARKS.md").read_text().split())
    assert expected in text


def test_phase2_rope_ratio_matches_bench_file():
    """The ``phase2-rope`` ratio (persistent / direct Phase 2) quoted in
    ``docs/BENCHMARKS.md`` and the README is the recorded row's
    ``speedup``."""
    rows = json.loads((REPO_ROOT / "BENCH_envelope.json").read_text())["rows"]
    (ratio,) = [r["speedup"] for r in rows if r["workload"] == "phase2-rope"]
    bench = " ".join((REPO_ROOT / "docs" / "BENCHMARKS.md").read_text().split())
    assert f"persistent store runs Phase 2 at **{ratio:.2f}× direct**" in bench
    readme = " ".join((REPO_ROOT / "README.md").read_text().split())
    assert f"**{ratio:.2f}×** the time of direct for the rope-backed" in readme


def test_points_ratio_matches_bench_file():
    """The headline ratio of the ``viewshed-observers`` section in
    ``docs/BENCHMARKS.md`` is the recorded ``scenario:bench-points``
    row's ``speedup`` (python-engine scan / windowed numpy scan)."""
    rows = json.loads((REPO_ROOT / "BENCH_envelope.json").read_text())["rows"]
    (ratio,) = [
        r["speedup"] for r in rows if r["workload"] == "scenario:bench-points"
    ]
    bench = " ".join((REPO_ROOT / "docs" / "BENCHMARKS.md").read_text().split())
    assert f"the windowed scan answers at **{ratio:.1f}× the python engine**" in bench


def _documented_row_kinds() -> set[str]:
    """First-column names of the ``## Row kinds`` table in
    ``docs/BENCHMARKS.md``.  A cell may list suffix variants after the
    first name (``kind-a`` / ``-b``): each ``-suffix``
    replaces the last dash-separated part of the name before it."""
    lines = (REPO_ROOT / "docs" / "BENCHMARKS.md").read_text().splitlines()
    start = lines.index("## Row kinds")
    header = next(
        i for i in range(start, len(lines)) if lines[i].startswith("|")
    )
    kinds: set[str] = set()
    for line in lines[header + 2 :]:
        if not line.startswith("|"):
            break
        names = re.findall(r"`([^`]+)`", line.split("|")[1])
        assert names, f"row-kind cell without a name: {line!r}"
        base = names[0]
        kinds.add(base)
        for suffix in names[1:]:
            assert suffix.startswith("-"), line
            kinds.add(base.rsplit("-", 1)[0] + suffix)
    return kinds


def test_benchmarks_row_kinds_match_bench_file():
    """Every recorded ``workload`` kind has a row in the BENCHMARKS.md
    row-kind table, and the table names no kind the file no longer
    records (``scenario:*`` rows are documented once as
    ``scenario:<name>``)."""
    rows = json.loads((REPO_ROOT / "BENCH_envelope.json").read_text())["rows"]
    recorded = {
        "scenario:<name>" if r["workload"].startswith("scenario:")
        else r["workload"]
        for r in rows
    }
    assert _documented_row_kinds() == recorded


def _recorded(workload: str) -> dict:
    """``m -> speedup`` of the recorded ``workload`` rows."""
    rows = json.loads((REPO_ROOT / "BENCH_envelope.json").read_text())["rows"]
    return {r["m"]: r["speedup"] for r in rows if r["workload"] == workload}


def _benchmarks_text() -> str:
    return " ".join((REPO_ROOT / "docs" / "BENCHMARKS.md").read_text().split())


def test_benchmarks_build_bullet_matches_bench_file():
    b = _recorded("build")
    assert (
        f"`build`: {b[2048]:.1f}×→**{b[8192]:.1f}×** numpy over the"
        " optimized python engine at m=2048→8192"
    ) in _benchmarks_text()


def test_benchmarks_visibility_bullet_matches_bench_file():
    v = [s for m, s in _recorded("visibility").items() if m >= 1024]
    assert (
        f"`visibility`: ~{min(v):.1f}–{max(v):.1f}× for the batched sweep"
        " incl. materialisation from m≥1024"
    ) in _benchmarks_text()


def test_benchmarks_sequential_bullet_matches_bench_file():
    s = _recorded("sequential")
    assert (
        f"`sequential` (wide-strip): {s[1024]:.1f}× at m=1024,"
        f" {s[2048]:.1f}× at m=2048, {s[4096]:.1f}× at m=4096,"
        f" **{s[8192]:.1f}× at m=8192** over the python engine"
    ) in _benchmarks_text()


def test_benchmarks_service_qps_bullet_matches_bench_file():
    q = _recorded("service-qps")
    assert f"`service-qps`: **{q[8192]:.1f}× at m=8192**" in _benchmarks_text()


def test_benchmarks_scenario_ratios_match_bench_file():
    """The ``scenario:*`` bullet and the pinned-row paragraph quote the
    recorded rows' ``speedup``."""
    text = _benchmarks_text()
    build = _recorded("scenario:bench-build-e9")
    insert = _recorded("scenario:bench-insert-e9")
    wide = _recorded("scenario:bench-insert-wide")
    (flyover,) = _recorded("scenario:bench-flyover").values()
    (dem,) = _recorded("scenario:bench-dem").values()
    (direct,) = _recorded("scenario:bench-paper-direct").values()
    (persistent,) = _recorded("scenario:bench-paper-persistent").values()
    (sequential,) = _recorded("scenario:bench-sequential").values()
    for quote in (
        f"`bench-build-e9` {build[1024]:.1f}×@1024 / {build[4096]:.1f}×@4096",
        f"`bench-insert-e9` {insert[256]:.1f}×@256 / {insert[1024]:.1f}×@1024",
        f"`bench-insert-wide` {wide[1024]:.1f}×@1024 / {wide[2048]:.1f}×@2048",
        f"`bench-flyover` reads **{flyover:.1f}×**",
        f"`bench-dem` {dem:.1f}×",
        f"`scenario:bench-build-e9` at m=4096 (~{build[4096]:.1f}×)",
        f"`scenario:bench-insert-wide` at m=2048 ({wide[2048]:.1f}×",
        f"no-compiler install runs; {insert[1024]:.1f}×)",
        f"compiled PCT layers ({direct:.1f}×, the lowest of six",
        f"core too ({persistent:.1f}×, the lowest of six",
        f"against the compiled ordering and insert run ({sequential:.1f}×,",
    ):
        assert quote in text, quote
