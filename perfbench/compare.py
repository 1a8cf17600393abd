"""Compare two saved benchmark outputs metric by metric.

    python3 perfbench/run.py --workload sequential-flyover --seed 1 \\
        --seconds 8 > before.txt
    ... (change the program) ...
    python3 perfbench/run.py --workload sequential-flyover --seed 1 \\
        --seconds 8 > after.txt
    python3 perfbench/compare.py before.txt after.txt

Refuses (exit 2) when the two outputs come from different workloads or
from environments whose compiled core differs (``have_ccore`` or the
effective ``compiled_insert`` switch): without the core the insert
stage alone is tens of milliseconds slower, which a comparison would
misread as a regression or a gain.  A differing C source hash is only
noted: every run rebuilds the core from its own checkout, so each side
timed its own source.
"""

from __future__ import annotations

import json
import sys

#: Stamp fields that must agree before two results may be compared.
MUST_MATCH = ("have_ccore", "compiled_insert")


def load(path: str) -> tuple[dict, dict]:
    """The details and result lines (the last two) of a saved output."""
    with open(path) as fh:
        lines = [line for line in fh.read().splitlines() if line.startswith("{")]
    if len(lines) < 2:
        raise SystemExit(f"error: {path}: no benchmark result in it")
    return json.loads(lines[-2]), json.loads(lines[-1])


def main(argv: list[str]) -> int:
    if len(argv) != 2:
        print(__doc__, file=sys.stderr)
        return 2
    (da, ra), (db, rb) = load(argv[0]), load(argv[1])
    if da["workload"] != db["workload"]:
        print(
            f"refused: workloads differ ({da['workload']} vs {db['workload']})",
            file=sys.stderr,
        )
        return 2
    for key in MUST_MATCH:
        if da["stamp"].get(key) != db["stamp"].get(key):
            print(
                f"refused: {key} differs ({da['stamp'].get(key)} vs"
                f" {db['stamp'].get(key)}); rebuild or unset REPRO_COMPILED",
                file=sys.stderr,
            )
            return 2
    print(f"workload {da['workload']}   A = {argv[0]}   B = {argv[1]}")
    sha = [d["stamp"].get("ccore_source_sha256") for d in (da, db)]
    if sha[0] != sha[1]:
        print(f"  note: C core source differs ({sha[0]} vs {sha[1]})")
    for name, a in ra["metrics"].items():
        b = rb["metrics"].get(name)
        if b is None:
            continue
        ratio = b["value"] / a["value"] if a["value"] else float("nan")
        print(
            f"  {name:30s} {a['value']:14.4f} {b['value']:14.4f}"
            f"  B/A {ratio:7.3f}  {a['unit']}"
        )
    return 0


if __name__ == "__main__":
    sys.exit(main(sys.argv[1:]))
