"""Freeze the references that no committed file provides.

Writes ``perfbench/reference.json``: every FSM area report and CENT-FSM
size of the ``area`` workload, and the SHA-256 of the system RTL of the
fixed designs.  The values are computed in two fresh processes with
different ``PYTHONHASHSEED`` values and written only if both agree byte
for byte.  Run from the repository root::

    python3 perfbench/freeze.py
"""

from __future__ import annotations

import json
import os
import subprocess
import sys
from pathlib import Path

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
HASH_SEEDS = ("0", "4242")


def emit() -> str:
    """The reference values of this process, as canonical JSON."""
    sys.path.insert(0, str(ROOT / "src"))
    from designs import BASELINED_GEN
    from repro.benchmarks.registry import core_benchmark_names
    from spans import Tracer
    from workloads import Pass, area_designs, area_pass, signoff_pass

    area = Pass(Tracer(False, "area"))
    area_pass(area, area_designs())
    signoff = Pass(Tracer(False, "signoff"))
    signoff_pass(signoff, core_benchmark_names() + BASELINED_GEN)
    if area.errors or signoff.errors:
        raise RuntimeError(f"a pass failed: {area.errors} {signoff.errors}")
    frozen = {"area": {}, "product": {}, "rtl_sha256": {}}
    for key, out in area.outputs.items():
        kind, _, design = key.partition(":")
        if kind == "area":
            frozen["area"][key] = out["report"]
        elif kind == "product":
            frozen["product"][design] = out
    for key, out in signoff.outputs.items():
        frozen["rtl_sha256"][key.partition(":")[2]] = out["rtl.sha256"]
    return json.dumps(frozen, indent=1, sort_keys=True) + "\n"


def main() -> int:
    if sys.argv[1:] == ["--emit"]:
        sys.stdout.write(emit())
        return 0
    texts = [
        subprocess.run(
            [sys.executable, str(Path(__file__).resolve()), "--emit"],
            capture_output=True,
            text=True,
            check=True,
            cwd=ROOT,
            env={**os.environ, "PYTHONHASHSEED": seed},
        ).stdout
        for seed in HASH_SEEDS
    ]
    if texts[0] != texts[1]:
        print("references differ across hash seeds; nothing written",
              file=sys.stderr)
        return 1
    (HERE / "reference.json").write_text(texts[0], encoding="utf-8")
    print(f"wrote {HERE / 'reference.json'}", file=sys.stderr)
    return 0


if __name__ == "__main__":
    sys.exit(main())
