"""Golden area reports of the ten core benchmarks.

Pins every Table-1-style area report the controller styles produce: the
CENT-SYNC FSM, each DIST component, the DIST total under the ``binary``,
``gray`` and ``one-hot`` encodings (experiment X10), and the diffeq
CENT-FSM (the only CENT-FSM narrow enough for exact minimization).  Any
change to FSM construction, encoding or two-level minimization that moves
an area value shows up here.  To regenerate after an intentional change::

    PYTHONPATH=src python tests/test_area_golden.py
"""

from __future__ import annotations

import dataclasses
import json
from pathlib import Path

import pytest

from repro.api import synthesize
from repro.benchmarks.registry import benchmark, core_benchmark_names
from repro.fsm.area import fsm_area

GOLDEN = Path(__file__).parent / "golden" / "area_reports.json"

#: DIST totals are pinned under every encoding X10 compares
ENCODINGS = ("binary", "gray", "one-hot")
#: designs whose CENT-FSM is pinned too
CENT_DESIGNS = ("diffeq",)


def design_area_reports(name: str) -> dict:
    """Every area report of one core benchmark, as plain dicts."""
    entry = benchmark(name)
    result = synthesize(entry.dfg(), entry.allocation())
    dist = result.distributed
    reports = {
        "CENT-SYNC-FSM": dataclasses.asdict(fsm_area(result.cent_sync_fsm)),
        "DIST-components": {
            fsm.name: dataclasses.asdict(fsm_area(fsm))
            for fsm in dist.controllers.values()
        },
        "DIST-FSM": {
            style: dataclasses.asdict(dist.total_area(style))
            for style in ENCODINGS
        },
    }
    if name in CENT_DESIGNS:
        reports["CENT-FSM"] = dataclasses.asdict(fsm_area(result.cent_fsm))
    return reports


@pytest.mark.parametrize("name", core_benchmark_names())
def test_area_reports_match_golden(name):
    expected = json.loads(GOLDEN.read_text())[name]
    assert design_area_reports(name) == expected, (
        f"{name} area reports changed; regenerate the golden file if "
        f"intentional (see this module's docstring)"
    )


def test_golden_covers_core_benchmarks():
    assert set(json.loads(GOLDEN.read_text())) == set(core_benchmark_names())


if __name__ == "__main__":
    golden = {
        name: design_area_reports(name) for name in core_benchmark_names()
    }
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
