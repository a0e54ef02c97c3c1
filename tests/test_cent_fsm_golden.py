"""Golden digests of the CENT-FSMs of diffeq, iir3 and ar_lattice.

The CENT-FSM is the reachable product of the Algorithm-1 controllers
(:mod:`repro.fsm.product`), built by stepping the controller system once
per (configuration, completion assignment).  Each digest is a SHA-256 of
the FSM's ``describe()`` listing plus, per transition in order, its
sorted ``starts`` and ``completes``: every state label, guard cube,
output set and transition order is pinned, so any change to the
controller step, the product construction or guard minimization that
moves one of them shows up here.  The text hashed contains no
hash-ordered iteration, so the digest does not depend on
``PYTHONHASHSEED``.  To regenerate after an intentional change::

    PYTHONPATH=src python tests/test_cent_fsm_golden.py
"""

from __future__ import annotations

import hashlib
import json
from pathlib import Path

import pytest

from repro.api import synthesize
from repro.benchmarks.registry import benchmark
from repro.fsm.model import FSM

GOLDEN = Path(__file__).parent / "golden" / "cent_fsms.json"

#: the narrow CENT-FSM (diffeq) and the two largest ones (iir3, ar_lattice)
DESIGNS = ("diffeq", "iir3", "ar_lattice")


def fsm_digest(fsm: FSM) -> str:
    """Hash-seed independent SHA-256 of an FSM's full behaviour."""
    lines = [fsm.describe()]
    for t in fsm.transitions:
        lines.append(
            f"{','.join(sorted(t.starts))}|{','.join(sorted(t.completes))}"
        )
    lines.append(",".join(sorted(fsm.initial_starts)))
    return hashlib.sha256("\n".join(lines).encode()).hexdigest()


def cent_fsm_digest(name: str) -> dict:
    entry = benchmark(name)
    fsm = synthesize(entry.dfg(), entry.allocation()).cent_fsm
    return {
        "states": fsm.num_states,
        "transitions": fsm.num_transitions,
        "sha256": fsm_digest(fsm),
    }


@pytest.mark.parametrize("name", DESIGNS)
def test_cent_fsm_matches_golden(name):
    expected = json.loads(GOLDEN.read_text())[name]
    assert cent_fsm_digest(name) == expected, (
        f"{name} CENT-FSM changed; regenerate the golden file if "
        f"intentional (see this module's docstring)"
    )


if __name__ == "__main__":
    golden = {name: cent_fsm_digest(name) for name in DESIGNS}
    GOLDEN.write_text(json.dumps(golden, indent=1) + "\n")
