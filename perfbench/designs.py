"""The design set of each workload, drawn from the workload seed.

Three parts, in this order: the ten core designs, the two ``gen:``
designs that have committed lint/check baselines, and a seeded draw of
``gen:`` names.  Each drawn slot fixes the operation count, so every
seed asks for about the same amount of work; the seed draws the shape
(depth, fan-out, op mix, resource pressure and the family seed).
"""

from __future__ import annotations

import random

#: the two generated designs with committed baselines
BASELINED_GEN = (
    "gen:ops=14,depth=4,fanout=3,mix=2-2-1,pressure=3,seed=5",
    "gen:ops=20,depth=5,fanout=2,mix=2-2-1,pressure=3,seed=2",
)

#: operation count and resource pressures of each drawn slot.  Every
#: drawn design has 8 units or fewer, where the batch Monte-Carlo
#: engine agrees with the scalar simulator (see NOTES.md, known
#: defects), and about the same amount of work for every seed.
SLOTS = ((16, (3, 4)), (20, (3, 4)))
DEPTHS = range(4, 9)
FANOUTS = range(1, 4)
MIXES = ("2-2-1", "2-1-1", "1-1-1", "3-2-1")
FAMILY_SEEDS = range(10_000)


def drawn_designs(seed: int) -> tuple[str, ...]:
    """The seeded ``gen:`` names, one per slot."""
    rng = random.Random(f"perfbench:{seed}")
    return tuple(
        f"gen:ops={ops},depth={rng.choice(DEPTHS)},"
        f"fanout={rng.choice(FANOUTS)},mix={rng.choice(MIXES)},"
        f"pressure={rng.choice(pressures)},"
        f"seed={rng.choice(FAMILY_SEEDS)}"
        for ops, pressures in SLOTS
    )


def design_set(core: "tuple[str, ...]", seed: int) -> tuple[str, ...]:
    """Core designs, baselined ``gen:`` designs, then the seeded draw."""
    return tuple(core) + BASELINED_GEN + drawn_designs(seed)
