"""FSM area estimation (the paper's Table 1 columns).

Two estimation paths:

* **exact** — encode the states, build the truth table of every next-state
  bit and output signal (unused state codes and unreachable input combos
  are don't-cares), minimize each exactly with
  :mod:`repro.logic.quine_mccluskey` and count literals.  Used whenever
  the encoding is not one-hot and the total input width (state bits + FSM
  inputs) fits :data:`repro.logic.quine_mccluskey.EXACT_WIDTH_LIMIT`.
* **structural** — count each transition as one AND term (state-decode
  literals + guard literals) feeding OR planes per next-state bit and
  output.  Used for one-hot encodings and very large product FSMs.

Both report the same columns as Table 1: I/O, states, FFs, and
combinational / sequential area (sequential = 11 units per flip-flop, the
paper's visible convention).
"""

from __future__ import annotations

import itertools
from dataclasses import dataclass

from ..logic.area import (
    AREA_PER_FLIP_FLOP,
    FunctionArea,
    LogicBlockArea,
    function_area,
)
from ..logic.quine_mccluskey import EXACT_WIDTH_LIMIT
from ..logic.terms import BooleanFunction
from .encode import StateEncoding, encode
from .model import FSM


@dataclass(frozen=True)
class FSMAreaReport:
    """Table-1-style area report for one synthesized FSM."""

    name: str
    num_inputs: int
    num_outputs: int
    num_states: int
    num_flip_flops: int
    combinational_area: float
    sequential_area: float
    method: str

    @property
    def total_area(self) -> float:
        return self.combinational_area + self.sequential_area

    def io_column(self) -> str:
        """The paper's ``I/O`` column text."""
        return f"{self.num_inputs}/{self.num_outputs}"

    def area_column(self) -> str:
        """The paper's ``Area(Com./Seq.)`` column text."""
        return (
            f"{self.combinational_area:.0f} / {self.sequential_area:.0f}"
        )

    def describe(self) -> str:
        return (
            f"{self.name}: I/O {self.io_column()}, "
            f"{self.num_states} states, {self.num_flip_flops} FFs, "
            f"area {self.area_column()} [{self.method}]"
        )


def _exact_functions(
    fsm: FSM, encoding: StateEncoding
) -> tuple[FunctionArea, ...]:
    """Truth-table construction + minimization of every logic function."""
    state_width = encoding.width
    inputs = fsm.inputs
    total_width = state_width + len(inputs)
    next_ones: dict[int, set[int]] = {b: set() for b in range(state_width)}
    output_ones: dict[str, set[int]] = {o: set() for o in fsm.outputs}
    care_points: set[int] = set()
    for state in fsm.states:
        base = encoding.code_of(state)
        for values in itertools.product(
            (False, True), repeat=len(inputs)
        ):
            valuation = dict(zip(inputs, values))
            transition = fsm.step(state, valuation)
            point = base
            for i, value in enumerate(values):
                if value:
                    point |= 1 << (state_width + i)
            care_points.add(point)
            target_code = encoding.code_of(transition.target)
            for bit in range(state_width):
                if (target_code >> bit) & 1:
                    next_ones[bit].add(point)
            for signal in transition.outputs:
                output_ones[signal].add(point)
    dont_cares = frozenset(
        p for p in range(1 << total_width) if p not in care_points
    )
    functions = []
    for bit in range(state_width):
        functions.append(
            function_area(
                f"{fsm.name}.ns{bit}",
                BooleanFunction(
                    width=total_width,
                    ones=frozenset(next_ones[bit]),
                    dont_cares=dont_cares,
                ),
            )
        )
    for signal in fsm.outputs:
        functions.append(
            function_area(
                f"{fsm.name}.{signal}",
                BooleanFunction(
                    width=total_width,
                    ones=frozenset(output_ones[signal]),
                    dont_cares=dont_cares,
                ),
            )
        )
    return tuple(functions)


def _structural_functions(
    fsm: FSM, encoding: StateEncoding
) -> tuple[FunctionArea, ...]:
    """Term-counting estimate without boolean minimization."""
    one_hot = encoding.style == "one-hot"
    state_literals = 1 if one_hot else encoding.width
    term_literals: dict[str, int] = {}  # per-function literal totals
    term_counts: dict[str, int] = {}

    def feed(function: str, literals: int) -> None:
        term_literals[function] = term_literals.get(function, 0) + literals
        term_counts[function] = term_counts.get(function, 0) + 1

    for t in fsm.transitions:
        literals = state_literals + len(t.guard)
        target_code = encoding.code_of(t.target)
        for bit in range(encoding.width):
            if (target_code >> bit) & 1:
                feed(f"ns{bit}", literals)
        for signal in t.outputs:
            feed(signal, literals)
    return tuple(
        FunctionArea(
            name=f"{fsm.name}.{fn}",
            num_terms=term_counts[fn],
            num_literals=term_literals[fn],
        )
        for fn in sorted(term_literals)
    )


def _encoded_logic_block(
    fsm: FSM, encoding_style: str
) -> tuple[LogicBlockArea, str]:
    """Encode, pick the estimation path once, and build the logic block.

    Returns the block and its method: ``"exact"`` when the encoding is not
    one-hot and the total input width fits
    :data:`~repro.logic.quine_mccluskey.EXACT_WIDTH_LIMIT`, otherwise
    ``"structural"``.
    """
    encoding = encode(fsm, encoding_style)
    total_width = encoding.width + len(fsm.inputs)
    exact = encoding.style != "one-hot" and total_width <= EXACT_WIDTH_LIMIT
    build = _exact_functions if exact else _structural_functions
    block = LogicBlockArea(
        name=fsm.name,
        functions=build(fsm, encoding),
        num_flip_flops=encoding.num_flip_flops,
    )
    return block, "exact" if exact else "structural"


def fsm_logic_block(
    fsm: FSM, encoding_style: str = "binary"
) -> LogicBlockArea:
    """Minimized logic block (functions + flip-flops) of an FSM."""
    return _encoded_logic_block(fsm, encoding_style)[0]


def fsm_area(
    fsm: FSM, encoding_style: str = "binary"
) -> FSMAreaReport:
    """Table-1-style area report of one FSM."""
    block, method = _encoded_logic_block(fsm, encoding_style)
    return FSMAreaReport(
        name=fsm.name,
        num_inputs=len(fsm.inputs),
        num_outputs=len(fsm.outputs),
        num_states=fsm.num_states,
        num_flip_flops=block.num_flip_flops,
        combinational_area=block.combinational_area,
        sequential_area=block.sequential_area,
        method=method,
    )


#: Comb. literals charged per completion-arrival latch (set/clear glue).
LATCH_GLUE_LITERALS = 4.0


def latch_area(num_latches: int) -> tuple[float, float]:
    """(combinational, sequential) area of completion-arrival latches."""
    return (
        LATCH_GLUE_LITERALS * num_latches,
        AREA_PER_FLIP_FLOP * num_latches,
    )
