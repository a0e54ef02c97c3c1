"""Centralized CENT-FSM construction (paper Fig. 4(a)).

The non-synchronized centralized controller tracks every telescopic unit
independently inside one FSM.  We construct it as the *reachable product
automaton* of the distributed per-unit controllers (including the
completion-arrival flags, which become product state bits): by
construction it is cycle-for-cycle equivalent to the distributed control
unit — exactly the paper's observation that "CENT-FSM guarantees
performance as good as DIST-FSM" — while materializing the exponential
state growth the paper warns about (a state with ``n`` TAUs in flight has
``2**n`` outgoing completion-signal combinations).
"""

from __future__ import annotations

from ..binding.binder import BoundDataflowGraph
from ..errors import FSMError
from ..logic.terms import BooleanFunction
from ..logic.quine_mccluskey import minimize
from ..sim.controllers import ControllerSystem, SystemConfig, system_from_bound
from .algorithm1 import derive_all_unit_controllers
from .model import FSM, Transition, make_transition


def _state_label(config: SystemConfig, keys: tuple[str, ...]) -> str:
    body = "/".join(
        f"{key}.{state}" for key, state in zip(keys, config.states)
    )
    if config.flags:
        latched = ",".join(
            f"{key}:{producer}>{consumer}"
            for key, consumer, producer in sorted(config.flags)
        )
        return f"{body}[{latched}]"
    return body


def build_product_fsm(
    system: ControllerSystem,
    name: str = "CENT-FSM",
    max_states: int = 20000,
) -> FSM:
    """Reachable synchronous product of a controller system.

    External inputs are the telescopic units' completion signals; all
    operation-completion exchange and arrival latching is folded into the
    product state.  Guards over the completion signals are minimized per
    (source, target, outputs) group, so a state whose components ignore a
    unit's completion does not enumerate it.
    """
    signals = system.unit_completion_inputs()
    units = tuple(s.removeprefix("C_") for s in signals)
    width = len(signals)

    initial = system.initial_config()
    labels: dict[SystemConfig, str] = {initial: _state_label(initial, system.keys)}
    order: list[SystemConfig] = [initial]
    transitions: list[Transition] = []
    outputs: set[str] = set()

    assignments = [
        {unit: bool((assignment >> i) & 1) for i, unit in enumerate(units)}
        for assignment in range(1 << width)
    ]
    # Guard covers per minterm set: the same few completion patterns
    # recur across thousands of (source, target, outputs) groups.
    covers: dict[frozenset[int], tuple[dict[str, bool], ...]] = {}

    frontier = [initial]
    while frontier:
        config = frontier.pop()
        # Group the 2**width successor evaluations for guard minimization.
        groups: dict[
            tuple[SystemConfig, frozenset[str], frozenset[str], frozenset[str]],
            set[int],
        ] = {}
        for assignment, values in enumerate(assignments):
            step = system.step(config, values)
            key = (step.config, step.outputs, step.starts, step.completes)
            groups.setdefault(key, set()).add(assignment)
        for (next_config, outs, starts, completes), minterms in groups.items():
            if next_config not in labels:
                if len(labels) >= max_states:
                    raise FSMError(
                        f"product FSM exceeds {max_states} states; the "
                        f"exponential growth of Fig. 4(a) is untamable here"
                    )
                labels[next_config] = _state_label(next_config, system.keys)
                order.append(next_config)
                frontier.append(next_config)
            outputs |= outs
            if len(minterms) == 1 << width:
                cubes: tuple[dict[str, bool], ...] = ({},)
            else:
                ones = frozenset(minterms)
                if ones not in covers:
                    cover = minimize(BooleanFunction(width=width, ones=ones))
                    covers[ones] = tuple(
                        {
                            signals[i]: bool((cube.value >> i) & 1)
                            for i in range(width)
                            if (cube.care >> i) & 1
                        }
                        for cube in cover
                    )
                cubes = covers[ones]
            for guard in cubes:
                transitions.append(
                    make_transition(
                        labels[config],
                        labels[next_config],
                        guard,
                        outs,
                        starts=starts,
                        completes=completes,
                    )
                )

    fsm = FSM(
        name=name,
        states=tuple(labels[c] for c in order),
        initial=labels[initial],
        inputs=signals,
        outputs=tuple(sorted(outputs)),
        transitions=tuple(transitions),
        initial_starts=system.initial_starts(),
    )
    fsm.validate()
    return fsm


def build_cent_fsm(
    bound: BoundDataflowGraph,
    name: str = "CENT-FSM",
    max_states: int = 20000,
) -> FSM:
    """CENT-FSM of a bound graph (product of its Algorithm-1 controllers)."""
    controllers = derive_all_unit_controllers(bound)
    system = system_from_bound(bound, controllers)
    return build_product_fsm(system, name=name, max_states=max_states)
