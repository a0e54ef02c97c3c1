"""Unit tests for the communicating controller system runtime."""

import functools
import random

import pytest

from repro.api import synthesize
from repro.benchmarks.registry import benchmark, core_benchmark_names
from repro.errors import FSMError, SimulationError
from repro.fsm.algorithm1 import derive_all_unit_controllers
from repro.fsm.model import FSM, make_transition
from repro.fsm.signals import (
    is_op_completion,
    is_unit_completion,
    op_completion,
    op_of_completion,
    unit_of_completion,
)
from repro.sim.controllers import (
    ControllerSystem,
    SystemConfig,
    SystemStep,
    single_fsm_system,
    system_from_bound,
)


# ----------------------------------------------------------------------
# Oracle: the dict-based step the compiled tables replaced.  Inputs are
# rebuilt per controller as a {signal: bool} valuation and the transition
# is found by FSM.step, exactly as before compilation.
# ----------------------------------------------------------------------
class _DictStep:
    def __init__(self, system: ControllerSystem) -> None:
        self.keys = system.keys
        self.fsms = {key: system.fsm(key) for key in self.keys}
        self.consumes = system._consumes
        self.cc_inputs = {
            key: tuple(
                op_of_completion(s) for s in fsm.inputs if is_op_completion(s)
            )
            for key, fsm in self.fsms.items()
        }
        self.ct_inputs = {
            key: tuple(s for s in fsm.inputs if is_unit_completion(s))
            for key, fsm in self.fsms.items()
        }
        self.edges: dict[str, dict[str, tuple[str, ...]]] = {
            key: {} for key in self.keys
        }
        for (key, consumer), producers in self.consumes.items():
            for producer in producers:
                waiting = self.edges[key].setdefault(producer, ())
                self.edges[key][producer] = waiting + (consumer,)
        self.state_query = {
            key: {
                state: next(
                    (
                        t.queries
                        for t in fsm.transitions_from(state)
                        if any(is_op_completion(n) for n, _ in t.guard)
                    ),
                    None,
                )
                for state in fsm.states
            }
            for key, fsm in self.fsms.items()
        }

    def inputs_for(self, key, state, flags, pulses, unit_completions):
        inputs = {}
        for signal in self.ct_inputs[key]:
            inputs[signal] = bool(
                unit_completions.get(unit_of_completion(signal), False)
            )
        query = self.state_query[key].get(state)
        for producer in self.cc_inputs[key]:
            latched = query is not None and (key, query, producer) in flags
            inputs[op_completion(producer)] = latched or producer in pulses
        return inputs

    def pulse_emitters(self, config, unit_completions):
        emitters = {}
        for key, state in zip(self.keys, config.states):
            inputs = self.inputs_for(
                key, state, config.flags, frozenset(), unit_completions
            )
            transition = self.fsms[key].step(state, inputs)
            for signal in transition.outputs:
                if is_op_completion(signal):
                    op = op_of_completion(signal)
                    emitters[op] = emitters.get(op, ()) + (key,)
        return emitters

    def step(
        self,
        config,
        unit_completions,
        suppress_pulses=frozenset(),
        inject_pulses=frozenset(),
    ):
        flags = config.flags
        pulses = set()
        pass1 = {}
        for key, state in zip(self.keys, config.states):
            inputs = self.inputs_for(
                key, state, flags, frozenset(), unit_completions
            )
            transition = self.fsms[key].step(state, inputs)
            pass1[key] = transition
            for signal in transition.outputs:
                if is_op_completion(signal):
                    pulses.add(op_of_completion(signal))
        pulses -= suppress_pulses
        pulses |= inject_pulses
        pulse_set = frozenset(pulses)
        next_states, outputs, starts, completes = [], set(), set(), set()
        consumed = set()
        for key, state in zip(self.keys, config.states):
            if self.state_query[key].get(state) is None:
                transition = pass1[key]
            else:
                inputs = self.inputs_for(
                    key, state, flags, pulse_set, unit_completions
                )
                transition = self.fsms[key].step(state, inputs)
            if transition.outputs != pass1[key].outputs:
                raise SimulationError(
                    f"controller {key!r}: outputs depend on completion "
                    f"inputs (state {state!r}); the one-pass pulse "
                    f"resolution is unsound for this FSM"
                )
            next_states.append(transition.target)
            outputs |= transition.outputs
            starts |= transition.starts
            completes |= transition.completes
            for op in transition.starts:
                for producer in self.consumes.get((key, op), ()):
                    consumed.add((key, op, producer))
        new_flags, overruns = set(), set()
        for key in self.keys:
            for producer, consumers in self.edges[key].items():
                pulsed = producer in pulse_set
                for consumer in consumers:
                    edge = (key, consumer, producer)
                    had = edge in flags
                    if edge in consumed:
                        remains = had and pulsed
                    else:
                        remains = had or pulsed
                        if had and pulsed:
                            overruns.add(edge)
                    if remains:
                        new_flags.add(edge)
        return SystemStep(
            config=SystemConfig(
                states=tuple(next_states), flags=frozenset(new_flags)
            ),
            outputs=frozenset(outputs),
            starts=frozenset(starts),
            completes=frozenset(completes),
            overruns=frozenset(overruns),
        )


@functools.cache
def _oracle(system: ControllerSystem) -> _DictStep:
    return _DictStep(system)


def oracle_step(
    system: ControllerSystem,
    config: SystemConfig,
    unit_completions,
    *,
    suppress_pulses: frozenset = frozenset(),
    inject_pulses: frozenset = frozenset(),
) -> SystemStep:
    """The dict-based reference step of ``system``."""
    return _oracle(system).step(
        config, unit_completions, suppress_pulses, inject_pulses
    )


def oracle_pulse_emitters(system, config, unit_completions):
    """The dict-based reference of ``ControllerSystem.pulse_emitters``."""
    return _oracle(system).pulse_emitters(config, unit_completions)


def _outcome(call, *args, **kwargs):
    """A call's result, or the type and text of the error it raised."""
    try:
        return call(*args, **kwargs)
    except (FSMError, SimulationError) as exc:
        return type(exc), str(exc)


@pytest.fixture()
def system(fig3_result) -> ControllerSystem:
    return fig3_result.distributed.system()


class TestConfig:
    def test_initial_config(self, system, fig3_result):
        config = system.initial_config()
        assert len(config.states) == len(system.keys)
        assert config.flags == frozenset()

    def test_initial_starts_are_source_chain_heads(
        self, system, fig3_result
    ):
        bound = fig3_result.bound
        expected = {
            bound.ops_on_unit(u.name)[0]
            for u in bound.used_units()
            if not bound.cross_unit_predecessors(
                bound.ops_on_unit(u.name)[0]
            )
        }
        assert system.initial_starts() == expected

    def test_all_ops(self, system, fig3_result):
        assert system.all_ops() == set(fig3_result.dfg.op_names())


class TestStep:
    def test_pulse_delivered_same_cycle(self, system, fig3_result):
        """A completion pulse is visible to a waiting consumer in the same
        cycle (the consumer transitions at the same clock edge)."""
        config = system.initial_config()
        # Run all-fast until some flag or a cross-unit start appears.
        seen_cross_start = False
        bound = fig3_result.bound
        for _ in range(12):
            step = system.step(
                config, {u.name: True for u in bound.used_units()}
            )
            for op in step.starts:
                if bound.cross_unit_predecessors(op):
                    seen_cross_start = True
            config = step.config
        assert seen_cross_start

    def test_flag_latched_until_consumed(self, system, fig3_result):
        """If a producer finishes while the consumer is busy, the arrival
        flag persists across cycles."""
        bound = fig3_result.bound
        config = system.initial_config()
        saw_flag = False
        for _ in range(16):
            step = system.step(config, {})  # every TAU slow
            if step.config.flags:
                saw_flag = True
            config = step.config
        assert saw_flag

    def test_deterministic(self, system):
        a = system.initial_config()
        b = system.initial_config()
        for _ in range(10):
            a = system.step(a, {"TM1": True, "TM2": False}).config
            b = system.step(b, {"TM1": True, "TM2": False}).config
        assert a == b

    def test_output_independence_enforced(self):
        """A controller whose outputs depend on a CC input is rejected."""
        bad = FSM(
            name="bad",
            states=("A", "B"),
            initial="A",
            inputs=("CC_x",),
            outputs=("OF_y",),
            transitions=(
                make_transition(
                    "A", "B", {"CC_x": True}, ("OF_y",), queries="j"
                ),
                make_transition("A", "A", {"CC_x": False}, (), queries="j"),
                make_transition("B", "B", {}, ()),
            ),
        )
        producer = FSM(
            name="prod",
            states=("P",),
            initial="P",
            inputs=(),
            outputs=("CC_x",),
            transitions=(make_transition("P", "P", {}, ("CC_x",)),),
        )
        system = ControllerSystem(
            controllers={"u1": producer, "u2": bad},
            consumes={("u2", "j"): ("x",)},
        )
        with pytest.raises(SimulationError, match="outputs depend"):
            system.step(system.initial_config(), {})

    def test_empty_system_rejected(self):
        with pytest.raises(SimulationError, match=">= 1"):
            ControllerSystem(controllers={}, consumes={})


class TestTokenSemantics:
    def _make_pair(self, consume_now: bool):
        """producer pulses CC_x every cycle; consumer waits then runs."""
        producer = FSM(
            name="prod",
            states=("P",),
            initial="P",
            inputs=(),
            outputs=("CC_x",),
            transitions=(make_transition("P", "P", {}, ("CC_x",)),),
        )
        consumer = FSM(
            name="cons",
            states=("W", "E"),
            initial="W",
            inputs=("CC_x",),
            outputs=(),
            transitions=(
                make_transition(
                    "W", "E", {"CC_x": True}, starts=("j",), queries="j"
                ),
                make_transition("W", "W", {"CC_x": False}, queries="j"),
                make_transition("E", "E", {}),
            ),
        )
        return ControllerSystem(
            controllers={"u1": producer, "u2": consumer},
            consumes={("u2", "j"): ("x",)},
        )

    def test_pulse_with_simultaneous_consume_survives(self):
        system = self._make_pair(consume_now=True)
        config = system.initial_config()
        step1 = system.step(config, {})
        # Consumer consumed the pulse directly and started j; a *new*
        # pulse arrives every cycle, so the flag latches afterwards.
        assert "j" in step1.starts
        step2 = system.step(step1.config, {})
        assert ("u2", "j", "x") in step2.config.flags

    def test_overrun_reported(self):
        system = self._make_pair(consume_now=False)
        config = system.initial_config()
        step1 = system.step(config, {})  # consume + repulse
        step2 = system.step(step1.config, {})  # flag set, pulse again
        step3 = system.step(step2.config, {})
        assert step3.overruns == {("u2", "j", "x")}


def test_system_from_bound_wiring(fig3_result):
    controllers = derive_all_unit_controllers(fig3_result.bound)
    system = system_from_bound(fig3_result.bound, controllers)
    bound = fig3_result.bound
    for unit in bound.used_units():
        for op in bound.ops_on_unit(unit.name):
            preds = bound.cross_unit_predecessors(op)
            if preds:
                assert system._consumes[(unit.name, op)] == preds


def test_single_fsm_system(fig2_result):
    system = single_fsm_system(fig2_result.cent_sync_fsm)
    assert system.keys == ("central",)
    assert system.all_ops() == set(fig2_result.dfg.op_names())


def test_foreign_guard_input_rejected():
    """A guard on an input that is neither C_ nor CC_ cannot be compiled."""
    odd = FSM(
        name="odd",
        states=("A", "B"),
        initial="A",
        inputs=("C_TM1", "GO"),
        outputs=(),
        transitions=(
            make_transition("A", "B", {"GO": True}),
            make_transition("A", "A", {"GO": False}),
            make_transition("B", "B", {"C_TM1": True}),
            make_transition("B", "A", {"C_TM1": False}),
        ),
    )
    with pytest.raises(SimulationError, match="'GO', which is neither"):
        single_fsm_system(odd)


def test_no_transition_error_matches_oracle():
    """An incomplete state raises the FSMError text of FSM.step."""
    gap = FSM(
        name="gap",
        states=("A", "B"),
        initial="A",
        inputs=("C_TM1", "CC_x"),
        outputs=(),
        transitions=(
            make_transition("A", "B", {"C_TM1": True}),
            make_transition("B", "B", {"CC_x": False}, queries="j"),
        ),
    )
    producer = FSM(
        name="prod",
        states=("P",),
        initial="P",
        inputs=(),
        outputs=("CC_x",),
        transitions=(make_transition("P", "P", {}, ("CC_x",)),),
    )
    system = ControllerSystem(
        controllers={"u2": gap, "u1": producer},
        consumes={("u2", "j"): ("x",)},
    )
    config = system.initial_config()
    stuck = _outcome(system.step, config, {"TM1": False})
    assert stuck[0] is FSMError
    assert "no transition from 'A'" in stuck[1]
    assert stuck == _outcome(oracle_step, system, config, {"TM1": False})
    # B has no row for a CC_x pulse: pass 1 (flags only) matches, pass 2
    # does not, and its message shows the pulsed input
    waiting = SystemConfig(states=("B", "P"), flags=frozenset())
    pulsed = _outcome(system.step, waiting, {})
    assert pulsed[0] is FSMError and "'CC_x': True" in pulsed[1]
    assert pulsed == _outcome(oracle_step, system, waiting, {})
    quiet = system.step(waiting, {}, suppress_pulses=frozenset({"x"}))
    assert quiet == oracle_step(
        system, waiting, {}, suppress_pulses=frozenset({"x"})
    )


#: designs whose reachable controller configurations the differential
#: property walks: the ten core benchmarks and the two generated designs
#: with committed verification baselines
DIFFERENTIAL_DESIGNS = core_benchmark_names() + (
    "gen:ops=14,depth=4,fanout=3,mix=2-2-1,pressure=3,seed=5",
    "gen:ops=20,depth=5,fanout=2,mix=2-2-1,pressure=3,seed=2",
)
#: configurations visited per (design, style)
WALK_CONFIGS = 150


@pytest.mark.parametrize("style", ("dist", "cent-sync"))
@pytest.mark.parametrize("name", DIFFERENTIAL_DESIGNS)
def test_compiled_step_matches_dict_oracle(name, style):
    """The compiled step equals the dict-based step on reachable configs.

    From the initial configuration, a seeded walk visits configurations
    reachable under clean steps and under completion-net glitches.  At
    each one every completion assignment is stepped, once clean and once
    with random suppressed and injected pulses, and the results, errors
    included, must equal the oracle's, as must ``pulse_emitters``.
    """
    entry = benchmark(name)
    result = synthesize(entry.dfg(), entry.allocation())
    system = result.system(style)
    units = [s.removeprefix("C_") for s in system.unit_completion_inputs()]
    ops = sorted(system.all_ops())
    rng = random.Random(f"{name}:{style}")
    seen = {system.initial_config()}
    frontier = [system.initial_config()]
    visited = 0
    while frontier and visited < WALK_CONFIGS:
        config = frontier.pop(rng.randrange(len(frontier)))
        visited += 1
        for assignment in range(1 << len(units)):
            completions = {
                unit: bool((assignment >> i) & 1)
                for i, unit in enumerate(units)
            }
            assert _outcome(
                system.pulse_emitters, config, completions
            ) == _outcome(oracle_pulse_emitters, system, config, completions)
            suppress = frozenset(o for o in ops if rng.random() < 0.2)
            inject = frozenset(o for o in ops if rng.random() < 0.2)
            for pulses in ({}, {
                "suppress_pulses": suppress, "inject_pulses": inject
            }):
                got = _outcome(system.step, config, completions, **pulses)
                assert got == _outcome(
                    oracle_step, system, config, completions, **pulses
                ), (config, completions, pulses)
                if isinstance(got, SystemStep) and got.config not in seen:
                    seen.add(got.config)
                    frontier.append(got.config)
    assert visited == min(WALK_CONFIGS, len(seen))
