"""Communicating controller FSMs with completion-signal latches.

The distributed control unit is a *set* of synchronous FSMs exchanging
completion pulses (paper Fig. 7).  This module gives that set an exact
cycle semantics:

* Every controller steps once per clock.
* A controller's ``CC_*`` inputs see the corresponding producer's pulse in
  the cycle it is emitted *or* the latched arrival flag afterwards; a flag
  clears when the consumer starts the operation that waited on it (token
  semantics, see DESIGN.md §2 "completion-signal latching").
* ``C_<unit>`` inputs are external per cycle (they come from the CSGs of
  the telescopic units; the simulator derives them from a completion
  model, the product-FSM builder treats them as free inputs).

The step function is *pure* over an immutable :class:`SystemConfig`, so the
same code drives the cycle-accurate simulator and the exhaustive product
construction of the centralized CENT-FSM — guaranteeing by construction
the paper's claim that CENT-FSM behaves exactly like the distributed unit.

A structural property makes one-pass pulse resolution sound: a controller's
*outputs* never depend on its ``CC_*`` inputs (only the chosen target state
does).  Algorithm 1 produces only such FSMs; the step function verifies the
property at run time and fails loudly otherwise.

The step is compiled.  :class:`ControllerSystem` translates every
controller once, when it is built: the ``C_<unit>`` inputs and then the
``CC_<op>`` inputs get local bit positions, and each state becomes a
table of its outgoing transitions in declaration order, each guard a
``(care, value)`` mask pair over those bits.  Each table row also holds
the transition's ``CC`` pulses and the ``(controller, op, producer)``
arrival latches its starts consume.  A step then packs each
controller's inputs into one int and takes the first row with
``bits & care == value`` — the first-match rule of
:meth:`~repro.fsm.model.FSM.step` — so the CENT-FSM builder, the
simulators, the model checker and the fault campaigns all run on table
lookups rather than on per-cycle signal-name parsing.
"""

from __future__ import annotations

from dataclasses import dataclass
from collections.abc import Mapping

from ..binding.binder import BoundDataflowGraph
from ..errors import FSMError, SimulationError
from ..fsm.model import FSM, Transition
from ..fsm.signals import (
    is_op_completion,
    is_unit_completion,
    op_completion,
    op_of_completion,
    unit_of_completion,
)


@dataclass(frozen=True)
class SystemConfig:
    """Immutable snapshot of all controller states and arrival flags.

    Flags are kept per dependence *edge* — (controller key, consumer op,
    producer op) — because one producer may feed several operations on the
    same unit and each waits on its own token (a shared per-producer latch
    would let the first consumer starve the second).
    """

    states: tuple[str, ...]
    flags: frozenset[tuple[str, str, str]]


@dataclass(frozen=True)
class SystemStep:
    """Result of advancing the controller system by one clock cycle.

    ``overruns`` lists (controller, consumer op, producer op) edges whose
    1-bit arrival latch received a second completion pulse before the first
    was consumed — impossible within one dataflow iteration, but observable
    under overlapped iterations, where it marks the point a real design
    would need deeper token buffering.
    """

    config: SystemConfig
    outputs: frozenset[str]
    starts: frozenset[str]
    completes: frozenset[str]
    overruns: frozenset[tuple[str, str, str]] = frozenset()


_NONE: frozenset[str] = frozenset()


class _Row:
    """One compiled transition: a guard mask pair and its precomputed effects.

    ``pulses`` are the operations whose ``CC`` wire the transition asserts
    (sorted); ``consumed`` are the arrival-latch edges its starts eat.
    """

    __slots__ = (
        "care", "value", "target", "outputs", "starts", "completes",
        "pulses", "consumed",
    )

    def __init__(
        self,
        transition: Transition,
        bit_of: Mapping[str, int],
        consumed: tuple[tuple[str, str, str], ...],
    ) -> None:
        care = value = 0
        for name, required in transition.guard:
            care |= bit_of[name]
            if required:
                value |= bit_of[name]
        self.care = care
        self.value = value
        self.target = transition.target
        self.outputs = transition.outputs
        self.starts = transition.starts
        self.completes = transition.completes
        self.pulses = tuple(
            sorted(
                op_of_completion(s)
                for s in transition.outputs
                if is_op_completion(s)
            )
        )
        self.consumed = consumed


class _StateTable:
    """The compiled outgoing transitions of one controller state.

    ``units`` and ``producers`` pair the ``C_<unit>`` and ``CC_<op>``
    inputs the state's guards reference with their bit masks;
    ``latches`` pairs the arrival-flag edge each referenced ``CC`` input
    reads (through the state's query op) with the same mask.  ``fixed``
    is the row taken whatever the inputs are, when the first row's guard
    is empty.
    """

    __slots__ = ("query", "units", "latches", "producers", "rows", "fixed")

    def __init__(
        self,
        query: "str | None",
        units: tuple[tuple[str, int], ...],
        latches: tuple[tuple[tuple[str, str, str], int], ...],
        producers: tuple[tuple[str, int], ...],
        rows: tuple[_Row, ...],
    ) -> None:
        self.query = query
        self.units = units
        self.latches = latches
        self.producers = producers
        self.rows = rows
        self.fixed = rows[0] if rows and rows[0].care == 0 else None


class _Controller:
    """One controller FSM compiled to per-state tables."""

    __slots__ = ("key", "fsm", "unit_signals", "producers", "tables")

    def __init__(
        self,
        key: str,
        fsm: FSM,
        consumes: Mapping[tuple[str, str], tuple[str, ...]],
    ) -> None:
        self.key = key
        self.fsm = fsm
        self.unit_signals = tuple(
            dict.fromkeys(s for s in fsm.inputs if is_unit_completion(s))
        )
        self.producers = tuple(
            dict.fromkeys(
                op_of_completion(s) for s in fsm.inputs if is_op_completion(s)
            )
        )
        # Local input bits: the C_ inputs first, then the CC_ inputs.
        names = self.unit_signals + tuple(
            op_completion(p) for p in self.producers
        )
        bit_of = {name: 1 << i for i, name in enumerate(names)}
        self.tables: dict[str, _StateTable] = {}
        for state in fsm.states:
            outgoing = fsm.transitions_from(state)
            queries = set()
            referenced: set[str] = set()
            for t in outgoing:
                for name, _ in t.guard:
                    if not (
                        is_unit_completion(name) or is_op_completion(name)
                    ):
                        raise SimulationError(
                            f"controller {key!r}: transition {t} guards on "
                            f"{name!r}, which is neither a unit (C_) nor an "
                            f"operation (CC_) completion signal"
                        )
                    referenced.add(name)
                if any(is_op_completion(n) for n, _ in t.guard):
                    if t.queries is None:
                        raise SimulationError(
                            f"controller {key!r}: transition {t} guards "
                            f"on completion signals without a query op"
                        )
                    queries.add(t.queries)
            if len(queries) > 1:
                raise SimulationError(
                    f"controller {key!r}: state {state!r} queries "
                    f"tokens of several ops {sorted(queries)}"
                )
            query = next(iter(queries), None)
            producers = tuple(
                (p, bit_of[op_completion(p)])
                for p in self.producers
                if op_completion(p) in referenced
            )
            rows = tuple(
                _Row(
                    t,
                    bit_of,
                    tuple(
                        (key, op, producer)
                        for op in sorted(t.starts)
                        for producer in consumes.get((key, op), ())
                    ),
                )
                for t in outgoing
            )
            self.tables[state] = _StateTable(
                query=query,
                units=tuple(
                    (unit_of_completion(s), bit_of[s])
                    for s in self.unit_signals
                    if s in referenced
                ),
                latches=tuple(
                    ((key, query, p), mask) for p, mask in producers
                ),
                producers=producers,
                rows=rows,
            )

    def no_transition(
        self,
        state: str,
        flags: frozenset[tuple[str, str, str]],
        pulses: frozenset[str],
        unit_completions: Mapping[str, bool],
    ) -> FSMError:
        """The error for a state without a matching row, naming its inputs."""
        table = self.tables.get(state)
        query = table.query if table is not None else None
        inputs: dict[str, bool] = {}
        for signal in self.unit_signals:
            inputs[signal] = bool(
                unit_completions.get(unit_of_completion(signal), False)
            )
        for producer in self.producers:
            inputs[op_completion(producer)] = (
                query is not None and (self.key, query, producer) in flags
            ) or producer in pulses
        return FSMError(
            f"FSM {self.fsm.name!r}: no transition from {state!r} under "
            f"{inputs}"
        )


class ControllerSystem:
    """A fixed set of controller FSMs plus the completion-latch wiring.

    ``consumes`` maps ``(controller key, started op)`` to the producer
    operations whose arrival flags that start consumes — i.e. the op's
    cross-unit direct predecessors.  Use :func:`system_from_bound` to build
    it from a bound graph.  Construction compiles every controller into
    the guard tables :meth:`step` runs on (see the module docstring); the
    system is immutable afterwards, so one instance serves any number of
    simulations.
    """

    def __init__(
        self,
        controllers: Mapping[str, FSM],
        consumes: Mapping[tuple[str, str], tuple[str, ...]],
    ) -> None:
        if not controllers:
            raise SimulationError("controller system needs >= 1 controller")
        self._keys = tuple(controllers)
        self._fsms = dict(controllers)
        self._consumes = dict(consumes)
        # Dependence edges per controller: producer -> waiting consumer ops.
        waiting: dict[str, dict[str, tuple[str, ...]]] = {
            key: {} for key in self._keys
        }
        for (key, consumer), producers in self._consumes.items():
            if key not in self._fsms:
                raise SimulationError(f"consumes references unknown {key!r}")
            for producer in producers:
                consumers = waiting[key].setdefault(producer, ())
                waiting[key][producer] = consumers + (consumer,)
        self._dependence_edges = tuple(
            (key, consumer, producer)
            for key in self._keys
            for producer, consumers in sorted(waiting[key].items())
            for consumer in consumers
        )
        self._edge_set = frozenset(self._dependence_edges)
        edges_of: dict[str, list[tuple[str, str, str]]] = {}
        for edge in self._dependence_edges:
            edges_of.setdefault(edge[2], []).append(edge)
        self._edges_of = {p: tuple(es) for p, es in edges_of.items()}
        self._controllers = tuple(
            _Controller(key, self._fsms[key], self._consumes)
            for key in self._keys
        )
        self._unit_completion_inputs = tuple(
            dict.fromkeys(
                s for c in self._controllers for s in c.unit_signals
            )
        )
        ops: set[str] = set()
        starts: set[str] = set()
        for fsm in self._fsms.values():
            ops |= fsm.initial_starts
            starts |= fsm.initial_starts
            for t in fsm.transitions:
                ops |= t.starts | t.completes
        self._all_ops = frozenset(ops)
        self._initial_starts = frozenset(starts)

    # -- introspection -----------------------------------------------------
    @property
    def keys(self) -> tuple[str, ...]:
        """Controller keys (usually unit names), stable order."""
        return self._keys

    def fsm(self, key: str) -> FSM:
        """The FSM of one controller."""
        return self._fsms[key]

    def unit_completion_inputs(self) -> tuple[str, ...]:
        """All distinct ``C_<unit>`` signals any controller references."""
        return self._unit_completion_inputs

    def dependence_edges(self) -> tuple[tuple[str, str, str], ...]:
        """All (controller, consumer op, producer op) arrival-latch edges.

        One entry per 1-bit completion-arrival latch of the distributed
        unit — the exact set of places a handshake fault can strike.  Empty
        for centralized (single-FSM) systems, which have no inter-controller
        nets.
        """
        return self._dependence_edges

    def pulse_emitters(
        self,
        config: SystemConfig,
        unit_completions: Mapping[str, bool],
    ) -> dict[str, tuple[str, ...]]:
        """Which controller(s) emit each ``CC`` pulse this cycle.

        Mirrors pass 1 of :meth:`step` (flag-only CC inputs — sound
        because outputs never depend on CC inputs) without advancing any
        state.  The result maps the pulsed operation to the emitting
        controller keys, in key order; a healthy network never has two
        emitters for one operation in the same cycle, which is exactly
        what the model checker's MC-RACE rule looks for.
        """
        emitters: dict[str, tuple[str, ...]] = {}
        for controller, _, _, _, row in self._first_pass(
            config, unit_completions
        ):
            for op in row.pulses:
                emitters[op] = emitters.get(op, ()) + (controller.key,)
        return emitters

    def all_ops(self) -> frozenset[str]:
        """Every operation some controller starts or completes."""
        return self._all_ops

    # -- configuration -------------------------------------------------------
    def initial_config(self) -> SystemConfig:
        """All controllers in their initial states, no flags latched."""
        return SystemConfig(
            states=tuple(self._fsms[k].initial for k in self._keys),
            flags=frozenset(),
        )

    def initial_starts(self) -> frozenset[str]:
        """Operations executing during cycle 0."""
        return self._initial_starts

    # -- the cycle ----------------------------------------------------------
    def _first_pass(
        self,
        config: SystemConfig,
        unit_completions: Mapping[str, bool],
    ) -> list[tuple[_Controller, str, _StateTable, int, _Row]]:
        """Pass 1 of a step: each controller's row with flag-only CC inputs.

        Returns ``(controller, state, table, input bits, row)`` per
        controller, in key order.
        """
        flags = config.flags
        get = unit_completions.get
        chosen: list[tuple[_Controller, str, _StateTable, int, _Row]] = []
        for controller, state in zip(self._controllers, config.states):
            table = controller.tables.get(state)
            if table is None:
                raise controller.no_transition(
                    state, flags, frozenset(), unit_completions
                )
            if table.fixed is not None:
                chosen.append((controller, state, table, 0, table.fixed))
                continue
            bits = 0
            for unit, mask in table.units:
                if get(unit, False):
                    bits |= mask
            for edge, mask in table.latches:
                if edge in flags:
                    bits |= mask
            for row in table.rows:
                if bits & row.care == row.value:
                    break
            else:
                raise controller.no_transition(
                    state, flags, frozenset(), unit_completions
                )
            chosen.append((controller, state, table, bits, row))
        return chosen

    def step(
        self,
        config: SystemConfig,
        unit_completions: Mapping[str, bool],
        *,
        suppress_pulses: frozenset[str] = frozenset(),
        inject_pulses: frozenset[str] = frozenset(),
    ) -> SystemStep:
        """Advance every controller by one clock edge.

        ``unit_completions`` maps unit names to their CSG value during the
        current cycle (missing units read as 0, which is only legal when
        the corresponding input is not referenced this cycle — enforced by
        the FSM semantics being insensitive to unreferenced inputs).

        ``suppress_pulses`` / ``inject_pulses`` model glitches on the
        inter-controller completion nets: a suppressed producer's ``CC``
        pulse is emitted by its FSM but reaches no consumer and no latch
        this cycle; an injected producer pulses spuriously.  Both default
        to empty (the fault-free wire); :mod:`repro.faults` drives them.
        The step function stays pure — no internal state is mutated.
        """
        flags = config.flags
        # Pass 1: outputs (hence CC pulses) with flag-only CC inputs.
        chosen = self._first_pass(config, unit_completions)
        pulses: set[str] = set()
        for entry in chosen:
            if entry[4].pulses:
                pulses.update(entry[4].pulses)
        pulses -= suppress_pulses
        pulses |= inject_pulses
        pulse_set = frozenset(pulses)
        # Pass 2: state choice with pulse-or-flag CC inputs.  Only a state
        # whose guards reference a completion signal (it has a query op)
        # can pick another row, and only when a pulse sets one of its
        # bits; every other controller keeps its pass-1 row — most
        # controllers spend most cycles in such states (counting down
        # C_<unit>), making this the common case.
        rows: list[_Row] = []
        for controller, state, table, bits, first in chosen:
            row = first
            if pulse_set and table.producers:
                pulsed = bits
                for producer, mask in table.producers:
                    if producer in pulse_set:
                        pulsed |= mask
                if pulsed != bits:
                    for candidate in table.rows:
                        if pulsed & candidate.care == candidate.value:
                            row = candidate
                            break
                    else:
                        raise controller.no_transition(
                            state, flags, pulse_set, unit_completions
                        )
                    if row.outputs != first.outputs:
                        raise SimulationError(
                            f"controller {controller.key!r}: outputs "
                            f"depend on completion inputs (state "
                            f"{state!r}); the one-pass pulse resolution "
                            f"is unsound for this FSM"
                        )
            rows.append(row)
        consumed: set[tuple[str, str, str]] = set()
        for row in rows:
            if row.consumed:
                consumed.update(row.consumed)
        # Latch update per dependence edge: a consumption eats exactly one
        # token; a pulse that coincides with a consumption of the
        # previously latched token therefore survives, and a pulse hitting
        # an unconsumed latched token is a (reported) overrun.  Only the
        # latched edges and the edges of pulsed producers can be set
        # afterwards; flags on edges outside the wiring are dropped.
        new_flags: set[tuple[str, str, str]] = set()
        overruns: set[tuple[str, str, str]] = set()
        for edge in flags:
            if edge not in self._edge_set:
                continue
            pulsed_edge = edge[2] in pulse_set
            if edge in consumed:
                if pulsed_edge:
                    new_flags.add(edge)
            else:
                new_flags.add(edge)
                if pulsed_edge:
                    overruns.add(edge)
        for producer in pulse_set:
            for edge in self._edges_of.get(producer, ()):
                if edge not in flags and edge not in consumed:
                    new_flags.add(edge)
        return SystemStep(
            config=SystemConfig(
                states=tuple([row.target for row in rows]),
                flags=frozenset(new_flags),
            ),
            outputs=_NONE.union(*[row.outputs for row in rows]),
            starts=_NONE.union(*[row.starts for row in rows]),
            completes=_NONE.union(*[row.completes for row in rows]),
            overruns=frozenset(overruns),
        )


def system_from_bound(
    bound: BoundDataflowGraph, controllers: Mapping[str, FSM]
) -> ControllerSystem:
    """Build the consumption wiring for per-unit controllers.

    A controller starting operation ``o`` consumes the arrival flags of
    ``o``'s cross-unit direct predecessors.
    """
    consumes: dict[tuple[str, str], tuple[str, ...]] = {}
    for key in controllers:
        for op in bound.ops_on_unit(key):
            preds = bound.cross_unit_predecessors(op)
            if preds:
                consumes[(key, op)] = preds
    return ControllerSystem(controllers=controllers, consumes=consumes)


def single_fsm_system(fsm: FSM, key: str = "central") -> ControllerSystem:
    """Wrap a centralized FSM (no CC wiring) as a controller system."""
    return ControllerSystem(controllers={key: fsm}, consumes={})
