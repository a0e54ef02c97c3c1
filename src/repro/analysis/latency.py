"""Exact and Monte-Carlo latency analysis (the paper's Table 2 engine).

Two closed execution models (derived in DESIGN.md §2):

* **Distributed** — an operation starts the cycle after all of its data
  predecessors, schedule-arc predecessors and unit predecessor finished,
  so for a fixed fast/slow assignment the latency is the node-weighted
  longest path of the execution graph (weights 1 or 2 cycles).
* **Synchronized TAUBM** — each time step takes one cycle, plus one
  extension cycle when any of its TAU operations is slow.

Expectations over i.i.d. Bernoulli(P) fast/slow outcomes are computed
*exactly* by enumerating the ``2**k`` assignments of the ``k`` telescopic
operations (weighted by the binomial probabilities) when ``k`` is small
enough, and by seeded Monte-Carlo sampling otherwise.  The cycle-accurate
simulator must agree with both models assignment-for-assignment; tests
enforce it.
"""

from __future__ import annotations

import itertools
import random
from dataclasses import dataclass
from collections.abc import Callable, Mapping, Sequence

from ..binding.binder import BoundDataflowGraph
from ..core.analysis import schedule_length
from ..errors import ExactAnalysisError, SimulationError
from ..scheduling.schedule import TaubmSchedule

#: Default limit on exhaustive enumeration (2**20 assignments).
EXACT_ENUMERATION_LIMIT = 20


class DistLatencyEvaluator:
    """Compiled longest-path evaluator for one bound graph.

    Precomputes the topological order and predecessor lists of the
    execution graph once so exhaustive enumeration over ``2**k`` fast/slow
    assignments stays cheap (Table 2's AR-lattice row evaluates 65536
    assignments per P value).
    """

    def __init__(self, bound: BoundDataflowGraph) -> None:
        dfg = bound.dfg
        names = list(dfg.op_names())
        index = {name: i for i, name in enumerate(names)}
        preds: list[set[int]] = [set() for _ in names]
        for u, v in bound.execution_edges():
            preds[index[v]].add(index[u])
        # Kahn order over the combined graph.
        indegree = [len(p) for p in preds]
        succs: list[list[int]] = [[] for _ in names]
        for v, plist in enumerate(preds):
            for u in plist:
                succs[u].append(v)
        ready = [i for i, n in enumerate(indegree) if n == 0]
        order: list[int] = []
        while ready:
            node = ready.pop()
            order.append(node)
            for succ in succs[node]:
                indegree[succ] -= 1
                if indegree[succ] == 0:
                    ready.append(succ)
        self._names = names
        self._order = order
        self._preds = [tuple(p) for p in preds]
        self._fast_dur = [
            bound.duration_cycles(name, fast=True) for name in names
        ]
        self._slow_dur = [
            bound.duration_cycles(name, fast=False) for name in names
        ]

    def __call__(self, fast: Mapping[str, bool]) -> int:
        finish = [0] * len(self._names)
        for i in self._order:
            dur = (
                self._fast_dur[i]
                if fast.get(self._names[i], True)
                else self._slow_dur[i]
            )
            finish[i] = dur + max(
                (finish[p] for p in self._preds[i]), default=0
            )
        return max(finish) if finish else 0

    def for_durations(self, durations: Mapping[str, int]) -> int:
        """Latency for explicit per-op cycle counts (multi-level VCAUs).

        Missing operations default to their fastest duration.
        """
        finish = [0] * len(self._names)
        for i in self._order:
            dur = durations.get(self._names[i], self._fast_dur[i])
            finish[i] = dur + max(
                (finish[p] for p in self._preds[i]), default=0
            )
        return max(finish) if finish else 0

    def execution_structure(
        self,
    ) -> tuple[
        tuple[str, ...],
        tuple[tuple[int, ...], ...],
        tuple[int, ...],
        tuple[int, ...],
    ]:
        """``(names, predecessor_indices, fast_durs, slow_durs)``.

        The compiled execution-graph structure, exposed for the exact
        engine's distribution propagation (:mod:`.exact_engine`).
        """
        return (
            tuple(self._names),
            tuple(self._preds),
            tuple(self._fast_dur),
            tuple(self._slow_dur),
        )


class SyncLatencyEvaluator:
    """Compiled CENT-SYNC (TAUBM) latency evaluator.

    The callable mirrors :func:`sync_latency_cycles` — one cycle per
    step plus an extension when any of the step's TAU ops is slow, with
    unmentioned ops defaulting to fast — but carries the schedule
    structure so the exact engine can use the closed-form per-step model
    instead of enumeration.
    """

    def __init__(self, taubm: TaubmSchedule) -> None:
        self.taubm = taubm
        self._steps = [
            (step.tau_ops, bool(step.tau_ops)) for step in taubm.steps
        ]

    def __call__(self, fast: Mapping[str, bool]) -> int:
        total = 0
        for tau_ops, has_extension in self._steps:
            total += 1
            if has_extension and not all(
                fast.get(op, True) for op in tau_ops
            ):
                total += 1
        return total

    def for_durations(self, durations: Mapping[str, int]) -> int:
        """Latency for explicit per-op cycle counts (multi-level VCAUs)."""
        return self.taubm.cycles_for_durations(durations)


def dist_latency_cycles(
    bound: BoundDataflowGraph, fast: Mapping[str, bool]
) -> int:
    """Distributed latency (cycles) for one fast/slow assignment."""
    durations = {
        op.name: bound.duration_cycles(op.name, fast.get(op.name, True))
        for op in bound.dfg
    }
    return schedule_length(
        bound.dfg, durations, extra_edges=bound.order.schedule_arcs
    )


def sync_latency_cycles(
    taubm: TaubmSchedule, fast: Mapping[str, bool]
) -> int:
    """Synchronized TAUBM latency (cycles) for one assignment."""
    return taubm.cycles_for(
        {op: fast.get(op, True) for op in _tau_ops_of(taubm)}
    )


def _tau_ops_of(taubm: TaubmSchedule) -> tuple[str, ...]:
    return tuple(
        op for step in taubm.steps for op in step.tau_ops
    )


LatencyFn = Callable[[Mapping[str, bool]], int]


def enumerate_assignments(
    tau_ops: Sequence[str],
) -> "itertools.product":
    """All fast/slow assignments of the telescopic operations."""
    return itertools.product((False, True), repeat=len(tau_ops))


def _op_p(p: "float | Mapping[str, float]", op: str) -> float:
    if isinstance(p, Mapping):
        try:
            return p[op]
        except KeyError:
            raise SimulationError(
                f"per-op probability mapping is missing TAU op {op!r}"
            ) from None
    return p


def _check_p_values(p: "float | Mapping[str, float]") -> None:
    values = p.values() if isinstance(p, Mapping) else (p,)
    for value in values:
        if not 0.0 <= value <= 1.0:
            raise SimulationError(f"P must be in [0, 1], got {value}")


def _engine_analysis(
    latency_fn: LatencyFn, tau_ops: Sequence[str], p: "float | Mapping[str, float]"
) -> "object | None":
    """Exact-engine analysis for structured evaluators, else ``None``.

    Compiled evaluators expose the graph/schedule structure, so the
    exact engine can propagate distributions instead of enumerating
    ``2**k`` assignments; opaque callables keep the legacy enumerator.
    Raises :class:`~repro.errors.ExactAnalysisError` when the structure
    is too correlated for exact propagation.
    """
    from .exact_engine import analyze_dist_latency, analyze_sync_latency

    if isinstance(latency_fn, DistLatencyEvaluator):
        return analyze_dist_latency(latency_fn, tau_ops, p)
    if isinstance(latency_fn, SyncLatencyEvaluator):
        return analyze_sync_latency(latency_fn.taubm, tau_ops, p)
    return None


def exact_expected_latency(
    latency_fn: LatencyFn,
    tau_ops: Sequence[str],
    p: "float | Mapping[str, float]",
    limit: int = EXACT_ENUMERATION_LIMIT,
) -> float:
    """Exact expectation: distribution propagation, else enumeration.

    ``p`` is the shared scalar probability or a per-op mapping (a
    heterogeneous per-unit spec resolved through
    :meth:`~repro.resources.spec.CompletionSpec.op_probabilities`).
    Structured evaluators (:class:`DistLatencyEvaluator`,
    :class:`SyncLatencyEvaluator`) dispatch to the exact engine and are
    feasible at any ``k``; opaque callables fall back to exhaustive
    ``2**k`` enumeration, bounded by ``limit``.
    """
    try:
        analysis = _engine_analysis(latency_fn, tau_ops, p)
    except ExactAnalysisError:
        if len(tau_ops) > limit:
            raise
        analysis = None  # cut too wide but enumeration still feasible
    if analysis is not None:
        return analysis.expectation
    if len(tau_ops) > limit:
        raise SimulationError(
            f"{len(tau_ops)} telescopic ops exceed the exact enumeration "
            f"limit {limit}; use monte_carlo_expected_latency"
        )
    _check_p_values(p)
    total = 0.0
    for values in enumerate_assignments(tau_ops):
        fast = dict(zip(tau_ops, values))
        if isinstance(p, Mapping):
            weight = 1.0
            for op, is_fast in zip(tau_ops, values):
                p_op = _op_p(p, op)
                weight *= p_op if is_fast else 1.0 - p_op
        else:
            # keep the power form: byte-identical to the legacy scalar path
            fast_count = sum(values)
            weight = (p ** fast_count) * (
                (1.0 - p) ** (len(tau_ops) - fast_count)
            )
        if weight == 0.0:
            continue
        total += weight * latency_fn(fast)
    return total


#: A categorical duration table: op -> ((cycles, probability), ...).
DurationTable = Mapping[str, Sequence[tuple[int, float]]]


def duration_table(
    bound: BoundDataflowGraph, level_probabilities: Sequence[float]
) -> dict[str, tuple[tuple[int, float], ...]]:
    """Per-op (cycles, probability) rows for i.i.d. level outcomes.

    Telescope levels that quantize to the same cycle count at the system
    clock are merged (their probabilities add).
    """
    table: dict[str, tuple[tuple[int, float], ...]] = {}
    for op in bound.telescopic_ops():
        unit = bound.unit_of(op)
        if len(level_probabilities) != unit.num_levels:
            raise SimulationError(
                f"{len(level_probabilities)} level probabilities but unit "
                f"{unit.name!r} has {unit.num_levels} levels"
            )
        merged: dict[int, float] = {}
        for level, p in enumerate(level_probabilities):
            cycles = bound.duration_for_level(op, level)
            merged[cycles] = merged.get(cycles, 0.0) + p
        table[op] = tuple(sorted(merged.items()))
    return table


def exact_expected_latency_categorical(
    latency_fn: Callable[[Mapping[str, int]], int],
    table: DurationTable,
    limit_assignments: int = 2_000_000,
) -> float:
    """Exact expectation over independent categorical durations.

    ``latency_fn`` maps an explicit duration assignment to cycles (use
    :meth:`DistLatencyEvaluator.for_durations` or
    :meth:`TaubmSchedule.cycles_for_durations`).  Bound methods of the
    structured evaluators dispatch to the exact engine's distribution
    propagation; other callables enumerate the duration cross-product.
    """
    analysis = None
    try:
        owner = getattr(latency_fn, "__self__", None)
        func = getattr(latency_fn, "__func__", None)
        if isinstance(owner, DistLatencyEvaluator) and (
            func is DistLatencyEvaluator.for_durations
        ):
            from .exact_engine import analyze_dist_categorical

            analysis = analyze_dist_categorical(owner, table)
        elif isinstance(owner, TaubmSchedule) and (
            func is TaubmSchedule.cycles_for_durations
        ):
            from .exact_engine import analyze_sync_categorical

            analysis = analyze_sync_categorical(owner, table)
        elif isinstance(owner, SyncLatencyEvaluator) and (
            func is SyncLatencyEvaluator.for_durations
        ):
            from .exact_engine import analyze_sync_categorical

            analysis = analyze_sync_categorical(owner.taubm, table)
    except ExactAnalysisError:
        analysis = None  # exact enumeration below is still exact
    if analysis is not None:
        return analysis.expectation
    ops = list(table)
    combos = 1
    for rows in table.values():
        combos *= len(rows)
    if combos > limit_assignments:
        raise SimulationError(
            f"{combos} duration assignments exceed the enumeration limit"
        )
    total = 0.0
    for choice in itertools.product(*(table[op] for op in ops)):
        weight = 1.0
        durations: dict[str, int] = {}
        for op, (cycles, p) in zip(ops, choice):
            weight *= p
            durations[op] = cycles
        if weight == 0.0:
            continue
        total += weight * latency_fn(durations)
    return total


def monte_carlo_expected_latency(
    latency_fn: LatencyFn,
    tau_ops: Sequence[str],
    p: "float | Mapping[str, float]",
    trials: int = 4000,
    seed: int = 0,
) -> float:
    """Seeded Monte-Carlo estimate of the expected latency."""
    rng = random.Random(seed)
    total = 0
    for _ in range(trials):
        fast = {op: rng.random() < _op_p(p, op) for op in tau_ops}
        total += latency_fn(fast)
    return total / trials


def expected_latency(
    latency_fn: LatencyFn,
    tau_ops: Sequence[str],
    p: "float | Mapping[str, float]",
    exact_limit: int = EXACT_ENUMERATION_LIMIT,
    trials: int = 4000,
    seed: int = 0,
    *,
    allow_monte_carlo: bool = True,
) -> float:
    """Exact when feasible, Monte-Carlo otherwise.

    Structured evaluators are exact at any ``k`` via the exact engine;
    opaque callables are exact up to ``exact_limit`` enumerated ops.
    With ``allow_monte_carlo=False`` an infeasible exact analysis raises
    :class:`~repro.errors.ExactAnalysisError` instead of silently
    degrading to a sampled estimate.
    """
    if isinstance(latency_fn, (DistLatencyEvaluator, SyncLatencyEvaluator)):
        try:
            return exact_expected_latency(
                latency_fn, tau_ops, p, exact_limit
            )
        except ExactAnalysisError:
            if not allow_monte_carlo:
                raise
            return monte_carlo_expected_latency(
                latency_fn, tau_ops, p, trials, seed
            )
    if len(tau_ops) <= exact_limit:
        return exact_expected_latency(latency_fn, tau_ops, p, exact_limit)
    if not allow_monte_carlo:
        raise ExactAnalysisError(
            f"{len(tau_ops)} telescopic ops exceed the exact enumeration "
            f"limit {exact_limit} and allow_monte_carlo=False",
            limit=exact_limit,
        )
    return monte_carlo_expected_latency(latency_fn, tau_ops, p, trials, seed)


@dataclass(frozen=True)
class SchemeLatency:
    """Best / expected-at-P / worst latency of one controller scheme."""

    scheme: str
    clock_ns: float
    best_cycles: int
    worst_cycles: int
    expected_cycles: Mapping[float, float]

    @property
    def best_ns(self) -> float:
        return self.best_cycles * self.clock_ns

    @property
    def worst_ns(self) -> float:
        return self.worst_cycles * self.clock_ns

    def expected_ns(self, p: float) -> float:
        return self.expected_cycles[p] * self.clock_ns

    def bracket_ns(self) -> str:
        """The paper's ``[best][avg...][worst]`` notation in ns.

        Expected cycles are rounded to 1e-9 before scaling, so the text
        depends on the exact value only and not on summation order: the
        exact DP's 5.529999999999999 and the enumerator's
        5.530000000000002 cycles both render as ``83.0`` ns.
        """
        avgs = ", ".join(
            f"{round(cycles, 9) * self.clock_ns:.1f}"
            for cycles in self.expected_cycles.values()
        )
        return f"[{self.best_ns:.0f}][{avgs}][{self.worst_ns:.0f}]"


@dataclass(frozen=True)
class LatencyComparison:
    """TAUBM-sync vs distributed latency for one benchmark/allocation."""

    benchmark: str
    resources: str
    sync: SchemeLatency
    dist: SchemeLatency
    fixed_design_ns: float

    def enhancement(self, p: float) -> float:
        """Relative improvement of DIST over sync at one P."""
        base = self.sync.expected_ns(p)
        return (base - self.dist.expected_ns(p)) / base

    def enhancement_column(self) -> str:
        """The paper's ``Performance Enhancement`` column."""
        return (
            "["
            + ", ".join(
                f"{100 * self.enhancement(p):.1f}%"
                for p in self.sync.expected_cycles
            )
            + "]"
        )


def scheme_latency(
    scheme: str,
    latency_fn: LatencyFn,
    tau_ops: Sequence[str],
    clock_ns: float,
    ps: Sequence[float],
    exact_limit: int = EXACT_ENUMERATION_LIMIT,
    trials: int = 4000,
    seed: int = 0,
) -> SchemeLatency:
    """Evaluate best/worst/expected latency of one scheme."""
    best = latency_fn({op: True for op in tau_ops})
    worst = latency_fn({op: False for op in tau_ops})
    expected = {
        p: expected_latency(
            latency_fn, tau_ops, p, exact_limit, trials, seed
        )
        for p in ps
    }
    return SchemeLatency(
        scheme=scheme,
        clock_ns=clock_ns,
        best_cycles=best,
        worst_cycles=worst,
        expected_cycles=expected,
    )


def compare_latencies(
    bound: BoundDataflowGraph,
    taubm: TaubmSchedule,
    ps: Sequence[float] = (0.9, 0.7, 0.5),
    resources: "str | None" = None,
    exact_limit: int = EXACT_ENUMERATION_LIMIT,
    trials: int = 4000,
    seed: int = 0,
) -> LatencyComparison:
    """The full Table-2 comparison for one benchmark/allocation.

    ``fixed_design_ns`` is the conventional all-fixed-delay design: the
    same time-step schedule clocked at the original (worst-delay) period —
    the baseline a telescopic design must beat at all.
    """
    tau_ops = bound.telescopic_ops()
    clock = bound.allocation.clock_period_ns()
    sync = scheme_latency(
        "CENT-SYNC",
        SyncLatencyEvaluator(taubm),
        tau_ops,
        clock,
        ps,
        exact_limit,
        trials,
        seed,
    )
    dist = scheme_latency(
        "DIST",
        DistLatencyEvaluator(bound),
        tau_ops,
        clock,
        ps,
        exact_limit,
        trials,
        seed,
    )
    fixed = (
        taubm.base.num_steps * bound.allocation.original_clock_period_ns()
    )
    return LatencyComparison(
        benchmark=bound.dfg.name,
        resources=resources or _resource_string(bound),
        sync=sync,
        dist=dist,
        fixed_design_ns=fixed,
    )


def _resource_string(bound: BoundDataflowGraph) -> str:
    counts: dict[str, int] = {}
    for unit in bound.allocation:
        symbol = {
            "mul": "*",
            "add": "+",
            "sub": "-",
            "alu": "#",
        }[unit.resource_class.value]
        counts[symbol] = counts.get(symbol, 0) + 1
    return ", ".join(f"{sym}:{n}" for sym, n in counts.items())
