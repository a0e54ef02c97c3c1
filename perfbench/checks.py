"""Reference checks, run after a pass and outside its timed region.

Each check compares one output of one operation with a reference that
does not come from the code path under test:

* ``area``: Table 1 and X10 text against REPORT.md byte for byte,
  Table 1's ``check_shape``, and every FSM area and CENT-FSM size
  against ``reference.json`` (frozen at the commit that added the
  benchmark, identical across processes and hash seeds).
* ``latency``: DIST means against ``BENCH_core.json``; exact DIST and
  CENT-SYNC expectations against the legacy ``2**k`` enumerator (an
  opaque callable takes that path in ``analysis.latency``); batch
  against scalar Monte-Carlo on a shared prefix of trials; DIST never
  slower than CENT-SYNC; Table 2 numerically against the enumerator.
* ``signoff``: lint and model-check JSON against ``baselines/`` byte for
  byte (or clean, for designs without a baseline), zero silent fault
  escapes, RTL against its frozen SHA-256 and its own netlist.

A check returns the failure messages of one operation; an empty list
means the operation's outputs are correct.
"""

from __future__ import annotations

import dataclasses
import json
import math
from pathlib import Path

from repro.analysis.latency import (
    DistLatencyEvaluator,
    SyncLatencyEvaluator,
    exact_expected_latency,
)
from repro.benchmarks.registry import table2_benchmarks
from repro.experiments.common import synthesize_entry
from repro.resources.spec import as_completion_spec
from repro.sim.runner import monte_carlo_latency
from repro.verify.rtl import parse_verilog

from workloads import (
    BERNOULLI,
    FAULT_STYLES,
    FAULT_TRIALS,
    MARKOV,
    MC_SEED,
    PER_UNIT,
    SCALAR_TRIALS,
)

HERE = Path(__file__).resolve().parent
#: tolerance of exact expectations against the enumerator
ENUM_TOL = 1e-9
#: trials BENCH_core.json's scalar Monte-Carlo column was taken over
BENCH_MC_TRIALS = 400
#: scalar trials the per-unit and Markov batch runs are compared on
PREFIX_TRIALS = 20
#: batch means must lie this many standard errors from the exact mean
SIGMAS = 6.0


def report_section(title: str, body: str) -> str:
    """A REPORT.md section as ``repro report`` writes it."""
    return f"## {title}\n\n```\n{body.rstrip()}\n```\n"


class References:
    """Every reference file, read once per run from the checkout."""

    def __init__(self, root: Path) -> None:
        self.root = root
        self.report_md = (root / "REPORT.md").read_text(encoding="utf-8")
        self.bench = json.loads(
            (root / "BENCH_core.json").read_text(encoding="utf-8")
        )["benchmarks"]
        self.frozen = json.loads(
            (HERE / "reference.json").read_text(encoding="utf-8")
        )
        self.enumerator = Enumerator()

    def baseline(self, kind: str, design: str) -> "str | None":
        path = self.root / "baselines" / kind / f"{design}.json"
        return path.read_text(encoding="utf-8") if path.is_file() else None


# -- area -----------------------------------------------------------------
def check_area_op(key: str, out: dict, p, refs: References) -> list[str]:
    kind, _, rest = key.partition(":")
    problems = []
    if kind == "table1":
        section = report_section("Table 1 — controller area", out["text"])
        if section not in refs.report_md:
            problems.append("Table 1 text differs from REPORT.md")
        try:
            p.keep[key].check_shape()
        except AssertionError as exc:
            problems.append(f"check_shape failed: {exc!r}")
    elif kind == "x10":
        section = report_section("X10 — encoding styles", out["text"])
        if section not in refs.report_md:
            problems.append("X10 text differs from REPORT.md")
    elif kind == "area":
        expected = refs.frozen["area"].get(key)
        if out["report"] != expected:
            problems.append(f"area {out['report']} != frozen {expected}")
    elif kind == "product":
        expected = refs.frozen["product"].get(rest)
        if out != expected:
            problems.append(f"CENT-FSM {out} != frozen {expected}")
    return problems


# -- latency --------------------------------------------------------------
class Enumerator:
    """The legacy ``2**k`` enumerator, memoized per latency function.

    Each evaluator is wrapped in a plain function, so
    ``exact_expected_latency`` cannot dispatch to the exact engine and
    enumerates.  The latency of each assignment is cached under the
    evaluator's structure (the only thing its result depends on), so a
    second probability, or a Table 2 row with the same schedule as a
    design of the loop, costs only the weighting.
    """

    def __init__(self) -> None:
        self._memos: dict = {}

    def expected(self, evaluator, tau_ops, p_value) -> float:
        if isinstance(evaluator, DistLatencyEvaluator):
            structure = ("dist", evaluator.execution_structure())
        else:
            structure = (
                "sync",
                tuple(step.tau_ops for step in evaluator.taubm.steps),
            )
        memo = self._memos.setdefault((tuple(tau_ops), structure), {})

        def opaque(fast) -> int:
            key = tuple(fast[op] for op in tau_ops)
            if key not in memo:
                memo[key] = evaluator(fast)
            return memo[key]

        return exact_expected_latency(opaque, tau_ops, p_value)


def _p_value(spec_text, res, tau_ops):
    if spec_text == BERNOULLI:
        return BERNOULLI
    return as_completion_spec(spec_text).op_probabilities(res.bound, tau_ops)


def _check_design(name, out, res, engine, refs) -> list[str]:
    problems = []
    tau_ops = res.bound.telescopic_ops()
    evaluators = {
        "dist": DistLatencyEvaluator(res.bound),
        "cent-sync": SyncLatencyEvaluator(res.taubm),
    }
    for label, spec in (("bernoulli", BERNOULLI), ("per-unit", PER_UNIT)):
        p_value = _p_value(spec, res, tau_ops)
        for style, evaluator in evaluators.items():
            exact = out[f"exact.{style}.{label}"]
            ref = refs.enumerator.expected(evaluator, tau_ops, p_value)
            if abs(exact - ref) > ENUM_TOL:
                problems.append(
                    f"{style} {label}: exact {exact!r} != enumerator {ref!r}"
                )
        dist, sync = (
            out[f"exact.dist.{label}"],
            out[f"exact.cent-sync.{label}"],
        )
        if dist > sync + ENUM_TOL:
            problems.append(f"{label}: DIST {dist} > CENT-SYNC {sync}")
        batch = out[f"batch.{label}"]
        error = SIGMAS * batch["std"] / math.sqrt(batch["trials"])
        if abs(batch["mean"] - out[f"exact.dist.{label}"]) > error + 1e-12:
            problems.append(
                f"{label}: batch mean {batch['mean']} is more than "
                f"{SIGMAS} standard errors from exact {dist}"
            )
    prefix = engine.statistics(BERNOULLI, SCALAR_TRIALS, MC_SEED)
    if out["scalar.bernoulli"] != dataclasses.asdict(prefix):
        problems.append("scalar Bernoulli statistics != batch prefix")
    system = res.distributed_system()
    for spec in (PER_UNIT, MARKOV):
        scalar = monte_carlo_latency(
            system, res.bound, p=spec, trials=PREFIX_TRIALS, seed=MC_SEED,
            workers=1, engine="scalar",
        )
        if scalar != engine.statistics(spec, PREFIX_TRIALS, MC_SEED):
            problems.append(f"scalar {spec} statistics != batch prefix")
    bench = refs.bench.get(name)
    if bench is not None:
        got = round(out["exact.dist.bernoulli"], 6)
        if got != bench["exact_engine"]["mean_cycles"]:
            problems.append(
                f"exact DIST mean {got} != BENCH_core "
                f"{bench['exact_engine']['mean_cycles']}"
            )
        mc = engine.statistics(BERNOULLI, BENCH_MC_TRIALS, MC_SEED)
        if round(mc.mean, 6) != bench["monte_carlo"]["mean_cycles"]:
            problems.append(
                f"Monte-Carlo mean {mc.mean} != BENCH_core "
                f"{bench['monte_carlo']['mean_cycles']}"
            )
        batch = bench["batch_mc"]
        if round(out["batch.bernoulli"]["mean"], 6) != batch["mean_cycles"]:
            problems.append(
                f"batch mean {out['batch.bernoulli']['mean']} != "
                f"BENCH_core {batch['mean_cycles']}"
            )
        if out["batch.memo_after_bernoulli"] != batch["memo_transitions"]:
            problems.append(
                f"memo transitions {out['batch.memo_after_bernoulli']} != "
                f"BENCH_core {batch['memo_transitions']}"
            )
    return problems


def _check_table2(table, enumerator: Enumerator) -> list[str]:
    """Table 2 against the enumerator; its text is not diffed.

    REPORT.md prints Diff. LT_TAU @ P=0.7 as 83.0 and the DP gives 82.9:
    the exact value 82.95 ns sits on a rounding tie (see NOTES.md).
    """
    problems = []
    try:
        table.check_shape()
    except AssertionError as exc:
        problems.append(f"check_shape failed: {exc!r}")
    entries = table2_benchmarks()
    if len(entries) != len(table.comparisons):
        return problems + ["Table 2 row count differs from the registry"]
    for entry, row in zip(entries, table.comparisons):
        if row.benchmark != entry.title:
            problems.append(f"row {row.benchmark!r} != {entry.title!r}")
        res = synthesize_entry(entry, scheduler="exact")
        tau_ops = res.bound.telescopic_ops()
        for scheme, evaluator in (
            (row.sync, SyncLatencyEvaluator(res.taubm)),
            (row.dist, DistLatencyEvaluator(res.bound)),
        ):
            best = evaluator({op: True for op in tau_ops})
            worst = evaluator({op: False for op in tau_ops})
            if (scheme.best_cycles, scheme.worst_cycles) != (best, worst):
                problems.append(
                    f"{entry.name} {scheme.scheme} best/worst "
                    f"{scheme.best_cycles}/{scheme.worst_cycles} != "
                    f"{best}/{worst}"
                )
            for pv in table.ps:
                ref = enumerator.expected(evaluator, tau_ops, pv)
                got = scheme.expected_cycles[pv]
                if abs(got - ref) > ENUM_TOL:
                    problems.append(
                        f"{entry.name} {scheme.scheme} P={pv}: "
                        f"{got!r} != enumerator {ref!r}"
                    )
    return problems


def check_latency_op(key: str, out: dict, p, refs: References) -> list[str]:
    if key == "table2":
        return _check_table2(p.keep["table2"], refs.enumerator)
    name = key.partition(":")[2]
    res, engine = p.keep[name]
    return _check_design(name, out, res, engine, refs)


# -- signoff --------------------------------------------------------------
def _check_rtl(text: str) -> list[str]:
    """The system netlist parses and its top wires every other module."""
    modules = parse_verilog(text)
    if not modules or modules[-1].name != "system_top":
        return ["RTL top module is not system_top"]
    names = {m.name for m in modules}
    used = {inst.module for m in modules for inst in m.instances}
    if not used <= names or names - used != {"system_top"}:
        return [f"RTL instantiates {sorted(used)} of {sorted(names)}"]
    return []


def check_signoff_op(key: str, out: dict, p, refs: References) -> list[str]:
    name = key.partition(":")[2]
    problems = []
    for kind in ("lint", "check"):
        baseline = refs.baseline(kind, name)
        if baseline is not None:
            if out[kind] + "\n" != baseline:
                problems.append(f"{kind} JSON differs from baselines/")
            continue
        severities = [
            d["severity"] for d in json.loads(out[kind])["diagnostics"]
        ]
        if kind == "lint" and "error" in severities:
            problems.append("lint has error-severity findings")
        if kind == "check" and severities:
            problems.append("model check is not clean")
    if out["faults.trials"] != FAULT_TRIALS:
        problems.append(f"campaign ran {out['faults.trials']} trials")
    for style in FAULT_STYLES:
        totals = out["faults"][style]
        if sum(totals.values()) != FAULT_TRIALS:
            problems.append(f"{style}: outcomes {totals} miss trials")
        if totals["silent"]:
            problems.append(f"{style}: {totals['silent']} silent escapes")
    frozen = refs.frozen["rtl_sha256"].get(name)
    if frozen is not None and out["rtl.sha256"] != frozen:
        problems.append("RTL differs from its frozen SHA-256")
    problems.extend(_check_rtl(p.keep[name]))
    return problems


CHECKS = {
    "area": check_area_op,
    "latency": check_latency_op,
    "signoff": check_signoff_op,
}


def check_pass(workload: str, p, refs: References) -> "dict[str, list[str]]":
    """Failure messages per operation key of one pass.

    Operations that raised during the pass are failed already and are
    not checked; a check that raises fails its operation.
    """
    check = CHECKS[workload]
    failures: dict[str, list[str]] = {}
    for key, out in p.outputs.items():
        if key in p.errors:
            continue
        try:
            problems = check(key, out, p, refs)
        except Exception as exc:  # noqa: BLE001 - a raising check fails
            problems = [f"check raised {type(exc).__name__}: {exc}"]
        if problems:
            failures[key] = problems
    return failures


def compare_with_first(p, first) -> "dict[str, list[str]]":
    """Later passes must reproduce the first (checked) pass exactly."""
    return {
        key: ["output differs from the first pass"]
        for key, out in p.outputs.items()
        if out != first.outputs.get(key)
    }
