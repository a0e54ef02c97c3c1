"""One pass of each workload: the job whose wall time the benchmark reports.

Every call into a layer goes through :meth:`Pass.call`, which opens a
span named after the layer; an item (:meth:`Pass.item`) is one design
in ``latency`` and ``signoff`` and one FSM area in ``area``; every
checked output is stored under an operation key in
:attr:`Pass.outputs` (:meth:`Pass.op`).  Nothing here compares an
output with its reference: :mod:`checks` does that after the pass,
outside the timed region.  Objects the checks need but that are not
outputs (the synthesis result, the warm batch engine, the Table 2
result) go into :attr:`Pass.keep`.
"""

from __future__ import annotations

import dataclasses
import hashlib
import sys
import time
import traceback
from collections import Counter
from contextlib import contextmanager

from repro.api import synthesize
from repro.benchmarks.registry import benchmark
from repro.experiments.ablations import EncodingResult
from repro.experiments.table1 import Table1Result
from repro.experiments.table2 import run_table2
from repro.faults.campaign import run_campaign
from repro.fsm.area import fsm_area
from repro.rtl.system import system_to_verilog
from repro.sim.batch import BatchSimulator
from repro.sim.runner import monte_carlo_latency
from repro.verify.engine import lint_result
from repro.verify.modelcheck import check_result

import hostspeed

#: fast probability of the Bernoulli completion spec
BERNOULLI = 0.7
#: the heterogeneous per-unit spec: fast multipliers, slow everything else
PER_UNIT = "per-unit:mul=0.9,*=0.5"
#: the correlated spec (stationary fast share 0.7, stickiness 0.5)
MARKOV = "markov:0.7,0.5"
#: every Monte-Carlo run uses this seed, so BENCH_core.json applies
MC_SEED = 0
#: batch trials per spec; the Bernoulli count matches BENCH_core.json
BATCH_TRIALS = (
    ("bernoulli", BERNOULLI, 20_000),
    ("per-unit", PER_UNIT, 10_000),
    ("markov", MARKOV, 10_000),
)
#: trials of the short scalar Monte-Carlo
SCALAR_TRIALS = 50
#: fault trials per controller style, and the campaign's styles and seed
FAULT_TRIALS = 100
FAULT_STYLES = ("dist", "cent-sync")
FAULT_SEED = 0

#: area workload: Table 1 + X10 design, CENT-FSM builds, small areas
AREA_TABLE1 = "diffeq"
AREA_PRODUCTS = ("diffeq", "iir3", "ar_lattice")
AREA_SMALL = ("fir3", "fir5", "iir2", "iir3", "fig2", "fig3", "ewf")
X10_STYLES = ("binary", "gray", "one-hot")


class Pass:
    """One timed pass: item times, outputs to check, errors, counters.

    Times exclude the probes ``sampler`` ran inside them; an unentered
    sampler never probes.
    """

    def __init__(self, tracer, sampler=None) -> None:
        self.tracer = tracer
        self.sampler = sampler or hostspeed.Sampler()
        #: (start, end, seconds without probes) of every item
        self.items: list[tuple[float, float, float]] = []
        #: item times scaled by the host's speed, set after the pass
        self.item_s: list[float] = []
        self.outputs: dict[str, dict] = {}
        self.errors: dict[str, str] = {}
        self.counts: Counter = Counter()
        self.keep: dict[str, object] = {}
        self.wall_s = 0.0
        #: mean relative host speed over the pass (see hostspeed)
        self.speed = 1.0
        self.trace_overhead_s = 0.0

    def call(self, layer: str, design, fn, *args, **kwargs):
        """Call into one layer under a span named after it."""
        self.counts[f"{layer}.calls"] += 1
        with self.tracer.span(layer, design):
            return fn(*args, **kwargs)

    @contextmanager
    def item(self, design: str):
        """One item, the unit ``item_p50_s`` is taken over."""
        spent, start = self.sampler.spent, time.perf_counter()
        with self.tracer.span("item", design):
            yield
        end = time.perf_counter()
        self.items.append(
            (start, end, end - start - (self.sampler.spent - spent))
        )

    @contextmanager
    def op(self, key: str):
        """One checked operation; an exception fails it, the pass goes on."""
        out = self.outputs.setdefault(key, {})
        try:
            yield out
        except Exception:  # noqa: BLE001 - one failed op must not stop the run
            text = traceback.format_exc()
            self.errors[key] = text.strip().splitlines()[-1]
            print(f"{key}: {text}", file=sys.stderr)

    def synthesize(self, name: str):
        entry = benchmark(name)
        dfg, allocation = entry.dfg(), entry.allocation()
        return self.call("pipeline", name, synthesize, dfg, allocation)


# -- area -----------------------------------------------------------------
def _area_item(p: Pass, design: str, fsm: str, layer: str, area):
    """One FSM area, ``area()``: the item of the area workload."""
    with p.item(design), p.op(f"area:{design}:{fsm}") as out:
        report = p.call(layer, design, area)
        out["report"] = dataclasses.asdict(report)
        p.counts["logic.exact_calls"] += report.method == "exact"
        p.counts["logic.literals"] += report.combinational_area
        return report
    return None


def _product(p: Pass, design: str, res) -> None:
    with p.op(f"product:{design}") as out:
        fsm = p.call("fsm.product", design, lambda: res.cent_fsm)
        out["states"] = fsm.num_states
        out["transitions"] = fsm.num_transitions
        p.counts["fsm.product.states"] += fsm.num_states


def _table1_and_x10(p: Pass, design: str, res) -> None:
    cent_sync = _area_item(
        p, design, "CENT-SYNC-FSM", "logic.small",
        lambda: fsm_area(res.cent_sync_fsm),
    )
    cent = _area_item(
        p, design, "CENT-FSM", "logic.cent", lambda: fsm_area(res.cent_fsm)
    )
    dist = _area_item(
        p, design, "DIST-FSM", "logic.small", res.distributed.total_area
    )
    components = tuple(
        _area_item(
            p, design, fsm.name, "logic.small", lambda f=fsm: fsm_area(f)
        )
        for fsm in res.distributed.controllers.values()
    )
    with p.op(f"table1:{design}") as out:
        table = Table1Result(
            benchmark=res.dfg.name,
            cent=cent,
            cent_sync=cent_sync,
            dist=dist,
            dist_components=components,
        )
        out["text"] = table.render()
        p.keep[f"table1:{design}"] = table
    encodings = [
        _area_item(
            p, design, f"DIST-{style}", "logic.small",
            lambda s=style: res.distributed.total_area(s),
        )
        for style in X10_STYLES
    ]
    with p.op(f"x10:{design}") as out:
        out["text"] = EncodingResult(
            benchmark=design,
            rows=tuple(
                (
                    style,
                    r.combinational_area,
                    r.sequential_area,
                    r.num_flip_flops,
                )
                for style, r in zip(X10_STYLES, encodings)
            ),
        ).render()


def area_pass(p: Pass, designs: "tuple[str, ...]") -> None:
    """Table 1 and X10 on diffeq, CENT-FSM builds, small-design areas.

    ``designs`` is the order the fixed area designs are visited in.
    """
    for design in designs:
        _area_design(p, design)


def _area_design(p: Pass, design: str) -> None:
    res = None
    with p.op(f"synth:{design}"):
        res = p.synthesize(design)
    if res is None:
        return
    if design in AREA_SMALL:
        _area_item(
            p, design, "CENT-SYNC-FSM", "logic.small",
            lambda: fsm_area(res.cent_sync_fsm),
        )
        _area_item(
            p, design, "DIST-FSM", "logic.small",
            res.distributed.total_area,
        )
    # the large product FSMs are built last, so the small areas above
    # never run beside them on the heap
    if design in AREA_PRODUCTS:
        _product(p, design, res)
    if design == AREA_TABLE1:
        _table1_and_x10(p, design, res)


def area_designs() -> tuple[str, ...]:
    """Every design the area workload visits, in visiting order.

    Short and long designs alternate, so the narrow FSM areas, which
    set ``item_p50_s``, are timed at different moments of the pass
    rather than back to back under one state of the host.
    """
    return (
        "fir3", "diffeq", "fir5", "iir3", "iir2", "ar_lattice", "fig2",
        "ewf", "fig3",
    )


# -- latency --------------------------------------------------------------
def latency_pass(p: Pass, designs: "tuple[str, ...]") -> None:
    """Cold synthesis, exact PMFs, batch and scalar Monte-Carlo; Table 2."""
    for name in designs:
        with p.item(name), p.op(f"design:{name}") as out:
            res = p.synthesize(name)
            for label, spec in (("bernoulli", BERNOULLI),
                                ("per-unit", PER_UNIT)):
                for style in ("dist", "cent-sync"):
                    analysis = p.call(
                        "analysis.exact_engine", name,
                        res.exact_latency_analysis, spec, style,
                    )
                    out[f"exact.{style}.{label}"] = analysis.expectation
                    p.counts["analysis.dp_states"] += analysis.states
                    p.counts["analysis.cut_width_max"] = max(
                        p.counts["analysis.cut_width_max"],
                        analysis.cut_width,
                    )
            system = res.distributed_system()
            engine = p.call(
                "sim.batch", name, BatchSimulator, system, res.bound
            )
            for label, spec, trials in BATCH_TRIALS:
                stats = p.call(
                    "sim.batch", name, engine.statistics, spec, trials,
                    MC_SEED,
                )
                out[f"batch.{label}"] = dataclasses.asdict(stats)
                if label == "bernoulli":
                    out["batch.memo_after_bernoulli"] = engine.memo_size
                p.counts["sim.batch_trials"] += trials
            p.counts["sim.batch_memo_transitions"] += engine.memo_size
            scalar = p.call(
                "sim.runner", name, monte_carlo_latency, system,
                res.bound, p=BERNOULLI, trials=SCALAR_TRIALS,
                seed=MC_SEED, workers=1, engine="scalar",
            )
            out["scalar.bernoulli"] = dataclasses.asdict(scalar)
            p.counts["sim.scalar_trials"] += SCALAR_TRIALS
            p.keep[name] = (res, engine)
    with p.op("table2") as out:
        table = p.call("experiments", None, run_table2, workers=1)
        out["rows"] = [
            {
                "benchmark": c.benchmark,
                "resources": c.resources,
                **{
                    scheme.scheme: {
                        "best_cycles": scheme.best_cycles,
                        "worst_cycles": scheme.worst_cycles,
                        "expected_cycles": {
                            repr(pv): v
                            for pv, v in scheme.expected_cycles.items()
                        },
                    }
                    for scheme in (c.sync, c.dist)
                },
            }
            for c in table.comparisons
        ]
        p.keep["table2"] = table


# -- signoff --------------------------------------------------------------
def signoff_pass(p: Pass, designs: "tuple[str, ...]") -> None:
    """Lint, model check, fault campaign and RTL emission per design."""
    for name in designs:
        with p.item(name), p.op(f"design:{name}") as out:
            res = p.synthesize(name)
            lint = p.call("verify", name, lint_result, res, name=name)
            out["lint"] = lint.to_json()
            p.counts["verify.lint_diagnostics"] += len(lint.diagnostics)
            checked = p.call(
                "verify.modelcheck", name, check_result, res, name=name
            )
            out["check"] = checked.report.to_json()
            out["check.states"] = checked.states
            out["check.transitions"] = checked.transitions
            p.counts["verify.modelcheck_states"] += checked.states
            p.counts["verify.modelcheck_transitions"] += (
                checked.transitions
            )
            campaign = p.call(
                "faults", name, run_campaign, res, trials=FAULT_TRIALS,
                seed=FAULT_SEED, styles=FAULT_STYLES, benchmark=name,
                workers=1,
            )
            out["faults"] = {
                style: campaign.summary(style)["totals"]
                for style in FAULT_STYLES
            }
            out["faults.trials"] = campaign.trials
            for totals in out["faults"].values():
                p.counts["faults.trials"] += sum(totals.values())
                for outcome, n in totals.items():
                    p.counts[f"faults.{outcome}"] += n
            rtl = p.call("rtl", name, system_to_verilog, res.distributed)
            data = rtl.encode("utf-8")
            out["rtl.sha256"] = hashlib.sha256(data).hexdigest()
            p.counts["rtl.bytes"] += len(data)
            p.keep[name] = rtl


#: workload name -> pass function
PASSES = {
    "area": area_pass,
    "latency": latency_pass,
    "signoff": signoff_pass,
}
