"""Benchmark of the repro library on three workloads.

Run from the repository root::

    python3 perfbench/run.py --workload latency --seed 1 --seconds 16 \\
        --trace 0

``area`` times controller-area estimation (Table 1, X10, CENT-FSM
construction), ``latency`` the design-evaluation loop (synthesis, exact
PMFs, batch and scalar Monte-Carlo, Table 2), and ``signoff`` lint,
model checking, fault campaigns and RTL emission.  All load comes from
this one process: designs run one after another, ``workers=1``, with
every cache empty at the start of the run.

The run repeats whole passes of its workload until the next pass would
end after ``--seconds`` of scaled time; there is always at least one
pass.  After each pass, outside the timed region, every output of the
first pass is checked against its reference (see ``checks.py``) and
every later pass must reproduce the first.  Set-up is timed in this
process and again in a few set-up-only child processes, and reported as
the median.  Every reported time is scaled to a fixed reference speed
of the host by a probe sampled through the run (see ``hostspeed.py``).

The last line of standard output is one JSON object with the keys
``correct``, ``attempted``, ``failed`` and ``metrics``: the end-to-end
metrics with ``--trace 0``, the per-layer metrics with ``--trace 1``.
The traced run also writes its spans as Chrome trace-event JSON to
``.perfbench/trace-<workload>-<seed>.json``.
"""

from __future__ import annotations

import time

STARTED = time.perf_counter()

# set-up is timed from the first line, so every import follows STARTED;
# the host is probed through all of set-up (see hostspeed.py)
import hostspeed  # noqa: E402

SETUP_SAMPLER = hostspeed.Sampler().start()

import argparse  # noqa: E402
import importlib  # noqa: E402
import json  # noqa: E402
import resource  # noqa: E402
import statistics  # noqa: E402
import subprocess  # noqa: E402
import sys  # noqa: E402
from pathlib import Path  # noqa: E402

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path.insert(0, str(ROOT / "src"))

import numpy  # noqa: E402
from repro.benchmarks.registry import (  # noqa: E402
    benchmark,
    core_benchmark_names,
)

import checks  # noqa: E402
import designs  # noqa: E402
import spans  # noqa: E402
import workloads  # noqa: E402

#: set-up samples per run: this process plus set-up-only children
SETUP_SAMPLES = 5

#: library modules the job imports lazily; set-up imports them up front
LAZY_MODULES = (
    "repro.analysis.exact_engine",
    "repro.control.verilog_top",
    "repro.perf.cache",
    "repro.perf.engine",
    "repro.pipeline.manager",
    "repro.runtime.journal",
    "repro.runtime.policy",
    "repro.sim.simulator",
)

#: end-to-end metrics (``--trace 0``): name -> unit
END_TO_END = {
    "wall_s": "s",
    "item_p50_s": "s",
    "setup_s": "s",
    "peak_rss_mb": "MB",
    "success_rate": "ratio",
}

#: per-layer metrics (``--trace 1``): name -> unit
PER_LAYER = {
    "pipeline.synthesize_s": "s",
    "pipeline.calls": "count",
    "fsm.product.build_s": "s",
    "fsm.product.states": "count",
    "logic.cent_s": "s",
    "logic.small_s": "s",
    "logic.calls": "count",
    "logic.exact_calls": "count",
    "logic.literals": "literals",
    "analysis.exact_s": "s",
    "analysis.dp_states": "count",
    "analysis.cut_width_max": "count",
    "sim.batch_s": "s",
    "sim.batch_trials": "count",
    "sim.batch_trials_per_s": "1/s",
    "sim.batch_memo_transitions": "count",
    "sim.scalar_s": "s",
    "sim.scalar_trials": "count",
    "sim.scalar_trials_per_s": "1/s",
    "experiments.table2_s": "s",
    "verify.lint_s": "s",
    "verify.lint_diagnostics": "count",
    "verify.modelcheck_s": "s",
    "verify.modelcheck_states": "count",
    "verify.modelcheck_transitions": "count",
    "verify.modelcheck_states_per_s": "1/s",
    "faults.campaign_s": "s",
    "faults.trials": "count",
    "faults.detected": "count",
    "faults.tolerated": "count",
    "faults.silent": "count",
    "rtl.emit_s": "s",
    "rtl.bytes": "bytes",
    "trace.wall_s": "s",
    "trace.overhead_s": "s",
    "trace.spans": "count",
    "host.speed": "ratio",
}


def parse_args(argv=None) -> argparse.Namespace:
    parser = argparse.ArgumentParser(description=__doc__.split("\n")[0])
    parser.add_argument(
        "--workload", required=True, choices=("area", "latency", "signoff")
    )
    parser.add_argument("--seed", type=int, required=True)
    parser.add_argument("--seconds", type=float, required=True)
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument(
        "--outputs",
        help="write the first pass's outputs as canonical JSON here",
    )
    parser.add_argument(
        "--setup-only",
        action="store_true",
        help="time set-up alone and print it (used for set-up samples)",
    )
    return parser.parse_args(argv)


def setup(workload: str, seed: int):
    """Registry loading, ``gen:`` materialization, numpy initialization.

    Returns the workload's designs and the references.
    """
    numpy.zeros(8).sum()
    for module in LAZY_MODULES:
        importlib.import_module(module)
    if workload == "area":
        names = workloads.area_designs()
    else:
        names = designs.design_set(core_benchmark_names(), seed)
    for name in names:
        benchmark(name)
    return names, checks.References(ROOT)


def scaled_setup_s() -> float:
    """This process's set-up time, without probes, scaled by its speed."""
    end = time.perf_counter()
    SETUP_SAMPLER.stop()
    setup_s = end - STARTED - SETUP_SAMPLER.spent
    return setup_s * SETUP_SAMPLER.mean_speed(STARTED, end)


def setup_sample(args) -> float:
    """Scaled set-up time of one fresh child process."""
    done = subprocess.run(
        [
            sys.executable, str(Path(__file__).resolve()), "--setup-only",
            "--workload", args.workload, "--seed", str(args.seed),
            "--seconds", str(args.seconds),
        ],
        capture_output=True,
        text=True,
        timeout=120,
        check=True,
        cwd=ROOT,
    )
    return json.loads(done.stdout.strip().splitlines()[-1])["setup_s"]


def run_passes(args, names, refs):
    """Timed passes, each checked outside its timed region.

    The host is probed throughout; a pass's time and each item's time
    exclude the probes that ran inside them.
    """
    tracer = spans.Tracer(args.trace == 1, args.workload)
    run_pass = workloads.PASSES[args.workload]
    passes, failures = [], []
    with hostspeed.Sampler() as sampler:
        measured = 0.0
        while True:
            tracer.pass_index = len(passes)
            p = workloads.Pass(tracer, sampler)
            overhead_before = tracer.overhead_s
            spent, start = sampler.spent, time.perf_counter()
            run_pass(p, names)
            end = time.perf_counter()
            p.wall_s = end - start - (sampler.spent - spent)
            p.speed = sampler.mean_speed(start, end)
            p.trace_overhead_s = tracer.overhead_s - overhead_before
            if not passes:
                # later passes only add allocator fragmentation, and their
                # number varies with the program's speed
                peak_rss_mb = (
                    resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024
                )
            checked = time.perf_counter()
            if passes:
                failed = checks.compare_with_first(p, passes[0])
            else:
                failed = checks.check_pass(args.workload, p, refs)
            checked = time.perf_counter() - checked
            for key, message in p.errors.items():
                failed.setdefault(key, []).append(f"raised {message}")
            for key in sorted(failed):
                for message in failed[key]:
                    print(f"FAILED pass {len(passes)} {key}: {message}",
                          file=sys.stderr)
            p.keep.clear()
            passes.append(p)
            failures.append(failed)
            # scaled time decides, so the number of passes, and with it
            # the share of the first, coldest pass, does not follow the
            # host's speed
            measured += p.wall_s * p.speed
            print(
                f"pass {len(passes) - 1}: {p.wall_s:.3f} s, "
                f"{len(p.outputs)} operations, {len(failed)} failed, "
                f"checked in {checked:.3f} s"
            )
            if measured + p.wall_s * p.speed > args.seconds:
                break
    for p in passes:
        p.item_s = [
            raw * sampler.mean_speed(start, end)
            for start, end, raw in p.items
        ]
    return tracer, passes, failures, peak_rss_mb


def end_to_end(passes, setup_samples, peak_rss_mb, failed, attempted):
    return {
        "wall_s": statistics.fmean(p.wall_s * p.speed for p in passes),
        "item_p50_s": statistics.median(
            t for p in passes for t in p.item_s
        ),
        "setup_s": statistics.median(setup_samples),
        "peak_rss_mb": peak_rss_mb,
        "success_rate": 1.0 - failed / attempted,
    }


def _rate(n: float, seconds: float) -> float:
    return n / seconds if seconds > 0 else 0.0


def layer_row(p, self_s: dict, span_count: int) -> dict:
    """Per-layer metrics of one traced pass, times scaled by its speed."""
    c = p.counts
    self_s = {name: t * p.speed for name, t in self_s.items()}
    batch_s = self_s.get("sim.batch", 0.0)
    scalar_s = self_s.get("sim.runner", 0.0)
    mc_s = self_s.get("verify.modelcheck", 0.0)
    return {
        "pipeline.synthesize_s": self_s.get("pipeline", 0.0),
        "pipeline.calls": c["pipeline.calls"],
        "fsm.product.build_s": self_s.get("fsm.product", 0.0),
        "fsm.product.states": c["fsm.product.states"],
        "logic.cent_s": self_s.get("logic.cent", 0.0),
        "logic.small_s": self_s.get("logic.small", 0.0),
        "logic.calls": c["logic.cent.calls"] + c["logic.small.calls"],
        "logic.exact_calls": c["logic.exact_calls"],
        "logic.literals": c["logic.literals"],
        "analysis.exact_s": self_s.get("analysis.exact_engine", 0.0),
        "analysis.dp_states": c["analysis.dp_states"],
        "analysis.cut_width_max": c["analysis.cut_width_max"],
        "sim.batch_s": batch_s,
        "sim.batch_trials": c["sim.batch_trials"],
        "sim.batch_trials_per_s": _rate(c["sim.batch_trials"], batch_s),
        "sim.batch_memo_transitions": c["sim.batch_memo_transitions"],
        "sim.scalar_s": scalar_s,
        "sim.scalar_trials": c["sim.scalar_trials"],
        "sim.scalar_trials_per_s": _rate(c["sim.scalar_trials"], scalar_s),
        "experiments.table2_s": self_s.get("experiments", 0.0),
        "verify.lint_s": self_s.get("verify", 0.0),
        "verify.lint_diagnostics": c["verify.lint_diagnostics"],
        "verify.modelcheck_s": mc_s,
        "verify.modelcheck_states": c["verify.modelcheck_states"],
        "verify.modelcheck_transitions": c["verify.modelcheck_transitions"],
        "verify.modelcheck_states_per_s": _rate(
            c["verify.modelcheck_states"], mc_s
        ),
        "faults.campaign_s": self_s.get("faults", 0.0),
        "faults.trials": c["faults.trials"],
        "faults.detected": c["faults.detected"],
        "faults.tolerated": c["faults.tolerated"],
        "faults.silent": c["faults.silent"],
        "rtl.emit_s": self_s.get("rtl", 0.0),
        "rtl.bytes": c["rtl.bytes"],
        "trace.wall_s": p.wall_s * p.speed,
        "trace.overhead_s": p.trace_overhead_s * p.speed,
        "trace.spans": span_count,
        "host.speed": p.speed,
    }


def per_layer(tracer, passes) -> dict:
    """Median over traced passes of every per-layer metric."""
    self_times = tracer.self_times()
    span_counts = [0] * len(passes)
    for span in tracer.spans:
        span_counts[span[6]] += 1
    rows = [
        layer_row(p, self_times.get(i, {}), span_counts[i])
        for i, p in enumerate(passes)
    ]
    return {
        name: statistics.median(row[name] for row in rows)
        for name in PER_LAYER
    }


def main(argv=None) -> int:
    args = parse_args(argv)
    names, refs = setup(args.workload, args.seed)
    setup_s = scaled_setup_s()
    if args.setup_only:
        print(json.dumps({"setup_s": setup_s,
                          "unscaled_s": time.perf_counter() - STARTED}))
        return 0
    tracer, passes, failures, peak_rss_mb = run_passes(args, names, refs)
    if args.outputs:
        Path(args.outputs).write_text(
            json.dumps(passes[0].outputs, indent=1, sort_keys=True) + "\n",
            encoding="utf-8",
        )
    attempted = sum(len(p.outputs) for p in passes)
    failed = sum(len(f) for f in failures)
    if args.trace:
        values = per_layer(tracer, passes)
        units = PER_LAYER
        tracer.write(
            ROOT / ".perfbench" / f"trace-{args.workload}-{args.seed}.json"
        )
    else:
        samples = [setup_s] + [
            setup_sample(args) for _ in range(SETUP_SAMPLES - 1)
        ]
        values = end_to_end(
            passes, samples, peak_rss_mb, failed, attempted
        )
        units = END_TO_END
    print(
        "unscaled: wall_s "
        f"{statistics.fmean(p.wall_s for p in passes):.4f} s, host speed "
        + ", ".join(f"{p.speed:.3f}" for p in passes)
    )
    print(
        json.dumps(
            {
                "correct": failed == 0,
                "attempted": attempted,
                "failed": failed,
                "metrics": {
                    name: {"value": values[name], "unit": unit}
                    for name, unit in units.items()
                },
            }
        )
    )
    return 0


if __name__ == "__main__":
    sys.exit(main())
