"""Tests of the benchmark itself.  Run from the repository root::

    python3 -m pytest perfbench -q
"""

from __future__ import annotations

import json
import os
import re
import shutil
import subprocess
import sys
from pathlib import Path

import pytest

HERE = Path(__file__).resolve().parent
ROOT = HERE.parent
sys.path[:0] = [str(HERE), str(ROOT / "src")]

import run  # noqa: E402

NAME = re.compile(r"[A-Za-z0-9_.-]+")
#: everything a run reads, copied into a temporary checkout
CHECKOUT = ("src", "baselines", "perfbench", "REPORT.md", "BENCH_core.json",
            "BENCHMARK.json")


def _run(cwd: Path, workload: str, *extra: str, env=None):
    return subprocess.run(
        [sys.executable, "perfbench/run.py", "--workload", workload,
         "--seed", "3", "--seconds", "1", "--trace", "0", *extra],
        cwd=cwd, capture_output=True, text=True, timeout=600, env=env,
    )


def _result(done) -> dict:
    assert done.returncode == 0, done.stderr
    return json.loads(done.stdout.strip().splitlines()[-1])


def _checkout(tmp_path: Path, names=CHECKOUT) -> Path:
    for name in names:
        source = ROOT / name
        if source.is_dir():
            shutil.copytree(
                source, tmp_path / name,
                ignore=shutil.ignore_patterns("__pycache__", ".perfbench"),
            )
        else:
            shutil.copy2(source, tmp_path / name)
    return tmp_path


def test_metric_names_match_the_grammar_and_benchmark_json():
    spec = json.loads((ROOT / "BENCHMARK.json").read_text())
    declared = {
        "end_to_end": {m["name"]: m["unit"] for m in spec["end_to_end"]},
        "per_layer": {m["name"]: m["unit"] for m in spec["per_layer"]},
    }
    assert declared["end_to_end"] == run.END_TO_END
    assert declared["per_layer"] == run.PER_LAYER
    for name in [*run.END_TO_END, *run.PER_LAYER]:
        assert NAME.fullmatch(name), name
    assert [w["name"] for w in spec["workloads"]] == [
        "area", "latency", "signoff"
    ]


def _bump_bench(root: Path) -> None:
    path = root / "BENCH_core.json"
    data = json.loads(path.read_text())
    data["benchmarks"]["diffeq"]["exact_engine"]["mean_cycles"] += 1e-6
    path.write_text(json.dumps(data, indent=2, sort_keys=True) + "\n")


def _edit_check_baseline(root: Path) -> None:
    path = root / "baselines" / "check" / "diffeq.json"
    path.write_text(path.read_text().replace('"format": 1', '"format": 2'))


@pytest.mark.parametrize(
    "workload, mutate",
    [("latency", _bump_bench), ("signoff", _edit_check_baseline)],
)
def test_a_changed_reference_is_a_failed_operation(tmp_path, workload, mutate):
    root = _checkout(tmp_path)
    mutate(root)
    result = _result(_run(root, workload))
    assert result["correct"] is False
    assert result["failed"] == 1
    assert result["metrics"]["success_rate"]["value"] < 1.0


def test_a_changed_area_reference_is_a_failed_operation():
    import checks

    refs = checks.References(ROOT)
    key = "area:fir3:DIST-FSM"
    out = {"report": dict(refs.frozen["area"][key])}
    assert checks.check_area_op(key, out, None, refs) == []
    out["report"]["combinational_area"] += 1
    assert checks.check_area_op(key, out, None, refs)


@pytest.mark.parametrize("workload", ["latency", "signoff"])
def test_outputs_do_not_depend_on_the_hash_seed(tmp_path, workload):
    texts = []
    for seed in ("0", "977"):
        path = tmp_path / f"outputs-{seed}.json"
        env = {**os.environ, "PYTHONHASHSEED": seed}
        result = _result(_run(ROOT, workload, "--outputs", str(path),
                              env=env))
        assert result["correct"] is True
        texts.append(path.read_text())
    assert texts[0] == texts[1]


def test_without_the_library_the_run_fails_and_prints_no_result(tmp_path):
    root = _checkout(tmp_path, ("perfbench", "BENCHMARK.json"))
    done = _run(root, "signoff")
    assert done.returncode != 0
    assert '"correct"' not in done.stdout


def test_area_visits_every_area_design_once():
    import workloads

    order = workloads.area_designs()
    assert len(order) == len(set(order))
    assert set(order) == {
        workloads.AREA_TABLE1, *workloads.AREA_SMALL,
        *workloads.AREA_PRODUCTS,
    }


def test_drawn_designs_stay_within_eight_units():
    import designs
    from repro.api import synthesize
    from repro.benchmarks.registry import benchmark

    for seed in range(20):
        for name in designs.drawn_designs(seed):
            entry = benchmark(name)
            res = synthesize(entry.dfg(), entry.allocation())
            assert len(res.allocation) <= 8, name


@pytest.mark.xfail(
    strict=True,
    reason="known defect: batch Monte-Carlo diverges from the scalar "
    "simulator on designs with 9 or more units (NOTES.md)",
)
def test_batch_engine_matches_scalar_beyond_eight_units():
    from repro.api import synthesize
    from repro.benchmarks.registry import benchmark
    from repro.sim.batch import BatchSimulator
    from repro.sim.runner import monte_carlo_latency

    entry = benchmark(
        "gen:ops=16,depth=6,fanout=3,mix=2-2-1,pressure=2,seed=4856"
    )
    res = synthesize(entry.dfg(), entry.allocation())
    system = res.distributed_system()
    scalar = monte_carlo_latency(
        system, res.bound, p=0.7, trials=30, seed=0, workers=1,
        engine="scalar",
    )
    assert BatchSimulator(system, res.bound).statistics(0.7, 30, 0) == scalar


def test_timings_exclude_the_probes_and_scale_by_the_nearest_ones():
    import time

    import hostspeed
    import spans
    import workloads

    with hostspeed.Sampler() as sampler:
        p = workloads.Pass(spans.Tracer(False, "area"), sampler)
        with p.item("busy"):
            deadline = time.perf_counter() + 20 * hostspeed.PERIOD_S
            while time.perf_counter() < deadline:
                pass
        spent = sampler.spent
    (start, end, net), = p.items
    assert len(sampler.at) >= 10
    assert net == pytest.approx(end - start - spent)
    assert min(sampler.speed) <= sampler.mean_speed(start, end)
    assert sampler.mean_speed(start, end) <= max(sampler.speed)
    # an interval without a probe takes the probes on either side
    mid = sampler.at[3] + 1e-9
    assert sampler.mean_speed(mid, mid) == pytest.approx(
        (sampler.speed[3] + sampler.speed[4]) / 2
    )
