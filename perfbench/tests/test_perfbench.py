"""Self-tests of the benchmark: seeded inputs, the correctness gate and the
tracer.  Run with ``python -m pytest perfbench/tests``."""

import dataclasses
import hashlib
import json
import shutil
import subprocess
import sys
from itertools import islice
from pathlib import Path

import numpy as np
import pytest

from sampled_nmpc import closed_loop, solver

import gate
import run
import tracing
from workloads import WORKLOADS

ROOT = Path(__file__).resolve().parents[2]


def small(name, periods=4, episode_count=2):
    return dataclasses.replace(WORKLOADS[name], periods=periods, episode_count=episode_count)


def first_episode(workload, seed=5):
    bench = workload.build()
    x0, sampler_seed = next(workload.episodes(seed))
    cfg = workload.solver_config(sampler_seed)
    return bench, cfg, x0, closed_loop(bench.model, bench.constraints, bench.cost, cfg, x0,
                                       workload.periods)


@pytest.mark.parametrize("name", sorted(WORKLOADS))
def test_generator_is_deterministic_per_seed(name):
    w = WORKLOADS[name]
    a = list(islice(w.episodes(3), 20))
    b = list(islice(w.episodes(3), 20))
    c = list(islice(w.episodes(4), 20))
    assert all(np.array_equal(x, y) and s == t for (x, s), (y, t) in zip(a, b))
    assert any(not np.array_equal(x, y) for (x, _), (y, _) in zip(a, c))


def test_cart_cold_hard_starts_ignore_the_seed():
    w = WORKLOADS["cart-cold"]
    a = list(islice(w.episodes(3), 3 * w.fixed_every))
    b = list(islice(w.episodes(4), 3 * w.fixed_every))
    hard = range(w.fixed_every - 1, len(a), w.fixed_every)
    assert all(np.array_equal(a[i][0], b[i][0]) and a[i][1] == b[i][1] for i in hard)
    assert not np.array_equal(a[0][0], b[0][0])


def test_tail_percentile_keeps_ten_replayed_periods_beyond_it():
    for w in WORKLOADS.values():
        replayed = w.episode_count * w.periods
        assert replayed * (1 - w.tail_percentile / 100) >= 10 - 1e-9
    assert small("buck-prune", periods=100, episode_count=4).tail_percentile == 97.5


@pytest.mark.parametrize("name", ["buck-prune", "wmr-obstacle"])
def test_gate_accepts_a_clean_log(name):
    w = small(name)
    bench, cfg, x0, log = first_episode(w)
    assert gate.check_episode(bench, cfg, x0, w.periods, log) == []


def perturbed_state(log, bench):
    states = log.states.copy()
    states[2, 0] = np.nextafter(states[2, 0], np.inf)
    return dataclasses.replace(log, states=states)


def final_state_outside_box(log, bench):
    states = log.states.copy()
    states[-1, 0] = bench.constraints.state_box.upper[0] + 1.0
    return dataclasses.replace(log, states=states)


def input_outside_box(log, bench):
    records = list(log.records)
    u = bench.constraints.input_box.upper + 0.5
    records[1] = dataclasses.replace(records[1], applied_input=u)
    return dataclasses.replace(log, records=tuple(records))


def f_evals_over_prediction(log, bench):
    records = list(log.records)
    records[3] = dataclasses.replace(records[3], f_evals=10 ** 6)
    return dataclasses.replace(log, records=tuple(records))


@pytest.mark.parametrize("corrupt, period, kind", [
    (perturbed_state, 1, "resimulation"),
    (final_state_outside_box, 4, "final-state-set"),
    (input_outside_box, 1, "input-box"),
    (f_evals_over_prediction, 3, "f-evals-over-prediction"),
])
def test_gate_rejects_a_corrupted_log(corrupt, period, kind):
    w = small("buck-prune")
    bench, cfg, x0, log = first_episode(w)
    violations = gate.check_episode(bench, cfg, x0, w.periods, corrupt(log, bench))
    assert (period, kind) in violations
    assert gate.failed_periods(violations, w.periods) >= 1


def test_digest_changes_with_one_ulp():
    w = small("buck-prune")
    bench, _, _, log = first_episode(w)
    clean, dirty = hashlib.sha256(), hashlib.sha256()
    gate.update_digest(clean, log)
    gate.update_digest(dirty, perturbed_state(log, bench))
    assert clean.hexdigest() != dirty.hexdigest()


def test_untraced_run_makes_the_fixed_replay_count_and_builds_the_fastest_set():
    w = dataclasses.replace(small("buck-prune", periods=10), replays=3)
    metrics, replays = run.untraced(w, seed=5, seconds=600.0)
    assert len(replays.walls) == len(replays.digests) == w.replays
    assert replays.failed == 0 and replays.consistent()
    fastest, set_seconds = replays.fastest()
    assert fastest.size == w.episode_count * w.periods
    assert fastest.sum() <= set_seconds <= min(walls.sum() for walls in replays.walls)
    assert metrics["periods_per_s"][0] == pytest.approx(fastest.size / set_seconds)


@pytest.mark.parametrize("name", ["wmr-obstacle", "cart-cold"])
def test_traced_and_untraced_runs_give_one_digest(name):
    w = small(name, periods=WORKLOADS[name].periods if name == "cart-cold" else 4,
              episode_count=3)
    plain = run.Replays(w, w.build(), seed=11)
    plain.play()
    plain.play()
    tracer = tracing.Tracer()
    timed = run.Replays(w, tracing.timed_benchmark(tracer, w.build()), seed=11)
    tracer.clear()
    originals = {n: getattr(solver, n) for n in tracing.SOLVER_GLOBALS}
    with tracing.traced_solver(tracer):
        timed.play(on_episode=tracer.begin_episode)
    assert {n: getattr(solver, n) for n in tracing.SOLVER_GLOBALS} == originals
    assert plain.failed == timed.failed == 0
    assert plain.consistent() and timed.consistent()
    assert plain.digest == timed.digest
    assert len(timed.records) == w.episode_count * w.periods
    assert tracer.periods_per_episode() == {e: w.periods for e in range(w.episode_count)}
    totals = tracer.layer_totals()
    for layer in ("models.step", "core.feasible", "core.certify", "solver.oracle"):
        assert totals[layer]["calls"] > 0


def test_self_time_excludes_children_and_folds_same_layer_calls():
    tracer = tracing.Tracer()
    inner = tracer.wrap("core.feasible", lambda: None)
    nested = tracer.wrap("core.feasible", lambda: inner())
    outer = tracer.wrap("solver.improve", lambda: [nested() for _ in range(3)])
    outer()
    totals = tracer.layer_totals()
    assert totals["core.feasible"]["calls"] == 3
    outer_t = totals["solver.improve"]
    assert outer_t["self_s"] == pytest.approx(outer_t["total_s"] - totals["core.feasible"]["total_s"],
                                              abs=1e-12)


def test_refuses_to_run_without_library_source(tmp_path):
    shutil.copy(ROOT / "BENCHMARK.json", tmp_path)
    shutil.copytree(ROOT / "perfbench", tmp_path / "perfbench",
                    ignore=shutil.ignore_patterns("__pycache__"))
    command = json.loads((ROOT / "BENCHMARK.json").read_text())["command"]
    done = subprocess.run([sys.executable] + command[1:] + ["--workload", "cart-cold", "--seed", "0",
                                                            "--seconds", "1", "--trace", "0"],
                          cwd=tmp_path, capture_output=True, text=True, timeout=60)
    assert done.returncode != 0
    assert '"correct"' not in done.stdout
