"""Closed-loop benchmark of the sampled-NMPC solver.

    python3 perfbench/run.py --workload NAME --seed N --seconds S --trace 0|1
    python3 perfbench/run.py --table

Run from the root of a source checkout; the library is imported from its
``src`` directory.  An untraced run (``--trace 0``) prints the end-to-end
metrics, a traced run (``--trace 1``) the per-layer ones; the last line of
standard output is one JSON object.  ``--table`` runs every ``configs/*.json``
once at lanes 1 and 2.  README.md in this directory explains the workloads
and metrics.
"""

from __future__ import annotations

import argparse
import hashlib
import json
import os
import platform
import resource
import statistics
import subprocess
import sys
import time
from itertools import islice
from pathlib import Path

BENCH_DIR = Path(__file__).resolve().parent
ROOT = BENCH_DIR.parent
SRC = ROOT / "src"
OUT = ROOT / ".bench_out"
SETUP_PROBES_PER_REPLAY = 3
EXIT_FAILED = 1


def _require_source() -> None:
    if not (SRC / "sampled_nmpc" / "__init__.py").is_file():
        sys.exit(f"no library source at {SRC / 'sampled_nmpc'}; run from a source checkout")
    sys.path.insert(0, str(SRC))


_require_source()

import numpy as np  # noqa: E402

from sampled_nmpc import CostModel, closed_loop, complexity_report  # noqa: E402
from sampled_nmpc.errors import SampledNmpcError  # noqa: E402

import gate  # noqa: E402
import micro  # noqa: E402
import tracing  # noqa: E402
from workloads import WORKLOADS, Workload  # noqa: E402


def provenance() -> dict:
    sha = None
    if (ROOT / ".git").exists():
        try:
            sha = subprocess.run(["git", "rev-parse", "HEAD"], cwd=ROOT, capture_output=True,
                                 text=True, timeout=10).stdout.strip() or None
        except OSError:
            pass
    source = hashlib.sha256()
    for path in sorted((SRC / "sampled_nmpc").glob("*.py")):
        source.update(path.read_bytes())
    cpu = platform.processor() or None
    try:
        for line in Path("/proc/cpuinfo").read_text().splitlines():
            if line.startswith("model name"):
                cpu = line.split(":", 1)[1].strip()
                break
    except OSError:
        pass
    return {"git_sha": sha, "source_sha256": source.hexdigest()[:16],
            "python": platform.python_version(), "numpy": np.__version__,
            "nproc": len(os.sched_getaffinity(0)), "cpu": cpu}


def setup_probe(workload: Workload) -> float:
    """Wall time from spawning a fresh interpreter until it could run its
    first period: imports, ``make_benchmark`` and ``SolverConfig``."""
    probe = (f"import sys; sys.path[:0] = [{str(SRC)!r}, {str(BENCH_DIR)!r}]; "
             f"import workloads; workloads.setup({workload.name!r}); print('ready', flush=True)")
    t0 = time.perf_counter()
    with subprocess.Popen([sys.executable, "-c", probe], stdout=subprocess.PIPE,
                          text=True) as proc:
        line = proc.stdout.readline()
        elapsed = time.perf_counter() - t0
        proc.stdout.read()
    if line.strip() != "ready" or proc.returncode != 0:
        raise RuntimeError(f"set-up probe failed with exit code {proc.returncode}")
    return elapsed


class Replays:
    """Replays a workload's episode set through ``closed_loop``: gates
    every episode and keeps, per replay, the period times, wall time and
    output digest."""

    def __init__(self, workload: Workload, bench, seed: int):
        self.workload = workload
        self.bench = bench
        self.plain = workload.build()  # untimed plant for the gate's re-simulation
        self.episodes = list(islice(workload.episodes(seed), workload.episode_count))
        self.elapsed: list[np.ndarray] = []  # per replay: seconds of each period, inf if it failed
        self.walls: list[np.ndarray] = []  # per replay: seconds of each episode
        self.digests: list[str] = []
        self.records: list = []
        self.attempted = 0
        self.failed = 0
        self.violations: list[tuple[int, int, str]] = []

    def play(self, on_episode=None) -> None:
        w, b = self.workload, self.bench
        elapsed = np.full(len(self.episodes) * w.periods, np.inf)
        walls = np.empty(len(self.episodes))
        digest = hashlib.sha256()
        keep = not self.walls
        for e, (x0, sampler_seed) in enumerate(self.episodes):
            if on_episode is not None:
                on_episode(e)
            cfg = w.solver_config(sampler_seed)
            t0 = time.perf_counter()
            try:
                log = closed_loop(b.model, b.constraints, b.cost, cfg, x0, w.periods)
            except SampledNmpcError as exc:
                walls[e] = time.perf_counter() - t0
                found = [(0, type(exc).__name__)]
                self.failed += w.periods
                digest.update(found[0][1].encode())
            else:
                walls[e] = time.perf_counter() - t0
                found = gate.check_episode(self.plain, cfg, x0, w.periods, log)
                self.failed += gate.failed_periods(found, w.periods)
                elapsed[e * w.periods:(e + 1) * w.periods] = [r.elapsed for r in log.records]
                gate.update_digest(digest, log)
                if keep:
                    self.records.extend(log.records)
            self.attempted += w.periods
            self.violations.extend((e, k, kind) for k, kind in found)
        self.elapsed.append(elapsed)
        self.walls.append(walls)
        self.digests.append(digest.hexdigest())

    @property
    def digest(self) -> str:
        return self.digests[0]

    def consistent(self) -> bool:
        """Every replay gave the same outputs, and its period times, timed
        inside ``closed_loop``, fit in the benchmark's outer clock."""
        return len(set(self.digests)) == 1 and all(
            el[np.isfinite(el)].sum() <= walls.sum() for el, walls in zip(self.elapsed, self.walls))

    def fastest(self) -> tuple[np.ndarray, float]:
        """Each completed period's fastest time over the replays, and the
        episode set's time built at the same grain: the periods' fastest
        times plus, per episode, the fastest of ``closed_loop``'s time
        outside its periods (outer clock minus the periods' times)."""
        elapsed = np.stack(self.elapsed)
        periods = np.min(elapsed, axis=0)
        done = periods[np.isfinite(periods)]
        in_periods = np.where(np.isfinite(elapsed), elapsed, 0.0).reshape(
            len(self.elapsed), len(self.episodes), -1).sum(axis=2)
        outside = np.min(np.stack(self.walls) - in_periods, axis=0)
        return done, float(done.sum() + outside.sum())

    def executions(self) -> np.ndarray:
        """The time of every completed period execution in every replay."""
        periods = np.concatenate(self.elapsed)
        return periods[np.isfinite(periods)]


def untraced(workload: Workload, seed: int, seconds: float) -> tuple[dict, Replays]:
    replays = Replays(workload, workload.build(), seed)
    setups: list[float] = []
    start = time.perf_counter()
    last = 0.0
    # The replay count is fixed per workload; ``seconds`` only caps a run far
    # slower than the one the count was sized on.
    while len(replays.walls) < workload.replays:
        t0 = time.perf_counter()
        if replays.walls and t0 - start + last > seconds:
            print(f"stopped at the {seconds:g}-s cap after {len(replays.walls)} of "
                  f"{workload.replays} replays")
            break
        setups.extend(setup_probe(workload) for _ in range(SETUP_PROBES_PER_REPLAY))
        replays.play()
        last = time.perf_counter() - t0
    (fastest, set_seconds), executions = replays.fastest(), replays.executions()
    p = workload.tail_percentile
    metrics = {
        "setup_s": (statistics.median(setups), "s"),
        "periods_per_s": (fastest.size / set_seconds, "1/s"),
        "period_ms_p50": (1e3 * float(np.median(fastest)) if fastest.size else 0.0, "ms"),
        "period_ms_tail": (1e3 * float(np.percentile(executions, p)) if executions.size else 0.0,
                           "ms"),
        "peak_rss_mb": (resource.getrusage(resource.RUSAGE_SELF).ru_maxrss / 1024.0, "MB"),
    }
    print(f"period_ms_p50 is the median of {fastest.size} periods' fastest of "
          f"{len(replays.walls)} replays; period_ms_tail is p{p:g} of all "
          f"{executions.size} period executions")
    print(f"setup_s is the median of {len(setups)} probes: {' '.join(f'{s:.4f}' for s in setups)}")
    return metrics, replays


def _ratio(num: float, den: float) -> float:
    return num / den if den else 0.0


def traced(workload: Workload, seed: int) -> tuple[dict, Replays, bool]:
    """Micro timings and calibration, then the episode set once untraced and
    traced; per-layer metrics come from the traced pass."""
    x0, sampler_seed = next(workload.episodes(seed))
    metrics = {k: (v, "us") for k, v in micro.layer_timings(workload, x0, sampler_seed).items()}
    closed_form = micro.calibrated_closed_form(workload, metrics["micro.improve_plan_us"][0])
    metrics.update({k: (v, "1" if k.endswith("ratio") else "us") for k, v in closed_form.items()})

    plain = Replays(workload, workload.build(), seed)
    plain.play()
    consistent = plain.failed == 0 and plain.consistent()

    tracer = tracing.Tracer()
    runner = Replays(workload, tracing.timed_benchmark(tracer, workload.build()), seed)
    tracer.clear()  # drop the equilibrium check PlantModel runs when rebuilt
    with tracing.traced_solver(tracer):
        runner.play(on_episode=tracer.begin_episode)
    wall = float(runner.walls[0].sum())
    tracer.save(OUT / "trace" / f"{workload.name}.npz")
    periods_seen = tracer.periods_per_episode()
    if periods_seen != {e: workload.periods for e in range(workload.episode_count)}:
        print("spans do not close one period per closed-loop record", file=sys.stderr)
        consistent = False

    totals = tracer.layer_totals()
    for layer, t in totals.items():
        metrics[f"{layer}.calls"] = (t["calls"], "count")
        metrics[f"{layer}.self_s"] = (t["self_s"], "s")
        metrics[f"{layer}.share"] = (t["self_s"] / wall, "1")
    draw, step, batch = totals["sampling.draw"], totals["models.step"], totals["models.batch_step"]
    rows, oracle = totals["core.feasible_rows"], totals["solver.oracle"]
    sequences = tracer.amount_under("sampling.draw", "solver.oracle") // workload.horizon
    recs = runner.records
    sweeps = len(recs) - (0 if workload.improve_initial else len(runner.episodes))
    predicted = complexity_report(workload.solver_config(0).sample_counts, workload.horizon,
                                  CostModel(), 1).predicted_f_evals
    f_evals = sum(r.f_evals for r in recs)
    improvements = sum(r.improvements for r in recs)
    metrics.update({
        "sampling.draw.points": (draw["amount"], "count"),
        "sampling.draw.us_per_point": (1e6 * _ratio(draw["self_s"], draw["amount"]), "us"),
        "models.step.us_per_call": (1e6 * _ratio(step["self_s"], step["calls"]), "us"),
        "models.batch_step.rows": (batch["amount"], "count"),
        "models.batch_step.ns_per_row": (1e9 * _ratio(batch["self_s"], batch["amount"]), "ns"),
        "core.feasible_rows.rows": (rows["amount"], "count"),
        "solver.improve.total_s": (totals["solver.improve"]["total_s"], "s"),
        "solver.warm_start.total_s": (totals["solver.warm_start"]["total_s"], "s"),
        "solver.oracle.total_s": (oracle["total_s"], "s"),
        "solver.oracle.sequences": (sequences, "count"),
        "solver.oracle.hit_ratio": (_ratio(oracle["calls"], sequences), "1"),
        "solver.f_evals": (f_evals, "count"),
        "solver.cost_evals": (sum(r.cost_evals for r in recs), "count"),
        "solver.improvements": (improvements, "count"),
        "solver.prune_ratio": (1.0 - f_evals / (sweeps * predicted) if sweeps else 0.0, "1"),
        "solver.accept_ratio": (_ratio(improvements, sweeps * workload.horizon), "1"),
        "trace.unattributed_share": (1.0 - sum(t["self_s"] for t in totals.values()) / wall, "1"),
        "trace.overhead_ratio": (wall / plain.walls[0].sum(), "1"),
        "trace.spans": (len(tracer), "count"),
    })
    if plain.digest != runner.digest:
        print("traced and untraced digests differ", file=sys.stderr)
        consistent = False
    shares = sorted(((totals[k]["self_s"] / wall, k) for k in totals), reverse=True)
    print("self-time shares: " + ", ".join(f"{k} {100 * s:.1f}%" for s, k in shares))
    return metrics, runner, consistent


def run_workload(args) -> int:
    workload = WORKLOADS[args.workload]
    print("provenance " + json.dumps(provenance(), sort_keys=True))
    if args.trace:
        metrics, runner, consistent = traced(workload, args.seed)
    else:
        metrics, runner = untraced(workload, args.seed, args.seconds)
        consistent = True
    if not runner.consistent():
        print("replays differ in output, or period times exceed the outer clock", file=sys.stderr)
        consistent = False
    correct = runner.failed == 0 and consistent
    for episode, k, kind in runner.violations[:20]:
        print(f"violation: episode {episode} period {k}: {kind}", file=sys.stderr)
    print(f"failed_ratio {_ratio(runner.failed, runner.attempted):.6f} 1 "
          f"({runner.failed} of {runner.attempted} periods)")
    for name, (value, unit) in metrics.items():
        print(f"{name} {value} {unit}")
    print(f"digest {workload.name} seed {args.seed} "
          f"{runner.digest} over {workload.episode_count} episodes")
    print(json.dumps({"correct": correct, "attempted": runner.attempted, "failed": runner.failed,
                      "metrics": {k: {"value": v, "unit": u} for k, (v, u) in metrics.items()}}))
    return 0 if correct else EXIT_FAILED


def run_table() -> int:
    """Each shipped config once at lanes 1 and 2: wall time and microseconds
    per plant step (wall time over the run's f_evals, lanes=1)."""
    from sampled_nmpc import ExperimentConfig, run_experiment

    print("provenance " + json.dumps(provenance(), sort_keys=True))
    print(f"{'config':<16} {'lanes=1 s':>10} {'lanes=2 s':>10} {'us/step':>8}")
    for path in sorted((ROOT / "configs").glob("*.json")):
        config = ExperimentConfig.load(path)
        walls, f_evals = [], 0
        for lanes in (1, 2):
            t0 = time.perf_counter()
            artifacts = run_experiment(config.with_overrides(lanes=lanes), OUT / f"table-lanes{lanes}")
            walls.append(time.perf_counter() - t0)
            if lanes == 1:
                f_evals = json.loads(artifacts.summary_path.read_text())["totals"]["f_evals"]
        per_step = f"{1e6 * walls[0] / f_evals:8.1f}" if f_evals else f"{'-':>8}"
        print(f"{config.config_id:<16} {walls[0]:10.3f} {walls[1]:10.3f} {per_step}")
    return 0


def main(argv=None) -> int:
    parser = argparse.ArgumentParser(description=__doc__.splitlines()[0])
    parser.add_argument("--workload", choices=sorted(WORKLOADS))
    parser.add_argument("--seed", type=int, default=0)
    parser.add_argument("--seconds", type=float, default=55.0,
                        help="cap on an untraced run's measuring time (BENCHMARK.json run_seconds)")
    parser.add_argument("--trace", type=int, choices=(0, 1), default=0)
    parser.add_argument("--table", action="store_true",
                        help="run every configs/*.json once at lanes 1 and 2")
    args = parser.parse_args(argv)
    if args.table:
        return run_table()
    if args.workload is None:
        parser.error("--workload or --table is required")
    return run_workload(args)


if __name__ == "__main__":
    sys.exit(main())
