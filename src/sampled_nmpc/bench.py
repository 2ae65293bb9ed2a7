"""Experiment harness: JSON-configured closed-loop runs, horizon/sample-count
sweeps, per-step CSV and summary JSON artifacts, and a post-hoc log validator.

All simulation content in the per-step CSV (states, inputs, costs, counters)
is reproducible byte for byte for a fixed seed, independent of the lane
count (which only sets the p of the complexity bounds); the elapsed_ms
column is wall-clock measurement and is excluded from reproducibility
comparisons.
"""

from __future__ import annotations

import csv
import json
import os
from dataclasses import asdict, dataclass, field, fields, replace
from pathlib import Path
from typing import Optional, Sequence

import numpy as np

from . import complexity
from .core import Plan, _floats, _integer
from .errors import ConfigError, SampledNmpcError
from .models import _MAX_FLOATS, Benchmark, make_benchmark
from .sampling import SamplerConfig
from .solver import _ORACLE_BATCH, _RECORD_FLOATS, RunLog, SolverConfig, closed_loop

__all__ = [
    "ExperimentConfig",
    "RunArtifacts",
    "SCHEMA_VERSION",
    "OUTPUT_ROOT_ENV",
    "run_experiment",
    "sweep",
    "certify_run",
    "validate_run",
    "resolve_output_root",
]

SCHEMA_VERSION = 3
OUTPUT_ROOT_ENV = "SAMPLED_NMPC_OUT"

CSV_FLOAT_FORMAT = ".17g"  # enough digits to round-trip doubles exactly


@dataclass(frozen=True)
class ExperimentConfig:
    """One closed-loop experiment, loadable from and dumpable to JSON.  The
    constructor checks its own fields, then assembles the run so that the
    plant, solver and sampler check theirs; each rejection is a ConfigError."""

    config_id: str
    plant: str
    horizon: int
    steps: int
    samples_per_step: int | tuple[int, ...] = 10
    sampler: SamplerConfig = field(default_factory=SamplerConfig)
    lanes: int = 1
    initial_state: Optional[tuple[float, ...]] = None
    time_budget_ms: Optional[float] = None
    oracle_budget: int = 100_000
    warm_start_mode: Optional[str] = None
    improve_initial: bool = True
    initial_plan: Optional[tuple[tuple[float, ...], ...]] = None
    model_overrides: dict = field(default_factory=dict)
    out_dir: Optional[str] = None
    schema_version: int = SCHEMA_VERSION

    def __post_init__(self):
        if self.schema_version != SCHEMA_VERSION:
            raise ConfigError(f"unsupported schema_version {self.schema_version}")
        if not isinstance(self.config_id, str):
            raise ConfigError(f"config_id must be a string, got {self.config_id!r}")
        if not self.config_id:
            raise ConfigError("config_id must be nonempty")
        if not isinstance(self.out_dir, (str, type(None))):
            raise ConfigError(f"out_dir must be a string or null, got {self.out_dir!r}")
        object.__setattr__(self, "steps", _integer(self.steps, "steps", 0, error=ConfigError))
        budget = self.time_budget_ms
        if budget is not None:
            _floats(budget, "time_budget_ms", (), ConfigError)
            if isinstance(budget, np.generic):  # a Python number, so that to_dict() serialises
                object.__setattr__(self, "time_budget_ms", budget.item())
        _, solver_cfg, x0 = _assemble(self)
        # Plain tuples of Python floats, read back from the run, so that to_dict() serialises.
        if self.initial_state is not None:
            object.__setattr__(self, "initial_state", tuple(x0.tolist()))
        if self.initial_plan is not None:
            object.__setattr__(self, "initial_plan",
                               tuple(map(tuple, solver_cfg.initial_plan.inputs.tolist())))
        for name in ("horizon", "lanes", "oracle_budget"):
            object.__setattr__(self, name, getattr(solver_cfg, name))
        counts = self.samples_per_step
        object.__setattr__(self, "samples_per_step",
                           int(counts) if np.isscalar(counts) else solver_cfg.sample_counts)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        unknown = set(raw) - {f.name for f in fields(cls)}
        if unknown:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        data = dict(raw)
        sampler_raw = data.pop("sampler", {})
        if not isinstance(sampler_raw, dict):
            raise ConfigError("sampler must be a JSON object")
        unknown = set(sampler_raw) - {f.name for f in fields(SamplerConfig)}
        if unknown:
            raise ConfigError(f"unknown sampler keys: {sorted(unknown)}")
        try:
            sampler = SamplerConfig(**sampler_raw)
        except ValueError as exc:  # its message names the field, not where it sits
            raise ConfigError(f"sampler.{exc}") from exc
        try:
            return cls(sampler=sampler, **data)
        except (TypeError, ValueError) as exc:
            raise ConfigError(str(exc)) from exc

    @classmethod
    def load(cls, path: str | os.PathLike) -> "ExperimentConfig":
        try:
            raw = json.loads(Path(path).read_text())
        except OSError as exc:
            raise ConfigError(f"cannot read config file {path}: {exc}") from exc
        except json.JSONDecodeError as exc:
            raise ConfigError(f"config file {path} is not valid JSON: {exc}") from exc
        return cls.from_dict(raw)

    def to_dict(self) -> dict:
        return asdict(self)  # json writes its tuples as lists

    def with_overrides(self, seed: Optional[int] = None, lanes: Optional[int] = None,
                       budget_ms: Optional[float] = None) -> "ExperimentConfig":
        """Apply command-line overrides, returning a new config."""
        updates: dict = {}
        if seed is not None:
            updates["sampler"] = replace(self.sampler, seed=seed)
        if lanes is not None:
            updates["lanes"] = lanes
        if budget_ms is not None:
            updates["time_budget_ms"] = budget_ms
        return replace(self, **updates) if updates else self


@dataclass(frozen=True)
class RunArtifacts:
    """File paths produced by one experiment run."""

    run_dir: Path
    csv_path: Path
    summary_path: Path
    resolved_config_path: Path


def resolve_output_root(cli_out: Optional[str], config: ExperimentConfig) -> Path:
    if cli_out:
        return Path(cli_out)
    if config.out_dir:
        return Path(config.out_dir)
    env = os.environ.get(OUTPUT_ROOT_ENV)
    if env:
        return Path(env)
    return Path("runs")


def _assemble(config: ExperimentConfig) -> tuple[Benchmark, SolverConfig, np.ndarray]:
    try:
        # The sets and the plan built here raise ContractViolationError, a ValueError.
        bench = make_benchmark(config.plant, config.horizon, config.model_overrides)
        mode = config.warm_start_mode or bench.default_warm_start_mode
        initial_plan = None if config.initial_plan is None else Plan(_floats(
            config.initial_plan, "initial_plan", (None, bench.model.m), ConfigError))
        solver_cfg = SolverConfig(
            horizon=config.horizon,
            samples_per_step=config.samples_per_step,
            sampler=config.sampler,
            lanes=config.lanes,
            time_budget=None if config.time_budget_ms is None else config.time_budget_ms / 1e3,
            oracle_budget=config.oracle_budget,
            warm_start_mode=mode,
            improve_initial=config.improve_initial,
            initial_plan=initial_plan,
        )
    except (TypeError, ValueError) as exc:
        raise ConfigError(str(exc)) from exc
    if mode == "terminal-controller" and bench.model.terminal_law is None:
        raise ConfigError(
            f"warm_start_mode terminal-controller: plant {config.plant} has no terminal law")
    # The solve's (N + 1, R, n) and (N, R, m) tensors, one oracle batch and
    # the closed loop's log, its (steps + 1, n) state log and one StepRecord
    # per step, in floats; make_benchmark bounds the cost weight stacks.
    width, big_n = bench.model.n + bench.model.m, solver_cfg.horizon
    for names, what, floats in (
            ("samples_per_step and horizon", "the solve tensors",
             sum(solver_cfg.sample_counts) * (big_n + 1) * width),
            ("horizon", "an oracle batch", _ORACLE_BATCH * big_n * width),
            ("steps", "the state log and step records",
             (config.steps + 1) * bench.model.n + config.steps * _RECORD_FLOATS)):
        if floats > _MAX_FLOATS:
            raise ConfigError(f"{names}: {what} would hold {floats} floats, over the limit "
                              f"of {_MAX_FLOATS}")
    x0 = (bench.default_x0 if config.initial_state is None else
          _floats(config.initial_state, "initial_state", (bench.model.n,), ConfigError))
    return bench, solver_cfg, x0


def _fmt(value: float) -> str:
    return format(float(value), CSV_FLOAT_FORMAT)


def _write_step_csv(path: Path, log: RunLog, n: int, m: int) -> None:
    header = (["k"] + [f"x{i}" for i in range(n)] + [f"u{i}" for i in range(m)]
              + ["J_sub", "f_evals", "cost_evals", "elapsed_ms", "budget_hit"])
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for rec in log.records:
            row = ([str(rec.k)] + [_fmt(v) for v in rec.state]
                   + [_fmt(v) for v in rec.applied_input]
                   + [_fmt(rec.j_sub), str(rec.f_evals), str(rec.cost_evals),
                      _fmt(rec.elapsed * 1e3), str(int(rec.budget_hit))])
            writer.writerow(row)


def _summarize(config: ExperimentConfig, bench: Benchmark, solver_cfg: SolverConfig,
               log: RunLog) -> dict:
    n_list = list(solver_cfg.sample_counts)
    unit_model = complexity.CostModel()
    report = complexity.complexity_report(n_list, config.horizon, unit_model,
                                          solver_cfg.lanes)
    recs = log.records
    per_solve = {
        "f_evals_min": min((r.f_evals for r in recs), default=0),
        "f_evals_max": max((r.f_evals for r in recs), default=0),
        "cost_evals_min": min((r.cost_evals for r in recs), default=0),
        "cost_evals_max": max((r.cost_evals for r in recs), default=0),
        "elapsed_ms_median": float(np.median([r.elapsed * 1e3 for r in recs])) if recs else 0.0,
    }
    return {
        "config_id": config.config_id,
        "plant": config.plant,
        "horizon": config.horizon,
        "samples_per_step": n_list,
        "steps_completed": len(recs),
        "termination": log.termination,
        "final_state": [float(v) for v in log.states[-1]],
        "final_j_sub": recs[-1].j_sub if recs else None,
        "totals": {
            "f_evals": sum(r.f_evals for r in recs),
            "cost_evals": sum(r.cost_evals for r in recs),
            "improvements": sum(r.improvements for r in recs),
            "elapsed_ms": sum(r.elapsed for r in recs) * 1e3,
        },
        "per_solve": per_solve,
        "complexity": {
            "units": unit_model.units,
            "c1": unit_model.c1,
            "c2": unit_model.c2,
            "serial_exact": report.serial_exact,
            "serial_bound": report.serial_bound,
            "full_parallel": report.full_parallel,
            "p_parallel": report.p_parallel,
            "predicted_f_evals_per_solve": report.predicted_f_evals,
            "predicted_cost_evals_per_solve": report.predicted_cost_evals,
        },
    }


def run_experiment(config: ExperimentConfig, out_root: Optional[str] = None) -> RunArtifacts:
    """Execute one configured closed loop and write its artifacts.

    The run directory is <output root>/<config_id>.  On infeasibility or
    oracle failure a machine-readable error.json lands there and the error
    propagates to the caller.
    """
    bench, solver_cfg, x0 = _assemble(config)
    run_dir = resolve_output_root(out_root, config) / config.config_id
    run_dir.mkdir(parents=True, exist_ok=True)

    resolved = config.to_dict()
    resolved["resolved"] = {
        "warm_start_mode": solver_cfg.warm_start_mode,
        "initial_state": [float(v) for v in x0],
        "samples_per_step": list(solver_cfg.sample_counts),
        "output_root": str(resolve_output_root(out_root, config)),
    }
    resolved_path = run_dir / "config.resolved.json"
    resolved_path.write_text(json.dumps(resolved, indent=2) + "\n")

    try:
        log = closed_loop(bench.model, bench.constraints, bench.cost,
                          solver_cfg, x0, config.steps)
    except SampledNmpcError as exc:
        (run_dir / "error.json").write_text(json.dumps({
            "error": type(exc).__name__,
            "message": str(exc),
            "config_id": config.config_id,
        }, indent=2) + "\n")
        raise

    csv_path = run_dir / "steps.csv"
    _write_step_csv(csv_path, log, bench.model.n, bench.model.m)
    summary_path = run_dir / "summary.json"
    summary_path.write_text(json.dumps(
        _summarize(config, bench, solver_cfg, log), indent=2) + "\n")
    return RunArtifacts(run_dir=run_dir, csv_path=csv_path,
                        summary_path=summary_path, resolved_config_path=resolved_path)


def sweep(configs: Sequence[ExperimentConfig], out_root: Optional[str] = None) -> list[dict]:
    """Run each config in sequence and write a combined sweep.csv.

    Individual failures are recorded with their error kind and the sweep
    continues.  Returns one record per config with its status and artifacts.
    """
    if not configs:
        raise ConfigError("sweep needs at least one config")
    ids = [c.config_id for c in configs]
    if len(set(ids)) != len(ids):
        raise ConfigError("sweep configs must have distinct config_id values")
    results = []
    for config in configs:
        record: dict = {"config_id": config.config_id, "config": config}
        try:
            artifacts = run_experiment(config, out_root)
            record["status"] = "ok"
            record["artifacts"] = artifacts
            record["summary"] = json.loads(artifacts.summary_path.read_text())
        except SampledNmpcError as exc:
            record["status"] = "error"
            record["error"] = type(exc).__name__
            record["message"] = str(exc)
        results.append(record)

    root = resolve_output_root(out_root, configs[0])
    root.mkdir(parents=True, exist_ok=True)
    sweep_path = root / "sweep.csv"
    header = ["config_id", "status", "plant", "N", "n_bar", "steps", "lanes",
              "total_elapsed_ms", "f_evals_per_solve_min", "f_evals_per_solve_max",
              "cost_evals_per_solve_min", "cost_evals_per_solve_max",
              "predicted_f_evals_per_solve", "predicted_cost_evals_per_solve",
              "serial_exact", "serial_bound", "full_parallel", "p_parallel"]
    with sweep_path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        for record in results:
            config = record["config"]
            base = [config.config_id, record["status"], config.plant,
                    str(config.horizon), str(np.max(config.samples_per_step)),
                    str(config.steps), str(config.lanes)]
            if record["status"] == "ok":
                summary = record["summary"]
                comp = summary["complexity"]
                per = summary["per_solve"]
                row = base + [
                    _fmt(summary["totals"]["elapsed_ms"]),
                    str(per["f_evals_min"]), str(per["f_evals_max"]),
                    str(per["cost_evals_min"]), str(per["cost_evals_max"]),
                    str(comp["predicted_f_evals_per_solve"]),
                    str(comp["predicted_cost_evals_per_solve"]),
                    _fmt(comp["serial_exact"]), _fmt(comp["serial_bound"]),
                    _fmt(comp["full_parallel"]), _fmt(comp["p_parallel"]),
                ]
            else:
                row = base + [""] * (len(header) - len(base))
            writer.writerow(row)
    for record in results:
        record["sweep_csv"] = sweep_path
        record.pop("config")
    return results


def _read_run_file(path: Path) -> str:
    try:
        return path.read_text()
    except OSError as exc:
        raise ConfigError(f"cannot read run file {path}: {exc}") from exc


def _read_run_json(path: Path) -> dict:
    try:
        data = json.loads(_read_run_file(path))
    except json.JSONDecodeError as exc:
        raise ConfigError(f"run file {path} is not valid JSON: {exc}") from exc
    if not isinstance(data, dict):
        raise ConfigError(f"run file {path} must hold a JSON object")
    return data


# A logged state far outside the sets overflows the set tests and the plant
# map; it is reported as a violation, not raised.
@np.errstate(over="ignore", invalid="ignore")
def certify_run(bench: Benchmark, cfg: SolverConfig, x0: np.ndarray, states: np.ndarray,
                inputs: np.ndarray, ks: Sequence[int], j_sub: Sequence[float],
                f_evals: Sequence[int], cost_evals: Sequence[int]) -> list[dict]:
    """Violations of a closed loop's K-step log, given as columns: the
    (K + 1, n) visited states, the (K, m) inputs and each step's index, cost
    and counters.  In order: per step, ``state-box`` or ``obstacle`` and
    ``input-bound``; per step, ``resimulation`` (``batch_step`` does not give
    the next state bit for bit); ``final-state-set`` at k = K;
    ``initial-state`` (not x0); then kind by kind, ``step-index`` (k is not
    the row's position), ``cost-not-finite``, ``{f,cost}-evals-over-prediction``
    (above one solve's closed form under cfg, sum_j (N - j) n_j and sum_j n_j)
    and ``{f,cost}-evals-negative``.  Each check is one row-kernel call."""
    constraints, count = bench.constraints, len(ks)
    box_ok = constraints.state_box.contains_rows(states)
    set_ok = constraints.states_ok_rows(states)
    in_box = constraints.input_box.contains_rows(inputs)
    violations = []
    for k in np.flatnonzero(~set_ok[:-1] | ~in_box).tolist():
        if not set_ok[k]:
            violations.append({"k": k, "kind": "obstacle" if box_ok[k] else "state-box",
                               "state": states[k].tolist()})
        if not in_box[k]:
            violations.append({"k": k, "kind": "input-bound", "input": inputs[k].tolist()})
    stepped = (bench.model.batch_step(states[:-1], inputs) == states[1:]).all(axis=1)
    violations += [{"k": k, "kind": "resimulation", "state": states[k + 1].tolist()}
                   for k in np.flatnonzero(~stepped).tolist()]
    if not set_ok[-1]:
        violations.append({"k": count, "kind": "final-state-set", "state": states[-1].tolist()})
    if not np.array_equal(states[0], x0):
        violations.append({"k": 0, "kind": "initial-state", "state": states[0].tolist()})
    work = complexity.complexity_report(cfg.sample_counts, cfg.horizon, complexity.CostModel(), 1)
    ks, j_sub, f_evals, cost_evals = map(np.asarray, (ks, j_sub, f_evals, cost_evals))
    for kind, column, bad in (
            ("step-index", ks, ks != np.arange(count)),
            ("cost-not-finite", j_sub, ~np.isfinite(j_sub)),
            ("f-evals-over-prediction", f_evals, f_evals > work.predicted_f_evals),
            ("cost-evals-over-prediction", cost_evals, cost_evals > work.predicted_cost_evals),
            ("f-evals-negative", f_evals, f_evals < 0),
            ("cost-evals-negative", cost_evals, cost_evals < 0)):
        at = np.flatnonzero(bad)
        violations += [{"k": k, "kind": kind, "value": value}
                       for k, value in zip(at.tolist(), column[at].tolist())]
    return violations


def validate_run(run_dir: str | os.PathLike) -> list[dict]:
    """``certify_run`` of steps.csv's columns, summary.json's final state last,
    under the run's resolved config; the CSV's floats round-trip doubles.
    ``log-shape`` (k = 0) comes first when the K rows are not ``steps``, and a
    ``summary-mismatch`` (k = K) last per summary value the rows do not give.
    ConfigError, naming the file, for a missing or unreadable run file, a JSON
    file that is not an object, a CSV row with a missing or malformed field,
    or a missing, non-numeric or wrong-length ``final_state``; and for a
    config that ``run_experiment`` rejects."""
    run_dir = Path(run_dir)
    resolved = _read_run_json(run_dir / "config.resolved.json")
    resolved.pop("resolved", None)
    config = ExperimentConfig.from_dict(resolved)
    bench, solver_cfg, x0 = _assemble(config)
    n, m = bench.model.n, bench.model.m
    steps_path = run_dir / "steps.csv"
    rows = list(csv.DictReader(_read_run_file(steps_path).splitlines()))
    vectors = [f"x{i}" for i in range(n)] + [f"u{i}" for i in range(m)]
    try:
        table = np.array([[float(row[c]) for c in vectors] for row in rows]).reshape(-1, n + m)
        ks, j_sub, f_evals, cost_evals = ([kind(row[c]) for row in rows] for c, kind in (
            ("k", int), ("J_sub", float), ("f_evals", int), ("cost_evals", int)))
    except (KeyError, TypeError, ValueError) as exc:
        raise ConfigError(f"run file {steps_path} has a missing or malformed field: {exc}") from exc
    summary_path = run_dir / "summary.json"
    summary = _read_run_json(summary_path)
    final = _floats(summary.get("final_state"),
                    f"run file {summary_path} final_state", (n,), ConfigError, finite=False)
    count, totals = len(rows), summary.get("totals")
    totals = totals if isinstance(totals, dict) else {}
    found = [] if count == config.steps else [{"k": 0, "kind": "log-shape", "value": count}]
    found += certify_run(bench, solver_cfg, x0, np.vstack([table[:, :n], final]), table[:, n:],
                         ks, j_sub, f_evals, cost_evals)
    for name, value, want in (("steps_completed", summary.get("steps_completed"), count),
                              ("totals.f_evals", totals.get("f_evals"), sum(f_evals)),
                              ("totals.cost_evals", totals.get("cost_evals"), sum(cost_evals))):
        if value != want:
            found.append({"k": count, "kind": "summary-mismatch", "field": name, "value": value})
    return found
