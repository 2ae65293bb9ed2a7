"""Experiment harness: JSON-configured closed-loop runs, horizon/sample-count
sweeps, per-step CSV and summary JSON artifacts, and a post-hoc log validator.
Each CSV's schema is one table.  All simulation content in the per-step CSV is
reproducible byte for byte for a fixed seed, whatever the lane count (the p of
the complexity bounds); its wall-clock elapsed_ms column is not."""

from __future__ import annotations

import csv
import itertools
import json
import os
from collections import namedtuple
from dataclasses import asdict, dataclass, field, fields, replace
from functools import reduce
from operator import attrgetter
from pathlib import Path
from typing import Callable, Iterable, Mapping, Optional, Sequence

import numpy as np

from . import complexity
from .core import Plan, _floats, _integer
from .errors import ConfigError, ContractViolationError, SampledNmpcError
from .models import _MAX_FLOATS, Benchmark, make_benchmark
from .sampling import SamplerConfig
from .solver import _ORACLE_BATCH, _RECORD_FLOATS, StepRecord, RunLog, SolverConfig, closed_loop

__all__ = ["ExperimentConfig", "RunArtifacts", "SCHEMA_VERSION", "OUTPUT_ROOT_ENV",
           "run_experiment", "sweep", "certify_run", "validate_run", "resolve_output_root"]

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
        # The checked overrides as plain JSON values, numpy numbers and arrays too,
        # in a dict of the config's own, so that to_dict() serialises.
        object.__setattr__(self, "model_overrides", json.loads(
            json.dumps(self.model_overrides, default=lambda value: value.tolist())))
        for name in ("horizon", "lanes", "oracle_budget"):
            object.__setattr__(self, name, getattr(solver_cfg, name))
        counts = self.samples_per_step
        object.__setattr__(self, "samples_per_step",
                           int(counts) if np.isscalar(counts) else solver_cfg.sample_counts)

    @classmethod
    def from_dict(cls, raw: dict) -> "ExperimentConfig":
        if not isinstance(raw, dict):
            raise ConfigError("config must be a JSON object")
        if unknown := set(raw) - {f.name for f in fields(cls)}:
            raise ConfigError(f"unknown config keys: {sorted(unknown)}")
        data = dict(raw)
        sampler_raw = data.pop("sampler", {})
        if not isinstance(sampler_raw, dict):
            raise ConfigError("sampler must be a JSON object")
        if unknown := set(sampler_raw) - {f.name for f in fields(SamplerConfig)}:
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
        updates = {name: value for name, value in (
            ("sampler", None if seed is None else replace(self.sampler, seed=seed)),
            ("lanes", lanes), ("time_budget_ms", budget_ms)) if value is not None}
        return replace(self, **updates) if updates else self


@dataclass(frozen=True)
class RunArtifacts:
    """File paths produced by one experiment run."""

    run_dir: Path
    csv_path: Path
    summary_path: Path
    resolved_config_path: Path


def resolve_output_root(cli_out: Optional[str], config: ExperimentConfig) -> Path:
    return Path(cli_out or config.out_dir or os.environ.get(OUTPUT_ROOT_ENV) or "runs")


def _assemble(config: ExperimentConfig) -> tuple[Benchmark, SolverConfig, np.ndarray]:
    try:
        # The sets and the plan built here raise ContractViolationError, a ValueError.
        bench = make_benchmark(config.plant, config.horizon, config.model_overrides)
        mode = config.warm_start_mode or bench.default_warm_start_mode
        initial_plan = None if config.initial_plan is None else Plan(_floats(
            config.initial_plan, "initial_plan", (None, bench.model.m), ConfigError))
        solver_cfg = SolverConfig(
            horizon=config.horizon, samples_per_step=config.samples_per_step,
            sampler=config.sampler, lanes=config.lanes,
            time_budget=None if config.time_budget_ms is None else config.time_budget_ms / 1e3,
            oracle_budget=config.oracle_budget, warm_start_mode=mode,
            improve_initial=config.improve_initial, initial_plan=initial_plan)
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


def _checked(parse: Callable, ok: Callable, what: str) -> Callable[[str], object]:
    def checked(text: str):
        if not ok(value := parse(text)):
            raise ValueError(f"{text!r} is not {what}")
        return value
    return checked


# The steps.csv schema, read by its writer, its parser and certify_run.  An
# entry is a name, how to read it from a StepRecord, and how to format and
# parse a field; a vector entry, of width "n" or "m", spans name0, name1, ...
_StepColumn = namedtuple("_StepColumn", "name read fmt parse width", defaults=(None,))
_STEP_COLUMNS = (
    _StepColumn("k", attrgetter("k"), str, int),
    _StepColumn("x", attrgetter("state"), _fmt, float, "n"),
    _StepColumn("u", attrgetter("applied_input"), _fmt, float, "m"),
    _StepColumn("J_sub", attrgetter("j_sub"), _fmt, float),
    _StepColumn("f_evals", attrgetter("f_evals"), str, int),
    _StepColumn("cost_evals", attrgetter("cost_evals"), str, int),
    _StepColumn("elapsed_ms", lambda rec: rec.elapsed * 1e3, _fmt,
                _checked(float, lambda ms: 0 <= ms < np.inf, "a finite time >= 0")),
    _StepColumn("budget_hit", lambda rec: int(rec.budget_hit), str,
                _checked(int, lambda flag: flag in (0, 1), "0 or 1")),
)


def _step_fields(n: int, m: int) -> list[tuple[str, tuple]]:
    """steps.csv's header: each field's name, with its table entry."""
    width = {None: 1, "n": n, "m": m}
    return [(col.name if col.width is None else f"{col.name}{i}", col)
            for col in _STEP_COLUMNS for i in range(width[col.width])]


def _write_csv(path: Path, header: Iterable[str], rows: Iterable[Iterable[str]]) -> None:
    with path.open("w", newline="") as fh:
        writer = csv.writer(fh, lineterminator="\n")
        writer.writerow(header)
        writer.writerows(rows)


def _write_step_csv(path: Path, records: Sequence[StepRecord], n: int, m: int) -> None:
    _write_csv(path, (name for name, _ in _step_fields(n, m)),
               ((col.fmt(value) for col in _STEP_COLUMNS
                 for value in (col.read(rec) if col.width else (col.read(rec),)))
                for rec in records))


def _read_step_csv(path: Path, n: int, m: int) -> dict:
    """steps.csv's columns by table name: (K, width) arrays or lists of K values."""
    schema = _step_fields(n, m)
    header, *rows = list(csv.reader(_read_run_file(path).splitlines())) or [[]]
    for want, got in itertools.zip_longest((name for name, _ in schema), header):
        if want != got:
            raise ConfigError(f"run file {path} header has {got!r} where the schema has {want!r}")
    for k, row in enumerate(rows):
        if len(row) != len(schema):
            raise ConfigError(f"run file {path} row {k} has {len(row)} fields, not {len(schema)}")
    blocks: dict = {col.name: [] for col in _STEP_COLUMNS}
    for j, (name, col) in enumerate(schema):
        try:
            blocks[col.name].append([col.parse(row[j]) for row in rows])
        except ValueError as exc:
            raise ConfigError(f"run file {path} column {name}: malformed field, {exc}") from exc
    return {col.name: np.array(blocks[col.name], dtype=float).T if col.width else
            blocks[col.name][0] for col in _STEP_COLUMNS}


def _summarize(config: ExperimentConfig, solver_cfg: SolverConfig, log: RunLog) -> dict:
    n_list = list(solver_cfg.sample_counts)
    unit_model = complexity.CostModel()
    report = complexity.complexity_report(n_list, config.horizon, unit_model, solver_cfg.lanes)
    recs = log.records
    return {
        "config_id": config.config_id,
        "plant": config.plant,
        "horizon": config.horizon,
        "samples_per_step": n_list,
        "steps_completed": len(recs),
        "termination": log.termination,
        "final_state": [float(v) for v in log.states[-1]],
        "final_j_sub": recs[-1].j_sub if recs else None,
        "totals": {"f_evals": sum(r.f_evals for r in recs),
                   "cost_evals": sum(r.cost_evals for r in recs),
                   "improvements": sum(r.improvements for r in recs),
                   "elapsed_ms": sum(r.elapsed for r in recs) * 1e3},
        "per_solve": {
            "f_evals_min": min((r.f_evals for r in recs), default=0),
            "f_evals_max": max((r.f_evals for r in recs), default=0),
            "cost_evals_min": min((r.cost_evals for r in recs), default=0),
            "cost_evals_max": max((r.cost_evals for r in recs), default=0),
            "elapsed_ms_median":
                float(np.median([r.elapsed * 1e3 for r in recs])) if recs else 0.0},
        "complexity": {"units": unit_model.units, "c1": unit_model.c1, "c2": unit_model.c2,
                       "serial_exact": report.serial_exact, "serial_bound": report.serial_bound,
                       "full_parallel": report.full_parallel, "p_parallel": report.p_parallel,
                       "predicted_f_evals_per_solve": report.predicted_f_evals,
                       "predicted_cost_evals_per_solve": report.predicted_cost_evals},
    }


def run_experiment(config: ExperimentConfig, out_root: Optional[str] = None) -> RunArtifacts:
    """Execute one configured closed loop and write its artifacts to
    <output root>/<config_id>.  On infeasibility or oracle failure a
    machine-readable error.json lands there and the error propagates."""
    bench, solver_cfg, x0 = _assemble(config)
    run_dir = resolve_output_root(out_root, config) / config.config_id
    run_dir.mkdir(parents=True, exist_ok=True)

    resolved = {**config.to_dict(), "resolved": {
        "warm_start_mode": solver_cfg.warm_start_mode,
        "initial_state": [float(v) for v in x0],
        "samples_per_step": list(solver_cfg.sample_counts),
        "output_root": str(resolve_output_root(out_root, config))}}
    resolved_path = run_dir / "config.resolved.json"
    resolved_path.write_text(json.dumps(resolved, indent=2) + "\n")

    try:
        log = closed_loop(bench.model, bench.constraints, bench.cost, solver_cfg, x0, config.steps)
    except SampledNmpcError as exc:
        (run_dir / "error.json").write_text(json.dumps(
            {"error": type(exc).__name__, "message": str(exc), "config_id": config.config_id},
            indent=2) + "\n")
        raise

    csv_path = run_dir / "steps.csv"
    _write_step_csv(csv_path, log.records, bench.model.n, bench.model.m)
    summary_path = run_dir / "summary.json"
    summary_path.write_text(json.dumps(_summarize(config, solver_cfg, log), indent=2) + "\n")
    return RunArtifacts(run_dir, csv_path, summary_path, resolved_path)


# The sweep.csv schema: each column's header, the dotted path of its value
# in a run's record (its config's fields, its status and its summary.json)
# and its format.  A failed run has no summary: those columns stay empty.
_SWEEP_COLUMNS = (
    ("config_id", "config.config_id", str), ("status", "status", str),
    ("plant", "config.plant", str), ("N", "config.horizon", str),
    ("n_bar", "config.samples_per_step", lambda counts: str(np.max(counts))),
    ("steps", "config.steps", str), ("lanes", "config.lanes", str),
    ("total_elapsed_ms", "summary.totals.elapsed_ms", _fmt),
    ("f_evals_per_solve_min", "summary.per_solve.f_evals_min", str),
    ("f_evals_per_solve_max", "summary.per_solve.f_evals_max", str),
    ("cost_evals_per_solve_min", "summary.per_solve.cost_evals_min", str),
    ("cost_evals_per_solve_max", "summary.per_solve.cost_evals_max", str),
    ("predicted_f_evals_per_solve", "summary.complexity.predicted_f_evals_per_solve", str),
    ("predicted_cost_evals_per_solve", "summary.complexity.predicted_cost_evals_per_solve", str),
    ("serial_exact", "summary.complexity.serial_exact", _fmt),
    ("serial_bound", "summary.complexity.serial_bound", _fmt),
    ("full_parallel", "summary.complexity.full_parallel", _fmt),
    ("p_parallel", "summary.complexity.p_parallel", _fmt),
)


def _at(tree: dict, path: str):
    """The value at a dotted path through nested dicts; None past a missing key."""
    return reduce(lambda node, key: None if node is None else node.get(key), path.split("."), tree)


def sweep(configs: Sequence[ExperimentConfig], out_root: Optional[str] = None) -> list[dict]:
    """Run each config in sequence and write a combined sweep.csv.  A failure
    is recorded with its error kind and the sweep continues.  Returns one
    record per config with its status and artifacts."""
    if not configs:
        raise ConfigError("sweep needs at least one config")
    if len({c.config_id for c in configs}) != len(configs):
        raise ConfigError("sweep configs must have distinct config_id values")
    results = []
    for config in configs:
        record: dict = {"config_id": config.config_id}
        try:
            artifacts = run_experiment(config, out_root)
            record.update(status="ok", artifacts=artifacts,
                          summary=json.loads(artifacts.summary_path.read_text()))
        except SampledNmpcError as exc:
            record.update(status="error", error=type(exc).__name__, message=str(exc))
        results.append(record)

    root = resolve_output_root(out_root, configs[0])
    root.mkdir(parents=True, exist_ok=True)
    sweep_path = root / "sweep.csv"
    views = [{**record, "config": config.to_dict()} for record, config in zip(results, configs)]
    _write_csv(sweep_path, (header for header, _, _ in _SWEEP_COLUMNS),
               (["" if (value := _at(view, path)) is None else fmt(value)
                 for _, path, fmt in _SWEEP_COLUMNS] for view in views))
    for record in results:
        record["sweep_csv"] = sweep_path
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
def certify_run(bench: Benchmark, cfg: SolverConfig, x0: np.ndarray,
                columns: Mapping[str, Sequence]) -> list[dict]:
    """Violations of a closed loop's K-step log, given as steps.csv's columns
    by table name: ``x`` the K + 1 visited states, final state last, ``u``
    the K inputs, and K each of ``k``, ``J_sub``, ``f_evals`` and
    ``cost_evals`` (a ContractViolationError names each of another shape).
    In order: per step, ``state-box`` or ``obstacle`` and ``input-bound``;
    per step, ``resimulation`` (``batch_step`` does not give the next state
    bit for bit); ``final-state-set`` at k = K; ``initial-state`` (not x0);
    then kind by kind, ``step-index`` (k is not the row's position),
    ``cost-not-finite``, ``{f,cost}-evals-over-prediction`` (above one
    solve's closed form under cfg, sum_j (N - j) n_j and sum_j n_j) and
    ``{f,cost}-evals-negative``.  Each check is one row-kernel call."""
    names = ("x", "u", "k", "J_sub", "f_evals", "cost_evals")
    states, inputs, ks, j_sub, f_evals, cost_evals = data = [np.asarray(columns[c]) for c in names]
    count = len(states) - 1
    shapes = [(count + 1, bench.model.n), (count, bench.model.m)] + [(count,)] * 4
    wrong = [name for name, column, shape in zip(names, data, shapes) if column.shape != shape]
    if wrong:
        raise ContractViolationError(f"columns {wrong} do not fit {count} steps from x's states")
    box_ok = bench.constraints.state_box.contains_rows(states)
    set_ok = bench.constraints.states_ok_rows(states)
    in_box = bench.constraints.input_box.contains_rows(inputs)
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
    """``certify_run`` of steps.csv's columns, summary.json's final state
    last in ``x``, under the run's resolved config.  ``log-shape`` (k = 0)
    comes first when the K rows are not ``steps``, and a ``summary-mismatch``
    (k = K) last per summary value the rows do not give.  ConfigError, naming
    the file, for a missing or unreadable run file, a JSON file that is not
    an object, a missing, non-numeric or wrong-length ``final_state``, or a
    config that ``run_experiment`` rejects; and naming the column too, for a
    steps.csv header that is not the table's names in order, a row of
    another length, or a field its entry does not parse (``budget_hit`` is 0
    or 1, ``elapsed_ms`` a finite time >= 0)."""
    run_dir = Path(run_dir)
    resolved = _read_run_json(run_dir / "config.resolved.json")
    resolved.pop("resolved", None)
    config = ExperimentConfig.from_dict(resolved)
    bench, solver_cfg, x0 = _assemble(config)
    n = bench.model.n
    columns = _read_step_csv(run_dir / "steps.csv", n, bench.model.m)
    summary_path = run_dir / "summary.json"
    summary = _read_run_json(summary_path)
    final = _floats(summary.get("final_state"),
                    f"run file {summary_path} final_state", (n,), ConfigError, finite=False)
    columns["x"] = np.vstack([columns["x"], final])
    count, totals = len(columns["x"]) - 1, summary.get("totals")
    totals = totals if isinstance(totals, dict) else {}
    found = [] if count == config.steps else [{"k": 0, "kind": "log-shape", "value": count}]
    found += certify_run(bench, solver_cfg, x0, columns)
    for name, value, want in (("steps_completed", summary.get("steps_completed"), count),
                              *((f"totals.{c}", totals.get(c), sum(columns[c]))
                                for c in ("f_evals", "cost_evals"))):
        if value != want:
            found.append({"k": count, "kind": "summary-mismatch", "field": name, "value": value})
    return found
