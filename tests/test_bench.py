import csv
import itertools
import json
import re
import shlex
import tracemalloc
from dataclasses import fields, replace
from pathlib import Path

import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sampled_nmpc import (
    ExperimentConfig,
    certify_run,
    closed_loop,
    run_experiment,
    sweep,
    validate_run,
)
from sampled_nmpc import bench as bench_module
from sampled_nmpc.bench import OUTPUT_ROOT_ENV, SCHEMA_VERSION, _assemble, resolve_output_root
from sampled_nmpc.cli import build_parser, main as cli_main
from sampled_nmpc.errors import (ConfigError, ContractViolationError, NoTerminalLawError,
                                 SampledNmpcError)
from sampled_nmpc.models import BuckBoostParams, CartSpringParams, WmrParams
from sampled_nmpc.sampling import SamplerConfig
from sampled_nmpc.solver import _RECORD_FLOATS, StepRecord

CONFIG_PATHS = sorted((Path(__file__).resolve().parent.parent / "configs").glob("*.json"))


def cart_config(**kw):
    base = dict(config_id="cart-test", plant="cart-spring", horizon=10, steps=4,
                samples_per_step=5, sampler=SamplerConfig(scheme="halton", seed=3))
    base.update(kw)
    return ExperimentConfig(**base)


def free_wmr_config(**kw):
    """The robot without its obstacle: no candidate can violate a constraint,
    so every solve's counters take the closed form exactly."""
    base = dict(config_id="wmr-free", plant="wmr", horizon=10, steps=4, samples_per_step=10,
                sampler=SamplerConfig(scheme="halton", seed=3),
                warm_start_mode="feasible-sample", model_overrides={"obstacle": None})
    base.update(kw)
    return ExperimentConfig(**base)


def certify_log(bench, cfg, x0, log, **columns):
    """``certify_run`` of a ``closed_loop`` log, its records read as steps.csv's
    columns; a keyword argument replaces the column of that name."""
    recs = log.records
    data = {"x": log.states,
            "u": np.array([r.applied_input for r in recs]).reshape(len(recs), bench.model.m),
            "k": [r.k for r in recs], "J_sub": [r.j_sub for r in recs],
            "f_evals": [r.f_evals for r in recs], "cost_evals": [r.cost_evals for r in recs]}
    data.update(columns)
    return certify_run(bench, cfg, x0, data)


def with_field(lines, k, name, value):
    """steps.csv lines with row k's field ``name`` set to ``value``."""
    parts = lines[k + 1].split(",")
    parts[lines[0].split(",").index(name)] = value
    return lines[:k + 1] + [",".join(parts)] + lines[k + 2:]


# Logs of the 20-step configs/cart_n10.json run, each damaged one way, that
# look clean to every row-by-row state, input and re-simulation check.  A log
# with rows dropped no longer has the config's 20 rows or summary.json's
# step count and counter totals.
DAMAGED_LOGS = {
    "header-only": (lambda lines: lines[:1],
                    [(0, "log-shape"), (0, "initial-state")] + [(0, "summary-mismatch")] * 3),
    "first-rows-dropped": (lambda lines: lines[:1] + lines[6:],
                           [(0, "log-shape"), (0, "initial-state")]
                           + [(k, "step-index") for k in range(15)]
                           + [(15, "summary-mismatch")] * 3),
    "relabelled-k": (lambda lines: with_field(lines, 3, "k", "7"), [(3, "step-index")]),
    "counter-over-bound": (lambda lines: with_field(lines, 3, "f_evals", "1000000000"),
                           [(3, "f-evals-over-prediction"), (20, "summary-mismatch")]),
    "cost-nan": (lambda lines: with_field(lines, 3, "J_sub", "nan"), [(3, "cost-not-finite")]),
}


def without_column(lines, name):
    """steps.csv lines with the column ``name`` removed from every line."""
    drop = lines[0].split(",").index(name)
    return [",".join(v for i, v in enumerate(line.split(",")) if i != drop) for line in lines]


# The same run's steps.csv edited so that a column no longer reads as its
# table entry says, or a row under a correct header has a field too few or
# too many: each is a ConfigError naming the file and the column or the row.
MALFORMED_LOGS = {
    "budget-hit-word": (lambda lines: with_field(lines, 3, "budget_hit", "banana"), "budget_hit"),
    "budget-hit-7": (lambda lines: with_field(lines, 3, "budget_hit", "7"), "budget_hit"),
    "elapsed-word": (lambda lines: with_field(lines, 3, "elapsed_ms", "abc"), "elapsed_ms"),
    "elapsed-negative": (lambda lines: with_field(lines, 3, "elapsed_ms", "-5"), "elapsed_ms"),
    "elapsed-removed": (lambda lines: without_column(lines, "elapsed_ms"), "elapsed_ms"),
    "extra-column": (lambda lines: [lines[0] + ",extra"] + [line + ",0" for line in lines[1:]],
                     "extra"),
    "row-field-missing": (lambda lines: lines[:4] + [lines[4].rsplit(",", 1)[0]] + lines[5:],
                          "row 3 has 8 fields, not 9"),
    "row-field-extra": (lambda lines: lines[:4] + [lines[4] + ",0"] + lines[5:],
                        "row 3 has 10 fields, not 9"),
}

# The SCHEMA_VERSION 3 headers, for each plant's n and m.
STEP_HEADERS = {
    "cart-spring": "k,x0,x1,u0,J_sub,f_evals,cost_evals,elapsed_ms,budget_hit",
    "buck-boost": "k,x0,x1,u0,u1,J_sub,f_evals,cost_evals,elapsed_ms,budget_hit",
    "wmr": "k,x0,x1,x2,u0,u1,J_sub,f_evals,cost_evals,elapsed_ms,budget_hit",
}
SWEEP_HEADER = ("config_id,status,plant,N,n_bar,steps,lanes,total_elapsed_ms,"
                "f_evals_per_solve_min,f_evals_per_solve_max,cost_evals_per_solve_min,"
                "cost_evals_per_solve_max,predicted_f_evals_per_solve,"
                "predicted_cost_evals_per_solve,serial_exact,serial_bound,full_parallel,p_parallel")

# Doubles whose text must read back bit for bit, and counters up to 2**62.
LOGGED_FLOATS = st.sampled_from([-0.0, 5e-324, -5e-324, 1e308, -1e308]) | st.floats(
    allow_nan=False)
COUNTERS = st.integers(0, 2 ** 62)


@st.composite
def step_records(draw, n, m):
    def vector(width):
        return np.array(draw(st.lists(LOGGED_FLOATS, min_size=width, max_size=width)))
    return [StepRecord(k=draw(COUNTERS), state=vector(n), applied_input=vector(m),
                       j_sub=draw(st.floats()), j_warm=0.0, f_evals=draw(COUNTERS),
                       cost_evals=draw(COUNTERS), improvements=0,
                       elapsed=draw(st.floats(0.0, 1e300)), budget_hit=draw(st.booleans()))
            for _ in range(draw(st.integers(0, 4)))]


def bits(values, like):
    """The doubles' bit patterns, in the shape of ``like``."""
    return np.array(values, dtype=float).reshape(np.shape(like)).view(np.uint64)


def edit_json(path, change):
    data = json.loads(path.read_text())
    change(data)
    path.write_text(json.dumps(data))


# The same run edited where no row check looks: its config's step count, its
# summary, and counters below zero.
EDITED_RUNS = {
    "resolved-steps": (lambda run: edit_json(run.resolved_config_path,
                                             lambda d: d.update(steps=40)),
                       [(0, "log-shape")]),
    "steps-completed": (lambda run: edit_json(run.summary_path,
                                              lambda d: d.update(steps_completed=7)),
                        [(20, "summary-mismatch")]),
    "total-negative": (lambda run: edit_json(run.summary_path,
                                             lambda d: d["totals"].update(f_evals=-1)),
                       [(20, "summary-mismatch")]),
    "row-counters-negative": (
        lambda run: run.csv_path.write_text("\n".join(with_field(with_field(
            run.csv_path.read_text().splitlines(), 3, "f_evals", "-5"),
            3, "cost_evals", "-1")) + "\n"),
        [(3, "f-evals-negative"), (3, "cost-evals-negative")] + [(20, "summary-mismatch")] * 2),
}


def csv_without_elapsed(path):
    """CSV text with the wall-clock column masked out (it is measurement,
    not simulation content, and legitimately differs between runs)."""
    with Path(path).open(newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("elapsed_ms")
    return "\n".join(",".join(v for i, v in enumerate(row) if i != drop) for row in rows)


class TestExperimentConfig:
    def test_round_trips_through_json(self, tmp_path):
        config = cart_config(samples_per_step=(1, 2, 3, 4, 5, 6, 7, 8, 9, 10),
                             initial_state=(-2.5, 3.0),
                             model_overrides={"terminal_level": 4.0},
                             time_budget_ms=125.0)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(config.to_dict()))
        assert ExperimentConfig.load(path) == config

    def test_unknown_keys_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"config_id": "x", "plant": "cart-spring",
                                        "horizon": 2, "steps": 1, "oracle": 5})

    def test_missing_keys_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"config_id": "x"})

    def test_bad_sampler_key_rejected(self):
        with pytest.raises(ConfigError):
            ExperimentConfig.from_dict({"config_id": "x", "plant": "cart-spring",
                                        "horizon": 2, "steps": 1,
                                        "sampler": {"schema": "halton"}})

    @pytest.mark.parametrize("removed", [{"repeats": 3}, {"sampler": {"skip": 2}},
                                         {"sampler": {"warp_power": 2.0}}])
    def test_removed_settings_rejected(self, removed):
        raw = {"config_id": "x", "plant": "cart-spring", "horizon": 2, "steps": 1, **removed}
        with pytest.raises(ConfigError, match="unknown"):
            ExperimentConfig.from_dict(raw)

    def test_numpy_sample_counts_become_python_ints(self):
        scalar = cart_config(samples_per_step=np.int64(5))
        assert scalar.samples_per_step == 5 and type(scalar.samples_per_step) is int
        per_step = cart_config(samples_per_step=[np.int64(5)] * 9 + [np.int32(2)])
        assert per_step.samples_per_step == (5,) * 9 + (2,)
        assert all(type(c) is int for c in per_step.samples_per_step)
        for config in (scalar, per_step):
            assert ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config

    @pytest.mark.parametrize("counts", [(1.5, 2, 3), 5.0, "5", True, [True] * 10,
                                        np.float64(5.0), None, {"a": 1}])
    def test_non_integer_sample_counts_rejected(self, counts):
        with pytest.raises(ConfigError, match="samples_per_step"):
            cart_config(samples_per_step=counts)

    def test_numpy_integer_fields_become_python_ints(self):
        config = cart_config(horizon=np.int64(10), steps=np.int32(4), lanes=np.int64(2),
                             oracle_budget=np.uint16(500), time_budget_ms=np.int64(5))
        for name, value in (("horizon", 10), ("steps", 4), ("lanes", 2), ("oracle_budget", 500),
                            ("time_budget_ms", 5)):
            assert getattr(config, name) == value and type(getattr(config, name)) is int
        assert ExperimentConfig.from_dict(json.loads(json.dumps(config.to_dict()))) == config
        # a numpy float budget becomes a Python float; a numpy bool is no number
        assert type(cart_config(time_budget_ms=np.float32(2.5)).time_budget_ms) is float
        with pytest.raises(ConfigError, match="time_budget_ms"):
            cart_config(time_budget_ms=np.bool_(True))

    @pytest.mark.parametrize("name, value", [("horizon", 3.5), ("steps", "4"), ("lanes", True),
                                             ("oracle_budget", 10.0)])
    def test_non_integer_fields_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            cart_config(**{name: value})

    @pytest.mark.parametrize("name, value", [("initial_state", ["a", "b"]), ("initial_state", 5),
                                             ("initial_plan", [1.0]), ("initial_plan", ["12"]),
                                             ("initial_plan", ["5", "7"]),
                                             ("initial_state", [True, False]),
                                             ("initial_state", "12"),
                                             ("initial_plan", [[1.0], [True]]),
                                             ("initial_state", [float("nan"), 0.0]),
                                             ("initial_plan", [[1.0], [-float("inf")]]),
                                             ("initial_state", [10 ** 400, 0.0]),
                                             ("initial_plan", [[0.0]] * 3),
                                             ("initial_plan", [[0.0, 1.0]] * 10)])
    def test_malformed_initial_values_rejected(self, name, value):
        with pytest.raises(ConfigError, match=name):
            cart_config(**{name: value})
        raw = cart_config().to_dict()
        raw[name] = value
        with pytest.raises(ConfigError, match=name):
            ExperimentConfig.from_dict(raw)

    @pytest.mark.parametrize("name, value", [
        ("improve_initial", "false"), ("improve_initial", 1), ("time_budget_ms", True),
        ("time_budget_ms", "5"), ("time_budget_ms", float("nan")), ("time_budget_ms", float("inf")),
        ("config_id", 5), ("out_dir", 5), ("sampler", {"scheme": "random"}),
        ("sampler", "halton"), ("model_overrides", [("ts", 0.5)]),
        ("initial_state", (1.0, 2.0, 3.0)),
        pytest.param("time_budget_ms", 10 ** 400, id="time_budget_ms-10**400")])
    def test_malformed_fields_rejected_by_the_constructor(self, name, value):
        # The checks a JSON file meets hold for a config built in Python.
        with pytest.raises(ConfigError, match=name):
            cart_config(**{name: value})

    def test_unknown_plant_rejected(self):
        with pytest.raises(ConfigError):
            cart_config(plant="pendulum")

    def test_the_size_limit_bounds_the_solve_tensors_and_the_oracle_batch(self, monkeypatch):
        # The cart at N = 10 holds R * 11 * 3 floats in its solve tensors and
        # 1024 * 10 * 3 = 30720 in one oracle batch; the limit is inclusive.
        monkeypatch.setattr(bench_module, "_MAX_FLOATS", 30720)
        assert cart_config(samples_per_step=1).samples_per_step == 1
        with pytest.raises(ConfigError, match="^samples_per_step and horizon: the solve"):
            cart_config(samples_per_step=94)  # 940 * 33 = 31020 floats
        # The closed loop's log holds (steps + 1) * 2 floats of states and
        # steps * _RECORD_FLOATS = 80 floats of records: 374 * 82 + 2 = 30670.
        assert cart_config(steps=374).steps == 374
        with pytest.raises(ConfigError, match="^steps: the state log"):
            cart_config(steps=375)
        monkeypatch.setattr(bench_module, "_MAX_FLOATS", 30719)
        with pytest.raises(ConfigError, match="^horizon: an oracle batch"):
            cart_config(samples_per_step=1)

    @pytest.mark.parametrize("plant", ["cart-spring", "buck-boost", "wmr"])
    def test_the_size_limit_counts_each_step_record(self, plant):
        # A run's log grows per step by one n-float state row and one
        # StepRecord, which the size limit counts as _RECORD_FLOATS floats.
        bench, cfg, x0 = _assemble(ExperimentConfig("records", plant, 10, 1, samples_per_step=5))
        closed_loop(bench.model, bench.constraints, bench.cost, cfg, x0, 2)  # lazy tables
        grown = []
        tracemalloc.start()
        try:
            for steps in (10, 110):
                before = tracemalloc.get_traced_memory()[0]
                log = closed_loop(bench.model, bench.constraints, bench.cost, cfg, x0, steps)
                grown.append(tracemalloc.get_traced_memory()[0] - before)
                del log
        finally:
            tracemalloc.stop()
        per_record = (grown[1] - grown[0]) / 100 - 8 * bench.model.n
        assert per_record <= 8 * _RECORD_FLOATS < 2 * per_record

    def test_malformed_json_rejected(self, tmp_path):
        path = tmp_path / "broken.json"
        path.write_text("{not json")
        with pytest.raises(ConfigError):
            ExperimentConfig.load(path)

    def test_cli_overrides(self):
        config = cart_config().with_overrides(seed=9, lanes=4, budget_ms=10.0)
        assert config.sampler.seed == 9
        assert config.lanes == 4
        assert config.time_budget_ms == 10.0

    def test_output_root_resolution(self, tmp_path, monkeypatch):
        monkeypatch.delenv(OUTPUT_ROOT_ENV, raising=False)
        assert resolve_output_root(None, cart_config()) == Path("runs")
        monkeypatch.setenv(OUTPUT_ROOT_ENV, str(tmp_path / "env"))
        assert resolve_output_root(None, cart_config()) == tmp_path / "env"
        config = cart_config(out_dir=str(tmp_path / "cfg"))
        assert resolve_output_root(None, config) == tmp_path / "cfg"
        assert resolve_output_root(str(tmp_path / "cli"), config) == tmp_path / "cli"


class TestRunExperiment:
    def test_artifacts_exist_and_parse(self, tmp_path):
        artifacts = run_experiment(cart_config(), str(tmp_path))
        assert artifacts.csv_path.exists()
        assert artifacts.run_dir == tmp_path / "cart-test"
        summary = json.loads(artifacts.summary_path.read_text())
        assert summary["steps_completed"] == 4
        assert summary["termination"] == "completed"
        resolved = json.loads(artifacts.resolved_config_path.read_text())
        assert resolved["resolved"]["warm_start_mode"] == "terminal-controller"
        with artifacts.csv_path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert len(rows) == 4
        assert list(rows[0]) == ["k", "x0", "x1", "u0", "J_sub", "f_evals",
                                 "cost_evals", "elapsed_ms", "budget_hit"]
        assert all(abs(float(r["x0"])) <= 2.65 and abs(float(r["u0"])) <= 4.5 for r in rows)

    def test_zero_steps_gives_header_only(self, tmp_path):
        artifacts = run_experiment(cart_config(config_id="empty", steps=0), str(tmp_path))
        lines = artifacts.csv_path.read_text().splitlines()
        assert len(lines) == 1 and lines[0].startswith("k,")
        summary = json.loads(artifacts.summary_path.read_text())
        assert summary["steps_completed"] == 0 and summary["final_j_sub"] is None

    def test_zero_samples_run_does_no_candidate_work(self, tmp_path):
        artifacts = run_experiment(cart_config(config_id="idle", samples_per_step=0),
                                   str(tmp_path))
        with artifacts.csv_path.open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert all(int(r["f_evals"]) == 0 and int(r["cost_evals"]) == 0 for r in rows)
        summary = json.loads(artifacts.summary_path.read_text())
        assert summary["totals"]["improvements"] == 0
        assert summary["complexity"]["serial_exact"] == 0.0

    def test_reruns_are_identical_apart_from_timing(self, tmp_path):
        a = run_experiment(cart_config(), str(tmp_path / "a"))
        b = run_experiment(cart_config(), str(tmp_path / "b"))
        assert csv_without_elapsed(a.csv_path) == csv_without_elapsed(b.csv_path)

    def test_lane_count_does_not_change_the_csv(self, tmp_path):
        a = run_experiment(cart_config(lanes=1), str(tmp_path / "a"))
        b = run_experiment(cart_config(lanes=8), str(tmp_path / "b"))
        assert csv_without_elapsed(a.csv_path) == csv_without_elapsed(b.csv_path)

    def test_seed_changes_the_content(self, tmp_path):
        a = run_experiment(cart_config(), str(tmp_path / "a"))
        b = run_experiment(cart_config(sampler=SamplerConfig(scheme="halton", seed=4)),
                           str(tmp_path / "b"))
        assert csv_without_elapsed(a.csv_path) != csv_without_elapsed(b.csv_path)

    def test_infeasible_start_writes_error_json(self, tmp_path):
        from sampled_nmpc.errors import NoOracleError
        config = cart_config(config_id="doomed", initial_state=(2.64, 3.0),
                             oracle_budget=16)
        with pytest.raises(NoOracleError):
            run_experiment(config, str(tmp_path))
        error = json.loads((tmp_path / "doomed" / "error.json").read_text())
        assert error["error"] == "NoOracleError"

    def test_initial_plan_is_applied_without_a_mode(self, tmp_path):
        # from the equilibrium the zero plan costs nothing, so the first row
        # applies its input; the oracle alone would apply a nonzero one
        raw = cart_config(initial_state=(0.0, 0.0)).to_dict()
        raw["initial_plan"] = [[0.0]] * 10
        assert raw["warm_start_mode"] is None
        artifacts = run_experiment(ExperimentConfig.from_dict(raw), str(tmp_path))
        with artifacts.csv_path.open(newline="") as fh:
            first = next(csv.DictReader(fh))
        assert float(first["u0"]) == 0.0 and float(first["J_sub"]) == 0.0

    def test_summary_reports_complexity_predictions(self, tmp_path):
        config = free_wmr_config(config_id="counters", steps=2)
        artifacts = run_experiment(config, str(tmp_path))
        summary = json.loads(artifacts.summary_path.read_text())
        comp = summary["complexity"]
        assert comp["serial_exact"] == 650.0
        assert comp["serial_bound"] == 650.0
        assert comp["full_parallel"] == 65.0
        assert comp["predicted_f_evals_per_solve"] == 550
        per = summary["per_solve"]
        assert per["f_evals_min"] == per["f_evals_max"] == 550
        assert per["cost_evals_min"] == per["cost_evals_max"] == 100


class TestSweep:
    def test_combined_csv_and_per_config_artifacts(self, tmp_path):
        configs = [cart_config(config_id="a", horizon=3),
                   cart_config(config_id="b", horizon=10)]
        results = sweep(configs, str(tmp_path))
        assert [r["status"] for r in results] == ["ok", "ok"]
        with (tmp_path / "sweep.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert [r["config_id"] for r in rows] == ["a", "b"]
        assert [r["N"] for r in rows] == ["3", "10"]
        assert float(rows[0]["total_elapsed_ms"]) > 0

    def test_counter_columns_match_prediction_when_no_candidate_violates(self, tmp_path):
        configs = [free_wmr_config(config_id=f"n{h}", horizon=h, steps=3) for h in (3, 20)]
        sweep(configs, str(tmp_path))
        with (tmp_path / "sweep.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        for row in rows:
            assert row["f_evals_per_solve_min"] == row["predicted_f_evals_per_solve"]
            assert row["f_evals_per_solve_max"] == row["predicted_f_evals_per_solve"]
            assert row["cost_evals_per_solve_min"] == row["predicted_cost_evals_per_solve"]
        # N = 20 predicts, and logs, over an order of magnitude more work per solve
        for column in ("predicted_f_evals_per_solve", "f_evals_per_solve_min"):
            assert float(rows[1][column]) > 10 * float(rows[0][column])

    def test_failures_recorded_and_sweep_continues(self, tmp_path):
        configs = [cart_config(config_id="bad", initial_state=(2.64, 3.0), oracle_budget=8),
                   cart_config(config_id="good")]
        results = sweep(configs, str(tmp_path))
        assert [r["status"] for r in results] == ["error", "ok"]
        with (tmp_path / "sweep.csv").open(newline="") as fh:
            rows = list(csv.DictReader(fh))
        assert rows[0]["status"] == "error" and rows[1]["status"] == "ok"

    def test_empty_sweep_rejected(self):
        with pytest.raises(ConfigError):
            sweep([], None)

    def test_duplicate_ids_rejected(self):
        with pytest.raises(ConfigError):
            sweep([cart_config(), cart_config()], None)


class TestValidate:
    def test_clean_run_validates(self, tmp_path):
        artifacts = run_experiment(cart_config(), str(tmp_path))
        assert validate_run(artifacts.run_dir) == []

    def test_corrupted_row_detected(self, tmp_path):
        artifacts = run_experiment(cart_config(), str(tmp_path))
        text = artifacts.csv_path.read_text().splitlines()
        parts = text[2].split(",")
        parts[1] = "3.5"  # push x0 outside |x1| <= 2.65
        text[2] = ",".join(parts)
        artifacts.csv_path.write_text("\n".join(text) + "\n")
        violations = validate_run(artifacts.run_dir)
        assert violations and violations[0]["kind"] == "state-box"

    def test_corrupted_input_detected(self, tmp_path):
        # an admissible but different input breaks the state chain after it
        artifacts = run_experiment(cart_config(), str(tmp_path))
        text = artifacts.csv_path.read_text().splitlines()
        parts = text[2].split(",")
        u = float(parts[3])
        parts[3] = format(u - 1e-3 if u > 0 else u + 1e-3, ".17g")
        text[2] = ",".join(parts)
        artifacts.csv_path.write_text("\n".join(text) + "\n")
        violations = validate_run(artifacts.run_dir)
        assert [(v["k"], v["kind"]) for v in violations] == [(1, "resimulation")]

    def test_out_of_bound_input_detected(self, tmp_path):
        # the cart's input box is |u| <= 4.5
        artifacts = run_experiment(cart_config(), str(tmp_path))
        text = artifacts.csv_path.read_text().splitlines()
        parts = text[2].split(",")
        parts[3] = "4.6"
        text[2] = ",".join(parts)
        artifacts.csv_path.write_text("\n".join(text) + "\n")
        violations = validate_run(artifacts.run_dir)
        assert [(v["k"], v["kind"]) for v in violations] == [(1, "input-bound"),
                                                               (1, "resimulation")]

    def test_corrupted_final_state_detected(self, tmp_path):
        artifacts = run_experiment(cart_config(), str(tmp_path))
        summary = json.loads(artifacts.summary_path.read_text())
        summary["final_state"] = [3.0, 0.0]  # outside |x1| <= 2.65
        artifacts.summary_path.write_text(json.dumps(summary))
        violations = validate_run(artifacts.run_dir)
        assert [(v["k"], v["kind"]) for v in violations] == [(3, "resimulation"),
                                                               (4, "final-state-set")]

    def test_a_run_of_no_steps_validates(self, tmp_path):
        # The row kernels see an empty (0, m) input block.
        artifacts = run_experiment(cart_config(config_id="empty", steps=0), str(tmp_path))
        assert validate_run(artifacts.run_dir) == []

    @pytest.mark.parametrize("damage", sorted(DAMAGED_LOGS))
    def test_a_damaged_log_is_reported(self, tmp_path, capsys, damage):
        config = ExperimentConfig.load(CONFIG_PATHS[0].parent / "cart_n10.json")
        artifacts = run_experiment(config, str(tmp_path))
        change, expected = DAMAGED_LOGS[damage]
        lines = artifacts.csv_path.read_text().splitlines()
        artifacts.csv_path.write_text("\n".join(change(lines)) + "\n")
        assert [(v["k"], v["kind"]) for v in validate_run(artifacts.run_dir)] == expected
        assert cli_main(["validate", str(artifacts.run_dir)]) == 3
        violations = json.loads(capsys.readouterr().out)["violations"]
        assert [(v["k"], v["kind"]) for v in violations] == expected

    @pytest.mark.parametrize("edit", sorted(MALFORMED_LOGS))
    def test_a_field_its_column_does_not_parse_is_a_config_error(self, tmp_path, capsys, edit):
        config = ExperimentConfig.load(CONFIG_PATHS[0].parent / "cart_n10.json")
        artifacts = run_experiment(config, str(tmp_path))
        change, column = MALFORMED_LOGS[edit]
        lines = artifacts.csv_path.read_text().splitlines()
        artifacts.csv_path.write_text("\n".join(change(lines)) + "\n")
        with pytest.raises(ConfigError) as raised:
            validate_run(artifacts.run_dir)
        assert str(artifacts.csv_path) in str(raised.value) and column in str(raised.value)
        assert cli_main(["validate", str(artifacts.run_dir)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    @pytest.mark.parametrize("edit", sorted(EDITED_RUNS))
    def test_a_log_that_disagrees_with_its_config_or_summary_is_reported(
            self, tmp_path, capsys, edit):
        config = ExperimentConfig.load(CONFIG_PATHS[0].parent / "cart_n10.json")
        artifacts = run_experiment(config, str(tmp_path))
        change, expected = EDITED_RUNS[edit]
        change(artifacts)
        assert [(v["k"], v["kind"]) for v in validate_run(artifacts.run_dir)] == expected
        assert cli_main(["validate", str(artifacts.run_dir)]) == 3
        violations = json.loads(capsys.readouterr().out)["violations"]
        assert [(v["k"], v["kind"]) for v in violations] == expected


class TestSchema:
    def test_the_schema_3_headers_are_pinned(self, tmp_path):
        assert SCHEMA_VERSION == 3
        sweep([ExperimentConfig(plant, plant, 5, 0) for plant in STEP_HEADERS], str(tmp_path))
        for plant, header in STEP_HEADERS.items():
            assert (tmp_path / plant / "steps.csv").read_text() == header + "\n"
        assert (tmp_path / "sweep.csv").read_text().splitlines()[0] == SWEEP_HEADER

    @given(st.sampled_from([(2, 1), (2, 2), (3, 2)]).flatmap(
        lambda dims: st.tuples(st.just(dims), step_records(*dims))))
    @example(((2, 1), [
        StepRecord(2 ** 62, np.array([-0.0, 5e-324]), np.array([1e308]), np.nan, 0.0, 2 ** 62,
                   0, 0, 0.0, True),
        StepRecord(0, np.array([-1e308, -5e-324]), np.array([-0.0]), -0.0, 0.0, 0, 2 ** 62,
                   0, 5e-324, False)]))
    @settings(max_examples=80, deadline=None)
    def test_step_records_read_back_bit_for_bit(self, tmp_path_factory, dims_and_records):
        (n, m), records = dims_and_records
        path = tmp_path_factory.mktemp("log") / "steps.csv"
        bench_module._write_step_csv(path, records, n, m)
        columns = bench_module._read_step_csv(path, n, m)
        assert list(columns) == ["k", "x", "u", "J_sub", "f_evals", "cost_evals", "elapsed_ms",
                                 "budget_hit"]
        for name in ("k", "f_evals", "cost_evals"):
            assert columns[name] == [getattr(r, name) for r in records]
        assert columns["budget_hit"] == [int(r.budget_hit) for r in records]
        assert columns["x"].shape == (len(records), n)
        assert columns["u"].shape == (len(records), m)
        for name, values in (("x", [r.state for r in records]),
                             ("u", [r.applied_input for r in records]),
                             ("elapsed_ms", [r.elapsed * 1e3 for r in records])):
            assert np.array_equal(bits(columns[name], columns[name]),
                                  bits(values, columns[name]))
        # NaN reads back as NaN, whatever its payload.
        j_sub = np.array([r.j_sub for r in records], dtype=float)
        assert np.array_equal(np.isnan(columns["J_sub"]), np.isnan(j_sub))
        kept = ~np.isnan(j_sub)
        assert np.array_equal(bits(columns["J_sub"], j_sub)[kept], bits(j_sub, j_sub)[kept])


class TestCertifyRun:
    @pytest.fixture(params=["cart-spring", "buck-boost", "wmr"])
    def clean_run(self, request):
        bench, cfg, x0 = _assemble(ExperimentConfig("certify", request.param, 10, 6,
                                                    samples_per_step=5))
        log = closed_loop(bench.model, bench.constraints, bench.cost, cfg, x0, 6)
        return bench, cfg, x0, log

    def found(self, clean_run, **columns):
        return [(v["k"], v["kind"]) for v in certify_log(*clean_run, **columns)]

    def test_a_closed_loop_log_is_clean(self, clean_run):
        assert certify_log(*clean_run) == []

    def test_a_state_moved_by_one_ulp_breaks_the_chain(self, clean_run):
        states = clean_run[3].states.copy()
        states[2, 0] = np.nextafter(states[2, 0], np.inf)
        found = self.found(clean_run, x=states)
        assert found[0] == (1, "resimulation")
        assert set(found) <= {(1, "resimulation"), (2, "resimulation")}

    def test_an_input_outside_the_box_is_reported(self, clean_run):
        bench, log = clean_run[0], clean_run[3]
        inputs = np.array([r.applied_input for r in log.records])
        inputs[1, 0] = bench.constraints.input_box.upper[0] + 1.0
        assert self.found(clean_run, u=inputs) == [(1, "input-bound"), (1, "resimulation")]

    @pytest.mark.parametrize("column, kind", [("f_evals", "f-evals-over-prediction"),
                                              ("cost_evals", "cost-evals-over-prediction")])
    def test_a_counter_over_its_bound_is_reported(self, clean_run, column, kind):
        cfg, log = clean_run[1], clean_run[3]
        bound = sum(cfg.sample_counts) if column == "cost_evals" else sum(
            (cfg.horizon - j) * n for j, n in enumerate(cfg.sample_counts))
        values = [getattr(r, column) for r in log.records]
        values[1] = bound  # at the bound is clean
        assert self.found(clean_run, **{column: values}) == []
        values[1] = bound + 1
        assert self.found(clean_run, **{column: values}) == [(1, kind)]

    @pytest.mark.parametrize("column, values", [
        ("k", list(range(3))), ("J_sub", [1.0] * 9), ("u", np.zeros((3, 1)))])
    def test_a_column_of_another_length_is_refused(self, column, values):
        bench, cfg, x0 = _assemble(ExperimentConfig("certify", "cart-spring", 10, 5,
                                                    samples_per_step=5))
        log = closed_loop(bench.model, bench.constraints, bench.cost, cfg, x0, 5)
        with pytest.raises(ContractViolationError, match=re.escape(f"['{column}']")):
            certify_log(bench, cfg, x0, log, **{column: values})

    def test_a_state_inside_the_obstacle_is_named(self):
        bench, cfg, x0 = _assemble(ExperimentConfig("certify", "wmr", 5, 4, samples_per_step=5))
        log = closed_loop(bench.model, bench.constraints, bench.cost, cfg, x0, 4)
        states = log.states.copy()
        states[[2, 4]] = [0.0, 3.0, 0.0]  # the obstacle's center
        found = self.found((bench, cfg, x0, log), x=states)
        assert found[0] == (2, "obstacle") and (4, "final-state-set") in found


class TestCli:
    def write_config(self, tmp_path, **kw):
        path = tmp_path / "config.json"
        path.write_text(json.dumps(cart_config(**kw).to_dict()))
        return path

    def test_run_and_validate_loop(self, tmp_path, capsys):
        path = self.write_config(tmp_path)
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        run_dir = json.loads(capsys.readouterr().out)["run_dir"]
        assert cli_main(["validate", run_dir]) == 0

    @pytest.mark.parametrize("name, damage", [
        ("config.resolved.json", None), ("steps.csv", None), ("summary.json", None),
        ("summary.json", "{not json"), ("steps.csv", "k,x0\n0,1.0\n"),
        ("summary.json", "{}"), ("summary.json", '{"final_state": ["a", "b"]}'),
        ("summary.json", '{"final_state": [0.0]}'), ("summary.json", "[]")])
    def test_validate_of_an_incomplete_run_exits_2(self, tmp_path, capsys, name, damage):
        path = self.write_config(tmp_path)
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        run_dir = Path(json.loads(capsys.readouterr().out)["run_dir"])
        if damage is None:
            (run_dir / name).unlink()
        else:
            (run_dir / name).write_text(damage)
        assert cli_main(["validate", str(run_dir)]) == 2
        assert name in json.loads(capsys.readouterr().err)["message"]

    def test_validate_reports_an_infinite_logged_state(self, tmp_path, capsys):
        # The cart map overflows on it (exp(-inf) * inf): a violation, not a traceback.
        path = self.write_config(tmp_path)
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 0
        csv_path = Path(json.loads(capsys.readouterr().out)["csv"])
        text = csv_path.read_text().splitlines()
        parts = text[2].split(",")
        parts[1] = "inf"  # row k = 1's x0
        text[2] = ",".join(parts)
        csv_path.write_text("\n".join(text) + "\n")
        assert cli_main(["validate", str(csv_path.parent)]) == 3
        violations = json.loads(capsys.readouterr().out)["violations"]
        assert [(v["k"], v["kind"]) for v in violations] == [
            (1, "state-box"), (0, "resimulation"), (1, "resimulation")]

    def test_unreadable_config_exits_2(self, tmp_path):
        incomplete = tmp_path / "incomplete.json"
        incomplete.write_text("{}")
        assert cli_main(["run", "--config", str(incomplete)]) == 2
        assert cli_main(["run", "--config", str(tmp_path / "missing.json")]) == 2
        listed = tmp_path / "listed.json"
        listed.write_text("[]")
        assert cli_main(["run", "--config", str(listed)]) == 2
        good = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(good), "--config", str(good),
                         "--out", str(out)]) == 2
        assert not out.exists()

    def test_infeasible_run_exits_3(self, tmp_path):
        path = self.write_config(tmp_path, initial_state=(2.64, 3.0), oracle_budget=8)
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 3

    def test_flag_overrides_flow_through(self, tmp_path):
        path = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(path), "--out", str(out),
                         "--seed", "11", "--lanes", "2", "--budget-ms", "500"]) == 0
        resolved = json.loads((out / "cart-test" / "config.resolved.json").read_text())
        assert resolved["sampler"]["seed"] == 11
        assert resolved["lanes"] == 2
        assert resolved["time_budget_ms"] == 500.0

    @pytest.mark.parametrize("budget", ["inf", "nan"])
    def test_a_budget_override_meets_the_config_checks(self, tmp_path, capsys, budget):
        path = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(path), "--out", str(out),
                         "--budget-ms", budget]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ConfigError" and "time_budget_ms" in error["message"]
        assert not out.exists()

    def test_a_horizon_too_large_for_an_index_exits_2(self, tmp_path, capsys):
        # Written as a 401-digit JSON integer: it names the field and writes nothing.
        raw = cart_config().to_dict()
        raw["horizon"] = 10 ** 400
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ConfigError" and "horizon" in error["message"]
        assert not out.exists()

    @pytest.mark.parametrize("plant, key, value", [
        ("cart-spring", "samples_per_step", 10 ** 30), ("wmr", "samples_per_step", 10 ** 30),
        ("wmr", "horizon", 1020), ("cart-spring", "steps", 10 ** 30)])
    def test_a_run_too_large_to_hold_exits_2_and_writes_nothing(self, tmp_path, capsys, plant,
                                                                key, value):
        # Sizes that fail at once even unchecked; past N = 1019 the robot's
        # terminal weight is not finite.
        raw = ExperimentConfig("big", plant, 5, 2).to_dict()
        raw[key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ConfigError" and key in error["message"]
        assert not out.exists()

    def test_sweep_subcommand(self, tmp_path, capsys):
        a = tmp_path / "a.json"
        a.write_text(json.dumps(cart_config(config_id="a").to_dict()))
        b = tmp_path / "b.json"
        b.write_text(json.dumps(cart_config(config_id="b", horizon=3).to_dict()))
        code = cli_main(["sweep", "--config", str(a), "--config", str(b),
                         "--out", str(tmp_path / "out")])
        assert code == 0
        assert (tmp_path / "out" / "sweep.csv").exists()

    def test_sweep_with_a_malformed_config_exits_2_and_runs_nothing(self, tmp_path, capsys):
        good = tmp_path / "good.json"
        good.write_text(json.dumps(cart_config(config_id="good").to_dict()))
        raw = cart_config(config_id="bad").to_dict()
        raw["model_overrides"] = {"ts": "x"}
        bad = tmp_path / "bad.json"
        bad.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert cli_main(["sweep", "--config", str(good), "--config", str(bad),
                         "--out", str(out)]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"
        assert not out.exists()

    def test_a_mode_the_plant_has_no_law_for_exits_2(self, tmp_path, capsys):
        # The robot has no terminal law: refused at load, before any period
        # runs, and in a finished run's resolved config by validate.
        raw = ExperimentConfig("wmr", "wmr", 5, 2).to_dict()
        raw["warm_start_mode"] = "terminal-controller"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ConfigError" and "terminal law" in error["message"]
        assert not out.exists()
        artifacts = run_experiment(ExperimentConfig("wmr", "wmr", 5, 2), str(out))
        resolved = json.loads(artifacts.resolved_config_path.read_text())
        resolved["warm_start_mode"] = "terminal-controller"
        artifacts.resolved_config_path.write_text(json.dumps(resolved))
        assert cli_main(["validate", str(artifacts.run_dir)]) == 2
        assert "terminal law" in json.loads(capsys.readouterr().err)["message"]

    def test_a_plant_whose_arithmetic_overflows_exits_2(self, tmp_path, capsys):
        # At ts = 1e308 the robot's oracle plan steps to states near the
        # float limit, which it admits (it has no state box), and its cost
        # overflows to NaN: a typed error, with overflow warnings as errors.
        raw = json.loads((CONFIG_PATHS[0].parent / "wmr_obstacle.json").read_text())
        raw.update(model_overrides={"ts": 1e308}, steps=3)
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        err = capsys.readouterr().err
        assert "Traceback" not in err
        error = json.loads(err)
        assert error["error"] == "ContractViolationError"
        assert error["message"] == "warm start cost is not finite: nan"

    @pytest.mark.parametrize("error, traced", [(NoTerminalLawError("no law"), False),
                                               (RuntimeError("boom"), True)])
    def test_an_error_outside_the_mapped_kinds_exits_4(self, tmp_path, capsys, monkeypatch,
                                                        error, traced):
        # A package error prints no traceback; any other exception prints one.
        def fail(*args, **kwargs):
            raise error

        monkeypatch.setattr(bench_module, "run_experiment", fail)
        assert cli_main(["run", "--config", str(self.write_config(tmp_path))]) == 4
        err = capsys.readouterr().err
        assert ("Traceback" in err) == traced
        assert json.loads(err.splitlines()[-1]) == {
            "status": "error", "error": type(error).__name__, "message": str(error)}

    def test_provided_mode_exits_2(self, tmp_path):
        raw = cart_config().to_dict()
        raw["warm_start_mode"] = "provided"
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2

    @pytest.mark.parametrize("key, value", [
        ("sampler", 5), ("sampler", "halton"), ("model_overrides", 5),
        ("model_overrides", {"ts": "x"}), ("model_overrides", {"terminal_level": "x"}),
        ("steps", 1.5), ("oracle_budget", 10.5), ("horizon", True), ("lanes", "2"),
        ("samples_per_step", "5" * 10), ("samples_per_step", [5] * 9 + [5.5]),
        ("sampler", {"seed": 1.5}), ("improve_initial", "false"), ("improve_initial", 1),
        ("time_budget_ms", True), ("time_budget_ms", "5"), ("config_id", 5),
        ("config_id", ""), ("out_dir", 5), ("time_budget_ms", float("nan")),
        ("model_overrides", {"ts": float("nan")}), ("initial_state", [float("inf"), 0.0]),
        ("initial_state", [10 ** 400, 0.0]), ("model_overrides", {"ts": 10 ** 400}),
        ("initial_plan", [[0.0]] * 3), ("initial_plan", [[0.0, 1.0]] * 10)])
    def test_malformed_field_exits_2(self, tmp_path, capsys, key, value):
        # 10 ** 400 is written as a 401-digit JSON integer, too large for a float.
        raw = cart_config().to_dict()
        raw[key] = value
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ConfigError"
        if key != "model_overrides":  # the plant's own message names the override
            assert key in error["message"]

    @pytest.mark.parametrize("obstacle", [
        {"radius": 1.0}, {"center": [0.0, 3.0], "radius": 1.0, "axes": [0]},
        {"center": [0.0, 3.0], "radius": 1.0, "axes": [0, 7]},
        {"center": [0.0, 3.0], "radius": 1.0, "shape": "disc"}])
    def test_malformed_wmr_obstacle_exits_2(self, tmp_path, capsys, obstacle):
        raw = ExperimentConfig("wmr", "wmr", 5, 2).to_dict()
        raw["model_overrides"] = {"obstacle": obstacle}
        path = tmp_path / "config.json"
        path.write_text(json.dumps(raw))
        assert cli_main(["run", "--config", str(path), "--out", str(tmp_path / "out")]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    def test_validate_refuses_an_older_schema(self, tmp_path, capsys):
        resolved = cart_config().to_dict()
        resolved["schema_version"] = 2
        (tmp_path / "config.resolved.json").write_text(json.dumps(resolved))
        assert cli_main(["validate", str(tmp_path)]) == 2
        error = json.loads(capsys.readouterr().err)
        assert error["error"] == "ConfigError" and "schema_version 2" in error["message"]

    @pytest.mark.parametrize("overrides", [{"ts": "x"}, {"ts": True}, {"terminal_level": [1.0]}])
    def test_validate_rejects_a_malformed_model_override_as_run_does(self, tmp_path, capsys,
                                                                     overrides):
        path = self.write_config(tmp_path)
        out = tmp_path / "out"
        assert cli_main(["run", "--config", str(path), "--out", str(out)]) == 0
        capsys.readouterr()
        resolved_path = out / "cart-test" / "config.resolved.json"
        resolved = json.loads(resolved_path.read_text())
        resolved["model_overrides"] = overrides
        resolved_path.write_text(json.dumps(resolved))
        assert cli_main(["validate", str(out / "cart-test")]) == 2
        assert json.loads(capsys.readouterr().err)["error"] == "ConfigError"

    def test_readme_cli_lines_parse(self):
        readme = (Path(__file__).resolve().parent.parent / "README.md").read_text()
        section = readme.split("\n## CLI\n", 1)[1]
        block = re.search(r"```sh\n(.*?)```", section, re.S).group(1)
        lines = block.replace("\\\n", " ").splitlines()
        commands = [shlex.split(line, comments=True) for line in lines
                    if line.startswith("sampled-nmpc ")]
        assert len(commands) >= 4
        for argv in commands:
            build_parser().parse_args(argv[1:])

    def test_calibrate_reports_unit_costs(self, tmp_path, capsys):
        out = tmp_path / "cal.json"
        assert cli_main(["calibrate", "--plant", "cart-spring", "--repeats", "64",
                         "--out", str(out)]) == 0
        payload = json.loads(out.read_text())
        assert payload["c1_seconds"] > 0 and payload["c2_seconds"] > 0
        assert payload["predicted_seconds"]["serial_bound"] > 0


# One field of a shipped config set to a bad value, at the top level, in the
# sampler, in model_overrides or in a robot obstacle, or under a new key.
BAD_VALUES = [None, True, False, -1, -2.5, float("nan"), 1e308, -1e308, 10 ** 400, "", "7",
              "halton", [[1.0], [2.0, 3.0]], [[[0.0]]]]
FUZZ_KEYS = {
    "config": [f.name for f in fields(ExperimentConfig)],
    "sampler": ["scheme", "seed"],
    "model_overrides": sorted({f.name for p in (CartSpringParams, BuckBoostParams, WmrParams)
                               for f in fields(p)} | {"terminal_level"}),
    "obstacle": ["center", "radius", "axes"],
}


def mutated(path, where, key, value):
    """The shipped config at ``path`` with ``key`` under ``where`` set to ``value``."""
    raw = json.loads(path.read_text())
    target = {"config": raw, "sampler": raw.setdefault("sampler", {}),
              "model_overrides": raw.setdefault("model_overrides", {})}.get(where)
    if target is None:
        target = raw["model_overrides"]["obstacle"] = {"center": [0.0, 3.0], "radius": 1.0}
    target[key] = value
    return raw


class TestLoaderFuzz:
    @pytest.mark.filterwarnings("error::RuntimeWarning")
    @given(st.sampled_from(CONFIG_PATHS), st.sampled_from(sorted(FUZZ_KEYS)), st.data())
    @settings(max_examples=300, deadline=None)
    def test_a_config_with_one_bad_field_loads_or_raises_config_error(self, path, where, data):
        key = data.draw(st.sampled_from(FUZZ_KEYS[where] + ["unknown"]))
        try:
            ExperimentConfig.from_dict(mutated(path, where, key,
                                               data.draw(st.sampled_from(BAD_VALUES))))
        except ConfigError:
            pass

    @pytest.mark.filterwarnings("error::RuntimeWarning")
    def test_every_config_with_one_bad_field_that_loads_runs_to_a_typed_end(self, tmp_path):
        # Each single-field mutation that loads runs two periods, with an
        # oracle budget of the probe plus one batch, and ends in artifacts
        # or a SampledNmpcError; any other exception fails the test.
        ran = 0
        for path, (where, keys) in itertools.product(CONFIG_PATHS, FUZZ_KEYS.items()):
            for key, value in itertools.product(keys + ["unknown"], BAD_VALUES):
                try:
                    config = ExperimentConfig.from_dict(mutated(path, where, key, value))
                except ConfigError:
                    continue
                ran += 1
                try:
                    run_experiment(replace(config, steps=min(config.steps, 2), oracle_budget=1088),
                                   str(tmp_path / str(ran)))
                except SampledNmpcError:
                    pass
        assert ran == 271  # a change here is a change in what the loader accepts


class TestShippedConfigs:
    def test_all_shipped_configs_parse_and_assemble(self):
        from sampled_nmpc.bench import _assemble
        config_dir = Path(__file__).resolve().parent.parent / "configs"
        paths = sorted(config_dir.glob("*.json"))
        assert len(paths) >= 11
        for path in paths:
            config = ExperimentConfig.load(path)
            bench, solver_cfg, x0 = _assemble(config)
            assert bench.model.n == len(x0)
            assert solver_cfg.horizon == config.horizon

    def test_shipped_cart_reference_config_runs(self, tmp_path):
        config_dir = Path(__file__).resolve().parent.parent / "configs"
        config = ExperimentConfig.load(config_dir / "cart_n00.json")
        artifacts = run_experiment(config, str(tmp_path))
        assert validate_run(artifacts.run_dir) == []
