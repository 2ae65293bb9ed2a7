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
from hypothesis import given, settings
from hypothesis import strategies as st

from sampled_nmpc import ExperimentConfig, closed_loop, run_experiment, sweep, validate_run
from sampled_nmpc import bench as bench_module
from sampled_nmpc.bench import OUTPUT_ROOT_ENV, _assemble, resolve_output_root
from sampled_nmpc.cli import build_parser, main as cli_main
from sampled_nmpc.errors import ConfigError, SampledNmpcError
from sampled_nmpc.models import BuckBoostParams, CartSpringParams, WmrParams
from sampled_nmpc.sampling import SamplerConfig
from sampled_nmpc.solver import _RECORD_FLOATS

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
