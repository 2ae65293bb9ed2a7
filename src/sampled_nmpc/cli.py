"""Command-line harness for the benchmark experiments.

Subcommands: run one experiment, sweep several, validate a finished run log
and calibrate per-operation unit costs.  Exit codes: 0 success, 2
configuration problem, 3 infeasibility or failed oracle search, 4 unexpected
runtime error.
"""

from __future__ import annotations

import argparse
import json
import sys
import traceback
from pathlib import Path

import numpy as np

from . import bench, complexity
from .core import Plan, evaluate_cost, rollout
from .errors import (
    ConfigError,
    ContractViolationError,
    InfeasibleWarmStartError,
    NoOracleError,
    SampledNmpcError,
    WarmStartFailureError,
)
from .models import PLANT_IDS, make_benchmark

EXIT_OK = 0
EXIT_CONFIG = 2
EXIT_INFEASIBLE = 3
EXIT_RUNTIME = 4

_INFEASIBILITY_ERRORS = (NoOracleError, InfeasibleWarmStartError, WarmStartFailureError)


def _add_common_run_flags(parser: argparse.ArgumentParser) -> None:
    parser.add_argument("--config", action="append", required=True, metavar="PATH",
                        help="experiment config JSON (repeat for sweeps)")
    parser.add_argument("--out", metavar="DIR", default=None,
                        help="output root (default: config out_dir, then "
                             f"${bench.OUTPUT_ROOT_ENV}, then ./runs)")
    parser.add_argument("--seed", type=int, default=None, help="override the sampler seed")
    parser.add_argument("--lanes", type=int, default=None, help="override the lane count p of the complexity bounds")
    parser.add_argument("--budget-ms", type=float, default=None,
                        help="override the per-solve time budget in milliseconds")


def _load_configs(args) -> list[bench.ExperimentConfig]:
    return [bench.ExperimentConfig.load(path).with_overrides(
        seed=args.seed, lanes=args.lanes, budget_ms=args.budget_ms) for path in args.config]


def _cmd_run(args) -> int:
    configs = _load_configs(args)
    if len(configs) != 1:
        raise ConfigError("run takes exactly one --config; use sweep for several")
    artifacts = bench.run_experiment(configs[0], args.out)
    print(json.dumps({
        "status": "ok",
        "run_dir": str(artifacts.run_dir),
        "csv": str(artifacts.csv_path),
        "summary": str(artifacts.summary_path),
    }))
    return EXIT_OK


def _cmd_sweep(args) -> int:
    results = bench.sweep(_load_configs(args), args.out)
    printable = [{k: (str(v) if isinstance(v, Path) else v)
                  for k, v in r.items() if k not in ("summary", "artifacts")}
                 for r in results]
    print(json.dumps(printable, indent=2))
    return EXIT_OK if all(r["status"] == "ok" for r in results) else EXIT_INFEASIBLE


def _cmd_validate(args) -> int:
    violations = bench.validate_run(args.run_dir)
    print(json.dumps({"run_dir": args.run_dir, "violations": violations}))
    return EXIT_OK if not violations else EXIT_INFEASIBLE


def _cmd_calibrate(args) -> int:
    benchmark = make_benchmark(args.plant, args.horizon, None)
    model, constraints, cost = benchmark.model, benchmark.constraints, benchmark.cost
    x0 = benchmark.default_x0
    u_mid = 0.5 * (constraints.input_box.lower + constraints.input_box.upper)
    plan = Plan(np.tile(u_mid, (args.horizon, 1)))
    states = rollout(model, x0, plan)

    def one_step():
        constraints.state_ok(model.step(x0, u_mid))

    def one_cost():
        evaluate_cost(cost, states, plan)

    cost_model = complexity.calibrate_cost_model(one_step, one_cost, repeats=args.repeats)
    bounds = complexity.predicted_bounds(args.n_bar, args.horizon, cost_model, args.lanes)
    payload = {
        "plant": args.plant,
        "repeats": args.repeats,
        "c1_seconds": cost_model.c1,
        "c2_seconds": cost_model.c2,
        "horizon": args.horizon,
        "n_bar": args.n_bar,
        "lanes": args.lanes,
        "predicted_seconds": {
            "serial_bound": bounds.serial_bound,
            "full_parallel": bounds.full_parallel,
            "p_parallel": bounds.p_parallel,
        },
    }
    text = json.dumps(payload, indent=2)
    if args.out:
        Path(args.out).write_text(text + "\n")
    print(text)
    return EXIT_OK


def build_parser() -> argparse.ArgumentParser:
    parser = argparse.ArgumentParser(prog="sampled-nmpc",
                                     description="sampling-based suboptimal NMPC benchmarks")
    sub = parser.add_subparsers(dest="command", required=True)

    p_run = sub.add_parser("run", help="run one experiment config")
    _add_common_run_flags(p_run)
    p_run.set_defaults(func=_cmd_run)

    p_sweep = sub.add_parser("sweep", help="run several configs and emit a combined CSV")
    _add_common_run_flags(p_sweep)
    p_sweep.set_defaults(func=_cmd_sweep)

    p_val = sub.add_parser("validate", help="certify a run log: sets, re-simulation, start, k, cost, work, length, summary")
    p_val.add_argument("run_dir", help="directory holding steps.csv, summary.json and config.resolved.json")
    p_val.set_defaults(func=_cmd_validate)

    p_cal = sub.add_parser("calibrate", help="micro-benchmark the unit operation costs")
    p_cal.add_argument("--plant", choices=PLANT_IDS, default="cart-spring")
    p_cal.add_argument("--horizon", type=int, default=10)
    p_cal.add_argument("--n-bar", type=int, default=10)
    p_cal.add_argument("--lanes", type=int, default=1)
    p_cal.add_argument("--repeats", type=int, default=1000)
    p_cal.add_argument("--out", default=None, help="also write the JSON report here")
    p_cal.set_defaults(func=_cmd_calibrate)
    return parser


def main(argv=None) -> int:
    parser = build_parser()
    args = parser.parse_args(argv)
    try:
        return args.func(args)
    except Exception as exc:
        if isinstance(exc, (ConfigError, ContractViolationError)):
            code = EXIT_CONFIG
        elif isinstance(exc, _INFEASIBILITY_ERRORS):
            code = EXIT_INFEASIBLE
        else:
            code = EXIT_RUNTIME
            if not isinstance(exc, SampledNmpcError):
                traceback.print_exc()
        print(json.dumps({"status": "error", "error": type(exc).__name__,
                          "message": str(exc)}), file=sys.stderr)
        return code


if __name__ == "__main__":
    sys.exit(main())
