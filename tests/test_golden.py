"""Output-digest guard: every shipped config must reproduce its recorded
``steps.csv`` bit for bit, apart from the wall-clock ``elapsed_ms`` column,
with a log that ``validate_run`` finds clean, and the oracle search its
recorded first plans from hard cart starts.

A change that alters outputs on purpose records the new digests here and
says which configs moved and why.
"""

import csv
import hashlib
from pathlib import Path

import numpy as np
import pytest

from sampled_nmpc import SamplerConfig, SolverConfig, draw_samples, find_oracle, make_benchmark
from sampled_nmpc.bench import ExperimentConfig, run_experiment, validate_run
from sampled_nmpc.solver import _oracle_stream

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

GOLDEN_STEPS_SHA256 = {
    "buck_boost": "bfd7cc326f886c31029bccbfcd71ebff39d9099fdb92718b0e0ff916915c38e6",
    "cart_horizon_003": "8ae23ddddd085212b4bb0b234f3cfb4cc5001def1e127eab4719c8f36ae4e048",
    "cart_horizon_010": "fb00e55e4c76c5c49829b20f41718c92686068d4cd8718ef844d2725e73ce0cd",
    "cart_horizon_020": "21cb52916e0413efadf56a2258c4e6c9db5544d6ab063ed6ad951d1570ea54ed",
    "cart_horizon_050": "be09519bc2e2a1c9c4421350c837a9a20fc0e81b99761baf7dea31728b5e3b22",
    "cart_horizon_100": "07279f9146606a2ad65bf40a898ef68f9306c4613945e9be9647570c4699e0a5",
    "cart_n00": "60dcf6024968025c73c2aa7e8483144f38bd223cd755922eed178220125ed425",
    "cart_n05": "51725dd864622a0197d71d98b12716e2a867145ae136855da244e40f61211e72",
    "cart_n10": "fb00e55e4c76c5c49829b20f41718c92686068d4cd8718ef844d2725e73ce0cd",
    "cart_n30": "79a33fadf70c7df301c4520199f37ee92730232ea91b8669a35cd04a047213ff",
    "wmr_obstacle": "0cb7ece6152706fd2c54e3269455170c02156f9085116fc1474cb02d5c6cf65b",
}

# find_oracle at N = 20 from starts on the cart's hard segment
# (-0.4, -4.6)-(-0.2, -5.0), keyed by (start, sampler seed): the oracle
# stream's row that holds the plan, and the SHA-256 of its inputs.  The rows
# fall in the first 64 sequences, past them, and past the first 1088.
GOLDEN_ORACLE_PLANS = {
    ((-0.4, -4.6), 2): (33, "99b37452d8ad3c4d2f372fb7b7c4df842c84867483a9de411e3761be9ad13991"),
    ((-0.4, -4.6), 3): (173, "4a0266abf611f40648f6487d5fe624e2516e6ddc300a5e90d81433dfb4c6a5b9"),
    ((-0.3, -4.8), 4): (1000, "6a48771631b7e76dba9f0880b9bdb6fcf20394ac5aef1e7bb72d2071dab2de4b"),
    ((-0.2, -5.0), 5): (1391, "0499785b74eb3f140e1af228ee71c991156a197a5cf32222982a2a16b42022cd"),
    ((-0.2, -5.0), 3): (8712, "63663a32c60187b665335037f0de43630ab149a5c86d6b0dcb246923166afeae"),
}


def steps_digest(path: Path) -> str:
    """SHA-256 of the CSV with its elapsed_ms column removed."""
    with path.open(newline="") as fh:
        rows = list(csv.reader(fh))
    drop = rows[0].index("elapsed_ms")
    text = "".join(",".join(v for i, v in enumerate(row) if i != drop) + "\n" for row in rows)
    return hashlib.sha256(text.encode()).hexdigest()


@pytest.mark.parametrize("name", sorted(GOLDEN_STEPS_SHA256))
def test_steps_csv_matches_the_recorded_digest(name, tmp_path):
    config = ExperimentConfig.load(CONFIG_DIR / f"{name}.json")
    artifacts = run_experiment(config, str(tmp_path))
    assert steps_digest(artifacts.csv_path) == GOLDEN_STEPS_SHA256[name]
    assert validate_run(artifacts.run_dir) == []


@pytest.mark.parametrize("start, seed", sorted(GOLDEN_ORACLE_PLANS))
def test_oracle_plan_matches_the_recorded_digest(start, seed):
    bench = make_benchmark("cart-spring", 20, None)
    cfg = SolverConfig(horizon=20, sampler=SamplerConfig(scheme="random", seed=seed))
    plan = find_oracle(np.array(start), bench.model, bench.constraints, bench.cost, cfg)
    row, digest = GOLDEN_ORACLE_PLANS[start, seed]
    stream = draw_samples(_oracle_stream(cfg), bench.constraints.input_box, (row + 1) * 20)
    assert np.array_equal(plan.inputs, stream[row * 20:])
    assert hashlib.sha256(plan.inputs.tobytes()).hexdigest() == digest
