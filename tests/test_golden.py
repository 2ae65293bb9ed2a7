"""Output-digest guard: four shipped configs must reproduce their recorded
``steps.csv`` bit for bit, apart from the wall-clock ``elapsed_ms`` column.

A change that alters outputs on purpose records the new digests here and
says which configs moved and why.
"""

import csv
import hashlib
from pathlib import Path

import pytest

from sampled_nmpc.bench import ExperimentConfig, run_experiment

CONFIG_DIR = Path(__file__).resolve().parents[1] / "configs"

GOLDEN_STEPS_SHA256 = {
    "cart_n10": "fb00e55e4c76c5c49829b20f41718c92686068d4cd8718ef844d2725e73ce0cd",
    "cart_horizon_050": "be09519bc2e2a1c9c4421350c837a9a20fc0e81b99761baf7dea31728b5e3b22",
    "buck_boost": "bfd7cc326f886c31029bccbfcd71ebff39d9099fdb92718b0e0ff916915c38e6",
    "wmr_obstacle": "0cb7ece6152706fd2c54e3269455170c02156f9085116fc1474cb02d5c6cf65b",
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
