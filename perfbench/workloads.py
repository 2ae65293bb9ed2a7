"""Benchmark workloads and their seeded input generator.

Every workload drives the library's public path: ``make_benchmark`` builds the
plant bundle, ``SolverConfig``/``SamplerConfig`` the solver settings, and
``closed_loop`` runs one episode.  The generator turns the workload seed into a
deterministic stream of episodes, each an initial state plus a sampler seed;
the program sees nothing else.  Why each workload exists is in README.md.
"""

from __future__ import annotations

import itertools
import math
from dataclasses import dataclass
from typing import Callable, Iterator, Optional

import numpy as np

from sampled_nmpc import SamplerConfig, SolverConfig, make_benchmark
from sampled_nmpc.models import Benchmark

# cart-cold: one episode in COLD_HARD_EVERY starts on a segment where about
# half the starts need more than one 1024-sequence oracle batch (at most ~20
# of the 98 the default budget allows, in 3000 trials).  Those starts and
# their sampler seeds come from a fixed stream, not from the workload seed:
# the batch count of one start is geometric, so seeded hard starts would move
# the p99 tail by whole batches from seed to seed.
COLD_HARD_EVERY = 20
COLD_HARD_SEGMENT = (np.array([-0.4, -4.6]), np.array([-0.2, -5.0]))
COLD_DISC_RADIUS = 1.8
FIXED_STREAM_SEED = 20170110


def _cart_long_x0(rng: np.random.Generator) -> np.ndarray:
    return np.array([-2.5, 3.0]) + rng.uniform([-0.1, -0.3], [0.1, 0.3])


def _wmr_x0(rng: np.random.Generator) -> np.ndarray:
    return np.array([0.0, 6.0, 0.0]) + rng.uniform([-0.5, -0.5, -math.pi / 8],
                                                   [0.5, 0.5, math.pi / 8])


def _buck_x0(rng: np.random.Generator) -> np.ndarray:
    # Starts high on the capacitor voltage and inductor current, close to the
    # 22.5 V / 3 A box faces, so candidates leave the box and get pruned.  The
    # corner above about (21.25 V, 2.7 A) is kept out: there the oracle search
    # can fail to find a feasible first plan.
    return np.array([20.85, 2.4]) + rng.uniform([-0.3, -0.25], [0.3, 0.25])


def _cart_cold_hard_x0(rng: np.random.Generator) -> np.ndarray:
    a, b = COLD_HARD_SEGMENT
    return a + rng.random() * (b - a)


def _cart_cold_x0(rng: np.random.Generator) -> np.ndarray:
    radius = COLD_DISC_RADIUS * math.sqrt(rng.random())
    angle = 2.0 * math.pi * rng.random()
    return np.array([radius * math.cos(angle), radius * math.sin(angle)])


@dataclass(frozen=True)
class Workload:
    """One closed-loop workload.

    An episode is one ``closed_loop`` call of ``periods`` control periods.
    A run replays the first ``episode_count`` episodes of the seed's stream
    ``replays`` times, a count fixed per workload so that every commit is
    measured with the same estimator; their periods fix the tail percentile.
    When ``fixed_every`` is set, every such episode is drawn by ``fixed_x0``
    from a stream that ignores the seed.
    """

    name: str
    plant: str
    horizon: int
    samples: int
    scheme: str
    warm_start_mode: str
    improve_initial: bool
    periods: int
    episode_count: int
    replays: int
    draw_x0: Callable[[np.random.Generator], np.ndarray]
    fixed_x0: Optional[Callable[[np.random.Generator], np.ndarray]] = None
    fixed_every: int = 0

    def build(self) -> Benchmark:
        return make_benchmark(self.plant, self.horizon)

    def solver_config(self, sampler_seed: int) -> SolverConfig:
        return SolverConfig(horizon=self.horizon, samples_per_step=self.samples,
                            sampler=SamplerConfig(scheme=self.scheme, seed=sampler_seed),
                            lanes=1, warm_start_mode=self.warm_start_mode,
                            improve_initial=self.improve_initial)

    def episodes(self, seed: int) -> Iterator[tuple[np.ndarray, int]]:
        """Endless deterministic stream of (initial state, sampler seed)."""
        seeded = np.random.default_rng(seed)
        fixed = np.random.default_rng(FIXED_STREAM_SEED)
        for index in itertools.count(1):
            if self.fixed_every and index % self.fixed_every == 0:
                yield self.fixed_x0(fixed), int(fixed.integers(0, 2 ** 63))
            else:
                yield self.draw_x0(seeded), int(seeded.integers(0, 2 ** 63))

    @property
    def tail_percentile(self) -> float:
        """Highest percentile (to 0.1) with at least ten of the replayed
        periods beyond it."""
        replayed = self.episode_count * self.periods
        return math.floor(1000.0 * (1.0 - 10.0 / replayed)) / 10.0


WORKLOADS = {w.name: w for w in (
    Workload("cart-long", "cart-spring", horizon=50, samples=10, scheme="halton",
             warm_start_mode="terminal-controller", improve_initial=True,
             periods=10, episode_count=2, replays=5, draw_x0=_cart_long_x0),
    Workload("wmr-obstacle", "wmr", horizon=5, samples=30, scheme="halton",
             warm_start_mode="feasible-sample", improve_initial=True,
             periods=100, episode_count=4, replays=5, draw_x0=_wmr_x0),
    Workload("buck-prune", "buck-boost", horizon=10, samples=10, scheme="random",
             warm_start_mode="feasible-sample", improve_initial=True,
             periods=100, episode_count=3, replays=7, draw_x0=_buck_x0),
    Workload("cart-cold", "cart-spring", horizon=20, samples=10, scheme="random",
             warm_start_mode="terminal-controller", improve_initial=False,
             periods=1, episode_count=1000, replays=7, draw_x0=_cart_cold_x0,
             fixed_x0=_cart_cold_hard_x0, fixed_every=COLD_HARD_EVERY),
)}


def setup(name: str) -> None:
    """Everything a process does before its first control period."""
    workload = WORKLOADS[name]
    workload.build()
    workload.solver_config(0)
