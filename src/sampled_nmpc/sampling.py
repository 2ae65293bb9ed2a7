"""Input-space sample generation: endpoint-inclusive grids, seeded random
draws and Halton low-discrepancy points, with an optional density warp that
concentrates samples around an anchor input.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional

import numpy as np

from .core import BoxSet
from .errors import ContractViolationError

__all__ = [
    "SamplerConfig",
    "SamplerState",
    "radical_inverse",
    "draw_samples",
    "derive_seed",
    "first_primes",
]

SCHEMES = ("grid", "random", "halton")


def first_primes(count: int) -> tuple[int, ...]:
    """The first ``count`` primes (Halton bases, one per input coordinate)."""
    primes: list[int] = []
    candidate = 2
    while len(primes) < count:
        if all(candidate % p for p in primes):
            primes.append(candidate)
        candidate += 1
    return tuple(primes)


def radical_inverse(index: int, base: int) -> float:
    """Base-b radical inverse of a positive integer (van der Corput digit
    reversal): mirror the base-b digits of ``index`` about the radix point."""
    if index < 1:
        raise ContractViolationError("radical_inverse requires index >= 1")
    if base < 2:
        raise ContractViolationError("radical_inverse requires base >= 2")
    value = 0.0
    scale = 1.0 / base
    i = index
    while i > 0:
        value += scale * (i % base)
        i //= base
        scale /= base
    return value


def derive_seed(seed: int, tag: int) -> int:
    """Deterministically derive an independent 64-bit seed for a named stream."""
    return int(np.random.SeedSequence((int(seed), int(tag))).generate_state(1, np.uint64)[0])


@dataclass(frozen=True)
class SamplerConfig:
    """Which sampling scheme to use and its reproducibility knobs.

    ``seed`` feeds the random scheme; ``skip`` discards that many initial
    Halton points.  Setting ``warp_power`` > 1 (with an anchor input) warps the
    unit samples so density piles up near the anchor; by default samples map
    affinely onto the box.
    """

    scheme: str = "halton"
    seed: int = 0
    skip: int = 0
    warp_power: Optional[float] = None
    warp_anchor: Optional[tuple[float, ...]] = None

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ContractViolationError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        if not (0 <= int(self.seed) < 2 ** 64):
            raise ContractViolationError("seed must fit in 64 unsigned bits")
        if int(self.skip) < 0:
            raise ContractViolationError("skip must be nonnegative")
        if self.warp_power is not None:
            if not (self.warp_power > 0.0):
                raise ContractViolationError("warp_power must be positive")
            if self.warp_anchor is None:
                raise ContractViolationError("warp_power requires warp_anchor")
            object.__setattr__(self, "warp_anchor", tuple(float(a) for a in self.warp_anchor))
        object.__setattr__(self, "seed", int(self.seed))
        object.__setattr__(self, "skip", int(self.skip))


@dataclass
class SamplerState:
    """A sampler plus its position in the sample stream.

    ``counter`` counts samples emitted so far; two states with equal config and
    counter produce identical output.  The random scheme binds to the first
    input dimension it draws for and fast-forwards its generator to the
    counter position on first use.
    """

    config: SamplerConfig
    counter: int = 0
    _gen: Optional[np.random.Generator] = field(default=None, repr=False)
    _dim: Optional[int] = field(default=None, repr=False)

    def _generator_for(self, dim: int) -> np.random.Generator:
        if self._gen is None:
            key = np.random.SeedSequence((self.config.seed, 0)).generate_state(2, np.uint64)
            self._gen = np.random.Generator(np.random.Philox(key=key))
            self._dim = dim
            burn = self.counter * dim
            while burn > 0:  # chunked fast-forward to the recorded position
                take = min(burn, 1 << 16)
                self._gen.random(take)
                burn -= take
        elif self._dim != dim:
            raise ContractViolationError(
                f"sampler state already bound to dimension {self._dim}, asked for {dim}")
        return self._gen


def _grid_unit(count: int, dim: int) -> np.ndarray:
    """First ``count`` points of the endpoint-inclusive per-axis grid, taken in
    row-major order from the smallest Cartesian product covering the request."""
    per_axis = 1
    while per_axis ** dim < count:
        per_axis += 1
    if per_axis >= 2:
        axis = np.linspace(0.0, 1.0, per_axis)
    else:
        axis = np.array([0.5])  # a single sample sits at the box midpoint
    mesh = np.meshgrid(*([axis] * dim), indexing="ij")
    points = np.stack([m.ravel() for m in mesh], axis=1)
    return points[:count]


def _halton_unit(start_index: int, count: int, dim: int) -> np.ndarray:
    """Halton points ``start_index .. start_index+count-1``: ``radical_inverse``
    run over an index array, one digit per pass and the same arithmetic, so
    every entry equals the scalar value bit for bit (exhausted indices only
    add exact zeros)."""
    out = np.empty((count, dim), dtype=np.float64)
    for d, base in enumerate(first_primes(dim)):
        value = np.zeros(count, dtype=np.float64)
        scale = 1.0 / base
        i = np.arange(start_index, start_index + count, dtype=np.int64)
        while i.any():
            value += scale * (i % base)
            i //= base
            scale /= base
        out[:, d] = value
    return out


def _map_to_box(unit: np.ndarray, box: BoxSet, config: SamplerConfig) -> np.ndarray:
    lo, hi = box.lower, box.upper
    if config.warp_power is None:
        vals = lo + unit * (hi - lo)
    else:
        anchor = np.asarray(config.warp_anchor, dtype=np.float64)
        if anchor.shape != lo.shape:
            raise ContractViolationError("warp_anchor dimension must match the box")
        if not (np.all(anchor >= lo) and np.all(anchor <= hi)):
            raise ContractViolationError("warp_anchor must lie inside the box")
        signed = 2.0 * unit - 1.0
        warped = np.sign(signed) * np.abs(signed) ** config.warp_power
        vals = anchor + np.where(warped >= 0.0, warped * (hi - anchor), warped * (anchor - lo))
    return np.clip(vals, lo, hi)


def draw_samples(state: SamplerState, box: BoxSet, count: int) -> np.ndarray:
    """Emit the next ``count`` samples from the box, advancing the stream.

    Returns a (count, dim) array.  The grid scheme is stateless in content but
    still advances the counter; Halton continues a single global index so
    later draws explore new points; random draws are coordinatewise uniform
    from the seeded generator.
    """
    if count < 0:
        raise ContractViolationError("count must be nonnegative")
    if not box.is_bounded:
        raise ContractViolationError("sampling requires a bounded box in every coordinate")
    dim = box.dim
    if count == 0:
        return np.empty((0, dim), dtype=np.float64)
    scheme = state.config.scheme
    if scheme == "grid":
        unit = _grid_unit(count, dim)
    elif scheme == "halton":
        start = state.config.skip + state.counter + 1  # radical inverse is 1-based
        unit = _halton_unit(start, count, dim)
    else:
        unit = state._generator_for(dim).random((count, dim))
    state.counter += count
    return _map_to_box(unit, box, state.config)
