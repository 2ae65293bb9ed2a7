"""Input-space sample generation: endpoint-inclusive grids, seeded random
draws and Halton low-discrepancy points, each mapped affinely onto the box.
"""

from __future__ import annotations

from dataclasses import dataclass, field
from typing import Optional, Sequence

import numpy as np

from .core import BoxSet, _integer
from .errors import ContractViolationError

__all__ = [
    "SamplerConfig",
    "SamplerState",
    "radical_inverse",
    "draw_samples",
    "draw_blocks",
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
    """Which sampling scheme to use, and the seed of the random scheme."""

    scheme: str = "halton"
    seed: int = 0

    def __post_init__(self):
        if self.scheme not in SCHEMES:
            raise ContractViolationError(f"scheme must be one of {SCHEMES}, got {self.scheme!r}")
        object.__setattr__(self, "seed", _integer(self.seed, "seed", 0, 2 ** 64 - 1))


@dataclass
class SamplerState:
    """A sampler plus its position in the sample stream.

    ``counter`` counts samples emitted so far and is the stream position: two
    states with equal config and counter produce identical output, and a
    state built with ``counter=c`` continues the stream at sample c.  So a
    state is its position: ``==`` compares config and counter, and a
    ``dataclasses.replace`` copy continues from its own counter with a
    generator of its own.  Halton point c is radical-inverse index c + 1.
    The random scheme binds to the first input dimension it draws for and,
    on first use, jumps its counter-based generator to the counter position
    in O(1).
    """

    config: SamplerConfig
    counter: int = 0
    _gen: Optional[np.random.Generator] = field(default=None, init=False, repr=False, compare=False)
    _dim: Optional[int] = field(default=None, init=False, repr=False, compare=False)

    def _generator_for(self, dim: int) -> np.random.Generator:
        if self._gen is None:
            self._gen = np.random.Generator(np.random.Philox((self.config.seed, 0)))
            self._dim = dim
            # Each double takes one 64-bit Philox output and one block holds
            # four: jump whole blocks, then discard the rest of a partial one.
            done = self.counter * dim
            self._gen.bit_generator.advance(done // 4)
            self._gen.random(done % 4)
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
    # A single sample sits at the box midpoint.
    axis = np.linspace(0.0, 1.0, per_axis) if per_axis >= 2 else np.array([0.5])
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


def _map_to_box(unit: np.ndarray, box: BoxSet) -> np.ndarray:
    """Map fresh unit points onto the box in place: the bits of
    ``np.clip(lo + unit * (hi - lo), lo, hi)`` without its temporaries.
    The clip itself stays: ``np.maximum``/``np.minimum`` break a tie between
    ``0.0`` and ``-0.0`` differently from it, and differently again in their
    vectorised loops."""
    lo, hi = box.lower, box.upper
    unit *= hi - lo
    unit += lo
    return np.clip(unit, lo, hi, out=unit)


def draw_samples(state: SamplerState, box: BoxSet, count: int) -> np.ndarray:
    """Emit the next ``count`` samples from the box, advancing the stream.

    Returns a (count, dim) array.  The grid scheme is stateless in content but
    still advances the counter; Halton continues a single global index so
    later draws explore new points; random draws are coordinatewise uniform
    from the seeded generator.
    """
    return draw_blocks(state, box, (count,))


def draw_blocks(state: SamplerState, box: BoxSet, counts: Sequence[int]) -> np.ndarray:
    """Consecutive draws of ``counts[0]``, ``counts[1]``, ... samples as one
    (sum(counts), dim) array: bit for bit the rows that ``draw_samples``
    returns for each count in turn, with the counter left where those calls
    leave it.  Random and Halton points continue one stream, so they are one
    draw; the grid restarts at each draw, so it stacks one unit grid per count.
    """
    counts = tuple(_integer(count, "count", 0) for count in counts)
    if not box.is_bounded:
        raise ContractViolationError("sampling requires a box of finite width in every coordinate")
    dim = box.dim
    total = sum(counts)
    if total == 0:
        return np.empty((0, dim), dtype=np.float64)
    scheme = state.config.scheme
    if scheme == "grid":
        grids = {count: _grid_unit(count, dim) for count in set(counts)}
        unit = np.concatenate([grids[count] for count in counts])
    elif scheme == "halton":
        unit = _halton_unit(state.counter + 1, total, dim)  # radical inverse is 1-based
    else:
        unit = state._generator_for(dim).random((total, dim))
    state.counter += total
    return _map_to_box(unit, box)
