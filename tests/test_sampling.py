import numpy as np
import pytest
from hypothesis import example, given, settings
from hypothesis import strategies as st

from sampled_nmpc import BoxSet, SamplerConfig, SamplerState, draw_samples, radical_inverse
from sampled_nmpc.errors import ContractViolationError
from sampled_nmpc.sampling import (SCHEMES, _grid_unit, _halton_unit, derive_seed,
                                   draw_blocks, first_primes)


# A box column's bounds: signed zeros, subnormals and magnitudes up to 1e300
# (a box wider than the largest double overflows the map onto it), as two
# sorted draws or one degenerate column, lo == hi.
BOX_BOUNDS = st.sampled_from([0.0, -0.0, 5e-324, -5e-324, 1e300, -1e300]) | st.floats(-1e300, 1e300)
BOX_SIDES = (st.tuples(BOX_BOUNDS, BOX_BOUNDS).map(sorted).map(tuple)
             | BOX_BOUNDS.map(lambda bound: (bound, bound)))


def unit_box(dim):
    return BoxSet(np.zeros(dim), np.ones(dim))


class TestRadicalInverse:
    @pytest.mark.parametrize("index,base,expected", [
        (1, 2, 0.5),
        (2, 2, 0.25),
        (3, 2, 0.75),
        (4, 2, 0.125),
        (5, 2, 0.625),  # binary 101 mirrored
        (1, 3, 1.0 / 3.0),
        (2, 3, 2.0 / 3.0),
    ])
    def test_known_values(self, index, base, expected):
        assert radical_inverse(index, base) == expected

    def test_rejects_bad_arguments(self):
        with pytest.raises(ContractViolationError):
            radical_inverse(0, 2)
        with pytest.raises(ContractViolationError):
            radical_inverse(1, 1)

    @given(st.integers(1, 6))
    @settings(max_examples=6, deadline=None)
    def test_dyadic_coverage(self, k):
        # among the first 2^k base-2 points, each width-2^-k dyadic interval
        # holds exactly one point
        points = [radical_inverse(i, 2) for i in range(1, 2 ** k + 1)]
        cells = sorted(int(p * 2 ** k) for p in points)
        assert cells == list(range(2 ** k))

    def test_first_primes(self):
        assert first_primes(6) == (2, 3, 5, 7, 11, 13)


class TestGridScheme:
    def test_1d_endpoint_inclusive(self):
        state = SamplerState(SamplerConfig(scheme="grid"))
        box = BoxSet(np.array([-4.5]), np.array([4.5]))
        samples = draw_samples(state, box, 3)
        assert np.array_equal(samples, np.array([[-4.5], [0.0], [4.5]]))
        assert state.counter == 3

    def test_1d_spacing_exact(self):
        state = SamplerState(SamplerConfig(scheme="grid"))
        box = BoxSet(np.array([-4.5]), np.array([4.5]))
        for count in (2, 4, 5, 9):
            samples = draw_samples(state, box, count)[:, 0]
            diffs = np.diff(samples)
            assert np.all(diffs == (9.0 / (count - 1)))
            assert samples[0] == -4.5 and samples[-1] == 4.5

    def test_2d_row_major_truncation(self):
        state = SamplerState(SamplerConfig(scheme="grid"))
        samples = draw_samples(state, unit_box(2), 5)
        # smallest covering product is 3x3; the first five in row-major order
        expected = np.array([[0.0, 0.0], [0.0, 0.5], [0.0, 1.0], [0.5, 0.0], [0.5, 0.5]])
        assert np.array_equal(samples, expected)

    def test_single_sample_sits_mid_box(self):
        state = SamplerState(SamplerConfig(scheme="grid"))
        samples = draw_samples(state, BoxSet(np.array([2.0]), np.array([4.0])), 1)
        assert np.array_equal(samples, np.array([[3.0]]))


class TestHaltonScheme:
    def test_first_point_bases_2_and_3(self):
        state = SamplerState(SamplerConfig(scheme="halton"))
        samples = draw_samples(state, unit_box(2), 1)
        assert np.array_equal(samples, np.array([[0.5, 1.0 / 3.0]]))

    def test_stream_continues_across_draws(self):
        split = SamplerState(SamplerConfig(scheme="halton"))
        a = draw_samples(split, unit_box(2), 3)
        b = draw_samples(split, unit_box(2), 3)
        whole = draw_samples(SamplerState(SamplerConfig(scheme="halton")), unit_box(2), 6)
        assert np.array_equal(np.vstack([a, b]), whole)

    @given(st.integers(1, 6))
    @settings(max_examples=6, deadline=None)
    def test_dyadic_coverage_through_box_mapping(self, k):
        state = SamplerState(SamplerConfig(scheme="halton"))
        samples = draw_samples(state, unit_box(1), 2 ** k)[:, 0]
        cells = sorted(int(v * 2 ** k) for v in samples)
        assert cells == list(range(2 ** k))

    @given(st.integers(0, 2 ** 40), st.integers(1, 300), st.integers(1, 6))
    @settings(max_examples=40, deadline=None)
    def test_vectorized_points_equal_the_scalar_radical_inverse(self, counter, count, dim):
        state = SamplerState(SamplerConfig(scheme="halton"), counter=counter)
        points = draw_samples(state, unit_box(dim), count)
        bases = first_primes(dim)
        expected = [[radical_inverse(counter + 1 + row, b) for b in bases]
                    for row in range(count)]
        assert np.array_equal(points, np.array(expected))

    def test_matches_scipy_unscrambled_halton(self):
        # scipy's sequence starts at index 0 (the origin); ours at index 1
        qmc = pytest.importorskip("scipy.stats.qmc")
        points = draw_samples(SamplerState(SamplerConfig(scheme="halton")), unit_box(3), 5000)
        assert np.array_equal(points, qmc.Halton(d=3, scramble=False).random(5001)[1:])


class TestRandomScheme:
    def test_equal_seed_and_counter_reproduce(self):
        box = BoxSet(np.array([-4.5]), np.array([4.5]))
        a = draw_samples(SamplerState(SamplerConfig(scheme="random", seed=9)), box, 5)
        b = draw_samples(SamplerState(SamplerConfig(scheme="random", seed=9)), box, 5)
        assert np.array_equal(a, b)

    @pytest.mark.parametrize("dim", [1, 2])
    @pytest.mark.parametrize("counter", [0, 1, 3, 5])
    @pytest.mark.parametrize("seed", [0, 7, 2 ** 64 - 1])
    def test_the_stream_is_philox_keyed_from_the_seed_sequence(self, seed, dim, counter):
        # The key is SeedSequence((seed, 0))'s first two 64-bit words, the
        # key that Philox((seed, 0)) derives; counters 0-5 at dims 1 and 2
        # start inside and across Philox's four-double blocks.
        key = np.random.SeedSequence((seed, 0)).generate_state(2, np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        gen.random(counter * dim)
        stream = SamplerState(SamplerConfig(scheme="random", seed=seed), counter=counter)
        assert np.array_equal(draw_samples(stream, unit_box(dim), 6), gen.random((6, dim)))

    def test_reconstruction_mid_stream(self):
        box = unit_box(2)
        live = SamplerState(SamplerConfig(scheme="random", seed=5))
        draw_samples(live, box, 7)
        tail_live = draw_samples(live, box, 4)
        resumed = SamplerState(SamplerConfig(scheme="random", seed=5), counter=7)
        assert np.array_equal(draw_samples(resumed, box, 4), tail_live)

    @given(st.integers(0, 2 ** 64 - 1), st.integers(1, 3), st.integers(0, 20_000),
           st.integers(1, 9))
    @example(seed=0, dim=1, counter=5_000_003, count=5)
    @example(seed=1, dim=3, counter=1001, count=7)
    @settings(max_examples=60, deadline=None)
    def test_resume_equals_burning_the_stream(self, seed, dim, counter, count):
        # reference: a fresh generator that draws and discards counter * dim
        # doubles, the samples a live stream would have emitted before
        key = np.random.SeedSequence((seed, 0)).generate_state(2, np.uint64)
        gen = np.random.Generator(np.random.Philox(key=key))
        burn = counter * dim
        while burn > 0:
            take = min(burn, 1 << 16)
            gen.random(take)
            burn -= take
        expected = gen.random((count, dim))
        resumed = SamplerState(SamplerConfig(scheme="random", seed=seed), counter=counter)
        assert np.array_equal(draw_samples(resumed, unit_box(dim), count), expected)

    def test_different_seeds_differ(self):
        box = unit_box(1)
        a = draw_samples(SamplerState(SamplerConfig(scheme="random", seed=1)), box, 8)
        b = draw_samples(SamplerState(SamplerConfig(scheme="random", seed=2)), box, 8)
        assert not np.array_equal(a, b)

    def test_seed_accepts_python_and_numpy_integers(self):
        assert SamplerConfig(seed=7).seed == 7
        for seed in (np.int64(7), np.uint64(2 ** 64 - 1)):
            assert SamplerConfig(seed=seed).seed == int(seed)
            assert type(SamplerConfig(seed=seed).seed) is int

    @pytest.mark.parametrize("seed", [1.5, 7.0, "7", True, False, float("nan"), None,
                                      np.float64(3.0), -1, 2 ** 64])
    def test_seed_rejects_non_integers_and_out_of_range(self, seed):
        with pytest.raises(ContractViolationError, match="seed"):
            SamplerConfig(seed=seed)

    def test_dimension_binding_is_enforced(self):
        state = SamplerState(SamplerConfig(scheme="random", seed=1))
        draw_samples(state, unit_box(2), 1)
        with pytest.raises(ContractViolationError):
            draw_samples(state, unit_box(3), 1)

    def test_derive_seed_gives_independent_streams(self):
        assert derive_seed(3, 0) != derive_seed(3, 1)
        assert derive_seed(3, 1) == derive_seed(3, 1)


class TestDrawSamplesContract:
    @pytest.mark.parametrize("scheme", ["grid", "random", "halton"])
    def test_membership_closed_intervals(self, scheme):
        box = BoxSet(np.array([-4.5, 0.1]), np.array([4.5, 0.2]))
        state = SamplerState(SamplerConfig(scheme=scheme, seed=4))
        samples = draw_samples(state, box, 40)
        assert samples.shape == (40, 2)
        assert np.all(samples >= box.lower) and np.all(samples <= box.upper)

    @pytest.mark.parametrize("scheme", ["grid", "random", "halton"])
    def test_determinism_per_scheme(self, scheme):
        box = BoxSet(np.array([-1.0]), np.array([2.0]))
        a = draw_samples(SamplerState(SamplerConfig(scheme=scheme, seed=11)), box, 9)
        b = draw_samples(SamplerState(SamplerConfig(scheme=scheme, seed=11)), box, 9)
        assert np.array_equal(a, b)

    def test_zero_count_is_empty(self):
        state = SamplerState(SamplerConfig(scheme="halton"))
        samples = draw_samples(state, unit_box(3), 0)
        assert samples.shape == (0, 3)
        assert state.counter == 0

    def test_unbounded_box_rejected(self):
        state = SamplerState(SamplerConfig(scheme="random"))
        box = BoxSet(np.array([0.0, -np.inf]), np.array([1.0, 1.0]))
        with pytest.raises(ContractViolationError):
            draw_samples(state, box, 1)

    @pytest.mark.parametrize("scheme", SCHEMES)
    def test_a_box_wider_than_the_largest_double_is_refused(self, scheme):
        # Both bounds are finite, but upper - lower overflows to inf: the map
        # onto the box would give NaN and points piled on the upper bound.
        box = BoxSet(np.array([-1e308]), np.array([1e308]))
        assert not box.is_bounded
        state = SamplerState(SamplerConfig(scheme=scheme))
        with pytest.raises(ContractViolationError, match="finite width"):
            draw_blocks(state, box, (3,))
        assert state.counter == 0

    def test_negative_count_rejected(self):
        with pytest.raises(ContractViolationError):
            draw_samples(SamplerState(SamplerConfig()), unit_box(1), -1)

    @pytest.mark.parametrize("count", [1.5, 2.0, True, False, "3", None])
    def test_non_integer_count_rejected(self, count):
        state = SamplerState(SamplerConfig())
        with pytest.raises(ContractViolationError, match="count"):
            draw_samples(state, unit_box(1), count)
        assert state.counter == 0

    def test_numpy_integer_count(self):
        samples = draw_samples(SamplerState(SamplerConfig()), unit_box(2), np.uint8(3))
        assert samples.shape == (3, 2)

    @given(st.integers(0, 2 ** 64 - 1), st.integers(0, 50), st.integers(1, 3),
           st.sampled_from(["grid", "random", "halton"]))
    @settings(max_examples=40, deadline=None)
    def test_membership_property(self, seed, count, dim, scheme):
        box = BoxSet(-np.arange(1.0, dim + 1.0), np.arange(1.0, dim + 1.0) ** 2)
        state = SamplerState(SamplerConfig(scheme=scheme, seed=seed))
        samples = draw_samples(state, box, count)
        assert samples.shape == (count, dim)
        assert np.all(samples >= box.lower) and np.all(samples <= box.upper)
        assert state.counter == count


class TestDrawBlocks:
    @given(st.sampled_from(["grid", "random", "halton"]), st.integers(0, 2 ** 32 - 1),
           st.integers(1, 3), st.integers(0, 300),
           st.lists(st.integers(0, 40), min_size=0, max_size=12))
    @example("grid", 0, 2, 0, [5, 0, 5, 3, 0])
    @example("random", 1, 3, 7, [0, 0])
    @settings(max_examples=80, deadline=None)
    def test_one_call_equals_a_draw_per_count(self, scheme, seed, dim, counter, counts):
        # From a stream already at ``counter`` (a continued one), with zero
        # counts and repeated counts among the blocks, given as a list and as
        # a one-shot iterator.
        box = BoxSet(-np.arange(1.0, dim + 1), np.arange(2.0, dim + 2))
        config = SamplerConfig(scheme=scheme, seed=seed)
        one, each = SamplerState(config, counter=counter), SamplerState(config, counter=counter)
        once = SamplerState(config, counter=counter)
        block = draw_blocks(one, box, counts)
        parts = [draw_samples(each, box, c) for c in counts]
        expected = np.concatenate(parts) if parts else np.empty((0, dim))
        assert block.shape == (sum(counts), dim)
        assert block.tobytes() == expected.tobytes()
        assert draw_blocks(once, box, iter(counts)).tobytes() == expected.tobytes()
        assert one.counter == each.counter == once.counter
        # Both streams continue from the same place.
        assert draw_samples(one, box, 3).tobytes() == draw_samples(each, box, 3).tobytes()

    @given(st.sampled_from(["grid", "random", "halton"]), st.integers(0, 2 ** 32 - 1),
           st.integers(0, 300), st.lists(st.integers(0, 40), min_size=1, max_size=6),
           st.lists(st.tuples(st.floats(-1e3, 1e3), st.floats(0.0, 1e3)), min_size=1, max_size=3))
    @example("random", 5, 0, [7, 3], [(-2.0, 0.0), (1.5, 3.0)])
    @example("grid", 0, 0, [4, 9], [(0.25, 0.0), (-1.0, 2.0)])
    @example("halton", 1, 11, [5], [(-0.0, 0.0)])
    @example("grid", 0, 0, [2], [(-0.0, 1.0)])  # 0.0 on a -0.0 lower bound stays 0.0
    @settings(max_examples=80, deadline=None)
    def test_rows_are_the_clipped_affine_map_of_the_unit_points(self, scheme, seed, counter,
                                                                counts, sides):
        # Each side is (lower bound, width); a zero width is a degenerate side.
        lo = np.array([side[0] for side in sides])
        hi = lo + np.array([side[1] for side in sides])
        dim, total = lo.size, sum(counts)
        config = SamplerConfig(scheme=scheme, seed=seed)
        if scheme == "grid":
            unit = np.concatenate([_grid_unit(c, dim) for c in counts])
        elif scheme == "halton":
            unit = _halton_unit(counter + 1, total, dim)
        else:
            unit = SamplerState(config, counter=counter)._generator_for(dim).random((total, dim))
        expected = np.clip(lo + unit * (hi - lo), lo, hi)
        drawn = draw_blocks(SamplerState(config, counter=counter), BoxSet(lo, hi), counts)
        assert drawn.shape == expected.shape
        assert drawn.tobytes() == expected.tobytes()

    @given(st.sampled_from(SCHEMES), st.integers(0, 2 ** 64 - 1), st.integers(0, 300),
           st.lists(st.integers(0, 40), max_size=6), st.lists(BOX_SIDES, min_size=1, max_size=3))
    @example("grid", 0, 0, [3], [(-0.0, 0.0), (5e-324, 5e-324), (-1e300, 1e300)])
    @settings(max_examples=150, deadline=None)
    def test_every_row_lies_in_the_box(self, scheme, seed, counter, counts, sides):
        # The solver takes this for granted and does not check its draw.
        box = BoxSet(np.array([lo for lo, _ in sides]), np.array([hi for _, hi in sides]))
        drawn = draw_blocks(SamplerState(SamplerConfig(scheme, seed), counter), box, counts)
        assert drawn.shape == (sum(counts), box.dim)
        assert box.contains_rows(drawn).all()

    @pytest.mark.parametrize("counts", [[3, -1], [2, 1.5], [True]])
    def test_malformed_counts_rejected(self, counts):
        with pytest.raises(ContractViolationError, match="count"):
            draw_blocks(SamplerState(SamplerConfig()), unit_box(2), counts)
