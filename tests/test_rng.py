import numpy as np
import pytest

import drlcsp as d
from drlcsp.rng import SplitMix64

_SEEDS = [0, 1, 2**63, 2**64 - 1]
# 2**63 + 1 rejects about half of the raw outputs, so it exercises the
# rejection path; the powers of two reject none.
_BOUNDS = [1, 2, 3, 10, 2**32 + 1, 2**63 + 1, 2**64 - 1]


class TestBlockDraws:
    @pytest.mark.parametrize("bound", _BOUNDS)
    @pytest.mark.parametrize("seed", _SEEDS)
    def test_block_equals_repeated_scalar_draws(self, seed, bound):
        for count in (0, 1, 17, 1000):
            block, scalar = SplitMix64(seed), SplitMix64(seed)
            drawn = block.below_many(bound, count)
            assert drawn.dtype == np.uint64
            assert drawn.tolist() == [scalar.below(bound) for _ in range(count)]
            assert block.next_u64() == scalar.next_u64()

    @pytest.mark.parametrize("seed", _SEEDS)
    @pytest.mark.parametrize("ahead", [0, 5, 40, 200])
    def test_read_ahead_serves_the_same_stream(self, seed, ahead):
        # Block and scalar draws interleave as in the generator; draws that
        # overrun the read-ahead block compute their own outputs.
        block, scalar = SplitMix64(seed), SplitMix64(seed)
        block.read_ahead(ahead)
        for bound, count in [(3, 7), (10, 1), (2**63 + 1, 12), (7, 0), (5, 30), (2, 9)]:
            assert block.below_many(bound, count).tolist() == [
                scalar.below(bound) for _ in range(count)
            ]
            assert block.below(bound) == scalar.below(bound)
        assert block.next_u64() == scalar.next_u64()

    def test_non_positive_bound_refused(self):
        with pytest.raises(ValueError):
            SplitMix64(0).below_many(0, 3)
        with pytest.raises(ValueError) as info:
            SplitMix64(0).below(0)
        assert type(info.value) is ValueError and str(info.value) == "below() needs a positive bound"


class TestSkip:
    # The last two seeds wrap past 2**64 on the first step.
    @pytest.mark.parametrize("seed", [0, 7, 2**64 - 1, 2**64 - 0x9E3779B97F4A7C15 // 2])
    def test_skip_equals_unit_draws(self, seed):
        for count in (0, 1, 2, 3, 50):
            skipped, drawn = SplitMix64(seed), SplitMix64(seed)
            skipped.skip(count)
            for _ in range(count):
                assert drawn.below(1) == 0
            # The output mix is a bijection, so equal outputs mean equal states.
            assert [skipped.next_u64() for _ in range(3)] == [drawn.next_u64() for _ in range(3)]


class TestSeedType:
    @pytest.mark.parametrize("seed", [1.5, 1.0, True, False, np.int64(3), np.uint64(3), "1"])
    def test_non_int_seed_refused(self, w4, seed):
        with pytest.raises(ValueError, match="is not an int"):
            SplitMix64(seed)
        with pytest.raises(ValueError, match="is not an int"):
            d.gen_random_problem(w4, 3, 2, 4, 2, seed)
        with pytest.raises(ValueError, match="is not an int"):
            d.maximal_seeded(seed)
