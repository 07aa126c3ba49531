"""Deterministic PRNG: fixed algorithm, stable streams, unbiased draws."""

from blichfeldt.rng import Rng, splitmix64


class TestSplitmix:
    def test_known_vector(self):
        # first outputs from seed 0 (standard splitmix64 sequence)
        state = 0
        state, out = splitmix64(state)
        assert out == 0xE220A8397B1DCDAF
        state, out = splitmix64(state)
        assert out == 0x6E789E6AA1B965F4


class TestRng:
    def test_reproducible(self):
        a = [Rng(123).next_u64() for _ in range(5)]
        b = [Rng(123).next_u64() for _ in range(5)]
        assert a == b

    def test_streams_differ(self):
        a = [Rng(123, stream=0).next_u64() for _ in range(5)]
        b = [Rng(123, stream=1).next_u64() for _ in range(5)]
        assert a != b

    def test_randint_bounds(self):
        rng = Rng(7)
        draws = [rng.randint(-3, 3) for _ in range(500)]
        assert min(draws) == -3 and max(draws) == 3

    def test_randrange_covers_all_residues(self):
        rng = Rng(1)
        seen = {rng.randrange(5) for _ in range(200)}
        assert seen == {0, 1, 2, 3, 4}
