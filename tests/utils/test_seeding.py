"""Tests for the seed-derivation helpers."""

import pytest

from repro.utils.seeding import spawn_seeds, stable_hash_seed


class TestSeeding:
    def test_spawn_is_deterministic(self):
        assert spawn_seeds(7, 4) == spawn_seeds(7, 4)

    def test_spawn_produces_distinct_values(self):
        seeds = spawn_seeds(1, 64)
        assert len(set(seeds)) == 64

    def test_spawn_requires_positive_count(self):
        with pytest.raises(ValueError):
            spawn_seeds(1, 0)

    def test_stable_hash_seed_deterministic(self):
        assert stable_hash_seed("fig8", "letter", 3) == stable_hash_seed("fig8",
                                                                         "letter", 3)

    def test_stable_hash_seed_sensitive_to_parts(self):
        assert stable_hash_seed("fig8", "letter") != stable_hash_seed("fig8", "pen")

    def test_stable_hash_seed_respects_bit_width(self):
        for _ in range(5):
            assert stable_hash_seed("x", bits=8) < 256

    def test_stable_hash_seed_invalid_bits(self):
        with pytest.raises(ValueError):
            stable_hash_seed("x", bits=0)
