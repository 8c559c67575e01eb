"""Regression tests for the DET001 fixes: no silent entropy streams.

``make_rng(seed=None)`` used to hand back an *unseeded* generator, one
of the real findings the determinism linter flagged on day one.  These
tests pin the fixed contract: ``None`` falls back deterministically to
seed 0, and OS entropy is an explicit opt-in via the ``ENTROPY``
sentinel.
"""

import numpy as np

from repro.sim.rng import ENTROPY, RandomStreams, make_rng


class TestSeedNoneFallback:
    def test_none_equals_seed_zero(self):
        a = make_rng(None, "workload", "arrivals")
        b = make_rng(0, "workload", "arrivals")
        assert np.array_equal(a.random(64), b.random(64))

    def test_none_is_reproducible_across_calls(self):
        draws = [make_rng(None, "x").random(16) for _ in range(2)]
        assert np.array_equal(draws[0], draws[1])

    def test_streams_registry_with_none_seed(self):
        a = RandomStreams(None).get("arrivals").random(16)
        b = RandomStreams(0).get("arrivals").random(16)
        assert np.array_equal(a, b)

    def test_spawn_with_none_seed_is_deterministic(self):
        a = RandomStreams(None).spawn("child")
        b = RandomStreams(None).spawn("child")
        assert a.seed == b.seed
        assert np.array_equal(a.get("s").random(8), b.get("s").random(8))


class TestEntropyOptIn:
    def test_entropy_returns_working_generator(self):
        rng = make_rng(ENTROPY, "explore")
        assert isinstance(rng, np.random.Generator)
        assert 0.0 <= rng.random() < 1.0

    def test_entropy_streams_differ(self):
        # 64 doubles from independent OS-entropy generators colliding is
        # beyond astronomically unlikely
        a = make_rng(ENTROPY).random(64)
        b = make_rng(ENTROPY).random(64)
        assert not np.array_equal(a, b)

    def test_entropy_repr_names_itself(self):
        assert "ENTROPY" in repr(ENTROPY)
