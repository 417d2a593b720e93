import numpy as np
import pytest

from polarnet.channels import DiscreteChannel
from polarnet.erasure import (
    ParityLinkedErasureMAC,
    bec_bit_channel_eps,
    bec_tree_bit_channel_eps,
    bec_tree_erasures,
    polar_transform_bits,
)
from polarnet.polar import (
    ConfigurationError,
    EstimatorConfig,
    classify,
    stats_to_csv,
    synthesize_p2p,
)


class TestTransform:
    def test_self_inverse(self):
        rng = np.random.default_rng(0)
        u = rng.integers(0, 2, size=(5, 16), dtype=np.int8)
        x = polar_transform_bits(u)
        np.testing.assert_array_equal(polar_transform_bits(x), u)

    def test_known_small_vectors(self):
        np.testing.assert_array_equal(
            polar_transform_bits(np.array([1, 0], dtype=np.int8)), [1, 0])
        np.testing.assert_array_equal(
            polar_transform_bits(np.array([0, 1], dtype=np.int8)), [1, 1])

    def test_polar_encode_rejects_bad_length(self):
        with pytest.raises(ValueError):
            polar_transform_bits(np.zeros(6, dtype=np.int8))


class TestErasureRecursion:
    def test_first_index_is_worst(self):
        for n in range(1, 8):
            z = bec_bit_channel_eps(0.5, n)
            assert z[0] == max(z)
            assert z[-1] == min(z)

    def test_n1_values(self):
        z = bec_bit_channel_eps(0.5, 1)
        np.testing.assert_allclose(z, [0.75, 0.25])

    def test_tree_matches_uniform(self):
        leaf = np.full(16, 0.3)
        np.testing.assert_allclose(
            bec_tree_bit_channel_eps(leaf), bec_bit_channel_eps(0.3, 4),
            atol=1e-12)


def generator_matrix(N: int) -> np.ndarray:
    """Arikan's G_N = B_N F^{(x)n} over GF(2), B_N the bit reversal."""
    n = N.bit_length() - 1
    G = np.ones((1, 1), dtype=int)
    for _ in range(n):
        G = np.kron(G, np.array([[1, 0], [1, 1]]))
    rev = [int(format(i, f"0{n}b")[::-1], 2) if n else 0 for i in range(N)]
    B = np.zeros((N, N), dtype=int)
    B[np.arange(N), rev] = 1
    return B @ G % 2


class TestButterflyOracles:
    @pytest.mark.parametrize("N", [1, 2, 4, 8, 16])
    def test_transform_is_generator_matrix(self, N):
        u = np.random.default_rng(N).integers(0, 2, size=(64, N), dtype=np.int8)
        np.testing.assert_array_equal(polar_transform_bits(u),
                                      u @ generator_matrix(N) % 2)

    @pytest.mark.parametrize("N", [4, 8])
    def test_tree_eps_is_expected_pattern_erasure(self, N):
        # average the sample-path recursion over all 2^N erasure patterns
        leaf = np.random.default_rng(N).uniform(0.05, 0.95, N)
        patterns = (np.arange(1 << N)[None, :] >> np.arange(N)[:, None]) & 1
        prob = np.prod(np.where(patterns == 1, leaf[:, None],
                                1 - leaf[:, None]), axis=0)
        expected = bec_tree_erasures(patterns.astype(bool)) @ prob
        np.testing.assert_allclose(bec_tree_bit_channel_eps(leaf), expected,
                                   rtol=0, atol=1e-12)


class TestDegenerateLengths:
    @pytest.mark.parametrize("u", [np.zeros((3, 0), dtype=np.int8),
                                   np.zeros(0, dtype=np.int8),
                                   np.zeros((2, 6), dtype=np.int8)],
                             ids=["batch-of-empty", "empty", "length-6"])
    def test_transform_rejects(self, u):
        with pytest.raises(ValueError):
            polar_transform_bits(u)

    @pytest.mark.parametrize("leaf", [np.zeros(0), np.full(3, 0.5)],
                             ids=["empty", "length-3"])
    def test_tree_eps_rejects(self, leaf):
        with pytest.raises(ValueError):
            bec_tree_bit_channel_eps(leaf)
        with pytest.raises(ValueError):
            bec_tree_erasures(leaf > 0.2)

    def test_negative_level_count(self):
        with pytest.raises(ValueError):
            bec_bit_channel_eps(0.3, -1)

    def test_length_one_is_a_copy(self):
        u = np.array([[1], [0]], dtype=np.int8)
        x = polar_transform_bits(u)
        np.testing.assert_array_equal(x, u)
        assert not np.shares_memory(x, u)
        np.testing.assert_array_equal(bec_bit_channel_eps(0.3, 0), [0.3])


class TestSynthesis:
    def test_exact_conservation(self):
        ch = DiscreteChannel.bec(0.4)
        stats = synthesize_p2p(ch, 6)
        total = sum(s.mi for s in stats)
        assert total == pytest.approx(64 * 0.6, abs=1e-9)

    def test_mc_close_to_exact(self):
        ch = DiscreteChannel.bec(0.5)
        exact = synthesize_p2p(ch, 4)
        mc = synthesize_p2p(ch, 4, EstimatorConfig(trials=4000, seed=1),
                            mode="mc")
        for a, b in zip(exact, mc):
            assert abs(a.mi - b.mi) < 0.08

    def test_mc_deterministic_given_seed(self):
        ch = DiscreteChannel((2,), 3, np.array([[0.8, 0.1, 0.1],
                                                [0.05, 0.15, 0.8]]))
        a = synthesize_p2p(ch, 3, EstimatorConfig(trials=500, seed=7))
        b = synthesize_p2p(ch, 3, EstimatorConfig(trials=500, seed=7))
        assert [s.mi for s in a] == [s.mi for s in b]

    def test_polarization_trend(self):
        # fraction of unpolarized indices is non-increasing in n
        prev = None
        for n in range(4, 11):
            stats = synthesize_p2p(DiscreteChannel.bec(0.5), n)
            frac = sum(0.01 < s.mi < 0.99 for s in stats) / len(stats)
            if prev is not None:
                assert frac <= prev + 1e-12
            prev = frac

    def test_csv_export(self):
        text = stats_to_csv(synthesize_p2p(DiscreteChannel.bec(0.5), 2))
        lines = text.strip().split("\n")
        assert lines[0] == "index,mi,z,mode,samples"
        assert len(lines) == 5


class TestClassify:
    def test_four_sets_partition(self):
        y = [0.999, 0.999, 0.001, 0.001, 0.5]
        z = [0.999, 0.001, 0.999, 0.001, 0.5]
        c = classify(y, z)
        assert c.type_I == {1}
        assert c.type_II == {2}
        assert c.type_III == {3}
        assert c.type_IV == {4}

    def test_threshold_monotonicity(self):
        rng = np.random.default_rng(3)
        y = rng.random(64)
        z = rng.random(64)
        base = classify(y, z, 0.9, 0.1)
        tighter = classify(y, z, 0.95, 0.05)
        for name in ("type_I", "type_II", "type_III"):
            assert getattr(tighter, name) <= getattr(base, name)

    def test_bad_thresholds(self):
        with pytest.raises(ConfigurationError):
            classify([0.5], [0.5], 0.1, 0.9)
