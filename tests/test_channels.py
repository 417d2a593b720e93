import json

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polarnet.channels import (
    DimensionError,
    DiscreteChannel,
    InputDistribution,
    KernelSizeError,
    coded_time_sharing_transform,
    minus_combine,
    mutual_information,
    plus_combine,
    symmetric_capacity,
    bhattacharyya,
)


def random_binary_channel(rng, ny=3):
    k = rng.random((2, ny))
    k /= k.sum(axis=1, keepdims=True)
    return DiscreteChannel((2,), ny, k)


class TestBasics:
    def test_bec_capacity(self):
        ch = DiscreteChannel.bec(0.3)
        assert symmetric_capacity(ch) == pytest.approx(0.7, abs=1e-12)
        assert bhattacharyya(ch) == pytest.approx(0.3, abs=1e-12)

    def test_binary_adder_bounds(self):
        ch = DiscreteChannel.binary_adder(2)
        p = InputDistribution.uniform((2, 2))
        assert mutual_information(ch, p, [0], [1]) == pytest.approx(1.0)
        assert mutual_information(ch, p, [0, 1]) == pytest.approx(1.5)
        # single sender with the other as noise
        assert mutual_information(ch, p, [0]) == pytest.approx(0.5)

    def test_json_round_trip(self):
        ch = DiscreteChannel.binary_adder(2)
        again = DiscreteChannel.from_json(ch.to_json())
        assert again.input_arities == ch.input_arities
        np.testing.assert_allclose(again.kernel, ch.kernel)

    def test_bec_shorthand_json(self):
        ch = DiscreteChannel.from_json(json.dumps({"type": "bec", "epsilon": 0.5}))
        assert symmetric_capacity(ch) == pytest.approx(0.5)

    def test_dimension_errors(self):
        with pytest.raises(DimensionError):
            DiscreteChannel((0,), 2, np.ones((1, 2)))
        ch = DiscreteChannel.binary_adder(2)
        with pytest.raises(DimensionError):
            mutual_information(ch, InputDistribution.uniform((2,)), [0])


class TestCombining:
    def test_minus_plus_on_bec(self):
        p = DiscreteChannel.bec(0.5)
        minus = minus_combine(p, p)
        plus = plus_combine(p, p)
        assert symmetric_capacity(minus) == pytest.approx(0.25, abs=1e-12)
        assert symmetric_capacity(plus) == pytest.approx(0.75, abs=1e-12)

    def test_capacity_conservation_random(self):
        rng = np.random.default_rng(1)
        for _ in range(25):
            p = random_binary_channel(rng)
            q = random_binary_channel(rng)
            total = symmetric_capacity(minus_combine(p, q)) + \
                symmetric_capacity(plus_combine(p, q))
            base = symmetric_capacity(p) + symmetric_capacity(q)
            assert total == pytest.approx(base, abs=1e-10)

    def test_kernel_cap(self):
        # 2 * 1024 * 1024 entries, past the cap of 2^20
        wide = DiscreteChannel((2,), 1024, np.full((2, 1024), 1 / 1024))
        with pytest.raises(KernelSizeError, match="2097152 entries"):
            minus_combine(wide, wide)
        with pytest.raises(KernelSizeError, match="4194304 entries"):
            plus_combine(wide, wide)

    @settings(max_examples=50, deadline=None)
    @given(st.floats(0.0, 1.0), st.floats(0.0, 1.0))
    def test_bec_combining_closed_form(self, e1, e2):
        p, q = DiscreteChannel.bec(e1), DiscreteChannel.bec(e2)
        assert symmetric_capacity(minus_combine(p, q)) == pytest.approx(
            (1 - e1) * (1 - e2), abs=1e-9)
        assert symmetric_capacity(plus_combine(p, q)) == pytest.approx(
            1 - e1 * e2, abs=1e-9)


class TestTimeSharing:
    def test_coded_time_sharing_mixes_channels(self):
        # q switches the effective input between identity and flip
        ch = DiscreteChannel.from_function((2,), lambda x: x)
        mixed = coded_time_sharing_transform(
            ch, [0.5, 0.5], [np.array([[0, 1], [1, 0]])]
        )
        assert mixed.output_arity == 4
        assert symmetric_capacity(mixed) == pytest.approx(1.0)

    def test_time_shared_mi_matches_average(self):
        ch = DiscreteChannel.bec(0.5)
        p = InputDistribution(
            marginals=(np.array([[0.5, 0.5], [0.9, 0.1]]),),
            q_probs=np.array([0.5, 0.5]),
        )
        v = mutual_information(ch, p, [0])
        h = lambda x: 0.0 if x in (0, 1) else -x * np.log2(x) - (1 - x) * np.log2(1 - x)
        assert v == pytest.approx(0.5 * (0.5 * 1.0 + 0.5 * h(0.1)), abs=1e-9)
