import hashlib

import networkx as nx
import numpy as np
import pytest

from polarnet.alignment import decoding_dag

from polarnet.chains import PreconditionError
from polarnet.codec import (
    ReceiverSpec,
    build_code,
    encode,
    sc_decode,
    simulate,
    theorem1_check,
    transmit,
)
from polarnet.erasure import ParityLinkedErasureMAC


def two_user_compound(N=64, k=1, **kw):
    recs = [ReceiverSpec(ParityLinkedErasureMAC(2, (0.5,)), (1, 2)),
            ReceiverSpec(ParityLinkedErasureMAC(2, (0.0, 1.0)), (1, 2))]
    return build_code(recs, (0.75, 0.75), N=N, k=k, split_eps=0.1, **kw)


class TestBuild:
    def test_identical_channels_no_incompatibility(self):
        recs = [ReceiverSpec(ParityLinkedErasureMAC(2, (0.5,)), (1, 2)),
                ReceiverSpec(ParityLinkedErasureMAC(2, (0.5,)), (1, 2))]
        spec = build_code(recs, (0.75, 0.75), N=64, k=0, split_eps=0.1)
        assert all(not spec.schedule.pairs_for_user(u) for u in (1, 2))

    def test_target_outside_region_rejected(self):
        recs = [ReceiverSpec(ParityLinkedErasureMAC(2, (0.5,)), (1, 2))]
        with pytest.raises(PreconditionError):
            build_code(recs, (1.0, 1.0), N=64, k=0)

    def test_rate_accounting(self):
        spec = two_user_compound()
        nb = spec.schedule.total_blocks
        for u in (1, 2):
            assert len(spec.info_sets[u]) + len(spec.frozen_sets[u]) == \
                nb * spec.N
            assert set(spec.info_sets[u]).isdisjoint(spec.frozen_sets[u])

    def test_json_serialization(self):
        import json

        spec = two_user_compound()
        obj = json.loads(spec.to_json())
        assert obj["M"] == spec.M
        assert obj["receivers"][0]["path"]

    def test_unequal_sum_strategy_dominates_target(self):
        recs = [ReceiverSpec(ParityLinkedErasureMAC(2, (0.25,)), (1, 2)),
                ReceiverSpec(ParityLinkedErasureMAC(2, (0.0, 0.5)), (1, 2))]
        spec = build_code(recs, (0.7, 0.8), N=128, k=0,
                          strategy="unequal-sum", split_eps=0.1)
        for rr in spec.receiver_rates:
            assert rr[1] >= 0.7 - 0.1 and rr[2] >= 0.8 - 0.1


class TestEncode:
    def test_all_zero(self):
        spec = two_user_compound()
        msgs = {u: np.zeros((3, len(spec.info_sets[u])), dtype=np.int8)
                for u in (1, 2)}
        cw, _ = encode(spec, msgs)
        for u in (1, 2):
            assert not cw[u].any()

    def test_injective_in_messages(self):
        spec = two_user_compound()
        msgs = {u: np.zeros((1, len(spec.info_sets[u])), dtype=np.int8)
                for u in (1, 2)}
        base, _ = encode(spec, msgs)
        flip = {u: m.copy() for u, m in msgs.items()}
        flip[1][0, 0] ^= 1
        other, _ = encode(spec, flip)
        assert (base[1] != other[1]).any()

    def test_length_mismatch(self):
        spec = two_user_compound()
        with pytest.raises(ValueError):
            encode(spec, {1: np.zeros((1, 3), dtype=np.int8),
                          2: np.zeros((1, 3), dtype=np.int8)})


class TestDecode:
    def test_noiseless_identity(self):
        recs = [ReceiverSpec(ParityLinkedErasureMAC(2, (0.0,)), (1, 2)),
                ReceiverSpec(ParityLinkedErasureMAC(2, (0.0,)), (1, 2))]
        spec = build_code(recs, (1.0, 1.0), N=32, k=1, split_eps=0.1)
        rng = np.random.default_rng(0)
        msgs = {u: rng.integers(0, 2, (50, len(spec.info_sets[u])),
                                dtype=np.int8) for u in (1, 2)}
        cw, _ = encode(spec, msgs)
        for r in range(2):
            out = transmit(spec, r, cw, rng)
            est, fail = sc_decode(spec, r, out)
            assert not fail.any()
            for u in (1, 2):
                np.testing.assert_array_equal(est[u], msgs[u])

    def test_wrong_path_negative_control(self):
        spec = two_user_compound(N=256, k=0)
        rng = np.random.default_rng(5)
        trials = 400
        msgs = {u: rng.integers(0, 2, (trials, len(spec.info_sets[u])),
                                dtype=np.int8) for u in (1, 2)}
        cw, _ = encode(spec, msgs)
        out = transmit(spec, 0, cw, rng)
        est, fail = sc_decode(spec, 0, out)
        right = int(((est[1] != msgs[1]).any(axis=-1) |
                     (est[2] != msgs[2]).any(axis=-1) | fail).sum())
        # decode with a mismatched permutation: statistics no longer match
        from polarnet.chains import MonotonePath

        wrong = two_user_compound(N=256, k=0)
        wrong.paths[0] = MonotonePath.parse("1^256 2^256")
        est_w, fail_w = sc_decode(wrong, 0, out)
        bad = int(((est_w[1] != msgs[1]).any(axis=-1) |
                   (est_w[2] != msgs[2]).any(axis=-1) | fail_w).sum())
        assert bad > right

    def test_simulate_deterministic(self):
        spec = two_user_compound(N=32, k=1)
        a = simulate(spec, trials=200, seed=3, chunk=64)
        b = simulate(spec, trials=200, seed=3, chunk=64, threads=4)
        assert a == b

    @pytest.mark.parametrize("trials,chunk", [(10, 0), (10, -5), (0, 64), (-1, 64)])
    def test_simulate_rejects_nonpositive_sizes(self, trials, chunk):
        spec = two_user_compound(N=32, k=1)
        with pytest.raises(ValueError):
            simulate(spec, trials=trials, seed=0, chunk=chunk)


class TestSharedOrder:
    """The decode order is computed once in build_code and reused."""

    @pytest.fixture(scope="class")
    def spec(self):
        recs = [ReceiverSpec(ParityLinkedErasureMAC(2, (0.25,)), (1, 2)),
                ReceiverSpec(ParityLinkedErasureMAC(2, (0.0, 0.5)), (1, 2))]
        return build_code(recs, (0.85, 0.85), N=128, k=3,
                          delta_good=1 - 1e-4, delta_bad=0.1)

    def test_code_has_pairs(self, spec):
        assert sum(len(spec.schedule.pairs_for_user(u)) for u in (1, 2)) == 4

    def test_orders_match_networkx(self, spec):
        for r, rec in enumerate(spec.receivers):
            g = decoding_dag(spec.schedule, spec.paths[r], rec.decode_set)
            assert spec.orders[r] == list(nx.lexicographical_topological_sort(g))

    def test_decode_unchanged(self, spec):
        # The digest was recorded with the decoder that built its order
        # per call with networkx; extra erasures make about half of the
        # trials of each receiver fail.
        rng = np.random.default_rng(2024)
        msgs = {u: rng.integers(0, 2, (64, len(spec.info_sets[u])),
                                dtype=np.int8) for u in (1, 2)}
        cw, _ = encode(spec, msgs)
        h = hashlib.sha256()
        fails = []
        for r, rec in enumerate(spec.receivers):
            out = transmit(spec, r, cw, rng)
            extra = rng.random(out["anchor"].shape) < (
                rng.uniform(0, 2.0, (64, 1, 1)) * rec.mac.leaf_eps(spec.N))
            out["anchor"] = np.where(extra, 2, out["anchor"]).astype(np.int8)
            est, fail = sc_decode(spec, r, out)
            fails.append(int(fail.sum()))
            for u in (1, 2):
                assert not ((est[u] != msgs[u]).any(axis=-1) & ~fail).any()
                h.update(est[u].tobytes())
            h.update(fail.tobytes())
        assert fails == [26, 30]
        assert h.hexdigest() == (
            "af96dfdf9305d0c8b239dfd6120e7364ac7d33e100824807d0fcd00fd42b0294")


class TestTheorem:
    def test_epsilon_one_always_passes(self):
        spec = two_user_compound()
        rep = theorem1_check(spec, eps=1.0)
        assert rep.passed_i and rep.passed_ii

    def test_gap_fields_present(self):
        spec = two_user_compound()
        rep = theorem1_check(spec, eps=0.05)
        for u in (1, 2):
            d = rep.per_user[u]
            assert 0 <= d["jointly_good_fraction"] <= 1
            assert d["gap_ii"] == pytest.approx(
                d["min_rate"] - d["jointly_good_fraction"])
