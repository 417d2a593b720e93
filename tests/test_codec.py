import dataclasses
import hashlib

import networkx as nx
import numpy as np
import pytest

from polarnet import codec
from polarnet.alignment import decode_runs, decoding_dag, expand_runs

from polarnet.chains import PreconditionError
from polarnet.codec import (
    ReceiverSpec,
    _skip_messages,
    build_code,
    encode,
    failure_plan,
    sc_decode,
    simulate,
    theorem1_check,
    transmit,
)
from polarnet.erasure import ParityLinkedErasureMAC, bec_tree_erasures


def two_user_compound(N=64, k=1, **kw):
    recs = [ReceiverSpec(ParityLinkedErasureMAC(2, (0.5,)), (1, 2)),
            ReceiverSpec(ParityLinkedErasureMAC(2, (0.0, 1.0)), (1, 2))]
    return build_code(recs, (0.75, 0.75), N=N, k=k, split_eps=0.1, **kw)


class TestBuild:
    def test_paths_stay_runs(self):
        # the K·N sequence is built only where it is read
        spec = two_user_compound()
        assert all("user_sequence" not in p.__dict__ for p in spec.paths)

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
        # the document is JSON-native already: string keys, lists
        assert spec.to_dict() == obj

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

    def test_simulate_compiles_plans_once(self, monkeypatch):
        spec = two_user_compound(N=32, k=1)
        calls = []

        def counted(spec, receiver):
            calls.append(receiver)
            return failure_plan(spec, receiver)

        monkeypatch.setattr(codec, "failure_plan", counted)
        first = simulate(spec, trials=200, seed=3, chunk=64)
        assert calls == [0, 1]
        assert simulate(spec, trials=200, seed=3, chunk=64) == first
        assert calls == [0, 1]

    @pytest.mark.parametrize("trials,chunk", [(10, 0), (10, -5), (0, 64), (-1, 64)])
    def test_simulate_rejects_nonpositive_sizes(self, trials, chunk):
        spec = two_user_compound(N=32, k=1)
        with pytest.raises(ValueError):
            simulate(spec, trials=trials, seed=0, chunk=chunk)

    @pytest.mark.parametrize("threads", [0, -3])
    def test_simulate_rejects_nonpositive_threads(self, threads):
        spec = two_user_compound(N=32, k=1)
        with pytest.raises(ValueError):
            simulate(spec, trials=10, seed=0, chunk=64, threads=threads)


def shared_order_code(k=3):
    recs = [ReceiverSpec(ParityLinkedErasureMAC(2, (0.25,)), (1, 2)),
            ReceiverSpec(ParityLinkedErasureMAC(2, (0.0, 0.5)), (1, 2))]
    return build_code(recs, (0.85, 0.85), N=128, k=k,
                      delta_good=1 - 1e-4, delta_bad=0.1)


class TestSharedOrder:
    """No decode order is stored: sc_decode walks ``decode_runs`` of the
    receiver's path on each call."""

    @pytest.fixture(scope="class")
    def spec(self):
        return shared_order_code()

    def test_code_has_pairs(self, spec):
        assert sum(len(spec.schedule.pairs_for_user(u)) for u in (1, 2)) == 4

    def test_orders_match_networkx(self, spec):
        for r, rec in enumerate(spec.receivers):
            g = decoding_dag(spec.schedule, spec.paths[r], rec.decode_set)
            runs = decode_runs(spec.schedule, spec.paths[r], rec.decode_set)
            assert (expand_runs(runs)
                    == list(nx.lexicographical_topological_sort(g)))

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


def mixed_code():
    recs = [ReceiverSpec(ParityLinkedErasureMAC(1, (0.25,)), (1,)),
            ReceiverSpec(ParityLinkedErasureMAC(2, (0.0, 0.5)), (1, 2))]
    return build_code(recs, (0.6, 0.6), N=64, k=1,
                      delta_good=1 - 1e-3, delta_bad=0.1, split_eps=0.1)


def three_user_code():
    recs = [ReceiverSpec(ParityLinkedErasureMAC(3, (0.25,)), (1, 2, 3)),
            ReceiverSpec(ParityLinkedErasureMAC(3, (0.0, 0.5)), (1, 2, 3))]
    return build_code(recs, (0.9, 0.9, 0.9), N=128, k=3,
                      delta_good=1 - 1e-3, delta_bad=0.1, split_eps=0.1)


def p2p_code():
    recs = [ReceiverSpec(ParityLinkedErasureMAC(1, t), (1,))
            for t in ((0.5,), (0.0, 1.0))]
    return build_code(recs, (0.5,), N=128, k=3,
                      delta_good=1 - 1e-3, delta_bad=0.1, split_eps=0.1)


def replay_failure_plan(spec, r, order):
    """A receiver's failure plan found by walking a decode order of
    ``(block, slot)`` nodes as sc_decode does, as sorted lists.

    Only the first slot to reach a tree bit decides it, and it can fail
    only if it holds an information bit of its user and is not an XOR
    slot.  A promoted slot whose XOR partner is already decided never
    fails.
    """
    nb = spec.schedule.total_blocks
    ds = spec.receivers[r].decode_set
    slot_var, occ = [], {}
    for lu in spec.paths[r].user_sequence:
        u = ds[lu - 1]
        occ[u] = occ.get(u, 0) + 1
        slot_var.append((u, occ[u]))
    xor_pair, promoted = {}, {}
    for u in ds:
        for p in spec.schedule.pairs_for_user(u):
            xor_pair[u, p.block_a, p.index_a] = p
            promoted[u, p.block_b, p.index_b] = p
    info = {u: set(spec.info_sets[u]) for u in ds}
    decided = set()
    single, pairs = [], []
    for b, s in order:
        u, i = slot_var[s]
        if (b, i) in decided:
            continue
        decided.add((b, i))
        if (u, b, i) in xor_pair or (b, i) not in info[u]:
            continue
        bit = (i - 1) * nb + b
        pair = promoted.get((u, b, i))
        if pair is None:
            single.append(bit)
        elif (pair.block_a, pair.index_a) not in decided:
            pairs.append((bit, (pair.index_a - 1) * nb + pair.block_a))
    return sorted(single), sorted(pairs)


class TestFailurePlan:
    """The failure plan flags exactly the trials sc_decode gets wrong."""

    CODES = {
        "promoted": lambda: shared_order_code(k=2),
        "k3": shared_order_code,
        "three-users-k3": three_user_code,
        "mixed-decode-sets": mixed_code,
    }
    ORDER_CODES = dict(CODES, readme=lambda: two_user_compound(N=256, k=3),
                       p2p=p2p_code)

    @pytest.mark.parametrize("code", sorted(ORDER_CODES))
    def test_plan_matches_replay_in_any_order(self, code):
        # The plan is read off the path; a walk over ``decode_runs`` and
        # one over a highest-block-first topological order must find it.
        spec = self.ORDER_CODES[code]()
        for r, rec in enumerate(spec.receivers):
            plan = failure_plan(spec, r)
            want = (sorted(plan.single.tolist()),
                    sorted(map(tuple, plan.pairs.tolist())))
            g = decoding_dag(spec.schedule, spec.paths[r], rec.decode_set)
            high_first = list(nx.lexicographical_topological_sort(
                g, key=lambda n: (-n[0], n[1])))
            runs = decode_runs(spec.schedule, spec.paths[r], rec.decode_set)
            for order in (expand_runs(runs), high_first):
                assert replay_failure_plan(spec, r, order) == want

    def test_promoted_entries_present(self):
        spec = self.CODES["promoted"]()
        assert any(len(failure_plan(spec, r).pairs) for r in range(2))

    @pytest.mark.parametrize("regime", ["channel", "uniform"])
    @pytest.mark.parametrize("code", sorted(CODES))
    def test_flags_match_sc_decode(self, code, regime):
        spec = self.CODES[code]()
        trials = 256
        rng = np.random.default_rng(99)
        msgs = {u: rng.integers(0, 2, (trials, len(spec.info_sets[u])),
                                dtype=np.int8)
                for u in range(1, spec.num_users + 1)}
        cw, _ = encode(spec, msgs)
        rates = []
        for r, rec in enumerate(spec.receivers):
            out = transmit(spec, r, cw, rng)
            shape = out["anchor"].shape
            if regime == "channel":
                # each leaf is erased once more with probability u * eps,
                # u ~ U(0, 2) per trial: about half of the trials fail
                erased = (out["anchor"] == 2) | (rng.random(shape) < (
                    rng.uniform(0, 2.0, (trials, 1, 1))
                    * rec.mac.leaf_eps(spec.N)))
            else:
                # each leaf is erased with probability p ~ U(0, 0.3) per
                # trial, whatever the channel.  This also erases the
                # leaves that a (0.0, 0.5) tile never erases, which is
                # where its receiver's promoted slots can fail.
                erased = rng.random(shape) < rng.uniform(0, 0.3,
                                                         (trials, 1, 1))
            out["anchor"] = np.where(erased, 2, cw[rec.decode_set[0]]
                                     ).astype(np.int8)
            est, fail = sc_decode(spec, r, out)
            bad = fail.copy()
            for u in rec.decode_set:
                bad |= (est[u] != msgs[u]).any(axis=-1)
            rates.append(bad.mean())

            plan = failure_plan(spec, r)
            erased = erased.transpose(2, 1, 0)
            flags = plan.failed(bec_tree_erasures(erased))
            np.testing.assert_array_equal(flags, bad)
            packed = np.packbits(erased, axis=-1)
            np.testing.assert_array_equal(
                np.unpackbits(plan.failed(bec_tree_erasures(packed)),
                              count=trials).astype(bool), bad)
        if regime == "channel":
            assert all(0.2 < x < 0.8 for x in rates)
        else:
            assert max(rates) > 0.5


class TestGoldenCounts:
    """simulate's counts, recorded with the decoder that encoded,
    transmitted and decoded every chunk; they pin the RNG stream."""

    @pytest.fixture(scope="class")
    def specs(self):
        recs = [ReceiverSpec(ParityLinkedErasureMAC(2, (0.5,)), (1, 2)),
                ReceiverSpec(ParityLinkedErasureMAC(2, (0.0, 1.0)), (1, 2))]
        cli = build_code(recs, (0.75, 0.75), N=64, k=1, split_eps=0.1)
        return {"shared-order": shared_order_code(), "cli": cli}

    @pytest.mark.parametrize("code,trials,seed,chunk,expected", [
        ("shared-order", 1000, 0, 256, [2, 2]),
        ("shared-order", 1000, 1, 300, [3, 0]),
        ("shared-order", 777, 2, 1000, [1, 1]),
        ("shared-order", 4000, 5, 512, [6, 3]),
        ("shared-order", 3000, 6, 700, [2, 5]),
        ("cli", 300, 11, 64, [6, 0]),
        ("cli", 1000, 3, 250, [26, 0]),
        ("cli", 5, 4, 2, [0, 0]),
        ("cli", 2000, 8, 2048, [43, 0]),
        ("cli", 1500, 9, 100, [44, 0]),
    ])
    def test_counts(self, specs, code, trials, seed, chunk, expected):
        errors, n = simulate(specs[code], trials, seed=seed, chunk=chunk)
        assert n == trials
        assert errors == [{1: e, 2: e} for e in expected]


def reference_counts(spec, trials, seed, chunk):
    """simulate's counts by the draw chain it replaced: each chunk draws
    its messages, then each receiver's erasures, packed by packbits."""
    plans = [failure_plan(spec, r) for r in range(len(spec.receivers))]
    counts = [0] * len(spec.receivers)
    for ci, t0 in enumerate(range(0, trials, chunk)):
        t = min(chunk, trials - t0)
        rng = np.random.Generator(np.random.Philox(key=[seed, ci]))
        for u in range(1, spec.num_users + 1):
            rng.integers(0, 2, size=(t, len(spec.info_sets[u])),
                         dtype=np.int8)
        for r, rec in enumerate(spec.receivers):
            erased = rng.random((t, spec.schedule.total_blocks, spec.N)) < (
                rec.mac.leaf_eps(spec.N))
            packed = np.packbits(erased, axis=0).transpose(2, 1, 0)
            fail = plans[r].failed(bec_tree_erasures(packed))
            counts[r] += int(np.unpackbits(fail).sum())
    return counts


def noisier(spec, factor):
    """The same code on channels whose erasure probabilities are scaled."""
    return dataclasses.replace(spec, receivers=[
        ReceiverSpec(ParityLinkedErasureMAC(
            rec.mac.num_users,
            tuple(min(1.0, e * factor) for e in rec.mac.eps_tile)),
            rec.decode_set)
        for rec in spec.receivers])


class TestDrawChain:
    """simulate skips the message draws and packs trials its own way; its
    counts stay those of the chain that drew every message."""

    @pytest.mark.parametrize("lengths", [
        (0,), (1,), (3532,), (5, 0), (0, 0), (52, 90), (3, 8, 13),
        (880, 0, 517),
    ])
    @pytest.mark.parametrize("t", [1, 2, 5, 7, 8, 300, 2048])
    def test_skip_matches_drawn_messages(self, t, lengths):
        drawn = np.random.Philox(key=[7, 3])
        rng = np.random.Generator(drawn)
        for k in lengths:
            rng.integers(0, 2, size=(t, k), dtype=np.int8)
        skipped = _skip_messages(np.random.Philox(key=[7, 3]), t, lengths)
        assert np.array_equal(skipped.random_raw(16), drawn.random_raw(16)), (
            f"numpy {np.__version__} no longer takes ceil(n / 4) uint32 per "
            "integers(0, 2, n, dtype=int8) call: codec._skip_messages must "
            "follow its draw path, or simulate's counts change")

    CODES = {
        "shared-order": shared_order_code,
        "mixed-decode-sets": mixed_code,
        "shared-order-noisier": lambda: noisier(shared_order_code(), 1.5),
        "mixed-decode-sets-noisier": lambda: noisier(mixed_code(), 1.5),
    }

    @pytest.fixture(scope="class")
    def specs(self):
        return {name: make() for name, make in self.CODES.items()}

    @pytest.mark.parametrize("chunk", [1, 7, 8, 9, 255, 256, 257, 300])
    @pytest.mark.parametrize("code", sorted(CODES))
    def test_counts_match_reference_chain(self, specs, code, chunk):
        spec = specs[code]
        trials = 600
        errors, _ = simulate(spec, trials, seed=13, chunk=chunk)
        want = reference_counts(spec, trials, 13, chunk)
        assert errors == [{u: c for u in rec.decode_set}
                          for rec, c in zip(spec.receivers, want)]
        if code.endswith("noisier"):
            assert all(0 < c < trials for c in want)


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
