import hashlib
import json
import random

import networkx as nx
import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polarnet.alignment import (
    ScheduleError,
    build_schedule,
    combined_eps,
    decode_runs,
    decoding_dag,
    expand_runs,
    incompatible_fraction,
    raw_schedule,
    validate_successive_decodability,
)
from polarnet.chains import MonotonePath
from polarnet.codec import ReceiverSpec, build_code
from polarnet.erasure import ParityLinkedErasureMAC
from polarnet.polar import IndexClassification


def make_classification(II, III, N=8):
    return IndexClassification(
        good_y=set(II), bad_y=set(III), good_z=set(III), bad_z=set(II),
        thresholds=(0.99, 0.01),
    )


class TestSchedule:
    def test_duplicated_pairs_counted(self):
        s = build_schedule({1: make_classification({3}, {6})}, 3,
                           blocklength=8)
        # levels pair 1, 2, 4 new structures; copies double earlier ones
        assert len(s.pairs_for_user(1)) == 7

    def test_json_export(self):
        s = build_schedule({1: make_classification({3}, {6})}, 2,
                           blocklength=8)
        obj = s.to_dict()
        assert obj["total_blocks"] == 4
        assert len(obj["levels"]) == 2


class TestFractions:
    def test_empty_sets_zero(self):
        s = build_schedule({1: make_classification(set(), set())}, 3,
                           blocklength=8)
        assert all(f == 0 for f in incompatible_fraction(s, 1))

    def test_leftover_arithmetic(self):
        s = build_schedule({1: make_classification({2, 4, 6}, {5, 7})}, 4,
                           blocklength=8)
        fr = incompatible_fraction(s, 1)
        # base (m + n)/N, then (|m - n| + 2 min / 2^t)/N
        from fractions import Fraction
        m, n, N = 3, 2, 8
        expect = [Fraction(m + n, N)] + [
            Fraction(abs(m - n) * 2**t + 2 * min(m, n), N * 2**t)
            for t in range(1, 5)
        ]
        assert fr == expect


class TestDecodability:
    def test_emitted_schedules_acyclic(self):
        s = build_schedule(
            {1: make_classification({2, 3}, {6, 7}),
             2: make_classification({1}, {8})}, 4,
            blocklength=8)
        path = MonotonePath.parse("1^8 2^8")
        validate_successive_decodability(s, path)
        order = expand_runs(decode_runs(s, path))
        g = decoding_dag(s, path)
        seen = set()
        for node in order:
            assert all(p in seen for p in g.predecessors(node))
            seen.add(node)

    def test_crossed_pairing_rejected(self):
        # two pairs crossing between the same blocks force a cycle
        s = raw_schedule(1, 4, [(1, [(0, 2, 1, 3), (1, 1, 0, 4)])])
        path = MonotonePath(((1, 4),), 1)
        with pytest.raises(ScheduleError) as ei:
            validate_successive_decodability(s, path)
        assert ei.value.cycle


class TestCombinedEps:
    def test_minus_plus_applied(self):
        s = build_schedule({1: make_classification({3}, {6})}, 1,
                           blocklength=8)
        eps = combined_eps(s, 1, np.full(8, 0.5))
        assert eps.shape == (2, 8)
        pair = s.pairs_for_user(1)[0]
        assert eps[pair.block_a, pair.index_a - 1] == pytest.approx(0.75)
        assert eps[pair.block_b, pair.index_b - 1] == pytest.approx(0.25)
        assert np.count_nonzero(eps == 0.5) == 14

    def test_matches_pair_by_pair_update(self):
        # each slot is in at most one pair of a user, so applying the
        # pairs at once equals applying them one after another
        s = build_schedule(
            {1: make_classification({2, 3}, {6, 7}),
             2: make_classification({1, 4}, {5, 8})}, 4,
            blocklength=8)
        base = np.random.default_rng(3).random(8)
        for u in (1, 2):
            slots = [(p.block_a, p.index_a) for p in s.pairs_for_user(u)]
            slots += [(p.block_b, p.index_b) for p in s.pairs_for_user(u)]
            assert len(slots) == len(set(slots))
            ref = np.tile(base, (s.total_blocks, 1))
            for p in s.pairs_for_user(u):
                ea = ref[p.block_a, p.index_a - 1]
                eb = ref[p.block_b, p.index_b - 1]
                ref[p.block_a, p.index_a - 1] = ea + eb - ea * eb
                ref[p.block_b, p.index_b - 1] = ea * eb
            np.testing.assert_array_equal(combined_eps(s, u, base), ref)

    def test_no_pairs_tiles_base(self):
        s = raw_schedule(2, 4, [(1, [(0, 2, 1, 3)])])
        base = np.array([0.1, 0.2, 0.3, 0.4])
        np.testing.assert_array_equal(combined_eps(s, 2, base),
                                      np.tile(base, (2, 1)))


class TestPairsForUser:
    def test_raw_schedule_collects_levels_per_user(self):
        s = raw_schedule(2, 4, [(1, [(0, 2, 1, 3)]), (2, [(0, 1, 2, 4)]),
                                (1, [(2, 2, 3, 3)])])
        assert [tuple(vars(p).values()) for p in s.pairs_for_user(1)] == [
            (0, 2, 1, 3), (2, 2, 3, 3)]
        assert len(s.pairs_for_user(2)) == 1
        assert s.pairs_for_user(3) == ()


def _random_classification(rng, N):
    """Disjoint random type-II/III sets of unequal size in 1..N."""
    while True:
        idx = list(range(1, N + 1))
        rng.shuffle(idx)
        m, n = rng.randint(0, N // 2), rng.randint(0, N // 2)
        if m != n:
            break
    II, III = frozenset(idx[:m]), frozenset(idx[m:m + n])
    return IndexClassification(good_y=II, bad_y=III, good_z=III, bad_z=II)


class TestScheduleDigests:
    """sha256 digests of 200 seeded schedules (K in {2, 3}, N <= 32,
    k <= 5, so one user is realigned up to three times), recorded before
    ``build_schedule`` kept only the surviving incompatible slots."""

    def test_digests(self):
        rng = random.Random(11)
        d = {name: hashlib.sha256()
             for name in ("to_dict", "incompatible_after", "pairs", "decode")}
        for _ in range(200):
            K, N = rng.choice((2, 3)), rng.choice((4, 8, 16, 32))
            k = rng.randint(0, 5)
            cls = {u: _random_classification(rng, N) for u in range(1, K + 1)}
            s = build_schedule(cls, k, N)
            # a random receiver order: its runs or its dependency cycle
            seq = [(u, 1) for u in range(1, K + 1) for _ in range(N)]
            rng.shuffle(seq)
            try:
                out = decode_runs(s, MonotonePath(tuple(seq), K))
            except ScheduleError as e:
                out = (str(e), e.cycle)
            d["to_dict"].update(
                json.dumps(s.to_dict(), sort_keys=True).encode())
            d["incompatible_after"].update(repr(
                [sorted(lvl.incompatible_after.items())
                 for lvl in s.levels]).encode())
            d["pairs"].update(repr(
                [[tuple(vars(p).values()) for p in s.pairs_for_user(u)]
                 for u in range(1, K + 1)]).encode())
            d["decode"].update(repr(out).encode())
        assert {name: h.hexdigest() for name, h in d.items()} == {
            "to_dict":
                "808e25480d6f1c80692512cc80551b02629a43dbff0bc3ae2a3fd040d3a0186d",
            "incompatible_after":
                "2e92910f04899cc882a5babb8bf6c8640659470fc373e70d9f845a6d8caaeb70",
            "pairs":
                "9054e9d0ffa6da764a54fb2a79354066830a5721914ebb0d39cd730f3fac0b69",
            "decode":
                "687d94434e42d64d7944ae17a7bc4888115eb5d4218d0006dfbab496d98c377a",
        }


@st.composite
def small_raw_schedules(draw):
    """A raw schedule of 1-2 users, N <= 16 and k <= 3 with random pairs,
    and a random monotone path over its users."""
    K = draw(st.integers(1, 2))
    N = 1 << draw(st.integers(0, 4))
    blocks = 1 << draw(st.integers(0, 3))
    pair = st.tuples(st.integers(0, blocks - 1), st.integers(1, N),
                     st.integers(0, blocks - 1), st.integers(1, N))
    levels = [(draw(st.integers(1, K)), draw(st.lists(pair, max_size=4)))
              for _ in range(blocks.bit_length() - 1)]
    seq = draw(st.permutations([u for u in range(1, K + 1) for _ in range(N)]))
    return (raw_schedule(K, N, levels),
            MonotonePath(tuple((u, 1) for u in seq), K))


class TestDecodeRuns:
    @settings(max_examples=200, deadline=None)
    @given(small_raw_schedules())
    def test_matches_networkx(self, case):
        s, path = case
        g = decoding_dag(s, path)
        if nx.is_directed_acyclic_graph(g):
            runs = decode_runs(s, path)
            assert all(start < stop for _, start, stop in runs)
            # maximal: a block never continues in the next run
            assert all(not (a[0] == b[0] and a[2] == b[1])
                       for a, b in zip(runs, runs[1:]))
            assert [(b, t) for b, start, stop in runs
                    for t in range(start, stop)] == list(
                        nx.lexicographical_topological_sort(g))
        else:
            with pytest.raises(ScheduleError) as ei:
                decode_runs(s, path)
            cycle = ei.value.cycle
            assert len(set(cycle)) == len(cycle)
            assert all(g.has_edge(a, b)
                       for a, b in zip(cycle, cycle[1:] + cycle[:1]))


class TestCycleReport:
    """The message and cycle of a ScheduleError, pinned before decode
    orders became runs."""

    def test_crossed_pairing(self):
        s = raw_schedule(1, 4, [(1, [(0, 2, 1, 3), (1, 1, 0, 4)])])
        with pytest.raises(ScheduleError) as ei:
            validate_successive_decodability(s, MonotonePath(((1, 4),), 1))
        assert str(ei.value) == (
            "combining induces a circular decoding dependency through 6 "
            "slots: (0, 2) -> (0, 3) -> (1, 0) -> (1, 1) -> (1, 2) -> (0, 1)")
        assert ei.value.cycle == [(0, 2), (0, 3), (1, 0), (1, 1), (1, 2),
                                  (0, 1)]

    def test_readme_build_at_512(self):
        recs = [ReceiverSpec(ParityLinkedErasureMAC(2, (0.5,)), (1, 2)),
                ReceiverSpec(ParityLinkedErasureMAC(2, (0.0, 1.0)), (1, 2))]
        with pytest.raises(ScheduleError) as ei:
            build_code(recs, (0.75, 0.75), N=512, k=2, split_eps=0.1)
        assert str(ei.value) == (
            "combining induces a circular decoding dependency through 701 "
            "slots: (0, 128) -> (0, 129) -> (0, 130) -> (0, 131) -> "
            "(0, 132) -> (0, 133) -> (0, 134) -> (0, 135) -> ...")
        cycle = ei.value.cycle
        assert len(cycle) == 701
        assert hashlib.sha256(repr(cycle).encode()).hexdigest() == (
            "b8d0a14da08261002b5e2e218f0e6b7e72e1007c4c881235720dd939e10f63cb")
