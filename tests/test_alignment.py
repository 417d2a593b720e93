import json
import random

import networkx as nx
import numpy as np
import pytest

from polarnet.alignment import (
    ScheduleError,
    build_schedule,
    combined_eps,
    dag_to_dot,
    decoding_dag,
    decoding_order,
    incompatible_fraction,
    pair_indices,
    raw_schedule,
    validate_successive_decodability,
)
from polarnet.chains import MonotonePath
from polarnet.polar import IndexClassification


def make_classification(II, III, N=8):
    return IndexClassification(
        good_y=set(II), bad_y=set(III), good_z=set(III), bad_z=set(II),
        thresholds=(0.99, 0.01),
    )


class TestPairing:
    def test_pairing_counts(self):
        pairs, lII, lIII = pair_indices({1, 4, 6}, {2, 7})
        assert len(pairs) == 2
        assert lII == [6] and lIII == []

    def test_empty_sets(self):
        pairs, lII, lIII = pair_indices(set(), set())
        assert pairs == [] and lII == [] and lIII == []


class TestSchedule:
    def test_round_trip_bijection(self):
        from polarnet.alignment import align_decode, align_encode

        s = build_schedule({1: make_classification({3}, {6})}, 3,
                           mode="k-user-sequential", blocklength=8)
        rng = random.Random(1)
        for _ in range(20):
            blocks = [[rng.randint(0, 1) for _ in range(8)]
                      for _ in range(s.total_blocks)]
            assert align_decode(align_encode(blocks, s, 1), s, 1) == blocks

    def test_duplicated_pairs_counted(self):
        s = build_schedule({1: make_classification({3}, {6})}, 3,
                           mode="k-user-sequential", blocklength=8)
        # levels pair 1, 2, 4 new structures; copies double earlier ones
        assert len(s.pairs_for_user(1)) == 7

    def test_json_export(self):
        s = build_schedule({1: make_classification({3}, {6})}, 2,
                           mode="k-user-sequential", blocklength=8)
        obj = json.loads(s.to_json())
        assert obj["total_blocks"] == 4
        assert len(obj["levels"]) == 2

    def test_compound_mode_needs_two_users(self):
        with pytest.raises(ScheduleError):
            build_schedule({1: make_classification({1}, {2})}, 1,
                           mode="compound-two-user", blocklength=4)


class TestFractions:
    def test_empty_sets_zero(self):
        s = build_schedule({1: make_classification(set(), set())}, 3,
                           mode="k-user-sequential", blocklength=8)
        assert all(f == 0 for f in incompatible_fraction(s, 1))

    def test_leftover_arithmetic(self):
        s = build_schedule({1: make_classification({2, 4, 6}, {5, 7})}, 4,
                           mode="k-user-sequential", blocklength=8)
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
            mode="compound-two-user", blocklength=8)
        path = MonotonePath.parse("1^8 2^8")
        validate_successive_decodability(s, path)
        order = decoding_order(s, path)
        g = decoding_dag(s, path)
        seen = set()
        for node in order:
            assert all(p in seen for p in g.predecessors(node))
            seen.add(node)

    def test_crossed_pairing_rejected(self):
        # two pairs crossing between the same blocks force a cycle
        s = raw_schedule(1, 4, [(1, [(0, 2, 1, 3), (1, 1, 0, 4)])])
        path = MonotonePath((1, 1, 1, 1), 1)
        with pytest.raises(ScheduleError) as ei:
            validate_successive_decodability(s, path)
        assert ei.value.cycle

    def test_dot_export(self):
        s = build_schedule({1: make_classification({3}, {6})}, 1,
                           mode="k-user-sequential", blocklength=8)
        text = dag_to_dot(decoding_dag(s, MonotonePath((1,) * 8, 1)))
        assert text.startswith("digraph") and "->" in text


class TestCombinedEps:
    def test_minus_plus_applied(self):
        s = build_schedule({1: make_classification({3}, {6})}, 1,
                           mode="k-user-sequential", blocklength=8)
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
            mode="compound-two-user", blocklength=8)
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

    def test_built_pairs_follow_the_layout(self):
        s = build_schedule({1: make_classification({3}, {6})}, 3,
                           mode="k-user-sequential", blocklength=8)
        xor = [e for e in s.layouts[1] if e[0] == "xor"]
        assert [((p.block_a, p.index_a), (p.block_b, p.index_b))
                for p in s.pairs_for_user(1)] == [e[1:] for e in xor]
