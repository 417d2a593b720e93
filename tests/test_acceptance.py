"""End-to-end acceptance gate for the whole package."""

import itertools
import json
import time
from fractions import Fraction

import numpy as np
import pytest

from polarnet.alignment import (
    ScheduleError,
    build_schedule,
    incompatible_fraction,
    raw_schedule,
    validate_successive_decodability,
)
from polarnet.chains import MonotonePath, find_k_user_split, find_two_user_split
from polarnet.channels import (
    DiscreteChannel,
    InputDistribution,
    minus_combine,
    plus_combine,
    symmetric_capacity,
)
from polarnet.cli import wilson_interval
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
from polarnet.exact import BruteForceEvaluator, ParityLinkedEvaluator
from polarnet.polar import IndexClassification, synthesize_p2p
from polarnet.regions import (
    _vertex_enumeration,
    dominant_face,
    fourier_motzkin,
    hk_region,
    intersect,
    mac_region,
    superposition_case_constraints,
)


class TestCriterion1Conservation:
    @pytest.mark.parametrize("eps", [round(0.1 * i, 1) for i in range(1, 10)])
    def test_sum_rule_and_runtime(self, eps):
        n = 12
        start = time.perf_counter()
        stats = synthesize_p2p(DiscreteChannel.bec(eps), n)
        elapsed = time.perf_counter() - start
        total = sum(s.mi for s in stats)
        assert total == pytest.approx((1 << n) * (1 - eps), abs=1e-9)
        assert elapsed < 1.0


class TestCriterion2CombiningBounds:
    def test_thousand_random_pairs(self):
        rng = np.random.default_rng(2024)
        for _ in range(1000):
            ny = int(rng.integers(2, 4))
            kp = rng.random((2, ny)) + 1e-6
            kp /= kp.sum(axis=1, keepdims=True)
            kq = rng.random((2, ny)) + 1e-6
            kq /= kq.sum(axis=1, keepdims=True)
            p = DiscreteChannel((2,), ny, kp)
            q = DiscreteChannel((2,), ny, kq)
            ip, iq = symmetric_capacity(p), symmetric_capacity(q)
            im = symmetric_capacity(minus_combine(p, q))
            il = symmetric_capacity(plus_combine(p, q))
            assert im <= min(ip, iq) + 1e-10
            assert max(ip, iq) <= il + 1e-10
            assert im + il == pytest.approx(ip + iq, abs=1e-10)


class TestCriterion3TwoUserSweep:
    def test_sweep_and_twenty_targets(self):
        start = time.perf_counter()
        N = 256
        ev = ParityLinkedEvaluator(ParityLinkedErasureMAC(2, (0.5,)), N)
        h_u = ev.sweep_entropies((0, 0), 1)
        h_uv = ev.sweep_entropies((0, N), 1)
        r2 = (N - (h_uv - h_u)) / N
        srate = 2 - ev.cond_entropy((N, N)) / N
        r1 = srate - r2
        # along the sweep one rate moves by at most 1/N per step (the
        # first user's rate shrinks as its prefix moves ahead of V^N)
        steps = r1[:-1] - r1[1:]
        assert (steps >= -1e-12).all()
        assert (steps <= 1.0 / N + 1e-12).all()
        adder = DiscreteChannel.binary_adder(2)
        for lam in np.linspace(0.0, 1.0, 20):
            target = (0.5 + 0.5 * lam, 1.0 - 0.5 * lam)
            path = find_two_user_split(adder, target, 0.05, N)
            users = [u for u, _ in path.runs]
            assert users in ([1, 2, 1], [2, 1], [1, 2])
        assert time.perf_counter() - start < 30.0


class TestCriterion4ThreeUserRecursion:
    def test_ten_targets_with_oracle_validation(self):
        adder3 = DiscreteChannel.binary_adder(3)
        _, corners = dominant_face(
            mac_region(adder3, InputDistribution.uniform((2, 2, 2))))
        corners = np.array(corners)
        rng = np.random.default_rng(12345)
        weights = rng.dirichlet(np.ones(len(corners)), size=10)
        results = []
        for w in weights:
            target = tuple(float(t) for t in w @ corners)
            res = find_k_user_split(adder3, target, 0.1, 512, N_min=8)
            assert res.max_gap < 0.1
            results.append(res)
        # each tightness decision re-checked against the brute-force
        # enumeration oracle at the same blocklength
        N = results[0].path.blocklength
        assert N <= 16
        bf = BruteForceEvaluator(adder3, N)
        cache = {}

        def h(prefix):
            key = tuple(prefix)
            if key not in cache:
                cache[key] = bf.cond_entropy(key)
            return cache[key]

        for res in results:
            for d in res.decisions:
                ctx = list(d.context)
                ctx[d.lead - 1] = d.i0
                with_j = list(ctx)
                for u in d.subset:
                    with_j[u - 1] = N
                lhs_bf = (len(d.subset) * N - (h(with_j) - h(ctx))) / N
                assert lhs_bf == pytest.approx(d.lhs, abs=1e-6)
                assert abs(d.lhs - d.rhs) <= 1.0 / N + 1e-9


def _balanced_classification(II, III):
    return IndexClassification(
        good_y=set(II), bad_y=set(III), good_z=set(III), bad_z=set(II),
        thresholds=(0.99, 0.01),
    )


class TestCriterion5HalvingLaw:
    @pytest.mark.parametrize("m,n,N", [(1, 1, 8), (3, 2, 8), (8, 8, 16)])
    def test_exact_fractions(self, m, n, N):
        II = set(range(1, m + 1))
        III = set(range(m + 1, m + n + 1))
        s = build_schedule({1: _balanced_classification(II, III)}, 4,
                           blocklength=N)
        fr = incompatible_fraction(s, 1)
        expect = [Fraction(m + n, N)] + [
            Fraction(abs(m - n) * 2**t + 2 * min(m, n), N * 2**t)
            for t in range(1, 5)
        ]
        assert fr == expect
        if m == n:
            # balanced sets: the paper's clean geometric halving
            assert fr == [Fraction(m + n, N) / (1 << t) for t in range(5)]


class TestCriterion6SuccessiveDecodability:
    def test_improper_pairing_rejected_100_of_100(self):
        rng = np.random.default_rng(77)
        rejected = 0
        for _ in range(100):
            N = int(2 ** rng.integers(2, 6))
            # two crossing pairs between the same blocks always deadlock:
            # each pair's replaced slot precedes the other pair's promoted
            # slot in its own block
            a1 = int(rng.integers(1, N))
            b2 = int(rng.integers(a1, N + 1))
            a2 = int(rng.integers(1, N))
            b1 = int(rng.integers(a2, N + 1))
            s = raw_schedule(1, N, [(1, [(0, a1, 1, b1), (1, a2, 0, b2)])])
            path = MonotonePath(((1, N),), 1)
            with pytest.raises(ScheduleError) as ei:
                validate_successive_decodability(s, path)
            assert ei.value.cycle
            rejected += 1
        assert rejected == 100

    def test_emitted_schedules_acyclic(self):
        rng = np.random.default_rng(5)
        for _ in range(50):
            N = 16
            idx = list(rng.permutation(N) + 1)
            m = int(rng.integers(0, 5))
            n = int(rng.integers(0, 5))
            cls = {1: _balanced_classification(idx[:m], idx[m:m + n])}
            k = int(rng.integers(0, 4))
            s = build_schedule(cls, k, blocklength=N)
            validate_successive_decodability(s, MonotonePath(((1, N),), 1))


def _compound(tiles, target, N, k, **kw):
    recs = [ReceiverSpec(ParityLinkedErasureMAC(2, tuple(t)), (1, 2))
            for t in tiles]
    return build_code(recs, target, N=N, k=k, **kw)


class TestCriterion7CodecIdentityAndBer:
    def test_noiseless_exhaustive_small(self):
        spec = _compound([(0.0,), (0.0,)], (1.0, 1.0), N=8, k=0,
                         split_eps=0.1)
        n1 = len(spec.info_sets[1])
        n2 = len(spec.info_sets[2])
        allm = np.arange(1 << (n1 + n2), dtype=np.uint32)
        bits = ((allm[:, None] >> np.arange(n1 + n2)) & 1).astype(np.int8)
        msgs = {1: bits[:, :n1], 2: bits[:, n1:]}
        cw, _ = encode(spec, msgs)
        rng = np.random.default_rng(0)
        for r in range(2):
            est, fail = sc_decode(spec, r, transmit(spec, r, cw, rng))
            assert not fail.any()
            for u in (1, 2):
                np.testing.assert_array_equal(est[u], msgs[u])

    def test_noiseless_randomized_large(self):
        spec = _compound([(0.0,), (0.0,)], (1.0, 1.0), N=1024, k=2,
                         split_eps=0.1)
        rng = np.random.default_rng(1)
        msgs = {u: rng.integers(0, 2, (1000, len(spec.info_sets[u])),
                                dtype=np.int8) for u in (1, 2)}
        cw, _ = encode(spec, msgs)
        for r in range(2):
            est, fail = sc_decode(spec, r, transmit(spec, r, cw, rng))
            assert not fail.any()
            for u in (1, 2):
                np.testing.assert_array_equal(est[u], msgs[u])

    def test_erasure_instance_block_error(self):
        # mild-erasure compound instance, operated at 90% of the common
        # sum capacity (margin comes from a conservative good-threshold)
        spec = _compound([(0.05,), (0.0, 0.1)], (0.8775, 0.8775),
                         N=1024, k=2, delta_good=1 - 1e-5, split_eps=0.05)
        cap = 1.95
        assert sum(spec.achieved_rates.values()) >= 0.9 * cap
        errors, trials = simulate(spec, trials=10_000, seed=7)
        worst = max(max(per.values()) for per in errors)
        assert worst / trials < 1e-2

    def test_aligned_instance_block_error(self):
        # An instance whose code has alignment pairs, so the promoted
        # slots and their XOR partners take part in the failure plans.
        # Each receiver's failure rate stays under the union bound of
        # its information bits' erasure probabilities, which does not
        # depend on the plan; z = 4 makes a false alarm of a correct
        # codec rare.
        spec = _compound([(0.25,), (0.0, 0.5)], (0.85, 0.85), N=1024, k=2,
                         delta_good=1 - 1e-4, delta_bad=0.1)
        assert sum(len(spec.schedule.pairs_for_user(u)) for u in (1, 2)) == 10
        errors, trials = simulate(spec, trials=20_480, seed=7)
        for r, per in enumerate(errors):
            bound = sum(spec.var_eps[r][u][b, i - 1]
                        for u in per for b, i in spec.info_sets[u])
            assert wilson_interval(max(per.values()), trials, 4.0)[0] <= bound


class TestCriterion8GapTrend:
    def test_condition_ii_gap_monotone_in_k(self):
        gaps = {1: [], 2: []}
        for k in range(5):
            spec = _compound([(0.5,), (0.0, 1.0)], (0.75, 0.75), N=256,
                             k=k, split_eps=0.05)
            rep = theorem1_check(spec, eps=1.0)
            for u in (1, 2):
                gaps[u].append(rep.per_user[u]["gap_ii"])
        for u in (1, 2):
            for a, b in zip(gaps[u], gaps[u][1:]):
                assert b <= a + 1e-12
        # the instance genuinely has incompatible indices to align
        assert gaps[2][0] > gaps[2][-1]


class TestCriterion9ProjectionOracle:
    def test_random_systems_match_vertex_oracle(self):
        from scipy.spatial import ConvexHull

        rng = np.random.default_rng(42)
        for _ in range(200):
            d = int(rng.integers(3, 6))
            m = int(rng.integers(d + 1, d + 6))
            A = rng.normal(size=(m, d))
            x0 = rng.uniform(0.1, 1.0, size=d)
            b = A @ x0 + rng.uniform(0.1, 1.0, size=m)
            rows = [(tuple(A[i]), float(b[i])) for i in range(m)]
            for j in range(d):
                e = [0.0] * d
                e[j] = 1.0
                rows.append((tuple(e), float(x0[j] + 3)))
                e2 = [0.0] * d
                e2[j] = -1.0
                rows.append((tuple(e2), float(3 - x0[j])))
            nelim = int(rng.integers(1, d - 1))
            elim = sorted(rng.choice(d, size=nelim, replace=False))
            keep = [j for j in range(d) if j not in elim]
            proj = fourier_motzkin(rows, elim, dim=d)
            prows = [(tuple(r[0][j] for j in keep), r[1]) for r in proj]
            got = _vertex_enumeration(prows, len(keep), tol=1e-7)
            V = _vertex_enumeration(rows, d, tol=1e-7)
            pts = np.unique(np.round(
                [[v[j] for j in keep] for v in V], 7), axis=0)
            if len(keep) >= 2 and len(pts) > len(keep):
                hull = ConvexHull(pts, qhull_options="QJ Pp")
                want = {tuple(np.round(pts[i], 5)) for i in hull.vertices}
            else:
                want = {tuple(np.round(p, 5)) for p in pts}
            gotset = {tuple(np.round(v, 5)) for v in got}
            # same polytope: compare support functions over directions
            for _ in range(25):
                u = rng.normal(size=len(keep))
                s1 = max(float(np.dot(u, v)) for v in got)
                s2 = max(float(np.dot(u, p)) for p in pts)
                assert abs(s1 - s2) < 1e-6

    def test_hk_instance_matches_oracle(self):
        from scipy.spatial import ConvexHull

        from polarnet.regions import _derived_network, _receiver_marginal

        def joint(x1, x2):
            return (x1 + x2) * 2 + x2

        ker = np.zeros((4, 6))
        for x1 in range(2):
            for x2 in range(2):
                ker[x1 * 2 + x2, joint(x1, x2)] = 1.0
        ic = DiscreteChannel((2, 2), 6, ker)
        maps = ([[0, 1], [1, 0]], [[0, 1], [1, 0]])
        p4 = InputDistribution.product([[0.5, 0.5]] * 4)
        reg = hk_region(ic, p4, maps, (3, 2))
        net = _derived_network(ic, maps)
        y1 = _receiver_marginal(net, (3, 2), 0)
        y2 = _receiver_marginal(net, (3, 2), 1)
        both = intersect([mac_region(y1, p4, (0, 1, 2)),
                          mac_region(y2, p4, (1, 2, 3))])
        pts = np.array(sorted({(round(v[0] + v[1], 9), round(v[2] + v[3], 9))
                               for v in both.vertices()}))
        hull = ConvexHull(pts)
        oracle = sorted(map(tuple, pts[hull.vertices]))
        got = sorted(tuple(map(float, v)) for v in reg.vertices)
        assert got == pytest.approx(oracle, abs=1e-9)

    def test_superposition_case3_symbolic(self):
        k1 = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        k2 = np.array([[0.9, 0.1], [0.1, 0.9], [0.1, 0.9], [0.9, 0.1]])
        ch1 = DiscreteChannel((2, 2), 2, k1)
        ch2 = DiscreteChannel((2, 2), 2, k2)
        p = InputDistribution.product([[0.5, 0.5], [0.7, 0.3]])
        labels = [s for s, _ in superposition_case_constraints(ch1, ch2, p, 3)]
        assert labels == [
            "R1 <= I(V1;Y1)",
            "R1 <= I(V1;Y2,V2)",
            "R2 <= I(V2;Y2,V1)",
            "R1+R2 <= I(V1,V2;Y2)",
        ]


class TestCriterion10CliDeterminism:
    CONFIGS = {
        "analyze": {"channel": {"type": "bec", "epsilon": 0.5}, "n": 6},
        "region": {"task": "mac",
                   "channel": {"inputs": [2, 2], "outputs": 3,
                               "kernel": [[1, 0, 0], [0, 1, 0],
                                          [0, 1, 0], [0, 0, 1]]}},
        "build": {"receivers": [
            {"eps_tile": [0.5], "decode_set": [1, 2]},
            {"eps_tile": [0.0, 1.0], "decode_set": [1, 2]}],
            "target": [0.75, 0.75], "N": 64, "k": 1, "split_eps": 0.1},
        "simulate": {"receivers": [
            {"eps_tile": [0.5], "decode_set": [1, 2]},
            {"eps_tile": [0.0, 1.0], "decode_set": [1, 2]}],
            "target": [0.75, 0.75], "N": 64, "k": 1, "split_eps": 0.1,
            "trials": 300, "chunk": 64},
    }

    @pytest.mark.parametrize("command", sorted(CONFIGS))
    def test_byte_identical_across_threads(self, command, tmp_path):
        from polarnet.cli import main

        cfg = tmp_path / "cfg.json"
        cfg.write_text(json.dumps(self.CONFIGS[command]))
        snapshots = []
        for threads in (1, 4, 16):
            out = tmp_path / f"t{threads}"
            rc = main([command, "--config", str(cfg), "--seed", "11",
                       "--threads", str(threads), "--out-dir", str(out)])
            assert rc == 0
            files = sorted(f.name for f in out.iterdir())
            snapshots.append({f: (out / f).read_bytes() for f in files})
        assert snapshots[0] == snapshots[1] == snapshots[2]
