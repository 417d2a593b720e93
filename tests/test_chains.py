import contextlib
import hashlib
import io
import itertools
import json
import os
import pathlib
import re
import subprocess
import sys

import numpy as np
import pytest
from hypothesis import given, settings, strategies as st

from polarnet.chains import (
    SIZE_CAP_LOG2,
    MonotonePath,
    NotFoundError,
    PreconditionError,
    check_size,
    find_k_user_split,
    find_two_user_split,
    make_evaluator,
    path_rates,
    sum_capacity,
    two_user_path,
)
from polarnet.channels import DiscreteChannel
from polarnet.cli import main
from polarnet.erasure import ParityLinkedErasureMAC
import polarnet
from polarnet.exact import Adder3Evaluator, BruteForceEvaluator


ADDER2 = DiscreteChannel.binary_adder(2)
ADDER3 = DiscreteChannel.binary_adder(3)
OR_MAC = DiscreteChannel.from_function((2, 2), lambda a, b: a | b)


class TestMonotonePath:
    def test_serialize_round_trip(self):
        p = MonotonePath(((1, 2), (2, 4), (1, 2)), 2)
        assert p.serialize() == "1^2 2^4 1^2"
        assert MonotonePath.parse(p.serialize()) == p

    def test_invalid_counts_rejected(self):
        with pytest.raises(ValueError):
            MonotonePath(((1, 2), (2, 1)), 2)

    def test_negative_run_rejected(self):
        with pytest.raises(ValueError, match="non-negative"):
            MonotonePath(((1, 3), (1, -1), (2, 2)), 2)

    def test_scaling(self):
        p = two_user_path(1, 4)
        q = p.scaled(2)
        assert q.blocklength == 8
        assert q.serialize() == "1^2 2^8 1^6"

    @settings(max_examples=100, deadline=None, derandomize=True)
    @given(st.integers(1, 4).flatmap(lambda K: st.integers(1, 8).flatmap(
        lambda N: st.permutations([u for u in range(1, K + 1)
                                   for _ in range(N)]))))
    def test_positions_invert_user_sequence(self, seq):
        p = MonotonePath(tuple((u, 1) for u in seq), max(seq))
        pos = p.positions
        assert pos.shape == (p.num_users, p.blocklength)
        assert not pos.flags.writeable
        assert sorted(pos.ravel().tolist()) == list(range(len(seq)))
        for j, row in enumerate(pos.tolist(), start=1):
            assert all(seq[s] == j for s in row)
            assert row == sorted(row)


def _expanded_path(seq, K):
    """(sequence, runs, positions) of a path as MonotonePath built it from
    its expanded K·N sequence, raising the ValueErrors it raised."""
    seq = tuple(int(u) for u in seq)
    counts = {}
    for u in seq:
        counts[u] = counts.get(u, 0) + 1
    if set(counts) != set(range(1, K + 1)):
        raise ValueError("user ids must be exactly 1..K")
    if len(set(counts.values())) != 1:
        raise ValueError("every user must appear equally often")
    runs = []
    for u in seq:
        if runs and runs[-1][0] == u:
            runs[-1] = (u, runs[-1][1] + 1)
        else:
            runs.append((u, 1))
    pos = np.argsort(np.asarray(seq), kind="stable").reshape(K, -1)
    return seq, tuple(runs), pos


def _expanded_parse(text):
    seq = []
    for token in text.split():
        m = re.fullmatch(r"(\d+)\^(\d+)", token)
        if not m:
            raise ValueError(f"bad run token {token!r}")
        seq.extend([int(m.group(1))] * int(m.group(2)))
    return _expanded_path(seq, max(seq))


def _assert_same_outcome(expanded, build):
    """``build()`` gives the path that ``expanded()`` describes, or raises
    an exception of the same type."""
    try:
        seq, runs, pos = expanded()
    except Exception as e:
        with pytest.raises(Exception) as got:
            build()
        assert got.type is type(e)
        return
    p = build()
    assert (p.user_sequence, p.runs) == (seq, runs)
    assert np.array_equal(p.positions, pos)


@st.composite
def valid_run_lists(draw):
    """(runs, K) of a valid path, cut into unit runs, so that adjacent
    runs of one user repeat, with zero-length runs put in between."""
    K, N = draw(st.integers(1, 4)), draw(st.integers(1, 6))
    seq = draw(st.permutations([u for u in range(1, K + 1) for _ in range(N)]))
    runs = []
    for u in seq:
        runs.append((u, 1))
        if draw(st.booleans()):
            runs.append((draw(st.integers(0, K + 1)), 0))
    return runs, K


RUN_LISTS = st.one_of(
    st.tuples(st.lists(st.tuples(st.integers(0, 5), st.integers(0, 4)),
                       max_size=8), st.integers(0, 4)),
    valid_run_lists())
TOKENS = st.one_of(
    st.builds("{}^{}".format, st.integers(0, 4), st.integers(0, 4)),
    st.sampled_from(["x", "1^", "^2", "1^-1", "-1^2", "1^2^3", "+1^2",
                     "1.0^2", "1^2.0", "١^٢"]),
)
PATH_TEXT = st.one_of(
    st.lists(st.tuples(TOKENS, st.sampled_from([" ", "  ", "\t"])),
             max_size=6).map(lambda ts: "".join(t + sep for t, sep in ts)),
    valid_run_lists().map(
        lambda case: " ".join(f"{u}^{r}" for u, r in case[0])))


class TestRunsMatchExpandedPath:
    """A path built from runs equals the one built from its expanded
    sequence: same sequence, runs and slot map, or the same error."""

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(RUN_LISTS)
    def test_constructor(self, case):
        runs, K = case
        _assert_same_outcome(
            lambda: _expanded_path([u for u, r in runs for _ in range(r)], K),
            lambda: MonotonePath(tuple(runs), K))

    @settings(max_examples=300, deadline=None, derandomize=True)
    @given(PATH_TEXT)
    def test_parse(self, text):
        _assert_same_outcome(lambda: _expanded_parse(text),
                             lambda: MonotonePath.parse(text))

    @settings(max_examples=60, deadline=None, derandomize=True)
    @given(PATH_TEXT)
    def test_parse_exit_code(self, tmp_path_factory, text):
        """The CLI exits 2 on a path string exactly when the expanded
        parse raised."""
        try:
            _expanded_parse(text)
            rejected = False
        except ValueError:
            rejected = True
        tmp = tmp_path_factory.mktemp("path")
        cfg = tmp / "c.json"
        cfg.write_text(json.dumps({
            "mac": {"type": "parity-linked", "users": 2, "eps_tile": [0.5]},
            "path": text}))
        with contextlib.redirect_stdout(io.StringIO()), \
                contextlib.redirect_stderr(io.StringIO()):
            rc = main(["analyze", "--config", str(cfg),
                       "--out-dir", str(tmp / "out")])
        assert (rc == 2) == rejected
        assert rc in (0, 2, 3)


class TestPathRates:
    def test_size_cap(self):
        check_size("at the cap", SIZE_CAP_LOG2)
        check_size("at the cap", SIZE_CAP_LOG2 - 3, 8)
        for args in ((SIZE_CAP_LOG2 + 1,), (SIZE_CAP_LOG2 - 3, 9), (10**18,)):
            with pytest.raises(PreconditionError):
                check_size("past the cap", *args)
        big = two_user_path(0, 1).scaled(2 ** (SIZE_CAP_LOG2 + 1))
        with pytest.raises(PreconditionError, match="size cap"):
            path_rates(ParityLinkedErasureMAC(2, (0.5,)), big)

    def test_corner_point(self):
        # path (V^N, U^N): user 1 decoded last -> (I(U;Y,V), I(V;Y))
        prof = path_rates(ADDER2, two_user_path(0, 8))
        assert prof.rate_tuple[0] == pytest.approx(1.0, abs=1e-9)
        assert prof.rate_tuple[1] == pytest.approx(0.5, abs=1e-9)

    def test_telescoping_all_paths_same_total(self):
        for i in (0, 2, 5, 8):
            prof = path_rates(ADDER2, two_user_path(i, 8))
            assert prof.sum_rate == pytest.approx(1.5, abs=1e-9)

    def test_parity_linked_closed_form_matches_brute_force(self):
        mac = ParityLinkedErasureMAC(2, (0.5,))
        path = two_user_path(3, 8)
        fast = path_rates(mac, path)
        ev = BruteForceEvaluator(ADDER2, 8)
        slow = path_rates(ADDER2, path, evaluator=ev)
        np.testing.assert_allclose(fast.per_index_mi, slow.per_index_mi,
                                   atol=1e-9)

    def test_sum_capacity(self):
        assert sum_capacity(ADDER2) == pytest.approx(1.5, abs=1e-12)
        assert sum_capacity(DiscreteChannel.binary_adder(3), N=4) == \
            pytest.approx(np.log2(8) - 1.5 * np.log2(3) + np.log2(3) * 3 / 4
                          if False else 1.811278124459133, abs=1e-9)


class TestTwoUserSplit:
    def test_finds_target_on_face(self):
        path = find_two_user_split(ADDER2, (0.75, 0.75), 0.05, 256)
        prof = path_rates(ADDER2, path)
        assert abs(prof.rate_tuple[0] - 0.75) < 0.05
        assert abs(prof.rate_tuple[1] - 0.75) < 0.05

    def test_off_face_target_rejected(self):
        with pytest.raises(PreconditionError):
            find_two_user_split(ADDER2, (0.4, 0.4), 0.05, 64)

    def test_unreachable_eps_raises_with_gap(self):
        with pytest.raises(NotFoundError) as ei:
            find_two_user_split(ADDER2, (0.75, 0.75), 1e-9, 8)
        assert ei.value.best_gap is not None

    def test_search_limit_is_reported(self):
        # brute force enumerates at most 24 input bits, so N = 16 is out
        # of reach for a 2-user MAC: the error names the largest N tried
        target = path_rates(OR_MAC, two_user_path(3, 8)).rate_tuple
        with pytest.raises(NotFoundError) as ei:
            find_two_user_split(OR_MAC, (target[0] + 0.03, target[1] - 0.03),
                                1e-6, N_max=16)
        msg = str(ei.value)
        assert "up to N=8;" in msg and "N=16" in msg
        assert ei.value.best_gap is not None


class TestKUserSplit:
    def test_adder3_vertex_target(self):
        from polarnet.channels import InputDistribution
        from polarnet.regions import dominant_face, mac_region

        _, corners = dominant_face(mac_region(
            DiscreteChannel.binary_adder(3),
            InputDistribution.uniform((2, 2, 2))))
        target = corners[0]
        res = find_k_user_split(DiscreteChannel.binary_adder(3), target,
                                0.1, 8, N_min=8)
        assert res.max_gap < 0.1

    def test_decisions_recorded(self):
        target = (0.55, 0.65, 0.611278124459133)
        res = find_k_user_split(DiscreteChannel.binary_adder(3), target,
                                0.1, 8, N_min=8)
        assert res.path.blocklength == 8
        assert res.decisions, "expected at least one tightness decision"
        for d in res.decisions:
            assert abs(d.lhs - d.rhs) <= 1.0 / 8 + 1e-9

    def test_search_limit_is_reported(self):
        # Adder3Evaluator stops at N = 8 and brute force cannot reach
        # N = 16, so the error names N = 8, not the requested N_max
        adder3 = DiscreteChannel.binary_adder(3)
        p = np.array([1, 3, 3, 1]) / 8
        h_y = float(-(p * np.log2(p)).sum())
        target = (0.7, 0.6, h_y - 1.3)
        with pytest.raises(NotFoundError) as ei:
            find_k_user_split(adder3, target, 0.05, N_max=512)
        msg = str(ei.value)
        assert "up to N=8;" in msg and "N=16" in msg and "512" not in msg


class TestEnumerationEvaluators:
    @pytest.mark.parametrize("make", [lambda: Adder3Evaluator(4),
                                      lambda: BruteForceEvaluator(ADDER2, 4)],
                             ids=["adder3", "brute-force"])
    def test_queries_share_scratch_without_leaking(self, make):
        # every query reuses the evaluator's work arrays: interleaved
        # queries must give exactly what fresh evaluators give, and each
        # sweep entry exactly the matching single query
        ev = make()
        K, N = ev.K, ev.N
        queries = [(0,) * K, (N,) * K, (1, 3) + (2,) * (K - 2), (N, 0) + (0,) * (K - 2)]
        for lens in queries:
            before = ev.cond_entropy(lens)
            sweep = ev.sweep_entropies(lens, K)
            assert ev.cond_entropy(lens) == before == make().cond_entropy(lens)
            for a in range(lens[-1], N + 1):
                assert sweep[a] == ev.cond_entropy(lens[:-1] + (a,))

    def test_entropies_do_not_depend_on_blas_threads(self):
        # a BLAS dot product rounds differently with 1 and 2 threads;
        # the entropies must come out bit-identical either way
        code = (
            "import hashlib, numpy as np\n"
            "from polarnet.exact import Adder3Evaluator\n"
            "ev = Adder3Evaluator(8)\n"
            "h = hashlib.sha256()\n"
            "rng = np.random.default_rng(0)\n"
            "for lens in rng.integers(0, 9, size=(64, 3)).tolist():\n"
            "    h.update(np.float64(ev.cond_entropy(lens)).tobytes())\n"
            "print(h.hexdigest())\n")
        src = str(pathlib.Path(polarnet.__file__).parent.parent)
        digests = set()
        for threads in ("1", "2"):
            env = dict(os.environ, PYTHONPATH=src,
                       OPENBLAS_NUM_THREADS=threads, OMP_NUM_THREADS=threads)
            digests.add(subprocess.run(
                [sys.executable, "-c", code], env=env, check=True,
                capture_output=True, text=True).stdout.strip())
        assert len(digests) == 1


def _outcome(run):
    """What a split search returns, or the type and best gap of its error."""
    try:
        res = run()
    except (NotFoundError, PreconditionError) as e:
        return type(e).__name__, getattr(e, "best_gap", None)
    if isinstance(res, MonotonePath):
        return res.serialize()
    return (res.path.serialize(), res.rates, res.targets, res.projected,
            [tuple(vars(d).values()) for d in res.decisions])


class TestChainDigests:
    """sha256 digests of split searches, rate profiles and evaluator
    queries, recorded before both split finders shared one search loop.
    Error messages are left out: only types and best gaps are pinned."""

    def test_digests(self):
        rng = np.random.default_rng(12)
        d = {name: hashlib.sha256() for name in
             ("adder3", "parity-linked", "two-user", "path_rates", "evaluators")}

        def put(name, value):
            d[name].update(repr(value).encode())

        corners = np.array([
            path_rates(ADDER3, MonotonePath(tuple((u, 1) for u in p),
                                            3)).rate_tuple
            for p in itertools.permutations((1, 2, 3))])
        for j in range(20):
            target = tuple(rng.dirichlet(np.ones(6)) @ corners)
            eps = (0.25, 0.1, 0.02)[j % 3]
            put("adder3", _outcome(lambda: find_k_user_split(
                ADDER3, target, eps, 8, N_min=8)))
        for tile in ((0.0, 1.0), (0.3, 0.6)):
            mac = ParityLinkedErasureMAC(3, tile)
            face = np.ones((3, 3)) - np.eye(3) * mac.mean_eps
            for eps in (0.1, 0.03, 0.005):
                target = tuple(rng.dirichlet(np.ones(3)) @ face)
                put("parity-linked", _outcome(lambda: find_k_user_split(
                    mac, target, eps, 32)))
        for mac, N_max in ((ADDER2, 64), (ParityLinkedErasureMAC(2, (0.0, 0.5)), 64),
                           (OR_MAC, 8)):
            lo = path_rates(mac, two_user_path(0, 8)).rate_tuple
            hi = path_rates(mac, two_user_path(8, 8)).rate_tuple
            for eps in (0.1, 0.03, 0.01, 1e-6):
                a = rng.uniform()
                target = tuple(a * x + (1 - a) * y for x, y in zip(lo, hi))
                put("two-user", _outcome(lambda: find_two_user_split(
                    mac, target, eps, N_max)))
            put("two-user", _outcome(lambda: find_two_user_split(
                mac, (0.3, 0.3), 0.05, N_max)))
        for mac, N, ev in ((ADDER2, 8, None),
                           (ParityLinkedErasureMAC(2, (0.0, 0.5)), 16, None),
                           (OR_MAC, 8, None),
                           (ADDER2, 8, BruteForceEvaluator(ADDER2, 8))):
            for i in (0, 3, N):
                prof = path_rates(mac, two_user_path(i, N), evaluator=ev)
                put("path_rates", (prof.per_index_mi, prof.rate_tuple, prof.mode))
        for _ in range(3):
            seq = tuple(int(u) for u in rng.permutation([1, 2, 3] * 4))
            prof = path_rates(ADDER3,
                              MonotonePath(tuple((u, 1) for u in seq), 3))
            put("path_rates", (prof.per_index_mi, prof.rate_tuple, prof.mode))
        for ev in (BruteForceEvaluator(ADDER2, 8), BruteForceEvaluator(ADDER3, 4),
                   Adder3Evaluator(4)):
            for lens in rng.integers(0, ev.N + 1, size=(12, ev.K)).tolist():
                put("evaluators", (ev.cond_entropy(lens),
                                   ev.sweep_entropies(lens, 1 + lens[0] % ev.K).tolist()))
        assert {name: h.hexdigest() for name, h in d.items()} == {
            "adder3":
                "a9928b54f81acdd1269a98c21c15caaaeb53168b334486b744975f0b42bb0b7b",
            "parity-linked":
                "7a8a343519c246269151a68d65fb8ce831eb5ee72c3a52d5012c4045c329dd4c",
            "two-user":
                "c354008de1af35d6a2f87b22b069c644a1efd197551431e45a8bcbbb33cceeb9",
            "path_rates":
                "0d024267a2907f4d5d0d2847b0d294558d2f76614678bae69bdf6ebf2fe81262",
            "evaluators":
                "3ac80fea32c396f8fdc626e78fcbccfce124eb45987461f7ed69ddfa3d877969",
        }
