"""The three benchmark workloads.

Each workload has a set-up step, a list of operations per round, and
checks that run outside the timed region.  Library calls go through
module attributes (``codec.build_code`` rather than an imported name)
so that the tracer's wrappers see them.  Every input is derived from
the workload seed and the operation index.
"""

from __future__ import annotations

import itertools

import numpy as np

from polarnet import chains, codec, regions
from polarnet.channels import DiscreteChannel, InputDistribution
from polarnet.erasure import ParityLinkedErasureMAC

import oracles

TARGET = (0.85, 0.85)
DELTA_GOOD = 1 - 1e-4
DELTA_BAD = 0.1
SPLIT_EPS = 0.05
# eps tiles of the two receivers; both decode users {1, 2}
SIM_TILES = ((0.25,), (0.0, 0.5))
SWEEP_TILES = (((0.25,), (0.0, 0.5)), ((0.3,), (0.0, 0.6)))
# The 3-user adder splits run at N = 8, the largest blocklength either
# exact evaluator reaches.  A 3-user split makes two tightness
# decisions, each loose within 1/N, so the tolerance is 2/N; over 400
# seeded targets the largest gap was 0.109.
ADDER_N = 8
ADDER_EPS = 2 / ADDER_N
# The union bound is nearly tight for the sim-aligned code (failure
# rates 0.00256 and 0.00205 over 261,376 trials, bounds 0.00266 and
# 0.00215), so a 95 % interval's lower end would exceed it in a few per
# cent of runs of a correct codec.  z = 4 gives a one-sided false alarm
# of 3e-5 per run at the bound.
WILSON_Z = 4.0


def _rng(seed: int, *tags: int) -> np.random.Generator:
    return np.random.default_rng(np.random.SeedSequence([seed, *tags]))


def _receivers(tiles):
    return [codec.ReceiverSpec(ParityLinkedErasureMAC(2, tuple(t)), (1, 2))
            for t in tiles]


def _build(tiles, N, k):
    return codec.build_code(_receivers(tiles), TARGET, N=N, k=k,
                            delta_good=DELTA_GOOD, delta_bad=DELTA_BAD,
                            split_eps=SPLIT_EPS)


def _adder_face():
    adder3 = DiscreteChannel.binary_adder(3)
    p = InputDistribution.uniform((2, 2, 2))
    sum_rate, corners = regions.dominant_face(regions.mac_region(adder3, p))
    return adder3, sum_rate, np.array(corners)


def _check_adder_split(res, target, problems):
    h_y = oracles.adder_output_entropy(3)
    if abs(sum(res.rates) - h_y) > 1e-9:
        problems.append(f"split rates sum {sum(res.rates)!r} != H(Y) {h_y!r}")
    for r, t in zip(res.rates, target):
        if abs(r - t) >= ADDER_EPS:
            problems.append(f"split rate {r!r} not within {ADDER_EPS} of {t!r}")


class Workload:
    setups = 3

    def __init__(self, seed: int):
        self.seed = seed

    def setup(self) -> None:
        raise NotImplementedError

    def check_setup(self) -> list:
        return []

    def round(self, r: int) -> list:
        """Operation arguments of round ``r``."""
        return [r]

    def op(self, arg):
        raise NotImplementedError

    def check(self, arg, out) -> list:
        return []

    def finish(self) -> list:
        return []

    def summary(self) -> dict:
        """Figures of the run worth keeping beside the metrics."""
        return {}


class SimAligned(Workload):
    """Block-error campaign, as ``polarnet simulate`` runs it."""

    name = "sim-aligned"
    setups = 5
    trials = 2048  # per op, one simulate chunk of the CLI's default size
    batch = 256    # trials in the end-of-run decode identity check

    def __init__(self, seed):
        super().__init__(seed)
        self.failures = None   # per receiver, summed over ops
        self.trials_run = 0

    def setup(self):
        self.spec = _build(SIM_TILES, 1024, 2)

    def op(self, i):
        op_seed = int(np.random.SeedSequence([self.seed, i])
                      .generate_state(1, np.uint64)[0])
        return codec.simulate(self.spec, self.trials, seed=op_seed,
                              chunk=self.trials, threads=1)

    def check(self, i, out):
        errors, n = out
        if n != self.trials or len(errors) != len(self.spec.receivers):
            return [f"simulate returned {n} trials for {len(errors)} receivers"]
        problems = []
        fails = []
        for r, per in enumerate(errors):
            if sorted(per) != list(self.spec.receivers[r].decode_set):
                problems.append(f"receiver {r}: users {sorted(per)}")
            if any(not 0 <= c <= n for c in per.values()):
                problems.append(f"receiver {r}: counts {per} out of range")
            fails.append(max(per.values(), default=0))
        if not problems:
            self.failures = fails if self.failures is None else [
                a + b for a, b in zip(self.failures, fails)]
            self.trials_run += n
        return problems

    def union_bounds(self):
        """Per receiver: sum of erasure probabilities of the info bits."""
        spec = self.spec
        nb = spec.schedule.total_blocks
        out = []
        for rec, path in zip(spec.receivers, spec.paths):
            idx_eps = oracles.path_index_eps(rec.mac.eps_tile, path.user_sequence,
                                             rec.decode_set, spec.N)
            total = 0.0
            for u in rec.decode_set:
                pairs = [(p.block_a, p.index_a, p.block_b, p.index_b)
                         for p in spec.schedule.pairs_for_user(u)]
                eps = oracles.aligned_var_eps(idx_eps[u], pairs, nb)
                total += sum(eps[v] for v in spec.info_sets[u])
            out.append(total)
        return out

    def summary(self):
        return {"trials": self.trials_run, "block_failures": self.failures,
                "union_bounds": self.union_bounds()}

    def finish(self):
        problems = []
        if self.failures is not None:
            for r, (f, bound) in enumerate(zip(self.failures, self.union_bounds())):
                low = oracles.wilson_low(f, self.trials_run, WILSON_Z)
                if low > bound:
                    problems.append(
                        f"receiver {r}: {f}/{self.trials_run} block failures, "
                        f"Wilson low {low:.5f} > union bound {bound:.5f}")
        # SC on the BEC leaves bits erased but never decides them wrongly,
        # whatever the erasure pattern.  At the code's operating point a
        # batch has about one failed trial, so each trial's leaves are
        # erased once more with probability u * eps (u ~ U(0, 1) per
        # trial): about half the trials fail and the rest must decode.
        rng = _rng(self.seed, 1 << 20)
        spec = self.spec
        msgs = {u: rng.integers(0, 2, (self.batch, len(spec.info_sets[u])),
                                dtype=np.int8)
                for u in range(1, spec.num_users + 1)}
        cw, _ = codec.encode(spec, msgs)
        for r, rec in enumerate(spec.receivers):
            out = codec.transmit(spec, r, cw, rng)
            extra = rng.uniform(0, 1, (self.batch, 1, 1)) * rec.mac.leaf_eps(spec.N)
            out["anchor"] = np.where(rng.random(out["anchor"].shape) < extra,
                                     np.int8(2), out["anchor"])
            est, fail = codec.sc_decode(spec, r, out)
            for u in spec.receivers[r].decode_set:
                wrong = (est[u] != msgs[u]).any(axis=-1) & ~fail
                if wrong.any():
                    problems.append(f"receiver {r} user {u}: {int(wrong.sum())} "
                                    "unflagged trials decoded wrongly")
        return problems


class DesignSweep(Workload):
    """Code construction over a grid, as ``polarnet build`` runs it."""

    name = "design-sweep"
    # (N, k) with N * 2**k = 8192: every op builds the same total length,
    # so ops cost about the same and the median op is one of many alike.
    # On a grid of N in {1024, 4096} and k in 1..3 the median fell
    # between single builds of different sizes and spread 0.12 over ten
    # seeds, against 0.09 for ops_per_s.
    points = ((4096, 1), (2048, 2), (1024, 3))

    def setup(self):
        self.base_gap = {}
        for t, tiles in enumerate(SWEEP_TILES):
            for N, _ in self.points:
                rep = codec.theorem1_check(_build(tiles, N, 0), SPLIT_EPS)
                self.base_gap[t, N] = {u: d["gap_ii"]
                                       for u, d in rep.per_user.items()}

    def round(self, r):
        return [(t, N, k) for t in range(len(SWEEP_TILES)) for N, k in self.points]

    def op(self, point):
        t, N, k = point
        spec = _build(SWEEP_TILES[t], N, k)
        report = codec.theorem1_check(spec, SPLIT_EPS)
        doc = spec.to_json()
        return spec, report, len(doc)

    def check(self, point, out):
        t, N, k = point
        spec, report, _ = out
        problems = []
        everything = {(b, i) for b in range(1 << k) for i in range(1, N + 1)}
        for u in (1, 2):
            info, frozen = spec.info_sets[u], spec.frozen_sets[u]
            if (len(info) + len(frozen) != len(everything)
                    or set(info) | set(frozen) != everything):
                problems.append(f"{point} user {u}: info/frozen do not partition")
            gap = report.per_user[u]["gap_ii"]
            if gap > self.base_gap[t, N][u] + 1e-12:
                problems.append(f"{point} user {u}: gap_ii {gap!r} above k=0 "
                                f"{self.base_gap[t, N][u]!r}")
        for r, (rec, path) in enumerate(zip(spec.receivers, spec.paths)):
            tile = rec.mac.eps_tile
            slack = (2 - float(np.mean(tile))) - sum(TARGET)
            idx_eps = oracles.path_index_eps(tile, path.user_sequence,
                                             rec.decode_set, N)
            for u in rec.decode_set:
                rate = float(np.sum(1 - idx_eps[u])) / N
                want = TARGET[u - 1] + slack / 2
                if abs(rate - want) >= SPLIT_EPS:
                    problems.append(f"{point} receiver {r} user {u}: path rate "
                                    f"{rate!r}, target {want!r}")
        return problems


def _bsc_pair_channel(p_x: float, p_w: float) -> DiscreteChannel:
    """Y = (X through BSC(p_x), W through BSC(p_w)), output index 2*y_x + y_w."""
    kernel = np.zeros((4, 4))
    for x, w in itertools.product(range(2), repeat=2):
        for yx, yw in itertools.product(range(2), repeat=2):
            kernel[2 * x + w, 2 * yx + yw] = ((p_x if yx != x else 1 - p_x)
                                              * (p_w if yw != w else 1 - p_w))
    return DiscreteChannel((2, 2), 4, kernel)


class RateRegions(Workload):
    """Region computations, as ``polarnet region`` runs them, plus a split."""

    name = "rate-regions"
    setups = 5
    grid = 33

    def setup(self):
        self.si = regions.strong_interference_check(
            _bsc_pair_channel(0.2, 0.05), _bsc_pair_channel(0.05, 0.2),
            self.grid)
        k1 = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
        k2 = np.array([[0.9, 0.1], [0.1, 0.9], [0.1, 0.9], [0.9, 0.1]])
        self.sp = regions.superposition_regions(
            DiscreteChannel((2, 2), 2, k1), DiscreteChannel((2, 2), 2, k2),
            InputDistribution.product([[0.5, 0.5], [0.7, 0.3]]))
        self.adder3, self.sum_rate, self.corners = _adder_face()

    def check_setup(self):
        problems = []
        # Y sees W more clearly and X less clearly than Z does: the BSC
        # with the smaller crossover carries more information for every
        # input law, so both strong-interference conditions hold.
        if self.si[0] is not True or self.si[1] is not None:
            problems.append(f"strong interference reported {self.si[:2]}")
        if sorted(self.sp) != [1, 2, 3, 4]:
            problems.append(f"superposition cases {sorted(self.sp)}")
        h_y = oracles.adder_output_entropy(3)
        if abs(self.sum_rate - h_y) > 1e-9:
            problems.append(f"adder sum rate {self.sum_rate!r} != H(Y) {h_y!r}")
        return problems

    def round(self, r):
        # The shape (dimension d, rows m, eliminated coordinates) sets
        # most of a projection's cost, so every round runs the same 15
        # shapes: each d in 3..5 with m in d+1..d+5, the eliminated count
        # cycling through 1..d-2.  The coefficients come from the seed.
        return [(r, d, m, 1 + m % (d - 2)) for d in (3, 4, 5)
                for m in range(d + 1, d + 6)]

    def op(self, arg):
        r, d, m, nelim = arg
        rng = _rng(self.seed, r, d, m)
        # projection of a random bounded polytope around x0
        A = rng.normal(size=(m, d))
        x0 = rng.uniform(0.1, 1.0, size=d)
        b = A @ x0 + rng.uniform(0.1, 1.0, size=m)
        A = np.vstack([A, np.eye(d), -np.eye(d)])
        b = np.concatenate([b, x0 + 3, 3 - x0])
        rows = [(tuple(A[j]), float(b[j])) for j in range(len(b))]
        elim = sorted(int(e) for e in rng.choice(d, size=nelim, replace=False))
        proj = regions.fourier_motzkin(rows, elim, dim=d)
        # Han-Kobayashi region of a deterministic binary-input channel
        f = {(x1, x2): tuple(int(y) for y in rng.integers(0, 3, 2))
             for x1, x2 in itertools.product(range(2), repeat=2)}
        kernel = np.zeros((4, 9))
        for (x1, x2), (y1, y2) in f.items():
            kernel[2 * x1 + x2, 3 * y1 + y2] = 1.0
        maps = tuple(rng.integers(0, 2, (2, 2)).tolist() for _ in range(2))
        marginals = [[1 - a, a] for a in rng.uniform(0.2, 0.8, 4)]
        hk = regions.hk_region(DiscreteChannel((2, 2), 9, kernel),
                               InputDistribution.product(marginals), maps, (3, 3))
        # K-user split for a dominant-face target of the 3-user adder
        target = tuple(float(t) for t in
                       rng.dirichlet(np.ones(len(self.corners))) @ self.corners)
        split = chains.find_k_user_split(self.adder3, target, ADDER_EPS,
                                         ADDER_N, N_min=ADDER_N)
        return dict(A=A, b=b, x0=x0, elim=elim, proj=proj, f=f, maps=maps,
                    marginals=marginals, hk=hk, target=target, split=split,
                    directions=rng.normal(size=(25, d)))

    def check(self, i, o):
        problems = []
        keep = [j for j in range(len(o["x0"])) if j not in o["elim"]]
        full = oracles.halfspace_vertices(o["A"], o["b"], o["x0"])[:, keep]
        pa = np.array([[co[j] for j in keep] for co, _ in o["proj"]])
        pb = np.array([float(bb) for _, bb in o["proj"]])
        got = oracles.halfspace_vertices(pa, pb, o["x0"][keep])
        for u in o["directions"][:, :len(keep)]:
            s_got, s_want = float(np.max(got @ u)), float(np.max(full @ u))
            if abs(s_got - s_want) > 1e-6 * max(1.0, abs(s_want)):
                problems.append(f"projection support {s_got!r} != {s_want!r}")
                break
        rows = (oracles.hk_aux_bounds(o["f"], o["maps"], o["marginals"], 0, (0, 1, 2))
                + oracles.hk_aux_bounds(o["f"], o["maps"], o["marginals"], 1, (1, 2, 3)))
        A4 = np.array([r[0] for r in rows])
        b4 = np.array([r[1] for r in rows])
        verts = np.array(o["hk"].vertices, float)
        for theta in np.linspace(0, 2 * np.pi, 16, endpoint=False):
            a, c = np.cos(theta), np.sin(theta)
            want = oracles.lp_support(A4, b4, [a, a, c, c])
            have = float(np.max(verts @ [a, c]))
            if abs(have - want) > 1e-7:
                problems.append(f"HK support at {theta:.3f}: {have!r} != {want!r}")
                break
        _check_adder_split(o["split"], o["target"], problems)
        return problems


WORKLOADS = {w.name: w for w in (SimAligned, DesignSweep, RateRegions)}
