"""Region outputs pinned to the last bit.

The digests were recorded before ``_remove_redundant`` learned to
decide rows by certificates; a change to redundancy removal, vertex
enumeration or projection must reproduce them exactly.  The inputs are
Fourier-Motzkin projections of the rate-regions benchmark's random
polytopes, Han-Kobayashi regions (the test instance and seeded random
channels), superposition regions and intersections of MAC regions.

Run this file as a script to print the digests of the current code.
"""

import hashlib

import numpy as np
import pytest

from polarnet.channels import DiscreteChannel, InputDistribution
from polarnet.regions import (
    RatePolytope,
    fourier_motzkin,
    hk_region,
    intersect,
    mac_region,
    superposition_regions,
)


def _rng(*tags):
    return np.random.default_rng(np.random.SeedSequence(list(tags)))


def fm_outputs(seed):
    """One round of the benchmark's 15 projection shapes."""
    out = []
    for d in (3, 4, 5):
        for m in range(d + 1, d + 6):
            rng = _rng(seed, d, m)
            A = rng.normal(size=(m, d))
            x0 = rng.uniform(0.1, 1.0, size=d)
            b = A @ x0 + rng.uniform(0.1, 1.0, size=m)
            A = np.vstack([A, np.eye(d), -np.eye(d)])
            b = np.concatenate([b, x0 + 3, 3 - x0])
            rows = [(tuple(A[j]), float(b[j])) for j in range(len(b))]
            nelim = 1 + m % (d - 2)
            elim = sorted(int(e) for e in rng.choice(d, size=nelim, replace=False))
            out.append(repr(fourier_motzkin(rows, elim, dim=d)))
    return out


def _test_ic():
    ker = np.zeros((4, 6))
    for x1 in range(2):
        for x2 in range(2):
            ker[x1 * 2 + x2, (x1 + x2) * 2 + x2] = 1.0
    return DiscreteChannel((2, 2), 6, ker)


def hk_outputs(seed):
    """HK regions: the test instance, then seeded random channels.

    Seed 0 adds the test instance (uniform and skewed inputs); every
    seed adds eight deterministic channels {0,1}^2 -> {0,1,2}^2, as the
    benchmark draws them, and four noisy ones.
    """
    out = []
    maps = ([[0, 1], [1, 0]], [[0, 1], [1, 0]])
    if seed == 0:
        for marg in ([[0.5, 0.5]] * 4, [[0.3, 0.7], [0.6, 0.4], [0.5, 0.5],
                                        [0.8, 0.2]]):
            p = InputDistribution.product(marg)
            out.append(hk_region(_test_ic(), p, maps, (3, 2)).to_json())
    for i in range(12):
        rng = _rng(seed, 7, i)
        if i < 8:
            kernel = np.zeros((4, 9))
            for x in range(4):
                y1, y2 = rng.integers(0, 3, 2)
                kernel[x, 3 * y1 + y2] = 1.0
        else:
            kernel = rng.dirichlet(np.full(9, 0.5), size=4)
        rmaps = tuple(rng.integers(0, 2, (2, 2)).tolist() for _ in range(2))
        marg = [[1 - a, a] for a in rng.uniform(0.2, 0.8, 4)]
        out.append(hk_region(DiscreteChannel((2, 2), 9, kernel),
                             InputDistribution.product(marg), rmaps,
                             (3, 3)).to_json())
    return out


def _bsc_pair(eps1, eps2):
    def k(eps):
        return np.array([[[1 - eps, eps], [eps, 1 - eps]][v1 ^ v2]
                         for v1 in range(2) for v2 in range(2)])
    return DiscreteChannel((2, 2), 2, k(eps1)), DiscreteChannel((2, 2), 2, k(eps2))


def superposition_outputs():
    k1 = np.array([[1.0, 0.0], [0.0, 1.0], [0.0, 1.0], [1.0, 0.0]])
    k2 = np.array([[0.9, 0.1], [0.1, 0.9], [0.1, 0.9], [0.9, 0.1]])
    skew = InputDistribution.product([[0.5, 0.5], [0.7, 0.3]])
    cases = [
        (DiscreteChannel((2, 2), 2, k1), DiscreteChannel((2, 2), 2, k2), skew),
        (*_bsc_pair(0.0, 0.1), skew),
        (*_bsc_pair(0.1, 0.1), InputDistribution.uniform((2, 2))),
        (*_bsc_pair(0.0, 0.1), InputDistribution.product([[0.5, 0.5], [1.0, 0.0]])),
    ]
    for i in range(4):
        rng = _rng(5, i)
        ch1 = DiscreteChannel((2, 2), 3, rng.dirichlet(np.ones(3), size=4))
        ch2 = DiscreteChannel((2, 2), 3, rng.dirichlet(np.ones(3), size=4))
        marg = [[1 - a, a] for a in rng.uniform(0.1, 0.9, 2)]
        cases.append((ch1, ch2, InputDistribution.product(marg)))
    return [r.to_json() for ch1, ch2, p in cases
            for _, r in sorted(superposition_regions(ch1, ch2, p).items())]


def intersect_outputs():
    out = []
    rng = _rng(11)
    for _ in range(10):
        polys = []
        for _ in range(2):
            b = sorted(rng.uniform(0.2, 1.0, size=2))
            s = min(rng.uniform(0.5, 1.5), b[0] + b[1])
            polys.append(RatePolytope.from_subset_bounds(2, {
                frozenset({0}): b[0], frozenset({1}): b[1],
                frozenset({0, 1}): s}))
        out.append(intersect(polys).to_json())
    adder3 = mac_region(DiscreteChannel.binary_adder(3),
                        InputDistribution.uniform((2, 2, 2)))
    for i in range(4):
        rng = _rng(13, i)
        regs = [adder3]
        for _ in range(2):
            kernel = rng.dirichlet(np.ones(4), size=8)
            marg = [[1 - a, a] for a in rng.uniform(0.2, 0.8, 3)]
            regs.append(mac_region(DiscreteChannel((2, 2, 2), 4, kernel),
                                   InputDistribution.product(marg)))
        out.append(intersect(regs).to_json())
        out.append(intersect(regs[1:]).to_json())
    return out


CASES = {
    "fm-seed0": lambda: fm_outputs(0),
    "fm-seed1": lambda: fm_outputs(1),
    "fm-seed2": lambda: fm_outputs(2),
    "hk-seed0": lambda: hk_outputs(0),
    "hk-seed1": lambda: hk_outputs(1),
    "superposition": superposition_outputs,
    "intersect": intersect_outputs,
}


def digest(texts):
    h = hashlib.sha256()
    for t in texts:
        h.update(t.encode())
        h.update(b"\0")
    return h.hexdigest()


SHA256 = {
    "fm-seed0":
        "b51cc6f912088962107ba04e53a1b40cd3b3521e389559395bb1e30182ddb619",
    "fm-seed1":
        "6428fed2f23ab4ef2604e9f59a584b6362f9a4c15e9480a67ff6a78ecde96de2",
    "fm-seed2":
        "ae24198731c892bfe822b9614afd5966b159063f2d250a88f6a6be16470847b5",
    "hk-seed0":
        "c9b96c6cd87da8f13342b730d4e7398457c673682c02a030dcfe2566fdb29910",
    "hk-seed1":
        "da6f02ea7493820191e826a23ac955a4e6368cc2f1e301c77a56b0306f4a0ccc",
    "intersect":
        "c66c72fd4729d4b69325e32625d9e75e8eb240e59b12dead55d1357680b28145",
    "superposition":
        "5ccb60563a709edca1d5ec14a10099d7579f5eb23ac23a5ea00d50cef2361490",
}


@pytest.mark.parametrize("name", sorted(CASES))
def test_digest(name):
    assert digest(CASES[name]()) == SHA256[name]


if __name__ == "__main__":
    for name in sorted(CASES):
        print(f'    "{name}":\n        "{digest(CASES[name]())}",')
