"""Independent reference computations used by the output checks.

Nothing here calls into polarnet: each function recomputes a quantity
from its definition so that a check compares two separate derivations
rather than the program against a stored copy of its own output.
"""

from __future__ import annotations

import itertools
import math

import numpy as np
from scipy.optimize import linprog
from scipy.spatial import HalfspaceIntersection


def erasure_tree(leaf_eps) -> np.ndarray:
    """Bit-channel erasure probabilities of one polar tree.

    Index ``i`` is input bit ``u_{i+1}``; the left half of each level is
    the minus channel (erased unless both halves resolve) and the right
    half the plus channel (erased only if both halves are erased).
    """
    e = np.asarray(leaf_eps, dtype=float)
    if len(e) == 1:
        return e.copy()
    a, b = e[0::2], e[1::2]
    return np.concatenate([erasure_tree(a + b - a * b), erasure_tree(a * b)])


def path_index_eps(eps_tile, user_sequence, decode_set, N):
    """Per-user erasure probability of every index along a monotone path.

    On the parity-linked erasure MAC the receiver sees every cross
    parity cleanly, so the j-th bit of whichever user reaches anchor
    index j first goes through the anchor tree and every later user's
    j-th bit is free.  Returns {global user: array of N probabilities}.
    """
    tree = erasure_tree(np.tile(np.asarray(eps_tile, float), N // len(eps_tile)))
    out = {u: np.empty(N) for u in decode_set}
    seen = {u: 0 for u in decode_set}
    frontier = 0
    for lu in user_sequence:
        u = decode_set[lu - 1]
        seen[u] += 1
        j = seen[u]
        if j <= frontier:
            out[u][j - 1] = 0.0
        else:
            out[u][j - 1] = tree[j - 1]
            frontier = j
    return out


def aligned_var_eps(index_eps, pairs, total_blocks):
    """(block, index) -> erasure probability after XOR combining.

    ``pairs`` are (block_a, index_a, block_b, index_b): the XOR slot at
    (block_a, index_a) gets the minus value and the promoted slot at
    (block_b, index_b) the plus value of the two base probabilities.
    """
    eps = {(b, i): float(index_eps[i - 1]) for b in range(total_blocks)
           for i in range(1, len(index_eps) + 1)}
    for ba, ia, bb, ib in pairs:
        ea, eb = eps[(ba, ia)], eps[(bb, ib)]
        eps[(ba, ia)] = ea + eb - ea * eb
        eps[(bb, ib)] = ea * eb
    return eps


def _entropy_bits(p) -> float:
    p = np.asarray(p, float).ravel()
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


def hk_aux_bounds(f, maps, marginals, out_axis, decode):
    """Rows of the 4-D MAC region of one HK receiver, from the joint pmf.

    ``f[x1, x2]`` = (y1, y2) of a deterministic channel; the receiver
    on ``out_axis`` decodes auxiliaries ``decode`` and treats the other
    one as noise.  Bound of J: I(V_J; Y | V_{decode minus J}).
    """
    m1, m2 = maps
    ny = 1 + max(int(v[out_axis]) for v in f.values())
    joint = np.zeros((2, 2, 2, 2, ny))
    for v in itertools.product(range(2), repeat=4):
        x1, x2 = m1[v[0]][v[1]], m2[v[2]][v[3]]
        joint[v + (f[x1, x2][out_axis],)] = np.prod(
            [marginals[j][v[j]] for j in range(4)])

    def H(axes):
        drop = tuple(a for a in range(5) if a not in axes)
        return _entropy_bits(joint.sum(axis=drop))

    rows = []
    for r in range(1, len(decode) + 1):
        for J in itertools.combinations(decode, r):
            C = tuple(j for j in decode if j not in J)
            mi = H(C + (4,)) - H(C) - H(J + C + (4,)) + H(J + C)
            rows.append(([1.0 if j in J else 0.0 for j in range(4)], mi))
    return rows


def wilson_low(errors: int, trials: int, z: float) -> float:
    """Lower end of the Wilson score interval for a binomial rate."""
    p = errors / trials
    den = 1 + z * z / trials
    center = (p + z * z / (2 * trials)) / den
    half = z * math.sqrt(p * (1 - p) / trials + z * z / (4 * trials**2)) / den
    return max(0.0, center - half)


def adder_output_entropy(K: int) -> float:
    """H(Y) in bits for Y = X_1 + ... + X_K with uniform binary inputs."""
    probs = [math.comb(K, y) / 2**K for y in range(K + 1)]
    return -sum(p * math.log2(p) for p in probs)


def halfspace_vertices(A, b, interior) -> np.ndarray:
    """Vertices of {x : A x <= b} by qhull's halfspace intersection."""
    A = np.asarray(A, float)
    b = np.asarray(b, float)
    hs = HalfspaceIntersection(np.hstack([A, -b[:, None]]),
                               np.asarray(interior, float))
    return hs.intersections


def lp_support(A, b, direction, nonneg=True) -> float:
    """max direction . x over {x : A x <= b} (and x >= 0), by LP."""
    d = np.asarray(direction, float)
    bounds = [(0, None) if nonneg else (None, None)] * len(d)
    res = linprog(-d, A_ub=np.asarray(A, float), b_ub=np.asarray(b, float),
                  bounds=bounds, method="highs")
    if res.status != 0:
        raise ArithmeticError("support LP failed: " + res.message)
    return -res.fun
