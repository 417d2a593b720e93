"""Exact erasure-channel machinery behind the polar pipeline.

Everything in this module is scalar/vector probability arithmetic that is
exact for erasure-type channels: the one-step polar pair

    eps_minus = e1 + e2 - e1*e2        (resolved only if both resolve)
    eps_plus  = e1 * e2                (resolved unless both erased)

its n-level recursion (including position-dependent leaf erasure
probabilities), and the parity-linked erasure MAC family used for exact
multiple-access computations at arbitrary blocklengths.  The recursion
is written once, as the level loop :func:`_butterfly`; the erasure
probabilities, the sample-path erasures of genie-aided SC and the polar
transform are each one call to it.

The parity-linked family: K binary senders, the receiver observes every
cross parity ``x_j xor x_1`` cleanly plus the anchor stream ``x_1``
through a per-position erasure pattern.  Every sender's polar transform
is then informationally equivalent to the anchor's, which makes all
monotone chain-rule quantities exact closed forms.
"""

from __future__ import annotations

from dataclasses import dataclass

import numpy as np


def minus_eps(e1, e2):
    """Erasure probability of the polar 'minus' pairing."""
    e1 = np.asarray(e1, dtype=float)
    e2 = np.asarray(e2, dtype=float)
    return e1 + e2 - e1 * e2


def plus_eps(e1, e2):
    """Erasure probability of the polar 'plus' pairing."""
    return np.asarray(e1, dtype=float) * np.asarray(e2, dtype=float)


def _butterfly(x, minus, plus):
    """The polar minus/plus recursion along axis 0, one level at a time.

    Leaves ``(2j, 2j + 1)`` are combined into ``minus(a, b)`` and
    ``plus(a, b)``, and the minus half and the plus half are each
    recursed on, minus first; row ``i`` of the result is the channel of
    input bit ``u_{i+1}``.  Axes after the first are batch axes.  The
    length of axis 0 must be a power of two, at least 1.
    """
    x = np.asarray(x)
    N = x.shape[0] if x.ndim else 0
    if N < 1 or N & (N - 1):
        raise ValueError(f"length {N} is not a power of two")
    rest = x.shape[1:]
    out = x.reshape((1, N) + rest)
    while out.shape[1] > 1:
        a, b = out[:, 0::2], out[:, 1::2]
        # subtree g becomes subtrees 2g (minus) and 2g + 1 (plus)
        out = np.concatenate((minus(a, b)[:, None], plus(a, b)[:, None]),
                             axis=1).reshape((-1, out.shape[1] // 2) + rest)
    return out.reshape((N,) + rest) if N > 1 else x.copy()


def bec_bit_channel_eps(epsilon: float, n: int) -> np.ndarray:
    """Exact erasure probabilities of the N = 2^n synthesized bit-channels.

    Index 0 is the all-minus channel (the worst for eps < 0.5 input);
    ordering matches the encoder in :mod:`polarnet.polar` so that entry
    ``i`` is the channel of input bit ``u_{i+1}``.
    """
    if n < 0:
        raise ValueError(f"level count must be non-negative, got {n}")
    return _butterfly(np.full(1 << n, float(epsilon)), minus_eps, plus_eps)


def bec_tree_bit_channel_eps(leaf_eps: np.ndarray) -> np.ndarray:
    """Bit-channel erasure probabilities for per-position leaf erasures.

    ``leaf_eps[t]`` is the erasure probability of codeword position ``t``.
    Exact for independent erasures: subtree messages depend on disjoint
    leaf sets, so the minus/plus recursion composes without correlation.
    """
    return _butterfly(np.asarray(leaf_eps, dtype=float), minus_eps, plus_eps)


def bec_tree_erasures(erased: np.ndarray) -> np.ndarray:
    """Bit-channel erasures of one erasure pattern, under genie-aided SC.

    ``erased`` holds the N codeword positions on its first axis and any
    batch shape after it, as bools or as unsigned integers whose bits
    are independent trials.  Row ``i`` of the result is erased when bit
    ``u_{i+1}`` stays unknown although every earlier bit is known, in the
    index order of :func:`sc_tree_generator`: a pair's XOR is lost if
    either half is (``a | b``), its repetition only if both are
    (``a & b``).  This is the sample-path form of
    :func:`bec_tree_bit_channel_eps`.
    """
    return _butterfly(erased, np.bitwise_or, np.bitwise_and)


@dataclass(frozen=True)
class ParityLinkedErasureMAC:
    """K-user MAC with clean cross parities and an erased anchor stream.

    ``eps_tile`` is tiled along the block to give the per-position
    erasure probability of the anchor observation; its length must
    divide every blocklength used.  ``num_users == 1`` degenerates to a
    point-to-point channel with a (possibly position-dependent) erasure
    pattern, which is how the compound point-to-point examples are
    modeled.
    """

    num_users: int
    eps_tile: tuple[float, ...]

    def __post_init__(self):
        if self.num_users < 1:
            raise ValueError("need at least one user")
        tile = tuple(float(e) for e in self.eps_tile)
        if not tile or any(not 0.0 <= e <= 1.0 for e in tile):
            raise ValueError("erasure tile entries must lie in [0, 1]")
        if len(tile) & (len(tile) - 1):
            raise ValueError("tile length must be a power of two")
        object.__setattr__(self, "eps_tile", tile)

    # -- exact information quantities -----------------------------------

    def leaf_eps(self, N: int) -> np.ndarray:
        if N % len(self.eps_tile):
            raise ValueError(f"blocklength {N} incompatible with tile")
        return np.tile(np.asarray(self.eps_tile), N // len(self.eps_tile))

    def tree_eps(self, N: int) -> np.ndarray:
        """Anchor bit-channel erasure probabilities at blocklength N."""
        return bec_tree_bit_channel_eps(self.leaf_eps(N))

    @property
    def mean_eps(self) -> float:
        return float(np.mean(self.eps_tile))

    def sum_capacity(self) -> float:
        """I(X_1..X_K; Y) per channel use, uniform independent inputs."""
        return self.num_users - self.mean_eps

    def subset_bound(self, subset_size: int) -> float:
        """R(J) bound of the uniform-input MAC region for |J| = subset_size."""
        if subset_size == self.num_users:
            return self.sum_capacity()
        return float(subset_size)

    def path_mi_profile(self, path) -> np.ndarray:
        """Per-index I(S_i; Y^N | S^{i-1}) along a monotone path.

        ``path`` is a :class:`~polarnet.chains.MonotonePath` over this
        MAC's users.  The i-th path symbol belonging to user u's k-th
        occurrence has mutual information 1 if any user already passed
        occurrence k (the anchor bit is implied through the parities),
        and otherwise the anchor bit-channel value 1 - eps_k.
        """
        N = path.blocklength
        eps = self.tree_eps(N)
        # k[i]: which occurrence of its user the i-th symbol is
        k = np.empty(path.positions.size, dtype=np.intp)
        k[path.positions] = np.arange(1, N + 1)
        # highest anchor index decoded before symbol i
        frontier = np.maximum.accumulate(np.concatenate([[0], k[:-1]]))
        return np.where(k <= frontier, 1.0, 1.0 - eps[k - 1])


def two_user_adder_equivalent() -> ParityLinkedErasureMAC:
    """The binary adder MAC Y = X + W, in parity-linked form.

    The adder output is equivalent to (X xor W, X seen when the parity
    is even), and every monotone chain-rule quantity matches the model
    with an independent BEC(1/2) anchor observation exactly.
    """
    return ParityLinkedErasureMAC(2, (0.5,))


# -- batched erasure successive cancellation ----------------------------

UNKNOWN = np.int8(2)


def sym_xor(a, b):
    """XOR over the erasure symbol alphabet {0, 1, 2=unknown}."""
    out = np.bitwise_xor(a, b)
    unknown = (a > 1) | (b > 1)
    return np.where(unknown, UNKNOWN, out).astype(np.int8)


def sym_g(a, b, ua):
    """Variable-node (plus) combination given the decoded left bit."""
    left = sym_xor(a, ua)
    return np.where(b <= 1, b, left).astype(np.int8)


def polar_transform_bits(u: np.ndarray) -> np.ndarray:
    """Batched polar transform along the last axis (self-inverse).

    Being its own inverse, ``T(x)`` is ``T(x[0::2] ^ x[1::2])`` followed
    by ``T(x[1::2])``: the butterfly with the XOR of each pair as minus
    and its second bit as plus.
    """
    u = np.asarray(u)
    batch = tuple(range(u.ndim - 1))
    x = _butterfly(u.transpose((-1,) + batch), np.bitwise_xor,
                   lambda a, b: b)
    return np.ascontiguousarray(x.transpose(tuple(a + 1 for a in batch) + (0,)))


def sc_tree_generator(leaf_msgs: np.ndarray, offset: int = 0):
    """Batched erasure SC as a generator over bit decisions.

    ``leaf_msgs`` has shape (..., N) with symbols in {0, 1, 2=unknown}.
    Yields ``(bit_index, posterior)`` for each input bit in natural
    order; the driver sends back the decided bit values (same batch
    shape), which are then used as partial sums.  Returns the decided
    input block.
    """
    N = leaf_msgs.shape[-1]
    if N == 1:
        posterior = leaf_msgs[..., 0]
        decided = yield (offset, posterior)
        return np.asarray(decided, dtype=np.int8)[..., None]
    a = leaf_msgs[..., 0::2]
    b = leaf_msgs[..., 1::2]
    ua = yield from sc_tree_generator(sym_xor(a, b), offset)
    xa = polar_transform_bits(ua)
    ub = yield from sc_tree_generator(sym_g(a, b, xa), offset + N // 2)
    return np.concatenate([ua, ub], axis=-1)

