"""Exact multi-user conditional entropy evaluators.

All monotone chain-rule quantities reduce to conditional entropies of
per-user transformed-prefix collections given the channel output block,

    H(U_1^{a_1}, ..., U_K^{a_K} | Y^N),

so every evaluator exposes ``cond_entropy(prefix_lens)`` plus a
single-sort ``sweep_entropies`` that returns the whole curve in one
user's prefix length.  Three backends:

- ``BruteForceEvaluator``: enumerates all input vectors of a K-user
  binary-input MAC with a deterministic output map (the validation
  reference; feasible up to K*N around 24).
- ``Adder3Evaluator``: the three-user binary adder reduced to a
  two-coordinate enumeration, exact and fast at N = 8.
- ``ParityLinkedEvaluator``: closed form for the parity-linked erasure
  family at any blocklength.
"""

from __future__ import annotations

import numpy as np

from .channels import DiscreteChannel, UnsupportedChannelError, KernelSizeError
from .erasure import ParityLinkedErasureMAC, polar_transform_bits


class _Scratch:
    """Work arrays for the queries of one evaluator over M keys.

    Every query builds, sorts and run-counts M-entry arrays.  Kept for
    the evaluator's life, these arrays are written in place, so a query
    allocates only its run boundaries: freshly allocated temporaries of
    this size would cost page faults whose number depends on the
    allocator's history, which makes equal queries take unequal times.
    """

    def __init__(self, M: int):
        self.key = np.empty(M, dtype=np.uint64)
        self.shifted = np.empty(M, dtype=np.uint64)
        self.prefix = np.empty(M, dtype=np.uint32)
        self.edge = np.ones(M + 1, dtype=bool)  # edge[0] and edge[M] stay set
        self.counts = np.empty(M)
        self.logs = np.empty(M)

    def entropy(self, keys: np.ndarray) -> float:
        """H of the empirical (uniform-weight) distribution of M sorted keys, bits."""
        M = len(keys)
        np.not_equal(keys[1:], keys[:-1], out=self.edge[1:M])
        bounds = np.flatnonzero(self.edge)
        runs = len(bounds) - 1
        counts = self.counts[:runs]
        np.subtract(bounds[1:], bounds[:-1], out=counts)
        logs = np.log2(counts, out=self.logs[:runs])
        # numpy's own pairwise sum, not BLAS: a dot product's rounding
        # would depend on the BLAS thread count
        np.multiply(counts, logs, out=logs)
        return float(np.log2(M) - logs.sum() / M)


def _transform_table(N: int) -> np.ndarray:
    """tab[v] = integer whose bits are the polar transform of v's bits.

    Bit k of v (LSB first) holds coordinate k+1 of the length-N vector;
    same layout for the output.
    """
    vals = np.arange(1 << N, dtype=np.uint32)
    bits = ((vals[:, None] >> np.arange(N, dtype=np.uint32)) & 1).astype(np.int8)
    tbits = polar_transform_bits(bits)
    return (tbits.astype(np.uint64) << np.arange(N, dtype=np.uint64)).sum(axis=1)


def _reversal_table(N: int) -> np.ndarray:
    """rev[v] = v's N bits in reverse order, coordinate 1 in the high bit.

    Packing coordinate 1 into the high bit makes every prefix a prefix
    of the packed integer, so one sort serves all prefix lengths.
    """
    vals = np.arange(1 << N, dtype=np.uint32)
    rev = np.zeros_like(vals)
    for k in range(N):
        rev |= ((vals >> np.uint32(k)) & np.uint32(1)) << np.uint32(N - 1 - k)
    return rev


# Input bits an evaluator enumerates at most: BruteForceEvaluator holds
# 2^(K N) keys, Adder3Evaluator 2^(2 N).
BRUTE_FORCE_MAX_BITS = 24
ADDER3_MAX_BITS = 20


class BruteForceEvaluator:
    """Exact entropies for a K-user binary-input deterministic-output MAC."""

    def __init__(self, mac: DiscreteChannel, N: int):
        K = mac.num_senders
        if mac.input_arities != (2,) * K:
            raise UnsupportedChannelError("binary sender inputs required")
        if N & (N - 1):
            raise KernelSizeError("blocklength must be a power of two")
        if K * N > BRUTE_FORCE_MAX_BITS:
            raise KernelSizeError(f"{K}*{N} input bits exceed the enumeration cap")
        onehot = np.isclose(mac.kernel.max(axis=1), 1.0)
        if not onehot.all():
            raise UnsupportedChannelError("deterministic output map required")
        self.K, self.N = K, N
        self.mac = mac
        ymap = mac.kernel.argmax(axis=1)  # joint input index -> output symbol
        tab = _transform_table(N)
        M = 1 << (K * N)
        idx = np.arange(M, dtype=np.uint64)
        mask = np.uint64((1 << N) - 1)
        # user j occupies bits [ (j-1)N, jN ), coordinate k+1 of u at bit k
        u_fields = [(idx >> np.uint64((j) * N)) & mask for j in range(K)]
        x_fields = [tab[f.astype(np.uint32)].astype(np.uint64) for f in u_fields]
        y_idx = np.zeros(M, dtype=np.uint64)
        ny = np.uint64(mac.output_arity)
        for t in range(N):
            joint = np.zeros(M, dtype=np.uint64)
            for j in range(K):
                joint |= ((x_fields[j] >> np.uint64(t)) & np.uint64(1)) << np.uint64(j)
            y_idx = y_idx * ny + ymap[joint.astype(np.int64)].astype(np.uint64)
        self._y = y_idx
        # prefix fields packed MSB-first per user
        rev = _reversal_table(N)
        self._pref = [rev[f.astype(np.uint32)] for f in u_fields]
        del u_fields, x_fields
        self._scratch = _Scratch(M)
        self._h_y = self._scratch.entropy(np.sort(y_idx))

    def _key(self, prefix_lens) -> np.ndarray:
        """Keys of the query (output, then each user's prefix), unsorted.

        They are written into the scratch key array, which the next
        query overwrites; an evaluator serves one query at a time.
        """
        key, prefix = self._scratch.key, self._scratch.prefix
        np.copyto(key, self._y)
        for j, a in enumerate(prefix_lens):
            if a:
                key <<= np.uint64(a)
                np.right_shift(self._pref[j], np.uint32(self.N - a), out=prefix)
                key |= prefix
        return key

    def cond_entropy(self, prefix_lens) -> float:
        """H(U_1^{a_1}, ..., U_K^{a_K} | Y^N) in bits."""
        key = self._key(prefix_lens)
        key.sort()
        return self._scratch.entropy(key) - self._h_y

    def sweep_entropies(self, base_prefix_lens, sweep_user: int) -> np.ndarray:
        """cond_entropy with user ``sweep_user`` (1-based) at every length 0..N.

        The sweep user's prefix must extend its base value; others fixed.
        """
        base = list(base_prefix_lens)
        j = sweep_user - 1
        base[j] = 0
        key = self._key(base)
        key <<= np.uint64(self.N)
        key |= self._pref[j]
        key.sort()
        shifted = self._scratch.shifted
        out = np.empty(self.N + 1)
        for a in range(self.N + 1):
            np.right_shift(key, np.uint64(self.N - a), out=shifted)
            out[a] = self._scratch.entropy(shifted) - self._h_y
        return out


class Adder3Evaluator:
    """The three-user binary adder MAC, reduced to an exact enumeration.

    With A = X1^X2^X3, B = X1^X2, C = X2^X3 (a uniform linear bijection),
    the output given A is exactly the indicator of B_t = C_t = 0 per
    position, and the users' transforms differ from the transforms of
    C, B^C, B only by known offsets.  Enumerating (B, C) therefore gives
    all entropies over a space of size 4^N.
    """

    K = 3

    def __init__(self, N: int):
        if N & (N - 1):
            raise KernelSizeError("blocklength must be a power of two")
        if 2 * N > ADDER3_MAX_BITS:
            raise KernelSizeError("blocklength too large for enumeration")
        self.N = N
        tab = _transform_table(N)
        b = np.repeat(np.arange(1 << N, dtype=np.uint32), 1 << N)
        c = np.tile(np.arange(1 << N, dtype=np.uint32), 1 << N)
        full = np.uint32((1 << N) - 1)
        pattern = (~(b | c)) & full  # positions where all senders agree
        self._y = pattern
        rev = _reversal_table(N)[tab]
        self._pref = [rev[c], rev[b ^ c], rev[b]]
        self._scratch = _Scratch(1 << (2 * N))
        self._h_y = self._scratch.entropy(np.sort(self._y))

    _key = BruteForceEvaluator._key
    cond_entropy = BruteForceEvaluator.cond_entropy
    sweep_entropies = BruteForceEvaluator.sweep_entropies


class ParityLinkedEvaluator:
    """Closed-form entropies for the parity-linked erasure family."""

    def __init__(self, mac: ParityLinkedErasureMAC, N: int):
        self.mac = mac
        self.K = mac.num_users
        self.N = N
        self._cum = np.concatenate([[0.0], np.cumsum(mac.tree_eps(N))])

    def cond_entropy(self, prefix_lens) -> float:
        top = max(prefix_lens) if len(prefix_lens) else 0
        return float(self._cum[top])

    def sweep_entropies(self, base_prefix_lens, sweep_user: int) -> np.ndarray:
        base = list(base_prefix_lens)
        base[sweep_user - 1] = 0
        rest = max(base) if base else 0
        tops = np.maximum(np.arange(self.N + 1), rest)
        return self._cum[tops]
