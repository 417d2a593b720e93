"""Finite discrete memoryless channels, single- and multi-input.

A channel is a dense transition kernel over a joint input alphabet
(the product of the per-sender alphabets) and a finite output alphabet.
All mutual-information quantities are computed exactly from the kernel;
nothing here is estimated.  Binary erasure channels additionally get a
scalar fast path (see :mod:`polarnet.erasure`).

Conventions
-----------
* Kernels are row-major over joint inputs: row index
  ``x_1 * n_2 * ... * n_K + x_2 * n_3 * ... + x_K``.
* Probabilities are 64-bit floats.  Normalization is asserted at
  construction (tolerance 1e-12), never silently re-normalized.
* All channel objects are immutable after construction and safe to
  share across threads.
"""

from __future__ import annotations

import json
from dataclasses import dataclass, field

import numpy as np

_NORM_TOL = 1e-12
#: refuse kernels larger than this many entries rather than approximate
DEFAULT_KERNEL_CAP = 2**20


class DimensionError(ValueError):
    """Arity mismatch between channel, distribution, or symbol maps."""


class UnsupportedChannelError(ValueError):
    """Operation requires a channel shape this channel does not have."""


class KernelSizeError(ValueError):
    """Resulting kernel would exceed the configured size cap."""


def strict_int(value) -> int:
    """An integer JSON field: an int that is not a bool, or an integral
    float.  Anything else raises TypeError rather than being truncated."""
    if type(value) is int or (type(value) is float and value.is_integer()):
        return int(value)
    raise TypeError(f"not an integer: {value!r}")


def _entropy(p: np.ndarray) -> float:
    """Shannon entropy in bits of a (flattened) probability array."""
    p = np.asarray(p, dtype=float).ravel()
    p = p[p > 0]
    return float(-np.sum(p * np.log2(p)))


@dataclass(frozen=True)
class DiscreteChannel:
    """A discrete memoryless channel with one or more senders.

    Parameters
    ----------
    input_arities:
        Alphabet size of each sender, length K >= 1.
    output_arity:
        Output alphabet size.
    kernel:
        Array of shape ``(prod(input_arities), output_arity)``;
        ``kernel[x, y] = P(y | x)`` with ``x`` the joint input index.
    """

    input_arities: tuple[int, ...]
    output_arity: int
    kernel: np.ndarray = field(repr=False)

    def __post_init__(self):
        arities = tuple(int(a) for a in self.input_arities)
        if not arities or any(a < 1 for a in arities):
            raise DimensionError(f"bad input arities {arities}")
        if self.output_arity < 1:
            raise DimensionError(f"bad output arity {self.output_arity}")
        kernel = np.array(self.kernel, dtype=float)
        expected = (int(np.prod(arities)), self.output_arity)
        if kernel.shape != expected:
            raise DimensionError(
                f"kernel shape {kernel.shape}, expected {expected}")
        if np.any(kernel < 0):
            raise ValueError("kernel entries must be nonnegative")
        rowsums = kernel.sum(axis=1)
        if np.any(np.abs(rowsums - 1.0) > 1e-9):
            raise ValueError("kernel rows must sum to 1")
        kernel.flags.writeable = False
        object.__setattr__(self, "input_arities", arities)
        object.__setattr__(self, "kernel", kernel)

    # -- basic properties ------------------------------------------------

    @property
    def num_senders(self) -> int:
        return len(self.input_arities)

    @property
    def kernel_tensor(self) -> np.ndarray:
        """Kernel reshaped to ``(n_1, ..., n_K, output_arity)``."""
        return self.kernel.reshape(self.input_arities + (self.output_arity,))

    def is_binary_input(self) -> bool:
        return self.input_arities == (2,)

    # -- constructors ----------------------------------------------------

    @classmethod
    def bec(cls, epsilon: float) -> "DiscreteChannel":
        """Binary erasure channel; output symbol 2 is the erasure."""
        if not 0.0 <= epsilon <= 1.0:
            raise ValueError(f"epsilon {epsilon} outside [0, 1]")
        k = np.array([[1 - epsilon, 0.0, epsilon],
                      [0.0, 1 - epsilon, epsilon]])
        return cls((2,), 3, k)

    @classmethod
    def binary_adder(cls, num_senders: int = 2) -> "DiscreteChannel":
        """Noiseless adder MAC: Y = sum of the binary inputs."""
        n = int(num_senders)
        rows = 2**n
        k = np.zeros((rows, n + 1))
        for x in range(rows):
            k[x, bin(x).count("1")] = 1.0
        return cls((2,) * n, n + 1, k)

    @classmethod
    def from_function(cls, input_arities, fn) -> "DiscreteChannel":
        """Deterministic channel from ``fn(*inputs) -> output symbol``."""
        arities = tuple(int(a) for a in input_arities)
        joint = int(np.prod(arities))
        outs = []
        for x in range(joint):
            sym = list(np.unravel_index(x, arities))
            outs.append(int(fn(*sym)))
        arity = max(outs) + 1
        k = np.zeros((joint, arity))
        k[np.arange(joint), outs] = 1.0
        return cls(arities, arity, k)

    # -- serialization ---------------------------------------------------

    @classmethod
    def from_json(cls, text_or_obj) -> "DiscreteChannel":
        """Parse the JSON channel description.

        ``{"inputs":[2,2],"outputs":3,"kernel":[[...]]}`` row-major over
        joint inputs, or the shorthand ``{"type":"bec","epsilon":0.5}``
        (``"erasure"`` is another name for ``"bec"``).  The sizes are
        read with :func:`strict_int`.
        """
        obj = json.loads(text_or_obj) if isinstance(text_or_obj, str) else text_or_obj
        if obj.get("type") in ("bec", "erasure"):
            return cls.bec(float(obj["epsilon"]))
        if not isinstance(obj["inputs"], list):
            raise TypeError(f"inputs must be a list, got {obj['inputs']!r}")
        return cls(tuple(map(strict_int, obj["inputs"])),
                   strict_int(obj["outputs"]),
                   np.array(obj["kernel"], dtype=float))

    def to_json(self) -> dict:
        return {"inputs": list(self.input_arities),
                "outputs": self.output_arity,
                "kernel": self.kernel.tolist()}


@dataclass(frozen=True)
class InputDistribution:
    """Product input distribution, optionally time-shared over Q.

    ``marginals[j][q]`` is the probability vector of sender ``j``
    conditioned on ``Q = q``; ``q_probs`` is the distribution of the
    time-sharing variable (length 1 when there is no time sharing).
    """

    marginals: tuple[np.ndarray, ...]   # each (|Q|, n_j)
    q_probs: np.ndarray                 # (|Q|,)

    def __post_init__(self):
        q = np.array(self.q_probs, dtype=float)
        if np.any(q < 0) or abs(q.sum() - 1.0) > _NORM_TOL:
            raise ValueError("q distribution invalid")
        q.flags.writeable = False
        margs = []
        for m in self.marginals:
            m = np.atleast_2d(np.array(m, dtype=float))
            if m.shape[0] != q.shape[0]:
                raise DimensionError("conditional rows must match |Q|")
            if np.any(m < 0) or np.any(np.abs(m.sum(axis=1) - 1.0) > _NORM_TOL):
                raise ValueError("sender marginal invalid")
            m.flags.writeable = False
            margs.append(m)
        object.__setattr__(self, "marginals", tuple(margs))
        object.__setattr__(self, "q_probs", q)

    @classmethod
    def uniform(cls, input_arities) -> "InputDistribution":
        return cls(tuple(np.full((1, a), 1.0 / a) for a in input_arities),
                   np.array([1.0]))

    @classmethod
    def product(cls, vectors) -> "InputDistribution":
        """Plain product distribution with no time sharing."""
        return cls(tuple(np.atleast_2d(np.asarray(v, float)) for v in vectors),
                   np.array([1.0]))

    @property
    def num_q(self) -> int:
        return len(self.q_probs)


def joint_distribution(ch: DiscreteChannel, p: InputDistribution) -> np.ndarray:
    """Joint law over (Q, X_1, ..., X_K, Y) as a dense tensor."""
    if len(p.marginals) != ch.num_senders:
        raise DimensionError("distribution sender count mismatch")
    for m, a in zip(p.marginals, ch.input_arities):
        if m.shape[1] != a:
            raise DimensionError("sender arity mismatch")
    nq = p.num_q
    shape = (nq,) + ch.input_arities + (ch.output_arity,)
    joint = np.empty(shape)
    kt = ch.kernel_tensor
    for q in range(nq):
        # build p(q) * prod_j p(x_j|q) by outer products
        probs = None
        for j in range(ch.num_senders):
            vec = p.marginals[j][q]
            probs = vec if probs is None else np.multiply.outer(probs, vec)
        probs = np.asarray(probs).reshape(ch.input_arities)
        joint[q] = p.q_probs[q] * probs[..., None] * kt
    return joint


def mutual_information(ch: DiscreteChannel, p: InputDistribution,
                       sender_subset, conditioning_subset=()) -> float:
    """Exact conditional mutual information I(X_J; Y, X_C | Q) in bits.

    ``sender_subset`` (J) and ``conditioning_subset`` (C) are disjoint
    0-based sender index sets; the remaining senders are marginalized
    (treated as noise).
    """
    J = sorted(set(int(j) for j in sender_subset))
    C = sorted(set(int(c) for c in conditioning_subset))
    if set(J) & set(C):
        raise ValueError("sender and conditioning subsets must be disjoint")
    for j in J + C:
        if not 0 <= j < ch.num_senders:
            raise DimensionError(f"sender index {j} out of range")
    joint = joint_distribution(ch, p)
    K = ch.num_senders
    ax_q, ax_y = 0, K + 1
    ax = lambda j: j + 1

    def H(axes) -> float:
        keep = sorted(set(axes))
        drop = tuple(i for i in range(joint.ndim) if i not in keep)
        return _entropy(joint.sum(axis=drop) if drop else joint)

    a_axes = [ax(j) for j in J]
    b_axes = [ax_y] + [ax(c) for c in C]
    hq = H([ax_q])
    return (H(a_axes + [ax_q]) + H(b_axes + [ax_q])
            - H(a_axes + b_axes + [ax_q]) - hq)


def symmetric_capacity(ch: DiscreteChannel) -> float:
    """I(X; Y) under a uniform input; binary single-input channels only."""
    if not ch.is_binary_input():
        raise UnsupportedChannelError("symmetric capacity needs a single binary input")
    return mutual_information(ch, InputDistribution.uniform((2,)), [0])


def bhattacharyya(ch: DiscreteChannel) -> float:
    """Z = sum_y sqrt(P(y|0) P(y|1)); binary single-input channels only."""
    if not ch.is_binary_input():
        raise UnsupportedChannelError("Bhattacharyya needs a single binary input")
    return float(np.sum(np.sqrt(ch.kernel[0] * ch.kernel[1])))


def _check_combine_args(p_ch: DiscreteChannel, q_ch: DiscreteChannel,
                        extra_factor: int):
    for c in (p_ch, q_ch):
        if not c.is_binary_input():
            raise UnsupportedChannelError("combining needs binary-input channels")
    size = 2 * p_ch.output_arity * q_ch.output_arity * extra_factor
    if size > DEFAULT_KERNEL_CAP:
        raise KernelSizeError(f"combined kernel would have {size} entries "
                              f"(cap {DEFAULT_KERNEL_CAP})")


def minus_combine(p_ch: DiscreteChannel,
                  q_ch: DiscreteChannel) -> DiscreteChannel:
    """One-step polar 'minus' pairing of two independent channels.

    Output alphabet Y1 x Y2; kernel
    ``0.5 * sum_{u2} P(y1 | u1 xor u2) Q(y2 | u2)``.
    """
    _check_combine_args(p_ch, q_ch, 1)
    P, Q = p_ch.kernel, q_ch.kernel
    out = np.empty((2, p_ch.output_arity * q_ch.output_arity))
    for u1 in range(2):
        acc = sum(0.5 * np.outer(P[u1 ^ u2], Q[u2]) for u2 in range(2))
        out[u1] = acc.ravel()
    return DiscreteChannel((2,), out.shape[1], out)


def plus_combine(p_ch: DiscreteChannel,
                 q_ch: DiscreteChannel) -> DiscreteChannel:
    """One-step polar 'plus' pairing; output alphabet Y1 x Y2 x {0,1}."""
    _check_combine_args(p_ch, q_ch, 2)
    P, Q = p_ch.kernel, q_ch.kernel
    out = np.empty((2, p_ch.output_arity * q_ch.output_arity * 2))
    for u2 in range(2):
        blocks = [0.5 * np.outer(P[u1 ^ u2], Q[u2]).ravel() for u1 in range(2)]
        # output index = (y1*|Y2| + y2)*2 + u1
        out[u2] = np.stack(blocks, axis=1).ravel()
    return DiscreteChannel((2,), out.shape[1], out)


def coded_time_sharing_transform(ch: DiscreteChannel, q_dist,
                                 symbol_maps) -> DiscreteChannel:
    """Realize a time-sharing variable through shared randomness.

    ``symbol_maps[j]`` has shape ``(n'_j, |Q|)`` and gives the actual
    input symbol ``x_j(x'_j, q)``.  The new channel has inputs
    ``(x'_1, ..., x'_K)`` and output ``(y, q)``; its kernel is
    ``P'(y, q | x') = p(q) P(y | x_1(x'_1,q), ..., x_K(x'_K,q))``.
    """
    q = np.asarray(q_dist, dtype=float)
    if np.any(q < 0) or abs(q.sum() - 1.0) > _NORM_TOL:
        raise ValueError("q distribution invalid")
    nq = len(q)
    maps = [np.atleast_2d(np.asarray(m, dtype=int)) for m in symbol_maps]
    if len(maps) != ch.num_senders:
        raise DimensionError("one symbol map per sender required")
    for m, arity in zip(maps, ch.input_arities):
        if m.shape[1] != nq:
            raise DimensionError("symbol map columns must match |Q|")
        if m.min() < 0 or m.max() >= arity:
            raise DimensionError("symbol map range exceeds channel input arity")
    new_arities = tuple(m.shape[0] for m in maps)
    joint_new = int(np.prod(new_arities))
    out_arity = ch.output_arity * nq
    kt = ch.kernel_tensor
    kernel = np.zeros((joint_new, out_arity))
    for xp in range(joint_new):
        sym = np.unravel_index(xp, new_arities)
        for qi in range(nq):
            actual = tuple(int(maps[j][sym[j], qi]) for j in range(ch.num_senders))
            # output index = q * |Y| + y
            kernel[xp, qi * ch.output_arity:(qi + 1) * ch.output_arity] = (
                q[qi] * kt[actual])
    return DiscreteChannel(new_arities, out_arity, kernel)
