"""Point-to-point bit-channel synthesis and index classification.

Indexing convention: the polar transform
:func:`~polarnet.erasure.polar_transform_bits` computes x = u G with
the 2x2 kernel [[1,0],[1,1]] and bit-reversal folded in, so public
index i (1-based) always refers to the bit U_i decoded i-th under
successive cancellation.  Index 1 is the all-minus bit-channel.
"""

from __future__ import annotations

import csv
import io
from dataclasses import dataclass

import numpy as np

from .chains import check_size
from .channels import DiscreteChannel, UnsupportedChannelError
from .erasure import bec_bit_channel_eps, polar_transform_bits


class ConfigurationError(Exception):
    pass


@dataclass(frozen=True)
class BitChannelStat:
    """Quality of one synthesized bit-channel."""

    index: int  # 1-based
    mi: float
    z: float | None = None
    mode: str = "exact-erasure"
    sample_count: int = 0


@dataclass(frozen=True)
class EstimatorConfig:
    trials: int = 10_000
    seed: int = 0


def _erasure_profile(ch) -> float | None:
    """Equivalent erasure probability if the channel is erasure-type."""
    if not isinstance(ch, DiscreteChannel):
        return None
    if ch.input_arities != (2,):
        return None
    p0, p1 = ch.kernel[0], ch.kernel[1]
    eps = 0.0
    for y in range(ch.output_arity):
        a, b = p0[y], p1[y]
        if abs(a - b) <= 1e-12:
            eps += a
        elif min(a, b) > 1e-12:
            return None
    return eps


def synthesize_p2p(ch, n: int, config: EstimatorConfig | None = None,
                   mode: str = "auto"):
    """Stats of the N = 2^n synthesized bit-channels of a binary-input channel.

    Erasure-type channels use the exact recursion; anything else is
    estimated by genie-aided successive cancellation over sampled
    transmissions (deterministic given the config seed).  ``mode`` can
    force "exact" (erasure-type channels only) or "mc".
    """
    if mode not in ("auto", "exact", "mc"):
        raise ConfigurationError(f"unknown synthesis mode {mode!r}")
    eps = _erasure_profile(ch)
    if mode == "exact" and eps is None:
        raise UnsupportedChannelError(
            "exact synthesis requires an erasure-type channel")
    if eps is not None and mode != "mc":
        check_size(f"2^n with n = {n}", n)
        z = bec_bit_channel_eps(eps, n)
        return [
            BitChannelStat(i + 1, 1.0 - z[i], z[i], "exact-erasure", 0)
            for i in range(len(z))
        ]
    if not isinstance(ch, DiscreteChannel) or ch.input_arities != (2,):
        raise UnsupportedChannelError("binary-input channel required")
    config = config or EstimatorConfig()
    if config.trials <= 0:
        raise ConfigurationError("sampled estimation requires a positive trial budget")
    check_size(f"trials x 2^n = {config.trials} x 2^{n}", n, config.trials)
    return _monte_carlo_stats(ch, n, config)


def _prob_f(a, b):
    # a, b: (..., 2) likelihood pairs normalized to sum 1
    out = np.empty_like(a)
    out[..., 0] = a[..., 0] * b[..., 0] + a[..., 1] * b[..., 1]
    out[..., 1] = a[..., 0] * b[..., 1] + a[..., 1] * b[..., 0]
    return out


def _prob_g(a, b, ua):
    flip = (ua == 1)[..., None]
    a_adj = np.where(flip, a[..., ::-1], a)
    out = a_adj * b
    s = out.sum(axis=-1, keepdims=True)
    safe = np.where(s > 0, s, 1.0)
    return out / safe


def _genie_prob_posteriors(leaf_probs, true_u):
    """P(u_i | y, true prefix) for every bit, batched over axis 0."""
    N = leaf_probs.shape[-2]
    if N == 1:
        post = leaf_probs[..., 0, :]
        return post[..., None, :]
    a = leaf_probs[..., 0::2, :]
    b = leaf_probs[..., 1::2, :]
    ua = true_u[..., : N // 2]
    post_a = _genie_prob_posteriors(_prob_f(a, b), ua)
    xa = polar_transform_bits(ua)
    post_b = _genie_prob_posteriors(
        _prob_g(a, b, xa), true_u[..., N // 2:]
    )
    return np.concatenate([post_a, post_b], axis=-2)


def _monte_carlo_stats(ch: DiscreteChannel, n: int, config: EstimatorConfig):
    N = 1 << n
    T = config.trials
    rng = np.random.Generator(np.random.Philox(key=config.seed))
    u = rng.integers(0, 2, size=(T, N), dtype=np.int8)
    x = polar_transform_bits(u)
    # sample y per position from the kernel rows
    cdf = np.cumsum(ch.kernel, axis=1)
    r = rng.random(size=(T, N))
    y = (r[..., None] > cdf[x][..., :-1]).sum(axis=-1)
    leaf = ch.kernel.T[y]  # (T, N, 2) likelihoods P(y|0), P(y|1)
    s = leaf.sum(axis=-1, keepdims=True)
    leaf = leaf / np.where(s > 0, s, 1.0)
    post = _genie_prob_posteriors(leaf, u)
    p_true = np.take_along_axis(post, u[..., None].astype(np.int64), axis=-1)[..., 0]
    p_true = np.clip(p_true, 1e-300, 1.0)
    p_err = 1.0 - p_true
    with np.errstate(divide="ignore", invalid="ignore"):
        hb = -np.where(p_true > 0, p_true * np.log2(p_true), 0.0) - np.where(
            p_err > 0, p_err * np.log2(p_err), 0.0
        )
    mi = 1.0 - hb.mean(axis=0)
    return [
        BitChannelStat(i + 1, float(np.clip(mi[i], 0.0, 1.0)), None, "monte-carlo", T)
        for i in range(N)
    ]


@dataclass(frozen=True)
class IndexClassification:
    """Four-way compatibility split of indices across two channels.

    type_II indices are good for the first channel but bad for the
    second; type_III the reverse.  Indices that are neither good nor bad
    for one of the channels belong to no type set.
    """

    good_y: frozenset
    bad_y: frozenset
    good_z: frozenset
    bad_z: frozenset
    thresholds: tuple[float, float] = (0.99, 0.01)

    @property
    def type_I(self) -> frozenset:
        return self.good_y & self.good_z

    @property
    def type_II(self) -> frozenset:
        return self.good_y & self.bad_z

    @property
    def type_III(self) -> frozenset:
        return self.bad_y & self.good_z

    @property
    def type_IV(self) -> frozenset:
        return self.bad_y & self.bad_z


def classify(mi_y, mi_z, delta_good: float = 0.99, delta_bad: float = 0.01):
    """Threshold two per-index MI vectors into the four compatibility sets.

    Entry i of each vector is the MI of index i + 1.
    """
    if len(mi_y) != len(mi_z):
        raise ValueError("MI vectors must have equal length")
    if not 0 < delta_bad <= delta_good < 1:
        raise ConfigurationError("need 0 < delta_bad <= delta_good < 1")
    mi_y = np.asarray(mi_y, dtype=float)
    mi_z = np.asarray(mi_z, dtype=float)

    def indices(mask):
        return frozenset((np.flatnonzero(mask) + 1).tolist())

    return IndexClassification(
        indices(mi_y > delta_good), indices(mi_y < delta_bad),
        indices(mi_z > delta_good), indices(mi_z < delta_bad),
        (delta_good, delta_bad),
    )


def stats_to_csv(stats) -> str:
    buf = io.StringIO()
    w = csv.writer(buf, lineterminator="\n")
    w.writerow(["index", "mi", "z", "mode", "samples"])
    for s in stats:
        w.writerow([s.index, repr(float(s.mi)),
                    "" if s.z is None else repr(float(s.z)),
                    s.mode, s.sample_count])
    return buf.getvalue()
