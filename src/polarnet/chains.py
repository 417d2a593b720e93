"""Monotone chain rules for K-user MACs.

A monotone path is a sequence over user ids in which the j-th
occurrence of user u stands for that user's j-th transformed bit.
:class:`MonotonePath` keeps it as runs ``(user, length)``, as in
``1^i 2^N 1^(N-i)``; its slot map and, where a reader needs it, its
K·N user sequence are derived from the runs.  Rate evaluation, the
two-user sweep construction, and the K-user recursive split all run on
exact entropy evaluators from :mod:`polarnet.exact`.
"""

from __future__ import annotations

import re
from dataclasses import dataclass
from functools import cached_property

import numpy as np

from .channels import DiscreteChannel, KernelSizeError, UnsupportedChannelError
from .erasure import ParityLinkedErasureMAC, two_user_adder_equivalent
from .exact import (
    ADDER3_MAX_BITS,
    Adder3Evaluator,
    BruteForceEvaluator,
    ParityLinkedEvaluator,
)


class PreconditionError(ValueError):
    pass


#: log2 of the largest size a run may ask for: 2^n bit-channels, Monte
#: Carlo trials x 2^n samples, a path blocklength N or a code length
#: M = 2^k N.  Larger sizes raise PreconditionError before any allocation.
SIZE_CAP_LOG2 = 20


def check_size(what: str, log2: int, factor: int = 1) -> None:
    """Raise PreconditionError if ``factor * 2**log2`` exceeds the cap."""
    if log2 > SIZE_CAP_LOG2 or factor * 2**log2 > 2**SIZE_CAP_LOG2:
        raise PreconditionError(
            f"{what} exceeds the size cap 2^{SIZE_CAP_LOG2}")


class NotFoundError(RuntimeError):
    def __init__(self, msg, best_gap=None):
        super().__init__(msg)
        self.best_gap = best_gap


@dataclass(frozen=True)
class MonotonePath:
    """Runs ``(user, length)`` of a path b^{KN} in which each user appears
    N times; zero-length runs are dropped, a user's adjacent runs merged."""

    runs: tuple[tuple[int, int], ...]
    num_users: int

    def __post_init__(self):
        runs, counts = [], {}
        for u, r in self.runs:
            u, r = int(u), int(r)
            if r < 0:
                raise ValueError("run lengths must be non-negative")
            if r:
                counts[u] = counts.get(u, 0) + r
                if runs and runs[-1][0] == u:
                    r += runs.pop()[1]
                runs.append((u, r))
        object.__setattr__(self, "runs", tuple(runs))
        users = range(1, self.num_users + 1)   # not a set: K may be huge
        if len(counts) != len(users) or not all(u in users for u in counts):
            raise ValueError("user ids must be exactly 1..K")
        if len(set(counts.values())) != 1:
            raise ValueError("every user must appear equally often")

    @property
    def blocklength(self) -> int:
        return sum(r for _, r in self.runs) // self.num_users

    @cached_property
    def user_sequence(self) -> tuple[int, ...]:
        """The K·N user ids in path order, built on first read."""
        return tuple(u for u, r in self.runs for _ in range(r))

    @cached_property
    def positions(self) -> np.ndarray:
        """Read-only (K, N) slot map: ``positions[j - 1, i - 1]`` is the
        path slot of user j's bit i, so each row increases."""
        start = np.cumsum([0] + [r for _, r in self.runs])
        order = sorted(range(len(self.runs)), key=lambda k: self.runs[k][0])
        pos = np.concatenate([np.arange(start[k], start[k + 1]) for k in order])
        pos = pos.reshape(self.num_users, self.blocklength)
        pos.flags.writeable = False
        return pos

    def serialize(self) -> str:
        return " ".join(f"{u}^{r}" for u, r in self.runs)

    @classmethod
    def parse(cls, text: str, num_users: int | None = None) -> "MonotonePath":
        runs = []
        for token in text.split():
            m = re.fullmatch(r"(\d+)\^(\d+)", token)
            if not m:
                raise ValueError(f"bad run token {token!r}")
            runs.append((int(m.group(1)), int(m.group(2))))
        return cls(tuple(runs), num_users or max(u for u, r in runs if r))

    def scaled(self, factor: int) -> "MonotonePath":
        """Multiply every run length by a power-of-two factor."""
        if factor < 1 or factor & (factor - 1):
            raise ValueError("scale factor must be a power of two")
        return MonotonePath(tuple((u, r * factor) for u, r in self.runs),
                            self.num_users)


def two_user_path(i: int, N: int) -> MonotonePath:
    """The split form: i symbols of user 1, all of user 2, the rest of 1."""
    return MonotonePath(((1, i), (2, N), (1, N - i)), 2)


def make_evaluator(mac, N: int):
    """Pick an exact entropy evaluator for the MAC at blocklength N."""
    if isinstance(mac, ParityLinkedErasureMAC):
        return ParityLinkedEvaluator(mac, N)
    if isinstance(mac, DiscreteChannel):
        K = mac.num_senders
        if K == 2 and _is_adder(mac, 2):
            return ParityLinkedEvaluator(two_user_adder_equivalent(), N)
        if K == 3 and _is_adder(mac, 3) and 2 * N <= ADDER3_MAX_BITS:
            return Adder3Evaluator(N)
        return BruteForceEvaluator(mac, N)
    raise UnsupportedChannelError(f"no evaluator for {type(mac).__name__}")


def _is_adder(mac: DiscreteChannel, K: int) -> bool:
    ref = DiscreteChannel.binary_adder(K)
    return (
        mac.input_arities == ref.input_arities
        and mac.output_arity == ref.output_arity
        and np.allclose(mac.kernel, ref.kernel)
    )


@dataclass(frozen=True)
class PathRateProfile:
    per_index_mi: tuple[float, ...]
    rate_tuple: tuple[float, ...]
    mode: str = "exact-erasure"

    @property
    def sum_rate(self) -> float:
        return float(sum(self.rate_tuple))


def path_rates(mac, path: MonotonePath, evaluator=None) -> PathRateProfile:
    """Per-index conditional MIs and per-user rates of a monotone path.

    A path whose user count differs from the MAC's raises
    PreconditionError, and so does one that does not fit a parity-linked
    MAC or the 2-user binary adder in its parity-linked form.
    """
    N = path.blocklength
    K = path.num_users
    if N & (N - 1):
        raise PreconditionError(f"path blocklength {N} is not a power of two")
    check_size(f"path blocklength N = {N}", N.bit_length() - 1)
    if isinstance(mac, ParityLinkedErasureMAC) and N % len(mac.eps_tile):
        raise PreconditionError(
            f"path blocklength {N} is not a multiple of the erasure "
            f"tile length {len(mac.eps_tile)}")
    ev = evaluator or make_evaluator(mac, N)
    if K != ev.K:
        raise PreconditionError(f"path has {K} users, the MAC has {ev.K}")
    if isinstance(ev, ParityLinkedEvaluator):
        mi = ev.mac.path_mi_profile(path)
        mode = "exact-erasure"
    else:
        mi = _path_mi(ev, path)
        mode = "exact-enumeration"
    return PathRateProfile(tuple(float(v) for v in mi),
                           _user_rates(path, mi), mode)


def _path_mi(ev, path: MonotonePath) -> np.ndarray:
    """I(S_i; Y^N | S^{i-1}) along the path, one chain-rule step each."""
    lens = [0] * ev.K
    prev = ev.cond_entropy(lens)
    mi = np.empty(len(path.user_sequence))
    for i, u in enumerate(path.user_sequence):
        lens[u - 1] += 1
        cur = ev.cond_entropy(lens)
        mi[i] = 1.0 - (cur - prev)
        prev = cur
    return mi


def _user_rates(path: MonotonePath, mi: np.ndarray) -> tuple[float, ...]:
    """Per-user rates: each user's MIs summed in path order, over N."""
    # bincount adds the weights in order, as a running sum per user would
    rates = np.bincount(np.asarray(path.user_sequence) - 1, weights=mi,
                        minlength=path.num_users) / path.blocklength
    return tuple(float(r) for r in rates)


def _sum_rate(ev) -> float:
    """(1/N) I(all inputs; Y^N) per channel use at the evaluator's N."""
    return ev.K - ev.cond_entropy((ev.N,) * ev.K) / ev.N


def sum_capacity(mac, N: int = 4, evaluator=None) -> float:
    """(1/N) I(all inputs; Y^N) per channel use."""
    if isinstance(mac, ParityLinkedErasureMAC):
        return mac.sum_capacity()
    return _sum_rate(evaluator or make_evaluator(mac, N))


def _search(mac, target, eps: float, N_min: int, N_max: int, solve):
    """Double N from N_min to N_max until a split lands within eps.

    ``solve(ev, target, sum_rate)`` returns a split at the evaluator's N
    and its largest rate gap.  Blocklengths past the evaluators' reach
    end the search, and the NotFoundError names the first one.
    """
    if eps <= 0:
        raise PreconditionError("eps must be positive")
    target = tuple(float(t) for t in target)
    best_gap = None
    limit = ""
    N = N_min
    while N <= N_max:
        try:
            ev = make_evaluator(mac, N)
        except KernelSizeError as e:
            limit = f"; no evaluator at N={N}: {e}"
            break
        srate = _sum_rate(ev)
        if abs(srate - sum(target)) > eps / 2:
            raise PreconditionError(
                f"target sum {sum(target):.6f} differs from sum capacity "
                f"{srate:.6f} by more than eps/2"
            )
        result, gap = solve(ev, target, srate)
        if best_gap is None or gap < best_gap:
            best_gap = gap
        if gap < eps:
            return result
        N *= 2
    if best_gap is None:
        raise NotFoundError("no evaluator available for any blocklength" + limit)
    raise NotFoundError(
        f"no split within eps={eps} up to N={N // 2}{limit}", best_gap=best_gap
    )


def find_two_user_split(mac, target, eps: float, N_max: int,
                        N_min: int = 4) -> MonotonePath:
    """Find (1^i, 2^N, 1^{N-i}) approximating a dominant-face rate pair.

    Sweeps i upward; the first rate moves by at most 1/N per step, so a
    fine enough blocklength always lands within eps of the target.
    """
    def solve(ev, target, srate):
        # R_2(i) = (1/N) I(V^N; Y, U^i); R_1 = sum rate - R_2
        N = ev.N
        h_u = ev.sweep_entropies((0, 0), 1)          # H(U^i | Y)
        h_uv = ev.sweep_entropies((0, N), 1)         # H(U^i, V^N | Y)
        r2 = (N - (h_uv - h_u)) / N
        gaps = np.maximum(np.abs(srate - r2 - target[0]),
                          np.abs(r2 - target[1]))
        i = int(np.argmin(gaps))
        return two_user_path(i, N), float(gaps[i])

    return _search(mac, target, eps, N_min, N_max, solve)


@dataclass
class SplitDecision:
    """One tightness decision of the recursive K-user construction."""

    lead: int
    i0: int
    subset: tuple[int, ...]
    lhs: float
    rhs: float
    context: tuple[int, ...]  # per-user consumed prefix before this sweep


@dataclass
class KUserSplit:
    path: MonotonePath
    rates: tuple[float, ...]
    targets: tuple[float, ...]
    decisions: list[SplitDecision]
    projected: bool = False

    @property
    def max_gap(self) -> float:
        return max(abs(r - t) for r, t in zip(self.rates, self.targets))


def find_k_user_split(mac, target, eps: float, N_max: int,
                      N_min: int = 4) -> KUserSplit:
    """Recursive construction of a K-user monotone path for a face target.

    Sweeps the lead user's prefix until some subset constraint over the
    remaining users becomes tight (loose equality within 1/N), recurses
    on the tight subset with the lead prefix added to the output, then
    on the complement with the subset's full blocks added, and cascades
    the pieces.  Ties among simultaneously tight subsets are broken by
    smallest cardinality, then lexicographically.
    """
    def solve(ev, target, srate):
        # project small dominance slack onto the face via user 1
        slack = srate - sum(target)
        work_target = list(target)
        work_target[0] += max(slack, 0.0)
        result = _solve_split(ev, work_target)
        result.targets = target
        result.projected = slack > 1e-12
        return result, result.max_gap

    return _search(mac, target, eps, N_min, N_max, solve)


def _solve_split(ev, targets_in) -> KUserSplit:
    N = ev.N
    K = ev.K
    ctx = [0] * K
    remaining = {u: float(t) for u, t in enumerate(targets_in, start=1)}
    decisions: list[SplitDecision] = []
    runs: list[tuple[int, int]] = []

    def emit(user, count):
        runs.append((user, count))
        ctx[user - 1] += count

    def lead_gain(user, new_len):
        old = ctx[user - 1]
        h_old = ev.cond_entropy(ctx)
        probe = list(ctx)
        probe[user - 1] = new_len
        h_new = ev.cond_entropy(probe)
        return ((new_len - old) - (h_new - h_old)) / N

    def solve(active):
        if not active:
            return
        if len(active) == 1:
            emit(active[0], N - ctx[active[0] - 1])
            return
        lead = active[0]
        others = active[1:]
        subsets = []
        for mask in range(1, 1 << len(others)):
            subsets.append(tuple(others[b] for b in range(len(others)) if mask >> b & 1))
        subsets.sort(key=lambda s: (len(s), s))
        start = ctx[lead - 1]
        sweep = {}
        base = list(ctx)
        h_lead = ev.sweep_entropies(base, lead)
        for s in subsets:
            with_s = list(ctx)
            for u in s:
                with_s[u - 1] = N
            h_both = ev.sweep_entropies(with_s, lead)
            sweep[s] = (len(s) * N - (h_both - h_lead)) / N
        i0, j0 = None, None
        for a in range(start, N + 1):
            for s in subsets:
                if sweep[s][a] >= sum(remaining[u] for u in s) - 1e-9:
                    i0, j0 = a, s
                    break
            if i0 is not None:
                break
        if i0 is None:
            # numerically the full-set constraint is tight at a = N
            i0, j0 = N, tuple(others)
        rhs = sum(remaining[u] for u in j0)
        # both the crossing step and its predecessor satisfy the loose
        # equality (increments are at most 1/N); take the closer one
        if i0 > start and abs(sweep[j0][i0 - 1] - rhs) < abs(sweep[j0][i0] - rhs):
            i0 -= 1
        lhs = float(sweep[j0][i0])
        decisions.append(SplitDecision(lead, i0, j0, lhs, rhs, tuple(ctx)))
        gain = lead_gain(lead, i0)
        emit(lead, i0 - ctx[lead - 1])
        remaining[lead] -= gain
        solve(list(j0))
        rest = [u for u in others if u not in j0]
        if ctx[lead - 1] < N:
            solve([lead] + rest)
        else:
            solve(rest)

    solve(sorted(remaining))
    path = MonotonePath(tuple(runs), K)
    return KUserSplit(path, _user_rates(path, _path_mi(ev, path)),
                      tuple(targets_in), decisions)
